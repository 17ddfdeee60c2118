"""Steps 2–3: high-level metric construction and scenario grouping.

The Analyzer standardises the refined metrics, extracts principal
components (the high-level metrics of Figure 8), keeps enough PCs to
explain the configured variance target (Figure 7), whitens them so every
PC carries equal weight, sweeps K-means cluster counts scoring SSE and
silhouette (Figure 9), and finally groups the scenarios.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..stats.kmeans import KMeans, KMeansResult
from ..stats.pca import PCA, PCAResult
from ..stats.preprocessing import StandardScaler, whiten
from ..stats.silhouette import ClusterQualitySweep, knee_point, sweep_cluster_counts
from .refinement import RefinedDataset

__all__ = ["AnalyzerConfig", "AnalysisResult", "Analyzer"]


@dataclass(frozen=True)
class AnalyzerConfig:
    """Tuning knobs of the Analyzer.

    Attributes
    ----------
    variance_target:
        Keep the smallest number of PCs whose cumulative explained
        variance reaches this ratio (paper: 0.95 → 18 PCs).
    n_components:
        Explicit PC count; overrides ``variance_target`` when set.
    cluster_counts:
        Candidate k values for the quality sweep (Figure 9).
    n_clusters:
        Explicit cluster count; skips knee selection when set (the paper
        settles on 18 after inspecting the sweep).
    kmeans_restarts / kmeans_max_iter:
        K-means robustness knobs.
    weight_samples:
        Weight scenarios by observation time during clustering.  Off by
        default — the paper clusters scenario *behaviours* equally and
        uses weights only when summarising impacts.
    seed:
        Seed for k-means initialisation.
    """

    variance_target: float = 0.95
    n_components: int | None = None
    cluster_counts: tuple[int, ...] = tuple(range(2, 41, 2))
    n_clusters: int | None = None
    kmeans_restarts: int = 8
    kmeans_max_iter: int = 300
    weight_samples: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 < self.variance_target <= 1.0:
            raise ValueError("variance_target must be in (0, 1]")
        if self.n_components is not None and self.n_components < 1:
            raise ValueError("n_components must be >= 1")
        if self.n_clusters is not None and self.n_clusters < 2:
            raise ValueError("n_clusters must be >= 2")
        if not self.cluster_counts and self.n_clusters is None:
            raise ValueError(
                "cluster_counts must be non-empty when n_clusters is None"
            )


@dataclass(frozen=True)
class AnalysisResult:
    """Everything the Analyzer derives from a refined dataset.

    Attributes
    ----------
    refined:
        The input dataset (for provenance).  ``None`` for out-of-core
        fits, which never materialise the full refined matrix.
    scaler:
        Fitted standardiser (raw metric space).
    pca:
        Full PCA decomposition of the standardised metrics.
    n_components:
        PCs retained as high-level metrics.
    scores:
        Whitened PC scores, shape ``(n_scenarios, n_components)`` — the
        space clustering happens in.  ``None`` for out-of-core fits;
        representative extraction then works from the per-point
        assignments instead.
    sweep:
        Cluster-quality sweep data (None when k was fixed by config).
    kmeans:
        Final clustering at the chosen k.
    cluster_weights:
        Observation-time weight of each cluster (sums to 1) — the paper's
        per-group weights used for impact averaging.
    """

    refined: RefinedDataset | None
    scaler: StandardScaler
    pca: PCAResult
    n_components: int
    scores: np.ndarray | None
    score_mean: np.ndarray
    score_std: np.ndarray
    sweep: ClusterQualitySweep | None
    kmeans: KMeansResult
    cluster_weights: np.ndarray

    @property
    def n_clusters(self) -> int:
        return self.kmeans.n_clusters

    def project(self, refined_matrix: np.ndarray) -> np.ndarray:
        """Map new refined-metric rows into the fitted whitened PC space.

        Applies the fitted standardiser, PCA basis and whitening statistics
        — the out-of-sample path used to classify scenarios observed later
        (e.g. under a new scheduler, §5.6).
        """
        standardised = self.scaler.transform(refined_matrix)
        raw_scores = standardised @ self.pca.components[: self.n_components].T
        centred = raw_scores - self.score_mean
        out = np.zeros_like(centred)
        live = self.score_std > 1e-12
        out[:, live] = centred[:, live] / self.score_std[live]
        return out

    def classify(self, refined_matrix: np.ndarray) -> np.ndarray:
        """Assign new refined-metric rows to the fitted clusters."""
        projected = self.project(refined_matrix)
        from ..stats.distance import pairwise_sq_euclidean

        dist = pairwise_sq_euclidean(projected, self.kmeans.centroids)
        return np.argmin(dist, axis=1)

    @property
    def labels(self) -> np.ndarray:
        return self.kmeans.labels

    def members_of(self, cluster_id: int) -> np.ndarray:
        """Scenario indices assigned to *cluster_id*."""
        if not 0 <= cluster_id < self.n_clusters:
            raise ValueError(f"cluster_id {cluster_id} out of range")
        return np.flatnonzero(self.kmeans.labels == cluster_id)

    def explained_variance_at(self, n: int) -> float:
        """Cumulative explained-variance ratio of the first *n* PCs."""
        if not 1 <= n <= self.pca.explained_variance_ratio.shape[0]:
            raise ValueError(f"n={n} out of range")
        return float(self.pca.explained_variance_ratio[:n].sum())


class Analyzer:
    """Runs standardise → PCA → whiten → cluster on a refined dataset."""

    def __init__(self, config: AnalyzerConfig | None = None) -> None:
        self.config = config if config is not None else AnalyzerConfig()

    # ------------------------------------------------------------------
    def analyze(self, refined: RefinedDataset) -> AnalysisResult:
        """Derive high-level metrics and scenario groups."""
        cfg = self.config
        scaler = StandardScaler()
        standardised = scaler.fit_transform(refined.matrix)

        pca = PCA().fit(standardised)
        result = pca.result_
        assert result is not None
        n_components = self._select_components(result)
        raw_scores = standardised @ result.components[:n_components].T
        score_mean = raw_scores.mean(axis=0)
        score_std = raw_scores.std(axis=0, ddof=0)
        scores = whiten(raw_scores)

        weights = (
            refined.profiled.dataset.weights() if cfg.weight_samples else None
        )

        sweep: ClusterQualitySweep | None = None
        if cfg.n_clusters is not None:
            kmeans = self._kmeans_factory(cfg.n_clusters).fit(
                scores, sample_weight=weights
            )
        else:
            sweep = sweep_cluster_counts(
                scores,
                cfg.cluster_counts,
                kmeans_factory=self._kmeans_factory,
                sample_weight=weights,
            )
            knee = knee_point(
                sweep.cluster_counts.astype(float), sweep.sse
            )
            # The sweep fitted this k with the same seed and data.
            kmeans = sweep.fits[knee]
        cluster_weights = self._cluster_weights(kmeans, refined)

        return AnalysisResult(
            refined=refined,
            scaler=scaler,
            pca=result,
            n_components=n_components,
            scores=scores,
            score_mean=score_mean,
            score_std=score_std,
            sweep=sweep,
            kmeans=kmeans,
            cluster_weights=cluster_weights,
        )

    # ------------------------------------------------------------------
    def _select_components(self, pca: PCAResult) -> int:
        cfg = self.config
        if cfg.n_components is not None:
            if cfg.n_components > pca.components.shape[0]:
                raise ValueError(
                    f"n_components={cfg.n_components} exceeds available "
                    f"{pca.components.shape[0]}"
                )
            return cfg.n_components
        cumulative = pca.cumulative_variance_ratio()
        reachable = min(cfg.variance_target, float(cumulative[-1]))
        return int(np.searchsorted(cumulative, reachable - 1e-12) + 1)

    def _kmeans_factory(self, k: int) -> KMeans:
        cfg = self.config
        return KMeans(
            n_clusters=k,
            n_init=cfg.kmeans_restarts,
            max_iter=cfg.kmeans_max_iter,
            seed=np.random.default_rng(cfg.seed),
        )

    @staticmethod
    def _cluster_weights(
        kmeans: KMeansResult, refined: RefinedDataset
    ) -> np.ndarray:
        scenario_weights = refined.profiled.dataset.weights()
        return kmeans.cluster_weights(sample_weight=scenario_weights)
