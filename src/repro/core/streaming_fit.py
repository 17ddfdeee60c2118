"""Out-of-core FLARE fitting over a sharded scenario source.

The in-memory pipeline holds three dense matrices at once: the full
profiled metric matrix, its standardised copy, and the whitened PC
scores.  For a store-backed source (:mod:`repro.store`) none of those
may be materialised — peak memory must stay bounded by the shard size.
This module runs the same standardise → prune → PCA → whiten → cluster
sequence as :class:`~repro.core.analyzer.Analyzer` in passes over an
on-disk :class:`~repro.store.MetricStore` spill:

1. **Profile** — scenarios are profiled shard-by-shard
   (:meth:`Profiler.iter_profile`, optionally fanned out over an
   executor) and each metric batch is appended to the spill.
2. **Prune & standardise** — streamed moments give the correlation
   matrix behind :func:`~repro.stats.prune_from_correlation` and the
   scaler (:meth:`StandardScaler.from_moments`).
3. **PCA** — :class:`~repro.stats.IncrementalPCA` over standardised
   spill blocks, re-read memory-mapped.
4. **Score statistics** — whitening statistics and a seeded
   :class:`~repro.stats.ReservoirSampler` of raw PC scores.
5. **Cluster** — :class:`~repro.stats.StreamingKMeans` seeded on the
   whitened sample (after the k-sweep, at a fixed k, or from warm-start
   centroids) and refined with full-data Lloyd passes, whose per-row
   assignments and distances rank the representatives.

The passes exist once, in :func:`_fit_out_of_core`.  Its callers differ
only in the blocks the statistics fold over and in how the clustering
starts: :func:`streaming_fit` (``Flare.fit`` on a store) folds one block
per spill shard; :mod:`repro.core.refit` folds fixed-size blocks and
may warm-start from a previous model.

Equivalence contract: every accumulated statistic matches the
in-memory computation to ~1e-12 relative (the streaming-moments merge
tolerance), and while the dataset fits inside the reservoir sample the
clustering itself collapses to the exact in-memory k-means — so smoke
datasets produce identical cluster assignments through either path,
and results are bit-identical across executors and batch sizes for a
fixed blocking.
"""

from __future__ import annotations

import pathlib
import tempfile
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from ..cluster.scenario import ScenarioDataset
from ..cluster.source import ScenarioSource
from ..obs import span as obs_span
from ..stats.correlation import PruneReport, prune_from_correlation
from ..stats.kmeans import StreamingKMeans
from ..stats.pca import IncrementalPCA
from ..stats.preprocessing import StandardScaler
from ..stats.silhouette import knee_point, sweep_cluster_counts
from ..stats.streaming import ReservoirSampler, RunningMoments
from ..telemetry.database import Database
from ..telemetry.metrics import MetricSpec
from .analyzer import AnalysisResult, Analyzer
from .representatives import (
    RepresentativeSet,
    representatives_from_assignments,
)

__all__ = ["DEFAULT_SAMPLE_CAPACITY", "StreamingFit", "streaming_fit"]

#: Rows retained by the clustering reservoir.  Sources at or below this
#: size keep every row and the clustering is exactly the in-memory one;
#: larger sources cluster via the sample-seeded streaming approximation.
DEFAULT_SAMPLE_CAPACITY = 4096


@dataclass(frozen=True)
class StreamingFit:
    """Everything a fit produces (what ``Flare._adopt`` installs).

    From an out-of-core fit, ``analysis`` mirrors the in-memory
    :class:`AnalysisResult` with ``refined=None`` and ``scores=None`` —
    the matrices that were never materialised; ``report`` and ``specs``
    carry the pruning provenance those fields would otherwise hold.
    """

    analysis: AnalysisResult
    report: PruneReport
    specs: tuple[MetricSpec, ...]
    representatives: RepresentativeSet
    n_scenarios: int


def streaming_fit(
    source: ScenarioSource,
    config,
    *,
    database: Database | None = None,
    runtime=None,
    sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
) -> StreamingFit:
    """Fit FLARE steps 1–3 over *source* at shard-bounded memory.

    The metric spill lives in a temporary directory removed when
    fitting ends; statistics fold one block per spill shard.

    Parameters
    ----------
    config:
        The :class:`~repro.core.pipeline.FlareConfig` to fit under —
        the same knobs drive both fitting paths.
    runtime:
        Optional :class:`~repro.runtime.RuntimeConfig` (or executor /
        spec string) fanning the profiling pass out.
    sample_capacity:
        Reservoir size for clustering initialisation; see
        :data:`DEFAULT_SAMPLE_CAPACITY`.
    """
    with tempfile.TemporaryDirectory(prefix="repro-metrics-") as tmp:
        fit, _ = _fit_out_of_core(
            source,
            config,
            pathlib.Path(tmp),
            blocks=lambda metric_store: metric_store.iter_matrices(),
            k=config.analyzer.n_clusters,
            database=database,
            runtime=runtime,
            sample_capacity=sample_capacity,
            span_attrs={"streaming": True},
        )
    return fit


def _rows_after(source: ScenarioSource, watermark: int) -> ScenarioSource:
    """A ScenarioSource view of rows ``[watermark, len(source))``."""
    if watermark == 0:
        return source
    new_since = getattr(source, "new_since", None)
    if new_since is not None:
        return new_since(watermark)
    from ..store.live import StoreSlice
    from ..store.store import ShardedScenarioStore

    if isinstance(source, ShardedScenarioStore):
        return StoreSlice(source, watermark, len(source))
    if isinstance(source, StoreSlice):
        return StoreSlice(source.store, source.start + watermark, source.stop)
    from ..cluster.source import ensure_dataset

    dataset = ensure_dataset(source)
    return ScenarioDataset(
        shape=dataset.shape, scenarios=dataset.scenarios[watermark:]
    )


def _profile_spill(profiler, source, spill_path, *, runtime, watermark):
    """Profile the rows of *source* that the spill does not hold yet.

    ``watermark=0`` writes a fresh spill; otherwise the spill must hold
    at least the first *watermark* rows of *source* and is extended in
    append mode with the noise stream advanced past what it holds.
    """
    from ..store.metrics_store import MetricStore, MetricStoreWriter

    n_total = len(source)
    names = tuple(spec.name for spec in profiler.specs)
    resume_from = watermark
    if watermark:
        existing = MetricStore.open(spill_path)
        # Every spill row is a pure function of its position (the
        # noise stream is position-addressed), so a spill that a
        # killed refit already extended past the watermark holds
        # exactly the rows this run would re-write — accept it and
        # profile only the remainder.  Anything outside
        # [watermark, n_total] is from a different history.
        if not watermark <= existing.n_rows <= n_total:
            raise ValueError(
                f"metric spill at {spill_path} holds "
                f"{existing.n_rows} rows but the source covers "
                f"[{watermark}, {n_total}]; the spill must come "
                "from the previous fit of this source"
            )
        if tuple(existing.metric_names) != names:
            raise ValueError(
                "metric spill was written under a different metric "
                "registry; refit with mode='full'"
            )
        resume_from = existing.n_rows
    if watermark and resume_from == n_total:
        metric_store = existing
    else:
        writer = (
            MetricStoreWriter.for_append(spill_path)
            if watermark
            else MetricStoreWriter(spill_path, names, overwrite=True)
        )
        for batch in profiler.iter_profile(
            _rows_after(source, resume_from),
            runtime=runtime,
            noise_offset=resume_from,
        ):
            writer.append(batch.matrix)
        metric_store = writer.finalize()
    if metric_store.n_rows != n_total:
        raise ValueError(
            f"spill holds {metric_store.n_rows} rows after "
            f"profiling but the source has {n_total}"
        )
    return metric_store


def _fit_out_of_core(
    source: ScenarioSource,
    config,
    spill_path: pathlib.Path,
    *,
    blocks: Callable[..., Iterator[np.ndarray]],
    k: int | None,
    warm_start: Callable[..., np.ndarray] | None = None,
    scaler_gate: Callable[[list[int], StandardScaler], bool] | None = None,
    watermark: int = 0,
    database: Database | None = None,
    runtime=None,
    sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
    span_prefix: str = "flare",
    span_attrs: dict | None = None,
) -> tuple[StreamingFit, np.ndarray | None]:
    """The out-of-core passes: profile, prune, PCA, whiten, cluster, rank.

    ``blocks(metric_store)`` yields the spill as the row blocks every
    statistic folds over; the blocking fixes the result's bits.  ``k``
    is the cluster count (``None``: the sweep on the clustering sample).
    ``warm_start(kept, scaler, components, score_mean, score_std,
    metric_mean)`` gives initial centroids in whitened score space.
    ``scaler_gate(kept, scaler)`` runs before the PCA; returning False
    drops the warm start and falls back to the config's ``n_clusters``
    (or the sweep).  ``watermark`` is the rows of *source* the spill
    already holds.  Stage spans are ``{span_prefix}.profile`` etc.,
    each carrying *span_attrs*.

    Returns the fit and its warm-start centroids (``None`` when cold).
    """
    cfg = config.analyzer
    n_total = len(source)
    if n_total < 2:
        raise ValueError("FLARE needs at least 2 scenarios to fit")
    if cfg.weight_samples and n_total > sample_capacity:
        raise ValueError(
            "weight_samples=True needs every scenario inside the "
            f"clustering sample, but the source has {n_total} rows "
            f"and sample_capacity={sample_capacity}; raise the capacity "
            "or fit in memory"
        )
    attrs = dict(span_attrs or {})
    profiler = config.make_profiler(database=database)

    # Pass 1: profile the rows the spill does not hold yet.
    with obs_span(
        f"{span_prefix}.profile",
        n_scenarios=n_total,
        n_new=n_total - watermark,
        **attrs,
    ):
        metric_store = _profile_spill(
            profiler, source, spill_path, runtime=runtime, watermark=watermark
        )

    # Pass 2: moments → pruning + scaler.
    with obs_span(f"{span_prefix}.refine", **attrs):
        moments = RunningMoments()
        for block in blocks(metric_store):
            moments.update(block)
        report = prune_from_correlation(
            moments.correlation(), threshold=config.refinement_threshold
        )
        kept = list(report.kept)
        specs = tuple(profiler.specs[i] for i in kept)
        scaler = StandardScaler.from_moments(
            moments.mean[kept], moments.std(ddof=0)[kept], moments.n
        )

    if (
        warm_start is not None
        and scaler_gate is not None
        and not scaler_gate(kept, scaler)
    ):
        k, warm_start = cfg.n_clusters, None

    with obs_span(
        f"{span_prefix}.analyze", incremental=warm_start is not None, **attrs
    ):
        # Pass 3: incremental PCA over standardised blocks.
        ipca = IncrementalPCA()
        for block in blocks(metric_store):
            ipca.partial_fit(scaler.transform(block[:, kept]))
        pca_result = ipca.finalize()
        n_components = Analyzer(cfg)._select_components(pca_result)
        components = pca_result.components[:n_components]

        # Pass 4: score whitening statistics + clustering reservoir.
        score_moments = RunningMoments()
        sampler = ReservoirSampler(
            sample_capacity, seed=np.random.default_rng(cfg.seed)
        )
        def raw_scores(block: np.ndarray) -> np.ndarray:
            return scaler.transform(block[:, kept]) @ components.T

        for block in blocks(metric_store):
            raw = raw_scores(block)
            score_moments.update(raw)
            sampler.update(raw)
        score_mean = score_moments.mean
        score_std = score_moments.std(ddof=0)
        live = score_std > 1e-12 * np.maximum(1.0, np.abs(score_mean))

        def whiten_rows(raw: np.ndarray) -> np.ndarray:
            centred = raw - score_mean
            out = np.zeros_like(centred)
            out[:, live] = centred[:, live] / score_std[live]
            return out

        def score_batches():
            for block in blocks(metric_store):
                yield whiten_rows(raw_scores(block))

        sample_scores = whiten_rows(sampler.sample())
        weights = source.weights() if cfg.weight_samples else None

        # Pass 5: cluster — warm start, fixed k, or the sweep on the
        # sample (exact while the sample holds every row, the
        # documented approximation beyond).
        init = None
        if warm_start is not None:
            init = warm_start(
                kept, scaler, components, score_mean, score_std, moments.mean
            )
        sweep = None
        if k is None:
            counts = tuple(
                c for c in cfg.cluster_counts if c <= sample_scores.shape[0]
            )
            if not counts:
                raise ValueError(
                    "no candidate cluster count fits the clustering "
                    f"sample ({sample_scores.shape[0]} rows); raise "
                    "sample_capacity or set n_clusters explicitly"
                )
            sweep = sweep_cluster_counts(
                sample_scores,
                counts,
                kmeans_factory=Analyzer(cfg)._kmeans_factory,
                sample_weight=weights,
            )
            knee = knee_point(sweep.cluster_counts.astype(float), sweep.sse)
            k = int(sweep.cluster_counts[knee])

        streaming_kmeans = StreamingKMeans(
            k,
            n_init=cfg.kmeans_restarts,
            max_iter=cfg.kmeans_max_iter,
            seed=np.random.default_rng(cfg.seed),
        )
        kmeans_result = streaming_kmeans.fit(
            score_batches,
            n_total=n_total,
            sample=sample_scores,
            sample_weight=weights,
            init=init,
        )
        cluster_weights = kmeans_result.cluster_weights(
            sample_weight=source.weights()
        )
        analysis = AnalysisResult(
            refined=None,
            scaler=scaler,
            pca=pca_result,
            n_components=n_components,
            scores=None,
            score_mean=score_mean,
            score_std=score_std,
            sweep=sweep,
            kmeans=kmeans_result,
            cluster_weights=cluster_weights,
        )

    with obs_span(f"{span_prefix}.representatives", **attrs):
        assert streaming_kmeans.point_sq_distances_ is not None
        representatives = representatives_from_assignments(
            labels=kmeans_result.labels,
            sq_distances=streaming_kmeans.point_sq_distances_,
            centroids=kmeans_result.centroids,
            cluster_weights=cluster_weights,
            dataset=source,
        )

    fit = StreamingFit(
        analysis=analysis,
        report=report,
        specs=specs,
        representatives=representatives,
        n_scenarios=n_total,
    )
    return fit, init
