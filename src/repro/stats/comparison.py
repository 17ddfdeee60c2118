"""Comparing clusterings: Rand indices and the gap statistic.

Used by the stability analysis (are FLARE's scenario groups an artefact
of the k-means seed or of measurement noise?) and as a second, more
principled cluster-count criterion next to the SSE knee:

* :func:`adjusted_rand_index` — chance-corrected agreement between two
  label vectors (1 = identical partitions, ≈0 = random relabelling);
* :func:`gap_statistic` — Tibshirani et al.'s comparison of the observed
  within-cluster dispersion against a uniform reference distribution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kmeans import KMeans
from .validation import as_matrix, check_labels, check_random_state

__all__ = ["adjusted_rand_index", "GapResult", "gap_statistic"]


def adjusted_rand_index(labels_a, labels_b) -> float:
    """Adjusted Rand index between two partitions of the same samples.

    Returns 1.0 for identical partitions (up to relabelling), ~0.0 for
    independent random partitions, and can be negative for adversarial
    disagreement.
    """
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    if a.shape != b.shape or a.ndim != 1:
        raise ValueError("label vectors must be 1-D with equal length")
    n = a.shape[0]
    if n < 2:
        raise ValueError("need at least 2 samples")
    a = check_labels(a, n)
    b = check_labels(b, n)

    # Contingency table.
    a_ids, a_inv = np.unique(a, return_inverse=True)
    b_ids, b_inv = np.unique(b, return_inverse=True)
    table = np.zeros((a_ids.size, b_ids.size), dtype=np.int64)
    np.add.at(table, (a_inv, b_inv), 1)

    sum_comb_cells = _pairs(table).sum()
    sum_comb_a = _pairs(table.sum(axis=1)).sum()
    sum_comb_b = _pairs(table.sum(axis=0)).sum()
    total_pairs = _pairs(n)

    expected = sum_comb_a * sum_comb_b / total_pairs
    maximum = 0.5 * (sum_comb_a + sum_comb_b)
    if maximum == expected:
        # Degenerate: both partitions trivial (all-one-cluster etc.).
        return 1.0 if sum_comb_cells == maximum else 0.0
    return float((sum_comb_cells - expected) / (maximum - expected))


def _pairs(counts):
    """``counts choose 2`` in float64: exact while ``counts * (counts - 1)``
    stays below 2**53, i.e. for any count up to ~9.5e7 samples."""
    x = np.asarray(counts, dtype=np.float64)
    return x * (x - 1.0) / 2.0


@dataclass(frozen=True)
class GapResult:
    """Gap-statistic curve over candidate cluster counts.

    Attributes
    ----------
    cluster_counts:
        The k values evaluated.
    gaps:
        Gap(k) = E*[log W_k] − log W_k (higher = more structure than the
        uniform reference).
    std_errors:
        Reference-simulation standard errors s_k.
    """

    cluster_counts: np.ndarray
    gaps: np.ndarray
    std_errors: np.ndarray

    def suggested_k(self) -> int:
        """Smallest k with Gap(k) ≥ Gap(k+1) − s_{k+1} (Tibshirani rule);
        the largest evaluated k when the criterion never fires."""
        for i in range(self.gaps.size - 1):
            if self.gaps[i] >= self.gaps[i + 1] - self.std_errors[i + 1]:
                return int(self.cluster_counts[i])
        return int(self.cluster_counts[-1])


def gap_statistic(
    data,
    cluster_counts,
    *,
    n_references: int = 10,
    seed=None,
    kmeans_restarts: int = 4,
) -> GapResult:
    """Compute the gap statistic of k-means clusterings of *data*.

    The reference distribution is uniform over the data's bounding box
    (the standard choice).  Deterministic for a given *seed*.
    """
    matrix = as_matrix(data, name="data", min_rows=2)
    counts = [int(k) for k in cluster_counts]
    if not counts or min(counts) < 1:
        raise ValueError("cluster_counts must be positive and non-empty")
    if n_references < 2:
        raise ValueError("n_references must be >= 2")
    rng = check_random_state(seed)

    lows = matrix.min(axis=0)
    highs = matrix.max(axis=0)

    def log_dispersion(points: np.ndarray, k: int) -> float:
        result = KMeans(
            k, n_init=kmeans_restarts, seed=rng
        ).fit(points)
        return float(np.log(max(result.inertia, 1e-12)))

    gaps = np.empty(len(counts))
    errors = np.empty(len(counts))
    for i, k in enumerate(counts):
        observed = log_dispersion(matrix, k)
        reference_logs = np.empty(n_references)
        for r in range(n_references):
            reference = rng.uniform(
                lows, highs, size=matrix.shape
            )
            reference_logs[r] = log_dispersion(reference, k)
        gaps[i] = reference_logs.mean() - observed
        errors[i] = reference_logs.std(ddof=0) * np.sqrt(
            1.0 + 1.0 / n_references
        )
    return GapResult(
        cluster_counts=np.asarray(counts),
        gaps=gaps,
        std_errors=errors,
    )
