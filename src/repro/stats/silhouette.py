"""Clustering-quality metrics: SSE and silhouette score.

With no ground-truth labels for job co-location scenarios, FLARE selects the
cluster count from unsupervised quality metrics (paper Figure 9): Sum of
Squared Errors (lower is better) and Silhouette Score (higher is better),
picking the point of diminishing returns.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .distance import pairwise_euclidean
from .kmeans import KMeansResult
from .validation import as_matrix, check_labels

__all__ = [
    "sum_squared_error",
    "silhouette_samples",
    "silhouette_score",
    "ClusterQualitySweep",
    "sweep_cluster_counts",
    "knee_point",
]


def sum_squared_error(data, centroids, labels) -> float:
    """SSE of *data* against assigned *centroids* (K-means inertia)."""
    matrix = as_matrix(data, name="data")
    centres = as_matrix(centroids, name="centroids")
    lab = check_labels(labels, matrix.shape[0])
    if lab.size and lab.max() >= centres.shape[0]:
        raise ValueError("label refers to a centroid that does not exist")
    diff = matrix - centres[lab]
    return float(np.einsum("ij,ij->", diff, diff))


def silhouette_samples(data, labels, *, distances=None) -> np.ndarray:
    """Per-sample silhouette coefficients in ``[-1, 1]``.

    For sample *i* with mean intra-cluster distance ``a`` and smallest mean
    distance to another cluster ``b``: ``s = (b - a) / max(a, b)``.
    Samples in singleton clusters score 0 by convention (Rousseeuw 1987).

    ``distances`` is the ``(n, n)`` Euclidean distance matrix of *data*
    with a zero diagonal; callers scoring several labellings of the same
    data build it once and pass it in.
    """
    matrix = as_matrix(data, name="data", min_rows=2)
    n = matrix.shape[0]
    lab = check_labels(labels, n)
    unique, own_col, sizes = np.unique(
        lab, return_inverse=True, return_counts=True
    )
    if unique.size < 2:
        raise ValueError("silhouette requires at least 2 clusters")
    if distances is None:
        dist = _silhouette_distances(matrix)
    else:
        dist = np.asarray(distances, dtype=np.float64)
        if dist.shape != (n, n):
            raise ValueError(
                f"distances must have shape ({n}, {n}), got {dist.shape}"
            )

    # Mean distance from every sample to every cluster, in one pass.
    mean_to_cluster = np.empty((n, unique.size))
    for j, cluster in enumerate(unique):
        members = lab == cluster
        mean_to_cluster[:, j] = dist[:, members].mean(axis=1)

    rows = np.arange(n)
    size = sizes[own_col]
    scored = size > 1
    # Exclude self from the intra-cluster mean; singletons score 0.
    a = mean_to_cluster[rows, own_col] * size / np.maximum(size - 1, 1)
    # b is the nearest *other* cluster: mask each sample's own column.
    mean_to_cluster[rows, own_col] = np.inf
    b = mean_to_cluster.min(axis=1)
    denom = np.maximum(a, b)
    scores = np.zeros(n)
    np.divide(b - a, denom, out=scores, where=scored & (denom != 0.0))
    return scores


def silhouette_score(data, labels, *, distances=None) -> float:
    """Mean silhouette coefficient over all samples."""
    return float(silhouette_samples(data, labels, distances=distances).mean())


def _silhouette_distances(data) -> np.ndarray:
    """Euclidean distances between the rows of *data*, zero on the diagonal.

    The expansion in :func:`pairwise_euclidean` leaves rounding residue
    of up to ``sqrt(eps)·||x||`` on the diagonal; the silhouette's
    leave-self-out rescaling assumes ``d(i, i) = 0`` exactly.
    """
    dist = pairwise_euclidean(data, data)
    np.fill_diagonal(dist, 0.0)
    return dist


@dataclass(frozen=True)
class ClusterQualitySweep:
    """SSE / silhouette across candidate cluster counts (Figure 9 data)."""

    cluster_counts: np.ndarray
    sse: np.ndarray
    silhouette: np.ndarray
    #: The K-means fit behind each row, so a caller that settles on one
    #: of the swept k values reuses its fit instead of repeating it.
    fits: tuple[KMeansResult, ...] = field(default=(), repr=False, compare=False)

    def as_rows(self) -> list[tuple[int, float, float]]:
        """(k, SSE, silhouette) rows, for table rendering."""
        return [
            (int(k), float(s), float(sil))
            for k, s, sil in zip(self.cluster_counts, self.sse, self.silhouette)
        ]


def sweep_cluster_counts(
    data,
    cluster_counts,
    *,
    kmeans_factory,
    sample_weight=None,
) -> ClusterQualitySweep:
    """Fit K-means at each candidate *k* and record SSE + silhouette.

    Parameters
    ----------
    kmeans_factory:
        Callable ``k -> KMeans`` so callers control seeding and restarts.
    """
    matrix = as_matrix(data, name="data", min_rows=2)
    counts = [int(k) for k in cluster_counts]
    if not counts:
        raise ValueError("cluster_counts must be non-empty")
    if min(counts) < 2:
        raise ValueError("cluster counts must be >= 2 for silhouette")

    sse = np.empty(len(counts))
    sil = np.empty(len(counts))
    fits = []
    # Every k scores its labels against the same pairwise distances.
    distances = _silhouette_distances(matrix)
    for i, k in enumerate(counts):
        result = kmeans_factory(k).fit(matrix, sample_weight=sample_weight)
        fits.append(result)
        sse[i] = result.inertia
        if np.unique(result.labels).size < 2:
            sil[i] = 0.0
        else:
            sil[i] = silhouette_score(
                matrix, result.labels, distances=distances
            )
    return ClusterQualitySweep(
        cluster_counts=np.asarray(counts),
        sse=sse,
        silhouette=sil,
        fits=tuple(fits),
    )


def knee_point(x, y) -> int:
    """Index of the knee of a decreasing curve (max distance to chord).

    Standard "kneedle-style" geometric criterion: normalise the curve to the
    unit square and return the point farthest from the straight line joining
    the endpoints.  Used to suggest the cluster count where SSE returns
    start to diminish (the paper picks 18 this way, balancing quality
    against replay cost).
    """
    xs = np.asarray(x, dtype=np.float64)
    ys = np.asarray(y, dtype=np.float64)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise ValueError("x and y must be 1-D arrays of equal length")
    if xs.size < 3:
        raise ValueError("knee detection needs at least 3 points")
    span_x = xs[-1] - xs[0]
    span_y = ys[-1] - ys[0]
    if span_x == 0:
        raise ValueError("x values must not be constant")
    nx = (xs - xs[0]) / span_x
    ny = (ys - ys[0]) / span_y if span_y != 0 else np.zeros_like(ys)
    # Distance from each point to the chord y = x (after normalisation).
    distance = np.abs(ny - nx)
    return int(np.argmax(distance))
