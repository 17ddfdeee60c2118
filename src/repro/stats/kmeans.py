"""K-means clustering (k-means++ initialisation + Lloyd iterations).

FLARE groups job co-location scenarios in whitened PC space with K-means
(paper §4.4).  This implementation supports:

* k-means++ seeding (D² sampling) for robust initialisation,
* multiple random restarts, keeping the lowest-inertia solution,
* sample weights, so scenarios can be weighted by how often they occur,
* empty-cluster repair (an empty cluster is re-seeded on the point
  farthest from its assigned centroid).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distance import pairwise_sq_euclidean
from .validation import as_matrix, check_random_state

__all__ = [
    "KMeans",
    "KMeansResult",
    "StreamingKMeans",
    "assigned_sq_distances",
    "kmeans_plus_plus_init",
]


@dataclass(frozen=True)
class KMeansResult:
    """Outcome of one K-means fit.

    Attributes
    ----------
    centroids:
        ``(n_clusters, n_features)`` cluster centres.
    labels:
        Cluster index assigned to each input row.
    inertia:
        Sum of squared distances from each point to its centroid — the
        paper's SSE quality metric (Figure 9).
    n_iter:
        Lloyd iterations executed by the winning restart.
    converged:
        Whether assignments stabilised before ``max_iter``.
    """

    centroids: np.ndarray
    labels: np.ndarray
    inertia: float
    n_iter: int
    converged: bool

    @property
    def n_clusters(self) -> int:
        return self.centroids.shape[0]

    def cluster_sizes(self) -> np.ndarray:
        """Number of points assigned to each cluster."""
        return np.bincount(self.labels, minlength=self.n_clusters)

    def cluster_weights(self, sample_weight=None) -> np.ndarray:
        """Fraction of (weighted) points per cluster.

        These are the weights FLARE uses when averaging representative
        impacts (§4.5): the probability of observing a scenario from each
        group.
        """
        if sample_weight is None:
            counts = self.cluster_sizes().astype(np.float64)
        else:
            weight = np.asarray(sample_weight, dtype=np.float64)
            counts = np.bincount(
                self.labels, weights=weight, minlength=self.n_clusters
            )
        total = counts.sum()
        if total <= 0.0:
            raise ValueError("total sample weight must be positive")
        return counts / total


def kmeans_plus_plus_init(
    data: np.ndarray,
    n_clusters: int,
    rng: np.random.Generator,
    sample_weight: np.ndarray | None = None,
) -> np.ndarray:
    """Select initial centroids by D² weighted sampling (k-means++)."""
    weight = None if sample_weight is None else np.asarray(
        sample_weight, dtype=np.float64
    )
    fit_data = _FitData(as_matrix(data, name="data"), weight, n_clusters)
    return _plus_plus(fit_data, n_clusters, rng)


class _FitData:
    """What every restart of one k-means fit shares.

    The validated data, its row norms ``||x||²``, the effective weights
    and the weighted rows never change between restarts, Lloyd
    iterations or the final labelling, so a fit computes them once.
    """

    def __init__(
        self, data: np.ndarray, weight: np.ndarray | None, n_clusters: int
    ) -> None:
        n_samples, n_features = data.shape
        self.data = data
        self.weight = np.ones(n_samples) if weight is None else weight
        self.prob = self.weight / self.weight.sum()
        self.weighted = self.weight[:, None] * data
        # One column per centroid, so the subtraction below runs over
        # contiguous rows instead of broadcasting a column per row.
        self.sq_norms = np.repeat(
            np.einsum("ij,ij->i", data, data)[:, None], n_clusters, axis=1
        )
        self.bin_offsets = np.tile(np.arange(n_features), n_samples)

    def sq_distances(self, centroids: np.ndarray) -> np.ndarray:
        """``pairwise_sq_euclidean(data, centroids)``, bit for bit.

        Runs the same operations in the same order — ``||x||² - 2x·c``,
        then ``+ ||c||²``, then the clamp at zero — in place, reusing
        the precomputed row norms instead of re-validating the data.
        """
        dist = self.data @ centroids.T
        dist *= 2.0
        np.subtract(self.sq_norms[:, : dist.shape[1]], dist, out=dist)
        dist += np.einsum("ij,ij->i", centroids, centroids)
        np.maximum(dist, 0.0, out=dist)
        return dist


def _plus_plus(
    fit_data: _FitData, n_clusters: int, rng: np.random.Generator
) -> np.ndarray:
    data, weight, prob = fit_data.data, fit_data.weight, fit_data.prob
    n_samples = data.shape[0]
    centroids = np.empty((n_clusters, data.shape[1]), dtype=np.float64)

    first = rng.choice(n_samples, p=prob)
    centroids[0] = data[first]
    closest_sq = fit_data.sq_distances(centroids[:1]).ravel()

    for k in range(1, n_clusters):
        scores = closest_sq * weight
        total = scores.sum()
        if total <= 0.0:
            # All remaining mass sits on already-chosen points (fewer
            # distinct points than clusters); fall back to uniform draw.
            idx = rng.choice(n_samples, p=prob)
        else:
            scores /= total
            idx = rng.choice(n_samples, p=scores)
        centroids[k] = data[idx]
        new_sq = fit_data.sq_distances(centroids[k : k + 1]).ravel()
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centroids


class KMeans:
    """Lloyd's K-means with k-means++ restarts.

    Parameters
    ----------
    n_clusters:
        Number of clusters *k*.
    n_init:
        Independent restarts; the lowest-inertia run wins.
    max_iter:
        Iteration cap per restart.
    tol:
        Convergence threshold on total centroid movement (squared).
    seed:
        Integer seed or :class:`numpy.random.Generator` for determinism.
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        n_init: int = 10,
        max_iter: int = 300,
        tol: float = 1e-8,
        seed=None,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        if n_init < 1:
            raise ValueError("n_init must be >= 1")
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.result_: KMeansResult | None = None

    # ------------------------------------------------------------------
    def fit(self, data, sample_weight=None, *, init=None) -> KMeansResult:
        """Cluster *data*; returns (and stores) the best restart.

        ``init`` warm-starts Lloyd from explicit ``(k, n_features)``
        centroids: a single run, no k-means++ seeding, no restarts.
        Starting from a converged solution of the same data is a fixed
        point — one stable iteration reproduces the input centroids
        bit-for-bit — which is what makes incremental refit provable.
        """
        matrix = as_matrix(data, name="data")
        n_samples = matrix.shape[0]
        if self.n_clusters > n_samples:
            raise ValueError(
                f"n_clusters={self.n_clusters} exceeds n_samples={n_samples}"
            )
        weight = None
        if sample_weight is not None:
            weight = np.asarray(sample_weight, dtype=np.float64)
            if weight.shape != (n_samples,):
                raise ValueError("sample_weight must have one entry per row")
            if (weight < 0).any() or weight.sum() <= 0:
                raise ValueError("sample_weight must be non-negative, sum > 0")

        rng = check_random_state(self.seed)
        fit_data = _FitData(matrix, weight, self.n_clusters)
        if init is not None:
            init = np.ascontiguousarray(init, dtype=np.float64)
            if init.shape != (self.n_clusters, matrix.shape[1]):
                raise ValueError(
                    f"init must have shape ({self.n_clusters}, "
                    f"{matrix.shape[1]}), got {init.shape}"
                )
            best = self._single_run(fit_data, rng, init=init)
            self.result_ = best
            return best
        best: KMeansResult | None = None
        for _ in range(self.n_init):
            candidate = self._single_run(fit_data, rng)
            if best is None or candidate.inertia < best.inertia:
                best = candidate
        assert best is not None
        self.result_ = best
        return best

    def predict(self, data) -> np.ndarray:
        """Assign each row of *data* to the nearest fitted centroid."""
        if self.result_ is None:
            raise RuntimeError("KMeans must be fitted before predict")
        matrix = as_matrix(data, name="data")
        dist = pairwise_sq_euclidean(matrix, self.result_.centroids)
        return np.argmin(dist, axis=1)

    # ------------------------------------------------------------------
    def _single_run(
        self,
        fit_data: _FitData,
        rng: np.random.Generator,
        init: np.ndarray | None = None,
    ) -> KMeansResult:
        if init is not None:
            centroids = init.copy()
        else:
            centroids = _plus_plus(fit_data, self.n_clusters, rng)
        n_samples = fit_data.data.shape[0]
        labels = np.full(n_samples, -1, dtype=np.intp)
        converged = False
        n_iter = 0

        for n_iter in range(1, self.max_iter + 1):
            dist = fit_data.sq_distances(centroids)
            new_labels = np.argmin(dist, axis=1)
            new_centroids = _update_centroids(
                fit_data, new_labels, centroids, dist, self.n_clusters
            )
            shift = float(((new_centroids - centroids) ** 2).sum())
            stable = bool((new_labels == labels).all())
            centroids, labels = new_centroids, new_labels
            if stable or shift <= self.tol:
                converged = True
                break

        final_dist = fit_data.sq_distances(centroids)
        labels = np.argmin(final_dist, axis=1)
        point_sq = final_dist[np.arange(n_samples), labels]
        inertia = float((point_sq * fit_data.weight).sum())
        return KMeansResult(
            centroids=centroids,
            labels=labels,
            inertia=inertia,
            n_iter=n_iter,
            converged=converged,
        )


class StreamingKMeans:
    """Lloyd's k-means over streamed row batches (out-of-core fit).

    Exact-equivalence contract: while the whole dataset fits in the
    initialisation *sample* (``len(sample) == n_total``), fitting
    delegates to the in-memory :class:`KMeans` on that sample, so the
    result is bit-identical to the in-memory path.  Beyond that, the
    centroids are seeded by an in-memory k-means++ fit on the uniform
    sample and refined with full-data Lloyd passes over the batch
    stream — the documented out-of-core approximation.  Empty clusters
    are repaired the same way as in-memory: re-seeded on the points
    currently farthest from their assigned centroid.

    ``batches`` is a zero-argument callable returning a fresh iterator
    of ``(rows, n_features)`` arrays; it is consumed once per Lloyd
    pass plus once for the final labelling pass.  Results depend only
    on the row stream, not on how it is batched.
    """

    def __init__(
        self,
        n_clusters: int,
        *,
        n_init: int = 10,
        max_iter: int = 300,
        tol: float = 1e-8,
        seed=None,
    ) -> None:
        if n_clusters < 1:
            raise ValueError("n_clusters must be >= 1")
        self.n_clusters = n_clusters
        self.n_init = n_init
        self.max_iter = max_iter
        self.tol = tol
        self.seed = seed
        self.result_: KMeansResult | None = None
        #: Squared distance from each row to its assigned centroid, in
        #: stream order — kept so representative extraction does not
        #: need the full score matrix in memory.
        self.point_sq_distances_: np.ndarray | None = None

    # ------------------------------------------------------------------
    def fit(
        self,
        batches,
        *,
        n_total: int,
        sample,
        sample_weight=None,
        init=None,
    ) -> KMeansResult:
        """Cluster the streamed rows (see class docstring).

        ``init`` warm-starts from explicit centroids: the exact path
        becomes a single in-memory Lloyd run from them, the streaming
        path skips the sample-seeded k-means++ fit and refines *init*
        directly with full-data passes.  Either way, results depend
        only on (row stream, init), never on restarts or the seed.
        """
        sample = as_matrix(sample, name="sample")
        if self.n_clusters > n_total:
            raise ValueError(
                f"n_clusters={self.n_clusters} exceeds n_samples={n_total}"
            )
        if init is not None:
            init = np.ascontiguousarray(init, dtype=np.float64)
            if init.shape != (self.n_clusters, sample.shape[1]):
                raise ValueError(
                    f"init must have shape ({self.n_clusters}, "
                    f"{sample.shape[1]}), got {init.shape}"
                )
        if sample.shape[0] >= n_total:
            return self._fit_exact(sample, sample_weight, init)
        if sample_weight is not None:
            raise ValueError(
                "sample_weight requires the full dataset inside the "
                "initialisation sample; raise the sample capacity or use "
                "the in-memory fit"
            )
        return self._fit_streaming(batches, n_total, sample, init)

    # ------------------------------------------------------------------
    def _fit_exact(self, sample, sample_weight, init=None) -> KMeansResult:
        base = KMeans(
            self.n_clusters,
            n_init=self.n_init,
            max_iter=self.max_iter,
            tol=self.tol,
            seed=self.seed,
        ).fit(sample, sample_weight, init=init)
        self.point_sq_distances_ = _assigned_sq_distances(
            sample, base.centroids, base.labels
        )
        self.result_ = base
        return base

    def _fit_streaming(self, batches, n_total, sample, init=None) -> KMeansResult:
        if init is not None:
            centroids = init.copy()
        else:
            seed_fit = KMeans(
                self.n_clusters,
                n_init=self.n_init,
                max_iter=self.max_iter,
                tol=self.tol,
                seed=self.seed,
            ).fit(sample)
            centroids = seed_fit.centroids.copy()
        k = self.n_clusters
        converged = False
        n_iter = 0
        for n_iter in range(1, self.max_iter + 1):
            sums = np.zeros_like(centroids)
            counts = np.zeros(k, dtype=np.float64)
            far_vals = np.full(k, -np.inf)
            far_rows = np.zeros_like(centroids)
            for batch in batches():
                matrix = as_matrix(batch, name="batch")
                dist = pairwise_sq_euclidean(matrix, centroids)
                labels = np.argmin(dist, axis=1)
                point_sq = dist[np.arange(matrix.shape[0]), labels]
                counts += np.bincount(labels, minlength=k)
                np.add.at(sums, labels, matrix)
                # Track the k globally farthest points for empty-cluster
                # repair without a second pass.
                top = np.argsort(point_sq, kind="stable")[::-1][:k]
                merged_vals = np.concatenate([far_vals, point_sq[top]])
                merged_rows = np.concatenate([far_rows, matrix[top]])
                keep = np.argsort(merged_vals, kind="stable")[::-1][:k]
                far_vals = merged_vals[keep]
                far_rows = merged_rows[keep]
            new_centroids = centroids.copy()
            live = counts > 0
            new_centroids[live] = sums[live] / counts[live, None]
            empty = np.flatnonzero(~live)
            for slot, cluster in enumerate(empty):
                if np.isfinite(far_vals[slot % k]):
                    new_centroids[cluster] = far_rows[slot % k]
            shift = float(((new_centroids - centroids) ** 2).sum())
            centroids = new_centroids
            if shift <= self.tol:
                converged = True
                break

        labels = np.empty(n_total, dtype=np.intp)
        point_sq = np.empty(n_total, dtype=np.float64)
        position = 0
        for batch in batches():
            matrix = as_matrix(batch, name="batch")
            dist = pairwise_sq_euclidean(matrix, centroids)
            batch_labels = np.argmin(dist, axis=1)
            rows = matrix.shape[0]
            labels[position : position + rows] = batch_labels
            point_sq[position : position + rows] = _assigned_sq_distances(
                matrix, centroids, batch_labels
            )
            position += rows
        if position != n_total:
            raise ValueError(
                f"batch stream yielded {position} rows, expected {n_total}"
            )
        result = KMeansResult(
            centroids=centroids,
            labels=labels,
            inertia=float(point_sq.sum()),
            n_iter=n_iter,
            converged=converged,
        )
        self.point_sq_distances_ = point_sq
        self.result_ = result
        return result


def _assigned_sq_distances(
    data: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Squared distance of each row to its assigned centroid.

    Computed by direct differencing, not the expanded
    ``||x||² - 2x·c + ||c||²`` form of :func:`pairwise_sq_euclidean`:
    the direct form preserves exact distance ties (e.g. the two members
    of a 2-point cluster are *exactly* equidistant from their mean), so
    representative ranking breaks those ties by index — identically to
    the in-memory path, which ranks by ``np.linalg.norm`` differences.
    """
    diff = data - centroids[labels]
    return np.einsum("ij,ij->i", diff, diff)


def assigned_sq_distances(
    data: np.ndarray, centroids: np.ndarray, labels: np.ndarray
) -> np.ndarray:
    """Squared distance of each row to its assigned centroid.

    Public form of the direct-differencing kernel both fit paths use,
    so fit-time drift baselines and the drift monitor
    (:mod:`repro.obs.monitor`) score distances with bit-identical
    association order to clustering itself.
    """
    return _assigned_sq_distances(data, centroids, labels)


def _update_centroids(
    fit_data: _FitData,
    labels: np.ndarray,
    old_centroids: np.ndarray,
    dist: np.ndarray,
    n_clusters: int,
) -> np.ndarray:
    """Weighted centroid update with empty-cluster repair.

    One ``bincount`` over flattened (label, dim) bins sums every
    coordinate at once; each bin still adds its rows in row order, so
    the sums match a per-dimension ``bincount`` bit for bit.
    """
    data = fit_data.data
    n_features = data.shape[1]
    centroids = old_centroids.copy()
    mass = np.bincount(labels, weights=fit_data.weight, minlength=n_clusters)
    bins = np.repeat(labels * n_features, n_features)
    bins += fit_data.bin_offsets
    sums = np.bincount(
        bins,
        weights=fit_data.weighted.ravel(),
        minlength=n_clusters * n_features,
    ).reshape(n_clusters, n_features)
    live = mass > 0
    centroids[live] = sums[live] / mass[live, None]

    empty = np.flatnonzero(~live)
    if empty.size:
        # Re-seed each empty cluster on the point currently farthest from
        # its assigned centroid — a standard repair that keeps k constant.
        point_sq = dist[np.arange(data.shape[0]), labels]
        order = np.argsort(point_sq)[::-1]
        for slot, cluster in enumerate(empty):
            centroids[cluster] = data[order[slot % order.size]]
    return centroids
