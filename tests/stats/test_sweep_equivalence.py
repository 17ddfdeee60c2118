"""Differential battery: the k-sweep kernels against their reference forms.

The k-means fit and the silhouette share invariants across restarts,
Lloyd iterations and k values (row norms, weighted rows, the pairwise
distance matrix) and replace Python loops with array operations.  None
of that may change a single bit.  The oracles below are the reference
implementations those kernels replaced: a per-dimension centroid
update, k-means++ and Lloyd over :func:`pairwise_sq_euclidean`, and a
per-sample silhouette loop.  Every comparison is exact ``tobytes()``
equality.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.stats import KMeans, kmeans_plus_plus_init, pairwise_sq_euclidean
from repro.stats.kmeans import KMeansResult, _FitData, _update_centroids
from repro.stats.silhouette import (
    _silhouette_distances,
    silhouette_samples,
    silhouette_score,
    sweep_cluster_counts,
)

BATTERY = settings(
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------
def oracle_update_centroids(data, labels, weight, old_centroids, dist, n_clusters):
    """Weighted centroid update, one ``bincount`` per dimension."""
    centroids = old_centroids.copy()
    mass = np.bincount(labels, weights=weight, minlength=n_clusters)
    for dim in range(data.shape[1]):
        sums = np.bincount(
            labels, weights=weight * data[:, dim], minlength=n_clusters
        )
        live = mass > 0
        centroids[live, dim] = sums[live] / mass[live]

    empty = np.flatnonzero(mass == 0)
    if empty.size:
        point_sq = dist[np.arange(data.shape[0]), labels]
        order = np.argsort(point_sq)[::-1]
        for slot, cluster in enumerate(empty):
            centroids[cluster] = data[order[slot % order.size]]
    return centroids


def oracle_plus_plus(data, n_clusters, rng, sample_weight=None):
    """k-means++ seeding over :func:`pairwise_sq_euclidean`."""
    n_samples = data.shape[0]
    weight = (
        np.ones(n_samples)
        if sample_weight is None
        else np.asarray(sample_weight, dtype=np.float64)
    )
    prob = weight / weight.sum()
    centroids = np.empty((n_clusters, data.shape[1]), dtype=np.float64)

    first = rng.choice(n_samples, p=prob)
    centroids[0] = data[first]
    closest_sq = pairwise_sq_euclidean(data, centroids[:1]).ravel()

    for k in range(1, n_clusters):
        scores = closest_sq * weight
        total = scores.sum()
        if total <= 0.0:
            idx = rng.choice(n_samples, p=prob)
        else:
            idx = rng.choice(n_samples, p=scores / total)
        centroids[k] = data[idx]
        new_sq = pairwise_sq_euclidean(data, centroids[k : k + 1]).ravel()
        np.minimum(closest_sq, new_sq, out=closest_sq)
    return centroids


def oracle_single_run(data, weight, rng, n_clusters, max_iter, tol, init=None):
    """One Lloyd run over :func:`pairwise_sq_euclidean`."""
    if init is not None:
        centroids = init.copy()
    else:
        centroids = oracle_plus_plus(data, n_clusters, rng, weight)
    eff_weight = np.ones(data.shape[0]) if weight is None else weight
    labels = np.full(data.shape[0], -1, dtype=np.intp)
    converged = False
    n_iter = 0
    for n_iter in range(1, max_iter + 1):
        dist = pairwise_sq_euclidean(data, centroids)
        new_labels = np.argmin(dist, axis=1)
        new_centroids = oracle_update_centroids(
            data, new_labels, eff_weight, centroids, dist, n_clusters
        )
        shift = float(((new_centroids - centroids) ** 2).sum())
        stable = bool((new_labels == labels).all())
        centroids, labels = new_centroids, new_labels
        if stable or shift <= tol:
            converged = True
            break

    final_dist = pairwise_sq_euclidean(data, centroids)
    labels = np.argmin(final_dist, axis=1)
    point_sq = final_dist[np.arange(data.shape[0]), labels]
    inertia = float((point_sq * eff_weight).sum())
    return KMeansResult(centroids, labels, inertia, n_iter, converged)


def oracle_fit(data, weight, n_clusters, *, n_init, max_iter, tol, seed, init=None):
    """Best of *n_init* oracle runs, or one warm-started run."""
    rng = np.random.default_rng(seed)
    if init is not None:
        return oracle_single_run(data, weight, rng, n_clusters, max_iter, tol, init)
    best = None
    for _ in range(n_init):
        candidate = oracle_single_run(data, weight, rng, n_clusters, max_iter, tol)
        if best is None or candidate.inertia < best.inertia:
            best = candidate
    return best


def oracle_silhouette_samples(dist, labels):
    """Per-sample silhouette loop over a given distance matrix."""
    lab = np.asarray(labels).astype(np.intp)
    unique = np.unique(lab)
    n = lab.shape[0]
    sizes = {int(c): int((lab == c).sum()) for c in unique}
    mean_to_cluster = np.empty((n, unique.size))
    for j, cluster in enumerate(unique):
        members = lab == cluster
        mean_to_cluster[:, j] = dist[:, members].mean(axis=1)

    scores = np.zeros(n)
    cluster_pos = {int(c): j for j, c in enumerate(unique)}
    for i in range(n):
        own = int(lab[i])
        size = sizes[own]
        if size == 1:
            scores[i] = 0.0
            continue
        own_col = cluster_pos[own]
        a = mean_to_cluster[i, own_col] * size / (size - 1)
        others = [
            mean_to_cluster[i, j] for j in range(unique.size) if j != own_col
        ]
        b = min(others)
        denom = max(a, b)
        scores[i] = 0.0 if denom == 0.0 else (b - a) / denom
    return scores


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------
@st.composite
def problems(draw, max_rows=300):
    """(data, weight or None, k, seed).

    Rows repeat a drawn number of distinct points, so small distinct
    counts force duplicate k-means++ centroids and empty-cluster repair;
    weights include zeros, which empty a cluster by mass alone; k runs
    up to n, which makes singleton clusters common.
    """
    n = draw(st.integers(2, max_rows))
    d = draw(st.integers(1, 20))
    k = draw(st.integers(1, n))
    distinct = draw(st.integers(1, n))
    scale = draw(st.sampled_from([1e-3, 1.0, 1e3]))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    base = rng.normal(size=(distinct, d)) * scale
    data = base[rng.integers(0, distinct, size=n)]
    weight = None
    if draw(st.booleans()):
        weight = rng.uniform(0.0, 2.0, size=n)
        weight[rng.random(n) < draw(st.sampled_from([0.0, 0.3, 0.9]))] = 0.0
        if weight.sum() <= 0.0:
            weight[rng.integers(n)] = 1.0
    return data, weight, k, seed


def assert_same_result(got: KMeansResult, want: KMeansResult) -> None:
    assert got.centroids.tobytes() == want.centroids.tobytes()
    assert got.labels.tobytes() == want.labels.tobytes()
    assert np.float64(got.inertia).tobytes() == np.float64(want.inertia).tobytes()
    assert got.n_iter == want.n_iter
    assert got.converged == want.converged


def labels_for(rng, n, n_groups):
    """Labels over arbitrary (non-contiguous) ids, with a forced singleton."""
    ids = rng.choice(1000, size=n_groups, replace=False)
    labels = ids[rng.integers(0, n_groups, size=n)]
    labels[0] = ids[0]
    labels[1:] = np.where(labels[1:] == ids[0], ids[-1], labels[1:])
    return labels


# ---------------------------------------------------------------------------
# K-means kernels
# ---------------------------------------------------------------------------
class TestKMeansKernels:
    @BATTERY
    @given(problems())
    def test_sq_distances_match_pairwise(self, problem):
        data, weight, k, seed = problem
        rng = np.random.default_rng(seed)
        fit_data = _FitData(data, weight, k)
        centroids = data[rng.integers(0, data.shape[0], size=k)] + rng.normal(
            size=(k, data.shape[1])
        )
        for block in (centroids, centroids[:1], centroids[k - 1 :]):
            got = fit_data.sq_distances(block)
            assert got.tobytes() == pairwise_sq_euclidean(data, block).tobytes()

    @BATTERY
    @given(problems())
    def test_update_centroids_matches_per_dimension_loop(self, problem):
        data, weight, k, seed = problem
        rng = np.random.default_rng(seed)
        old = rng.normal(size=(k, data.shape[1]))
        # Labels drawn over fewer clusters than k leave some empty.
        labels = rng.integers(0, max(1, k - rng.integers(0, k)), size=data.shape[0])
        dist = pairwise_sq_euclidean(data, old)
        eff_weight = np.ones(data.shape[0]) if weight is None else weight
        got = _update_centroids(_FitData(data, weight, k), labels, old, dist, k)
        want = oracle_update_centroids(data, labels, eff_weight, old, dist, k)
        assert got.tobytes() == want.tobytes()

    @BATTERY
    @given(problems())
    def test_plus_plus_matches_oracle(self, problem):
        data, weight, k, seed = problem
        got = kmeans_plus_plus_init(data, k, np.random.default_rng(seed), weight)
        want = oracle_plus_plus(data, k, np.random.default_rng(seed), weight)
        assert got.tobytes() == want.tobytes()

    @BATTERY
    @given(
        problems(),
        st.integers(1, 4),
        st.sampled_from([1, 2, 5, 300]),
        st.sampled_from([0.0, 1e-8, 1e-2]),
    )
    def test_fit_matches_oracle(self, problem, n_init, max_iter, tol):
        data, weight, k, seed = problem
        got = KMeans(
            k, n_init=n_init, max_iter=max_iter, tol=tol, seed=seed
        ).fit(data, weight)
        want = oracle_fit(
            data, weight, k, n_init=n_init, max_iter=max_iter, tol=tol, seed=seed
        )
        assert_same_result(got, want)

    @BATTERY
    @given(problems(), st.sampled_from([1, 3, 300]))
    def test_warm_start_matches_oracle(self, problem, max_iter):
        data, weight, k, seed = problem
        init = np.random.default_rng(seed).normal(size=(k, data.shape[1]))
        got = KMeans(k, max_iter=max_iter, seed=seed).fit(data, weight, init=init)
        want = oracle_fit(
            data, weight, k, n_init=1, max_iter=max_iter, tol=1e-8, seed=seed,
            init=init,
        )
        assert_same_result(got, want)


# ---------------------------------------------------------------------------
# Silhouette
# ---------------------------------------------------------------------------
class TestSilhouette:
    @BATTERY
    @given(problems(), st.integers(2, 40))
    def test_samples_match_per_sample_loop(self, problem, n_groups):
        data, _, _, seed = problem
        n = data.shape[0]
        labels = labels_for(np.random.default_rng(seed), n, min(n_groups, n))
        dist = _silhouette_distances(data)
        want = oracle_silhouette_samples(dist, labels)
        got = silhouette_samples(data, labels, distances=dist)
        assert got.tobytes() == want.tobytes()
        assert silhouette_samples(data, labels).tobytes() == want.tobytes()
        assert (
            np.float64(silhouette_score(data, labels, distances=dist)).tobytes()
            == np.float64(want.mean()).tobytes()
        )

    def test_distance_matrix_shape_is_checked(self):
        data = np.arange(8.0).reshape(4, 2)
        with pytest.raises(ValueError, match="distances must have shape"):
            silhouette_samples(data, [0, 0, 1, 1], distances=np.zeros((3, 3)))


# ---------------------------------------------------------------------------
# The sweep end to end
# ---------------------------------------------------------------------------
class TestSweep:
    @settings(max_examples=25, deadline=None)
    @given(problems(max_rows=120), st.integers(1, 4))
    def test_sweep_matches_oracles(self, problem, n_init):
        data, weight, _, seed = problem
        n = data.shape[0]
        counts = sorted({min(k, n) for k in (2, 3, 5, 8)})

        def factory(k):
            return KMeans(k, n_init=n_init, max_iter=50, seed=seed)

        sweep = sweep_cluster_counts(
            data, counts, kmeans_factory=factory, sample_weight=weight
        )
        dist = _silhouette_distances(data)
        for i, k in enumerate(counts):
            want = oracle_fit(
                data, weight, k, n_init=n_init, max_iter=50, tol=1e-8, seed=seed
            )
            assert_same_result(sweep.fits[i], want)
            assert sweep.sse[i].tobytes() == np.float64(want.inertia).tobytes()
            if np.unique(want.labels).size < 2:
                want_sil = 0.0
            else:
                want_sil = oracle_silhouette_samples(dist, want.labels).mean()
            assert sweep.silhouette[i].tobytes() == np.float64(want_sil).tobytes()
