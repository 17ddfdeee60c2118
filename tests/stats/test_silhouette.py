"""Unit tests for SSE, silhouette, sweep and knee detection."""

import numpy as np
import pytest

from repro.stats import (
    KMeans,
    knee_point,
    silhouette_samples,
    silhouette_score,
    sum_squared_error,
    sweep_cluster_counts,
)


@pytest.fixture()
def two_blobs(rng):
    a = rng.normal([0.0, 0.0], 0.2, size=(30, 2))
    b = rng.normal([8.0, 8.0], 0.2, size=(30, 2))
    points = np.concatenate([a, b])
    labels = np.repeat([0, 1], 30)
    return points, labels


class TestSumSquaredError:
    def test_zero_when_points_equal_centroids(self):
        points = np.array([[1.0, 1.0], [2.0, 2.0]])
        sse = sum_squared_error(points, points, [0, 1])
        assert sse == pytest.approx(0.0)

    def test_matches_manual(self):
        points = np.array([[0.0], [2.0], [10.0]])
        centroids = np.array([[1.0], [10.0]])
        sse = sum_squared_error(points, centroids, [0, 0, 1])
        assert sse == pytest.approx(1.0 + 1.0 + 0.0)

    def test_rejects_bad_label(self):
        with pytest.raises(ValueError, match="does not exist"):
            sum_squared_error([[0.0]], [[0.0]], [3])


class TestSilhouette:
    def test_well_separated_blobs_near_one(self, two_blobs):
        points, labels = two_blobs
        assert silhouette_score(points, labels) > 0.9

    def test_random_labels_near_zero(self, rng):
        points = rng.normal(size=(60, 2))
        labels = rng.integers(0, 2, size=60)
        assert abs(silhouette_score(points, labels)) < 0.2

    def test_samples_in_range(self, two_blobs):
        points, labels = two_blobs
        samples = silhouette_samples(points, labels)
        assert (samples >= -1.0).all() and (samples <= 1.0).all()

    def test_singleton_cluster_scores_zero(self):
        points = np.array([[0.0], [0.1], [9.0]])
        samples = silhouette_samples(points, [0, 0, 1])
        assert samples[2] == pytest.approx(0.0)

    def test_single_cluster_raises(self, rng):
        points = rng.normal(size=(10, 2))
        with pytest.raises(ValueError, match="at least 2 clusters"):
            silhouette_score(points, np.zeros(10, dtype=int))

    def test_large_norms_match_direct_differencing(self, rng):
        # Far from the origin, the expanded |x|² - 2x·y + |y|² form leaves
        # rounding residue of ~sqrt(eps)·|x| on the diagonal.  The
        # leave-self-out rescaling assumes d(i, i) = 0 exactly.
        labels = np.repeat([0, 1, 2], 20)
        points = 1e3 + rng.normal(size=(60, 4))
        points[labels == 1] += 3.0
        points[labels == 2] -= 3.0
        dist = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(-1))
        expected = np.empty(60)
        for i in range(60):
            own = labels == labels[i]
            a = dist[i, own].sum() / (own.sum() - 1)
            b = min(
                dist[i, labels == c].mean() for c in {0, 1, 2} - {labels[i]}
            )
            expected[i] = (b - a) / max(a, b)
        np.testing.assert_allclose(
            silhouette_samples(points, labels), expected, rtol=0, atol=1e-9
        )

    def test_worse_labels_score_lower(self, two_blobs):
        points, labels = two_blobs
        good = silhouette_score(points, labels)
        # Swap half of blob A into cluster 1.
        bad_labels = labels.copy()
        bad_labels[:15] = 1
        assert silhouette_score(points, bad_labels) < good


class TestSweep:
    def test_records_all_counts(self, two_blobs):
        points, _ = two_blobs
        sweep = sweep_cluster_counts(
            points, (2, 3, 4), kmeans_factory=lambda k: KMeans(k, seed=0)
        )
        assert sweep.cluster_counts.tolist() == [2, 3, 4]
        assert sweep.sse.shape == (3,)
        assert sweep.silhouette.shape == (3,)

    def test_sse_decreases(self, two_blobs):
        points, _ = two_blobs
        sweep = sweep_cluster_counts(
            points, (2, 4, 8), kmeans_factory=lambda k: KMeans(k, seed=0, n_init=4)
        )
        assert (np.diff(sweep.sse) < 0.0).all()

    def test_true_k_has_best_silhouette(self, two_blobs):
        points, _ = two_blobs
        sweep = sweep_cluster_counts(
            points, (2, 3, 4, 5), kmeans_factory=lambda k: KMeans(k, seed=0)
        )
        assert int(sweep.cluster_counts[np.argmax(sweep.silhouette)]) == 2

    def test_rejects_k_below_two(self, two_blobs):
        points, _ = two_blobs
        with pytest.raises(ValueError, match=">= 2"):
            sweep_cluster_counts(
                points, (1, 2), kmeans_factory=lambda k: KMeans(k, seed=0)
            )

    def test_rejects_empty_counts(self, two_blobs):
        points, _ = two_blobs
        with pytest.raises(ValueError, match="non-empty"):
            sweep_cluster_counts(
                points, (), kmeans_factory=lambda k: KMeans(k, seed=0)
            )

    def test_keeps_each_fit(self, two_blobs):
        points, _ = two_blobs
        sweep = sweep_cluster_counts(
            points, (2, 3), kmeans_factory=lambda k: KMeans(k, seed=0)
        )
        assert [fit.n_clusters for fit in sweep.fits] == [2, 3]
        assert sweep.sse.tolist() == [fit.inertia for fit in sweep.fits]

    def test_as_rows(self, two_blobs):
        points, _ = two_blobs
        sweep = sweep_cluster_counts(
            points, (2, 3), kmeans_factory=lambda k: KMeans(k, seed=0)
        )
        rows = sweep.as_rows()
        assert len(rows) == 2
        assert rows[0][0] == 2


class TestKneePoint:
    def test_finds_sharp_elbow(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 6.0])
        y = np.array([100.0, 50.0, 10.0, 9.0, 8.5, 8.0])
        assert knee_point(x, y) == 2

    def test_linear_curve_has_no_strong_knee(self):
        x = np.arange(5.0)
        y = 10.0 - 2.0 * x
        # All points lie on the chord; distance 0 everywhere -> index 0.
        assert knee_point(x, y) == 0

    def test_rejects_short_input(self):
        with pytest.raises(ValueError, match="at least 3"):
            knee_point([1.0, 2.0], [1.0, 2.0])

    def test_rejects_mismatched_shapes(self):
        with pytest.raises(ValueError):
            knee_point([1.0, 2.0, 3.0], [1.0, 2.0])

    def test_rejects_constant_x(self):
        with pytest.raises(ValueError, match="constant"):
            knee_point([1.0, 1.0, 1.0], [3.0, 2.0, 1.0])

    def test_flat_y_returns_valid_index(self):
        idx = knee_point([1.0, 2.0, 3.0], [5.0, 5.0, 5.0])
        assert 0 <= idx <= 2
