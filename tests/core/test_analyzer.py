"""Unit tests for the Analyzer (steps 2–3)."""

import numpy as np
import pytest

from repro.core import Analyzer, AnalyzerConfig, refine
from repro.telemetry import Profiler


@pytest.fixture(scope="module")
def refined(small_sim):
    profiled = Profiler(noise_sigma=0.02, seed=7).profile(small_sim.dataset)
    return refine(profiled, threshold=0.98)


@pytest.fixture(scope="module")
def analysis(refined):
    return Analyzer(
        AnalyzerConfig(n_clusters=8, kmeans_restarts=4, seed=0)
    ).analyze(refined)


class TestConfigValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"variance_target": 0.0},
            {"variance_target": 1.5},
            {"n_components": 0},
            {"n_clusters": 1},
            {"cluster_counts": (), "n_clusters": None},
        ],
    )
    def test_invalid_config(self, kwargs):
        with pytest.raises(ValueError):
            AnalyzerConfig(**kwargs)


class TestHighLevelMetrics:
    def test_variance_target_met(self, analysis):
        assert analysis.explained_variance_at(
            analysis.n_components
        ) >= 0.95 - 1e-9

    def test_minimal_component_count(self, analysis):
        if analysis.n_components > 1:
            assert analysis.explained_variance_at(
                analysis.n_components - 1
            ) < 0.95

    def test_scores_are_whitened(self, analysis):
        std = analysis.scores.std(axis=0)
        np.testing.assert_allclose(std, 1.0, atol=1e-9)
        np.testing.assert_allclose(
            analysis.scores.mean(axis=0), 0.0, atol=1e-9
        )

    def test_explicit_component_override(self, refined):
        analysis = Analyzer(
            AnalyzerConfig(n_components=5, n_clusters=4, seed=0)
        ).analyze(refined)
        assert analysis.n_components == 5
        assert analysis.scores.shape[1] == 5

    def test_component_overflow_raises(self, refined):
        config = AnalyzerConfig(n_components=10_000, n_clusters=4)
        with pytest.raises(ValueError, match="exceeds"):
            Analyzer(config).analyze(refined)


class TestClustering:
    def test_fixed_k_skips_sweep(self, analysis):
        assert analysis.sweep is None
        assert analysis.n_clusters == 8

    def test_sweep_runs_when_k_unset(self, refined):
        analysis = Analyzer(
            AnalyzerConfig(
                cluster_counts=(2, 4, 6), kmeans_restarts=2, seed=0
            )
        ).analyze(refined)
        assert analysis.sweep is not None
        assert analysis.n_clusters in (2, 4, 6)

    def test_chosen_k_reuses_the_sweep_fit(self, refined):
        analyzer = Analyzer(
            AnalyzerConfig(cluster_counts=(2, 4, 6), kmeans_restarts=2, seed=0)
        )
        analysis = analyzer.analyze(refined)
        k = analysis.n_clusters
        index = analysis.sweep.cluster_counts.tolist().index(k)
        assert analysis.kmeans is analysis.sweep.fits[index]
        fresh = analyzer._kmeans_factory(k).fit(analysis.scores)
        assert analysis.kmeans.centroids.tobytes() == fresh.centroids.tobytes()
        assert analysis.kmeans.labels.tobytes() == fresh.labels.tobytes()
        assert analysis.kmeans.inertia == fresh.inertia
        assert analysis.kmeans.n_iter == fresh.n_iter
        assert analysis.kmeans.converged == fresh.converged

    def test_labels_cover_dataset(self, analysis, refined):
        assert analysis.labels.shape == (refined.n_scenarios,)
        assert np.unique(analysis.labels).size == analysis.n_clusters

    def test_cluster_weights_sum_to_one(self, analysis):
        assert analysis.cluster_weights.sum() == pytest.approx(1.0)
        assert (analysis.cluster_weights >= 0.0).all()

    def test_members_of(self, analysis, refined):
        total = sum(
            analysis.members_of(c).size for c in range(analysis.n_clusters)
        )
        assert total == refined.n_scenarios

    def test_members_of_bad_cluster_raises(self, analysis):
        with pytest.raises(ValueError):
            analysis.members_of(99)

    def test_deterministic(self, refined):
        config = AnalyzerConfig(n_clusters=6, kmeans_restarts=2, seed=3)
        a = Analyzer(config).analyze(refined)
        b = Analyzer(config).analyze(refined)
        np.testing.assert_array_equal(a.labels, b.labels)


class TestProjection:
    def test_project_reproduces_training_scores(self, analysis, refined):
        projected = analysis.project(refined.matrix)
        np.testing.assert_allclose(projected, analysis.scores, atol=1e-8)

    def test_classify_reproduces_training_labels(self, analysis, refined):
        labels = analysis.classify(refined.matrix)
        np.testing.assert_array_equal(labels, analysis.labels)

    def test_classify_new_point(self, analysis, refined):
        # A perturbed copy of a training row lands in the same cluster.
        row = refined.matrix[10:11] * 1.001
        label = analysis.classify(row)[0]
        assert label == analysis.labels[10]
