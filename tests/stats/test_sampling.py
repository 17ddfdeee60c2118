"""Unit tests for the sampling-trial machinery."""

import numpy as np
import pytest

from repro.stats import (
    expected_max_error,
    percentile_interval,
    run_sampling_trials,
    summarize_distribution,
)


class TestSummarizeDistribution:
    def test_five_number_summary(self):
        values = np.arange(101, dtype=float)
        s = summarize_distribution(values)
        assert s.minimum == 0.0
        assert s.maximum == 100.0
        assert s.median == 50.0
        assert s.q1 == 25.0
        assert s.q3 == 75.0
        assert s.iqr() == 50.0
        assert s.n == 101

    def test_mean_std(self, rng):
        values = rng.normal(3.0, 2.0, size=5000)
        s = summarize_distribution(values)
        assert s.mean == pytest.approx(3.0, abs=0.1)
        assert s.std == pytest.approx(2.0, abs=0.1)

    def test_as_dict_keys(self):
        d = summarize_distribution([1.0, 2.0]).as_dict()
        assert set(d) == {"mean", "std", "min", "q1", "median", "q3", "max", "n"}

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            summarize_distribution([])


class TestRunSamplingTrials:
    def test_unbiased_mean(self, rng):
        population = rng.normal(10.0, 5.0, size=500)
        result = run_sampling_trials(
            population, sample_size=20, n_trials=2000, seed=1
        )
        assert result.truth == pytest.approx(population.mean())
        assert result.estimates.mean() == pytest.approx(result.truth, abs=0.1)

    def test_error_shrinks_with_sample_size(self, rng):
        population = rng.normal(0.0, 10.0, size=1000)
        small = run_sampling_trials(
            population, sample_size=5, n_trials=500, seed=2
        )
        large = run_sampling_trials(
            population, sample_size=200, n_trials=500, seed=2
        )
        assert large.errors().mean() < small.errors().mean()

    def test_weighted_truth(self):
        population = np.array([0.0, 100.0])
        result = run_sampling_trials(
            population,
            sample_size=1,
            n_trials=3000,
            seed=3,
            weights=np.array([0.25, 0.75]),
            replace=True,
        )
        assert result.truth == pytest.approx(75.0)
        assert result.estimates.mean() == pytest.approx(75.0, abs=3.0)

    def test_full_sample_without_replacement_is_exact(self, rng):
        population = rng.normal(size=50)
        result = run_sampling_trials(
            population, sample_size=50, n_trials=10, seed=4
        )
        np.testing.assert_allclose(result.estimates, result.truth, atol=1e-12)

    def test_oversample_without_replacement_raises(self):
        with pytest.raises(ValueError, match="exceeds population"):
            run_sampling_trials([1.0, 2.0], sample_size=3, n_trials=1)

    def test_oversample_with_replacement_ok(self):
        result = run_sampling_trials(
            [1.0, 2.0], sample_size=10, n_trials=5, seed=0, replace=True
        )
        assert result.estimates.shape == (5,)

    def test_max_error_at_confidence(self, rng):
        population = rng.normal(size=300)
        result = run_sampling_trials(
            population, sample_size=10, n_trials=1000, seed=5
        )
        p95 = result.max_error_at_confidence(0.95)
        assert (result.errors() <= p95).mean() >= 0.95

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            run_sampling_trials([], sample_size=1, n_trials=1)
        with pytest.raises(ValueError):
            run_sampling_trials([1.0], sample_size=0, n_trials=1)
        with pytest.raises(ValueError):
            run_sampling_trials([1.0], sample_size=1, n_trials=0)
        with pytest.raises(ValueError, match="weights"):
            run_sampling_trials(
                [1.0, 2.0], sample_size=1, n_trials=1, weights=[1.0]
            )

    def test_deterministic_for_seed(self, rng):
        population = rng.normal(size=100)
        a = run_sampling_trials(population, sample_size=5, n_trials=50, seed=9)
        b = run_sampling_trials(population, sample_size=5, n_trials=50, seed=9)
        np.testing.assert_array_equal(a.estimates, b.estimates)


class TestPercentileInterval:
    def test_covers_central_mass(self, rng):
        values = rng.normal(size=10000)
        low, high = percentile_interval(values, confidence=0.95)
        inside = ((values >= low) & (values <= high)).mean()
        assert inside == pytest.approx(0.95, abs=0.01)

    def test_interval_ordering(self, rng):
        low, high = percentile_interval(rng.normal(size=100), confidence=0.5)
        assert low <= high

    def test_invalid_confidence(self):
        with pytest.raises(ValueError):
            percentile_interval([1.0, 2.0], confidence=1.0)


class TestExpectedMaxError:
    def test_shrinks_with_sample_size(self, rng):
        population = rng.normal(size=500)
        errs = [
            expected_max_error(population, sample_size=n) for n in (10, 50, 200)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_zero_at_full_population(self, rng):
        population = rng.normal(size=100)
        err = expected_max_error(population, sample_size=100)
        assert err == pytest.approx(0.0, abs=1e-12)

    def test_matches_normal_theory(self, rng):
        population = rng.normal(0, 4.0, size=100000)
        err = expected_max_error(population, sample_size=100)
        # 1.96 * 4 / 10, finite-population correction ~ 1.
        assert err == pytest.approx(0.784, rel=0.05)

    def test_invalid_args(self, rng):
        population = rng.normal(size=10)
        with pytest.raises(ValueError):
            expected_max_error(population, sample_size=0)
        with pytest.raises(ValueError):
            expected_max_error(population, sample_size=11)
        with pytest.raises(ValueError):
            expected_max_error([1.0], sample_size=1)
