"""Unit tests for the stratified-sampling baseline."""

import numpy as np
import pytest

from repro.baselines import (
    evaluate_by_sampling,
    evaluate_by_stratified_sampling,
    evaluate_full_datacenter,
    stratify_by_metric,
)
from repro.cluster import FEATURE_2_DVFS


class TestStratifyByMetric:
    def test_quantile_strata_balanced(self, rng):
        values = rng.normal(size=1000)
        strata = stratify_by_metric(values, n_strata=4)
        counts = np.bincount(strata)
        assert counts.size == 4
        assert counts.min() > 200

    def test_single_stratum(self, rng):
        strata = stratify_by_metric(rng.normal(size=10), n_strata=1)
        assert (strata == 0).all()

    def test_monotone_in_value(self, rng):
        values = np.sort(rng.normal(size=100))
        strata = stratify_by_metric(values, n_strata=5)
        assert (np.diff(strata) >= 0).all()

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            stratify_by_metric(np.zeros(5), n_strata=0)
        with pytest.raises(ValueError):
            stratify_by_metric(np.zeros((2, 2)), n_strata=2)


class TestStratifiedSampling:
    @pytest.fixture(scope="class")
    def dataset(self, small_sim):
        return small_sim.dataset

    @pytest.fixture(scope="class")
    def truth(self, dataset):
        return evaluate_full_datacenter(dataset, FEATURE_2_DVFS)

    def test_unbiased(self, dataset, truth):
        result = evaluate_by_stratified_sampling(
            dataset,
            FEATURE_2_DVFS,
            sample_size=18,
            n_trials=600,
            seed=1,
            truth=truth,
        )
        assert result.mean_estimate == pytest.approx(
            truth.overall_reduction_pct, abs=0.5
        )

    def test_no_worse_than_naive_sampling(self, dataset, truth):
        """Stratification must not hurt (textbook result)."""
        naive = evaluate_by_sampling(
            dataset, FEATURE_2_DVFS, sample_size=18, n_trials=800,
            seed=2, truth=truth,
        )
        stratified = evaluate_by_stratified_sampling(
            dataset, FEATURE_2_DVFS, sample_size=18, n_trials=800,
            seed=2, truth=truth,
        )
        assert stratified.trials.estimates.std() <= (
            naive.trials.estimates.std() * 1.1
        )

    def test_mpki_stratification_works(self, dataset, truth):
        result = evaluate_by_stratified_sampling(
            dataset, FEATURE_2_DVFS, sample_size=18, n_trials=100,
            seed=3, stratify_on="hp_mpki", truth=truth,
        )
        assert result.evaluation_cost == 18

    def test_unknown_key_raises(self, dataset, truth):
        with pytest.raises(ValueError, match="unknown stratification"):
            evaluate_by_stratified_sampling(
                dataset, FEATURE_2_DVFS, sample_size=18, n_trials=5,
                seed=0, stratify_on="nope", truth=truth,
            )

    def test_sample_size_below_strata_raises(self, dataset, truth):
        with pytest.raises(ValueError, match=">= n_strata"):
            evaluate_by_stratified_sampling(
                dataset, FEATURE_2_DVFS, sample_size=3, n_trials=5,
                seed=0, n_strata=6, truth=truth,
            )

    def test_deterministic(self, dataset, truth):
        a = evaluate_by_stratified_sampling(
            dataset, FEATURE_2_DVFS, sample_size=12, n_trials=50,
            seed=9, truth=truth,
        )
        b = evaluate_by_stratified_sampling(
            dataset, FEATURE_2_DVFS, sample_size=12, n_trials=50,
            seed=9, truth=truth,
        )
        np.testing.assert_array_equal(a.trials.estimates, b.trials.estimates)
