"""Unit tests for the full-datacenter (truth) evaluation."""

import numpy as np
import pytest

from repro.baselines import (
    evaluate_full_datacenter,
    per_job_scenario_reductions,
)
from repro.cluster import BASELINE, FEATURE_1_CACHE, FEATURE_2_DVFS, PAPER_FEATURES


class TestEvaluateFullDatacenter:
    def test_covers_only_hp_scenarios(self, tiny_dataset):
        truth = evaluate_full_datacenter(tiny_dataset, FEATURE_1_CACHE)
        # Scenario 3 is LP-only and must be excluded.
        assert 3 not in truth.scenario_ids
        assert truth.evaluation_cost == 5

    def test_weights_normalised(self, tiny_dataset):
        truth = evaluate_full_datacenter(tiny_dataset, FEATURE_1_CACHE)
        assert truth.weights.sum() == pytest.approx(1.0)

    def test_overall_within_scenario_range(self, tiny_dataset):
        truth = evaluate_full_datacenter(tiny_dataset, FEATURE_2_DVFS)
        assert (
            truth.reductions_pct.min()
            <= truth.overall_reduction_pct
            <= truth.reductions_pct.max()
        )

    def test_baseline_feature_has_zero_impact(self, tiny_dataset):
        truth = evaluate_full_datacenter(tiny_dataset, BASELINE)
        np.testing.assert_allclose(truth.reductions_pct, 0.0, atol=1e-9)

    def test_per_job_covers_hosted_jobs(self, tiny_dataset):
        truth = evaluate_full_datacenter(tiny_dataset, FEATURE_1_CACHE)
        assert set(truth.per_job) == {
            "WSC", "GA", "DC", "DA", "WSV", "IA", "MS", "DS",
        }

    def test_lp_only_dataset_raises(self, tiny_dataset):
        from repro.cluster import ScenarioDataset

        lp_only = ScenarioDataset(
            shape=tiny_dataset.shape, scenarios=(tiny_dataset.scenarios[3],)
        )
        with pytest.raises(ValueError, match="no scenario with HP"):
            evaluate_full_datacenter(lp_only, FEATURE_1_CACHE)

    def test_features_have_positive_impact(self, tiny_dataset):
        for feature in (FEATURE_1_CACHE, FEATURE_2_DVFS):
            truth = evaluate_full_datacenter(tiny_dataset, feature)
            assert truth.overall_reduction_pct > 0.0


class TestPerJobScenarioReductions:
    def test_only_hosting_scenarios(self, tiny_dataset):
        pop = per_job_scenario_reductions(
            tiny_dataset, FEATURE_1_CACHE, "WSC"
        )
        assert set(pop.scenario_ids) == {0, 5}

    def test_weights_include_instance_count(self, tiny_dataset):
        pop = per_job_scenario_reductions(tiny_dataset, FEATURE_1_CACHE, "DA")
        # Only scenario 2 hosts DA (x2); weight normalises to 1.
        assert pop.scenario_ids == (2,)
        assert pop.weights[0] == pytest.approx(1.0)

    def test_mean_matches_truth_per_job(self, tiny_dataset):
        truth = evaluate_full_datacenter(tiny_dataset, FEATURE_1_CACHE)
        pop = per_job_scenario_reductions(tiny_dataset, FEATURE_1_CACHE, "WSC")
        assert pop.mean_reduction_pct == pytest.approx(
            truth.per_job["WSC"], abs=1e-9
        )

    def test_std_zero_for_single_scenario(self, tiny_dataset):
        pop = per_job_scenario_reductions(tiny_dataset, FEATURE_1_CACHE, "DA")
        assert pop.std_reduction_pct == pytest.approx(0.0, abs=1e-9)

    def test_unknown_job_raises(self, tiny_dataset):
        with pytest.raises(ValueError, match="no scenario hosts"):
            per_job_scenario_reductions(tiny_dataset, FEATURE_1_CACHE, "nope")


# ----------------------------------------------------------------------
# The columnar truth against per-object references.
def _object_truth(dataset, feature):
    """The truth from per-instance objects: one ``scenario_performance_many``
    per machine and source batch, aggregated as the columnar truth does.
    """
    from repro.core.performance import mips_reduction_pct, scenario_performance_many

    baseline_machine = BASELINE(dataset.shape.perf)
    feature_machine = feature(dataset.shape.perf)
    all_weights = dataset.weights()
    ids, reductions, weights, job_acc = [], [], [], {}
    index = 0
    for batch in dataset.iter_batches():
        eligible = []
        for scenario in batch.scenarios:
            if scenario.hp_instances:
                eligible.append((index, scenario))
            index += 1
        if not eligible:
            continue
        scenarios = [scenario for _, scenario in eligible]
        bases = scenario_performance_many(baseline_machine, scenarios)
        enableds = scenario_performance_many(
            feature_machine, scenarios, normalize_machine=baseline_machine
        )
        for (index_, scenario), base, enabled in zip(eligible, bases, enableds):
            ids.append(scenario.scenario_id)
            reductions.append(mips_reduction_pct(base.overall, enabled.overall))
            weights.append(float(all_weights[index_]))
            for job, base_perf in base.per_job.items():
                job_acc.setdefault(job, []).append(
                    (
                        float(all_weights[index_]) * scenario.count_of(job),
                        mips_reduction_pct(base_perf, enabled.per_job[job]),
                    )
                )
    weight_arr = np.asarray(weights)
    per_job = {
        job: sum(w * r for w, r in entries) / sum(w for w, _ in entries)
        for job, entries in job_acc.items()
    }
    return tuple(ids), np.asarray(reductions), weight_arr / weight_arr.sum(), per_job


def assert_truths_identical(a, b):
    """Exact equality: ids, bytes of reductions and weights, per-job floats
    and their order."""
    assert a.scenario_ids == b.scenario_ids
    assert a.reductions_pct.tobytes() == b.reductions_pct.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()
    assert list(a.per_job.items()) == list(b.per_job.items())
    assert a.evaluation_cost == b.evaluation_cost


def assert_populations_identical(a, b):
    assert a.scenario_ids == b.scenario_ids
    assert a.reductions_pct.tobytes() == b.reductions_pct.tobytes()
    assert a.weights.tobytes() == b.weights.tobytes()


def _hosted_hp_jobs(dataset):
    return sorted(
        {inst.signature.name for s in dataset.scenarios for inst in s.hp_instances}
    )


@pytest.fixture
def tiny_store(tiny_dataset, tmp_path):
    from repro.store import write_store

    return write_store(tiny_dataset, tmp_path / "tiny", shard_size=2)


class TestColumnarTruth:
    @pytest.mark.parametrize("feature", PAPER_FEATURES, ids=lambda f: f.name)
    def test_matches_object_path(self, small_sim, feature):
        truth = evaluate_full_datacenter(small_sim.dataset, feature)
        ids, reductions, weights, per_job = _object_truth(
            small_sim.dataset, feature
        )
        assert truth.scenario_ids == ids
        assert truth.reductions_pct.tobytes() == reductions.tobytes()
        assert truth.weights.tobytes() == weights.tobytes()
        assert list(truth.per_job.items()) == list(per_job.items())

    def test_matches_oracle(self, tiny_dataset, monkeypatch):
        from tests.perfmodel.scalar_oracle import routed_through_oracle

        feature = PAPER_FEATURES[0]
        with routed_through_oracle(monkeypatch) as calls:
            oracle = evaluate_full_datacenter(tiny_dataset, feature)
            reference = _object_truth(tiny_dataset, feature)
        assert calls["solve_colocation_lanes"] > 0
        assert calls["solve_colocation_batch"] > 0
        batched = evaluate_full_datacenter(tiny_dataset, feature)
        assert_truths_identical(oracle, batched)
        assert reference[0] == batched.scenario_ids
        assert reference[1].tobytes() == batched.reductions_pct.tobytes()
        assert list(reference[3].items()) == list(batched.per_job.items())

    def test_per_job_matches_oracle(self, tiny_dataset, monkeypatch):
        from tests.perfmodel.scalar_oracle import routed_through_oracle

        feature = PAPER_FEATURES[1]
        jobs = _hosted_hp_jobs(tiny_dataset)
        with routed_through_oracle(monkeypatch) as calls:
            oracle = [
                per_job_scenario_reductions(tiny_dataset, feature, job)
                for job in jobs
            ]
        assert calls["solve_colocation_lanes"] >= len(jobs)
        for job, reference in zip(jobs, oracle):
            assert_populations_identical(
                reference, per_job_scenario_reductions(tiny_dataset, feature, job)
            )

    def test_memo_on_matches_off_cold_and_warm(self, small_sim):
        from repro.perfmodel import SolveMemo

        dataset = small_sim.dataset
        feature = PAPER_FEATURES[2]
        off = evaluate_full_datacenter(dataset, feature)
        memo = SolveMemo("memory")
        cold = evaluate_full_datacenter(dataset, feature, memo=memo)
        cold_stats = memo.stats()
        assert cold_stats["memory_misses"] > 0
        warm = evaluate_full_datacenter(dataset, feature, memo=memo)
        warm_stats = memo.stats()
        # Every warm lookup hits; none misses.
        assert warm_stats["memory_misses"] == cold_stats["memory_misses"]
        assert (
            warm_stats["memory_hits"] - cold_stats["memory_hits"]
            == cold_stats["memory_hits"] + cold_stats["memory_misses"]
        )
        assert_truths_identical(off, cold)
        assert_truths_identical(off, warm)
        job = _hosted_hp_jobs(dataset)[0]
        assert_populations_identical(
            per_job_scenario_reductions(dataset, feature, job),
            per_job_scenario_reductions(dataset, feature, job, memo=memo),
        )

    def test_store_matches_memory(self, tiny_dataset, tiny_store):
        assert tiny_store.n_shards == 3
        for feature in PAPER_FEATURES:
            assert_truths_identical(
                evaluate_full_datacenter(tiny_dataset, feature),
                evaluate_full_datacenter(tiny_store, feature),
            )
        for job in _hosted_hp_jobs(tiny_dataset):
            assert_populations_identical(
                per_job_scenario_reductions(tiny_dataset, FEATURE_1_CACHE, job),
                per_job_scenario_reductions(tiny_store, FEATURE_1_CACHE, job),
            )

    def test_truth_leaves_solve_cache_alone(self, tiny_store):
        from repro.perfmodel.contention import solve_colocation_cached

        before = solve_colocation_cached.cache_info()
        evaluate_full_datacenter(tiny_store, FEATURE_1_CACHE)
        per_job_scenario_reductions(tiny_store, FEATURE_1_CACHE, "WSC")
        assert solve_colocation_cached.cache_info() == before

    def test_cold_truth_makes_one_normaliser_batch(
        self, tiny_dataset, monkeypatch
    ):
        from repro.core import performance

        batches = []
        solve = performance._solve_inherent

        def counting(machine, pairs):
            batches.append(len(pairs))
            return solve(machine, pairs)

        monkeypatch.setattr(performance, "_solve_inherent", counting)
        performance.inherent_mips.cache_clear()
        evaluate_full_datacenter(tiny_dataset, FEATURE_2_DVFS)
        assert len(batches) == 1
        # Every (signature, load) pair of an HP instance, once each.
        pairs = {
            (inst.signature.name, inst.load)
            for scenario in tiny_dataset.scenarios
            for inst in scenario.hp_instances
        }
        assert batches == [len(pairs)]
        evaluate_full_datacenter(tiny_dataset, FEATURE_1_CACHE)
        assert len(batches) == 1

    def test_object_path_batches_normalisers_per_call(
        self, tiny_dataset, monkeypatch
    ):
        from repro.core import performance

        batches = []
        solve = performance._solve_inherent
        monkeypatch.setattr(
            performance,
            "_solve_inherent",
            lambda machine, pairs: batches.append(len(pairs)) or solve(machine, pairs),
        )
        performance.inherent_mips.cache_clear()
        machine = BASELINE(tiny_dataset.shape.perf)
        cold = performance.scenario_performance_many(machine, tiny_dataset.scenarios)
        assert len(batches) == 1
        performance.inherent_mips.cache_clear()
        one_by_one = tuple(
            performance.scenario_performance(machine, scenario)
            for scenario in tiny_dataset.scenarios
        )
        assert cold == one_by_one
