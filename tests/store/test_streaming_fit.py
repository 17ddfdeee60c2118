"""Out-of-core fitting: equivalence with the in-memory pipeline.

The acceptance contract of docs/store.md: on a smoke dataset the
store-backed streaming fit must reproduce the in-memory fit's pruning,
component count, cluster assignments and ranked representatives, and
the streaming path itself must be bit-identical across executors.
"""

from __future__ import annotations

import warnings

import numpy as np
import pytest

from repro.core import Flare, FlareConfig
from repro.core.analyzer import AnalyzerConfig
from repro.runtime import ProcessExecutor
from repro.telemetry.profiler import Profiler


@pytest.fixture(scope="module")
def config() -> FlareConfig:
    return FlareConfig(analyzer=AnalyzerConfig(n_clusters=8))


@pytest.fixture(scope="module")
def memory_fit(store_dataset, config) -> Flare:
    return Flare(config).fit(store_dataset)


@pytest.fixture(scope="module")
def streaming_flare(shared_store, config) -> Flare:
    return Flare(config).fit(shared_store)


class TestProfilerStreaming:
    def test_matrix_matches_in_memory(self, store_dataset, shared_store):
        profiler = Profiler()
        resident = profiler.profile(store_dataset).matrix
        streamed = profiler.profile(shared_store).matrix
        np.testing.assert_array_equal(resident, streamed)

    def test_serial_process_bit_identical(self, shared_store):
        profiler = Profiler()
        serial = profiler.profile(shared_store).matrix
        with ProcessExecutor(max_workers=2) as pool:
            parallel = profiler.profile(shared_store, runtime=pool).matrix
        np.testing.assert_array_equal(serial, parallel)

    def test_iter_profile_covers_source_in_order(self, shared_store):
        profiler = Profiler()
        start = 0
        for batch in profiler.iter_profile(shared_store):
            assert batch.start_row == start
            assert batch.matrix.shape[0] == len(batch.dataset)
            start += len(batch.dataset)
        assert start == len(shared_store)


class TestStreamingFitEquivalence:
    def test_pruning_identical(self, memory_fit, streaming_flare):
        assert (
            streaming_flare.prune_report.kept
            == memory_fit.prune_report.kept
        )
        assert (
            streaming_flare.prune_report.dropped
            == memory_fit.prune_report.dropped
        )

    def test_component_count_identical(self, memory_fit, streaming_flare):
        assert (
            streaming_flare.analysis.n_components
            == memory_fit.analysis.n_components
        )

    def test_cluster_assignments_identical(self, memory_fit, streaming_flare):
        np.testing.assert_array_equal(
            streaming_flare.analysis.kmeans.labels,
            memory_fit.analysis.kmeans.labels,
        )

    def test_cluster_weights_match(self, memory_fit, streaming_flare):
        np.testing.assert_allclose(
            streaming_flare.analysis.cluster_weights,
            memory_fit.analysis.cluster_weights,
            rtol=1e-9,
        )

    def test_representatives_identical(self, memory_fit, streaming_flare):
        mem = {
            g.cluster_id: g.ranked_members
            for g in memory_fit.representatives.groups
        }
        stream = {
            g.cluster_id: g.ranked_members
            for g in streaming_flare.representatives.groups
        }
        assert stream == mem

    def test_impact_estimates_identical(self, memory_fit, streaming_flare):
        from repro.cluster import FEATURE_1_CACHE

        mem = memory_fit.evaluate(FEATURE_1_CACHE)
        stream = streaming_flare.evaluate(FEATURE_1_CACHE)
        assert stream.reduction_pct == mem.reduction_pct

    def test_classify_matches_labels(self, streaming_flare, store_dataset):
        labels = streaming_flare.classify_dataset(store_dataset)
        np.testing.assert_array_equal(
            labels, streaming_flare.analysis.kmeans.labels
        )


class TestStreamingDeterminism:
    def test_serial_process_fits_bit_identical(self, shared_store, config):
        serial = Flare(config).fit(shared_store)
        with ProcessExecutor(max_workers=2) as pool:
            parallel = Flare(config).fit(shared_store, runtime=pool)
        np.testing.assert_array_equal(
            serial.analysis.kmeans.centroids,
            parallel.analysis.kmeans.centroids,
        )
        np.testing.assert_array_equal(
            serial.analysis.kmeans.labels, parallel.analysis.kmeans.labels
        )
        np.testing.assert_array_equal(
            serial.analysis.score_mean, parallel.analysis.score_mean
        )


class TestOutOfCoreSurface:
    def test_refined_matrix_unavailable_with_guidance(self, streaming_flare):
        with pytest.raises(RuntimeError, match="out-of-core"):
            streaming_flare.refined

    def test_diagnose_unavailable_with_guidance(self, streaming_flare):
        from repro.core.diagnostics import diagnose

        with pytest.raises(ValueError, match="in memory"):
            diagnose(streaming_flare)

    def test_scores_none_but_whitening_present(self, streaming_flare):
        assert streaming_flare.analysis.scores is None
        assert streaming_flare.analysis.score_mean.ndim == 1


class TestApproximatePath:
    def test_sample_smaller_than_source_still_fits(self, shared_store):
        from repro.core.streaming_fit import streaming_fit

        result = streaming_fit(
            shared_store,
            FlareConfig(analyzer=AnalyzerConfig(n_clusters=5)),
            sample_capacity=30,
        )
        assert result.n_scenarios == len(shared_store)
        assert result.analysis.kmeans.labels.shape == (len(shared_store),)
        assert result.analysis.kmeans.centroids.shape[0] == 5

    def test_weight_samples_guard(self, shared_store):
        from repro.core.streaming_fit import streaming_fit

        config = FlareConfig(
            analyzer=AnalyzerConfig(n_clusters=5, weight_samples=True)
        )
        with pytest.raises(ValueError, match="sample_capacity"):
            streaming_fit(shared_store, config, sample_capacity=30)


class TestBaselinesAcceptStores:
    def test_full_datacenter_truth_identical(
        self, store_dataset, shared_store
    ):
        from repro.baselines import evaluate_full_datacenter
        from repro.cluster import FEATURE_1_CACHE

        resident = evaluate_full_datacenter(store_dataset, FEATURE_1_CACHE)
        streamed = evaluate_full_datacenter(shared_store, FEATURE_1_CACHE)
        assert streamed.scenario_ids == resident.scenario_ids
        np.testing.assert_array_equal(
            streamed.reductions_pct, resident.reductions_pct
        )
        np.testing.assert_array_equal(streamed.weights, resident.weights)

    def test_stratified_sampling_accepts_store(
        self, store_dataset, shared_store
    ):
        from repro.baselines import evaluate_by_stratified_sampling
        from repro.cluster import FEATURE_1_CACHE

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            resident = evaluate_by_stratified_sampling(
                store_dataset, FEATURE_1_CACHE, sample_size=10, n_trials=20
            )
            streamed = evaluate_by_stratified_sampling(
                shared_store, FEATURE_1_CACHE, sample_size=10, n_trials=20
            )
        np.testing.assert_array_equal(
            streamed.trials.estimates, resident.trials.estimates
        )


class TestRowsAfter:
    def test_store_slice_stays_a_slice(self, small_sim, tmp_path, monkeypatch):
        from repro.core.streaming_fit import _rows_after
        from repro.store import write_store
        from repro.store.live import StoreSlice
        from repro.store.store import ShardedScenarioStore

        store = write_store(small_sim.dataset, tmp_path / "s", shard_size=16)
        assert len(store) >= 96
        loads = []
        load = ShardedScenarioStore.load_shard_arrays

        def counting(self, shard, *args, **kwargs):
            loads.append(shard)
            return load(self, shard, *args, **kwargs)

        monkeypatch.setattr(ShardedScenarioStore, "load_shard_arrays", counting)
        fresh = _rows_after(StoreSlice(store, 0, 90), 60)
        assert isinstance(fresh, StoreSlice)
        assert (fresh.start, fresh.stop) == (60, 90)
        assert loads == []
        rows = [s for batch in fresh.iter_batches() for s in batch.scenarios]
        # Only the shards overlapping rows [60, 90) are decoded: 48-63,
        # 64-79 and 80-95 — not every shard up to row 90.
        assert loads == [3, 4, 5]
        assert [s.scenario_id for s in rows] == [
            small_sim.dataset[i].scenario_id for i in range(60, 90)
        ]
