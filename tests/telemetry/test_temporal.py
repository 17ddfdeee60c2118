"""Unit tests for the temporal-metric extension (paper §4.1)."""

import numpy as np
import pytest

from repro.cluster import FEATURE_1_CACHE
from repro.core import Flare, FlareConfig
from repro.core.analyzer import AnalyzerConfig
from repro.telemetry import Profiler, all_metric_names
from repro.telemetry.metrics import TEMPORAL_BASES, all_metric_specs


class TestRegistry:
    def test_default_registry_has_no_temporal_metrics(self):
        assert not any("-Std-" in n for n in all_metric_names())

    def test_temporal_registry_appends_std_metrics(self):
        names = all_metric_names(include_temporal=True)
        for base in TEMPORAL_BASES:
            assert f"{base}-Std-Machine" in names
            assert f"{base}-Std-HP" in names

    def test_temporal_specs_categorised(self):
        specs = all_metric_specs(include_temporal=True)
        temporal = [s for s in specs if s.category == "temporal"]
        assert len(temporal) == 2 * len(TEMPORAL_BASES)


class TestProfiler:
    @pytest.fixture(scope="class")
    def profiled(self, tiny_dataset):
        profiler = Profiler(noise_sigma=0.0, seed=5, temporal_samples=3)
        return profiler.profile(tiny_dataset)

    def test_matrix_includes_temporal_columns(self, profiled):
        assert profiled.n_metrics == 102 + 8

    def test_std_values_nonnegative_and_finite(self, profiled):
        for base in TEMPORAL_BASES:
            col = profiled.column(f"{base}-Std-Machine")
            assert (col >= 0.0).all()
            assert np.isfinite(col).all()

    def test_std_scales_with_counter_magnitude(self, profiled):
        mips_std = profiled.column("MIPS-Std-Machine")
        ipc_std = profiled.column("IPC-Std-Machine")
        assert mips_std.mean() > ipc_std.mean()

    def test_hp_std_zero_for_lp_only_scenarios(self, profiled, tiny_dataset):
        row = 3  # LP-only scenario
        assert profiled.column("MIPS-Std-HP")[row] == 0.0

    def test_deterministic(self, tiny_dataset):
        a = Profiler(noise_sigma=0.0, seed=5, temporal_samples=3).profile(
            tiny_dataset
        )
        b = Profiler(noise_sigma=0.0, seed=5, temporal_samples=3).profile(
            tiny_dataset
        )
        np.testing.assert_array_equal(a.matrix, b.matrix)

    def test_jitter_widens_spread(self, tiny_dataset):
        narrow = Profiler(
            noise_sigma=0.0, seed=5, temporal_samples=4, temporal_jitter=0.05
        ).profile(tiny_dataset)
        wide = Profiler(
            noise_sigma=0.0, seed=5, temporal_samples=4, temporal_jitter=0.3
        ).profile(tiny_dataset)
        assert (
            wide.column("MIPS-Std-Machine").mean()
            > narrow.column("MIPS-Std-Machine").mean()
        )

    def test_invalid_params(self):
        with pytest.raises(ValueError):
            Profiler(temporal_samples=-1)
        with pytest.raises(ValueError):
            Profiler(temporal_jitter=1.0)


class TestPipelineIntegration:
    def test_flare_with_temporal_metrics(self, tiny_dataset):
        config = FlareConfig(
            temporal_samples=2,
            analyzer=AnalyzerConfig(n_clusters=2, kmeans_restarts=2, seed=0),
        )
        flare = Flare(config).fit(tiny_dataset)
        assert any(
            "-Std-" in name for name in flare.profiled.metric_names
        )
        estimate = flare.evaluate(FEATURE_1_CACHE)
        assert estimate.reduction_pct > 0.0

    def test_temporal_classification_consistent(self, small_sim):
        config = FlareConfig(
            temporal_samples=2,
            analyzer=AnalyzerConfig(n_clusters=4, kmeans_restarts=2, seed=0),
        )
        flare = Flare(config).fit(small_sim.dataset)
        labels = flare.classify_dataset(small_sim.dataset)
        agreement = (labels == flare.analysis.labels).mean()
        assert agreement > 0.9


class TestVectorisedDifferential:
    """The vectorised temporal sampler vs the scalar reference.

    ``_temporal_metrics`` draws every jitter factor in one RNG call and
    batches the co-location solves; ``temporal_metrics_scalar`` in
    :mod:`tests.perfmodel.scalar_oracle` is the original per-sample
    loop, solving through the scalar oracle, kept as ground truth.  The two must agree
    bit for bit — any platform or refactor that breaks the documented
    stream/reduction equivalences fails here first.
    """

    def _assert_bitwise_equal(self, profiler, dataset):
        import struct

        from repro.telemetry.metrics import MetricLevel
        from repro.telemetry.profiler import _level_metrics
        from tests.perfmodel.scalar_oracle import (
            solve_colocation,
            temporal_metrics_scalar,
        )

        machine = dataset.shape.perf
        bits = lambda x: struct.pack("<d", x)  # noqa: E731
        for scenario in dataset.scenarios:
            solution = solve_colocation(machine, list(scenario.instances))
            pairs = list(zip(scenario.instances, solution.instances))
            base_values = {}
            for level, keep in (
                (MetricLevel.MACHINE, lambda p: True),
                (MetricLevel.HP, lambda p: p.is_high_priority),
            ):
                subset = [(ri, pi) for ri, pi in pairs if keep(pi)]
                for base, value in _level_metrics(
                    subset,
                    dataset.shape.vcpus,
                    dataset.shape.dram_gb,
                    machine,
                ).items():
                    base_values[f"{base}-{level.value}"] = value
            vectorised = profiler._temporal_metrics(
                scenario, machine, base_values
            )
            scalar = temporal_metrics_scalar(
                profiler, scenario, machine, base_values
            )
            assert vectorised.keys() == scalar.keys()
            for name in scalar:
                assert bits(vectorised[name]) == bits(scalar[name]), (
                    scenario.scenario_id,
                    name,
                    vectorised[name],
                    scalar[name],
                )

    def test_bitwise_equal_on_handcrafted_scenarios(self, tiny_dataset):
        profiler = Profiler(noise_sigma=0.0, seed=5, temporal_samples=4)
        self._assert_bitwise_equal(profiler, tiny_dataset)

    def test_bitwise_equal_on_simulated_scenarios(self, small_sim):
        from repro.cluster import ScenarioDataset

        profiler = Profiler(noise_sigma=0.02, seed=11, temporal_samples=3)
        subset = ScenarioDataset(
            shape=small_sim.dataset.shape,
            scenarios=small_sim.dataset.scenarios[:25],
        )
        self._assert_bitwise_equal(profiler, subset)
