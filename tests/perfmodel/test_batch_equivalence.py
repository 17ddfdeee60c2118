"""Differential equivalence battery: the batched solver vs the scalar oracle.

The batched solver (the only solver in ``src/``) promises
*bit-identity* with the historical per-scenario fixed point, kept in
:mod:`tests.perfmodel.scalar_oracle` — strictly stronger than the 1e-9
agreement the acceptance criteria demand — so every comparison here
asserts exact float equality on all per-instance outputs (IPC, MIPS,
the full CPI stack, cache shares, miss ratios, bandwidth) and on the
machine-wide latency/utilisation summary.  Populations come from
hypothesis plus hand-built edge cases: single job, all-LP, saturated
bandwidth, zero-APKI signatures, empty scenarios, ragged batches.  The
end-to-end tests route every solve of the Profiler, the Replayer and
the full-datacenter truth through the oracle and compare.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster.features import BASELINE, PAPER_FEATURES
from repro.cluster.machine import DEFAULT_SHAPE
from repro.perfmodel import (
    MachinePerf,
    MissRatioCurve,
    RunningInstance,
    ScenarioBatch,
    SolveMemo,
    solve_colocation,
    solve_colocation_batch,
    solve_colocation_many,
)
from repro.perfmodel.signatures import JobSignature, Priority
from repro.workloads import HP_JOBS, LP_JOBS
from tests.perfmodel.scalar_oracle import routed_through_oracle
from tests.perfmodel.scalar_oracle import solve_colocation as oracle_solve

CATALOGUE = {**HP_JOBS, **LP_JOBS}
_ALL_JOBS = sorted(CATALOGUE)
_LP_ONLY = sorted(LP_JOBS)

_INSTANCE_FIELDS = (
    "mips",
    "ipc",
    "busy_threads",
    "cache_share_mb",
    "llc_miss_ratio",
    "llc_mpki",
    "dram_gbps",
    "network_gbps",
    "disk_mbps",
    "frequency_ghz",
)
_STACK_FIELDS = ("base", "frontend", "branch", "l2", "llc_hit", "dram", "smt")


def build(mix):
    return [
        RunningInstance(signature=CATALOGUE[name], load=load)
        for name, load in mix
    ]


def assert_solutions_identical(scalar, batched):
    """Assert the batched solution reproduces the scalar one bit for bit."""
    assert batched.converged == scalar.converged
    # Acceptance criterion: same iteration count or fewer.  (In practice
    # the batched loop replays the scalar schedule exactly, so equal.)
    assert batched.iterations <= scalar.iterations
    assert batched.cpu_utilization == scalar.cpu_utilization
    assert batched.mem_bw_utilization == scalar.mem_bw_utilization
    assert batched.mem_latency_ns == scalar.mem_latency_ns
    assert len(batched.instances) == len(scalar.instances)
    for b, s in zip(batched.instances, scalar.instances):
        assert b.job_name == s.job_name
        assert b.priority is s.priority
        for field in _INSTANCE_FIELDS:
            assert getattr(b, field) == getattr(s, field), (
                f"{s.job_name}.{field}: {getattr(b, field)!r} "
                f"!= {getattr(s, field)!r}"
            )
        for field in _STACK_FIELDS:
            assert getattr(b.cpi_stack, field) == getattr(
                s.cpi_stack, field
            ), f"{s.job_name}.cpi_stack.{field}"


def assert_batch_matches_scalar(machine, population):
    scalar = [oracle_solve(machine, instances) for instances in population]
    batched = solve_colocation_batch(machine, population)
    assert len(batched) == len(scalar)
    for s, b in zip(scalar, batched):
        assert_solutions_identical(s, b)
    return scalar, batched


job_mixes = st.lists(
    st.tuples(
        st.sampled_from(_ALL_JOBS),
        st.floats(min_value=0.3, max_value=1.0),
    ),
    min_size=1,
    max_size=16,
)

populations = st.lists(job_mixes, min_size=1, max_size=8)

machines = st.builds(
    MachinePerf,
    llc_mb=st.floats(min_value=8.0, max_value=120.0),
    max_freq_ghz=st.floats(min_value=1.3, max_value=3.8),
    smt_enabled=st.booleans(),
    mem_bw_gbps=st.floats(min_value=25.0, max_value=200.0),
)


class TestHypothesisPopulations:
    @settings(max_examples=50, deadline=None)
    @given(machines, populations)
    def test_batched_reproduces_scalar_bitwise(self, machine, pop):
        assert_batch_matches_scalar(machine, [build(mix) for mix in pop])

    @settings(max_examples=30, deadline=None)
    @given(populations)
    def test_equivalence_on_all_paper_feature_machines(self, pop):
        population = [build(mix) for mix in pop]
        for feature in (BASELINE, *PAPER_FEATURES):
            assert_batch_matches_scalar(
                feature(DEFAULT_SHAPE.perf), population
            )

    @settings(max_examples=30, deadline=None)
    @given(machines, populations)
    def test_iteration_counts_match(self, machine, pop):
        population = [build(mix) for mix in pop]
        scalar = [oracle_solve(machine, inst) for inst in population]
        batched = solve_colocation_batch(machine, population)
        # Bit-identical rates require replaying the exact damping
        # schedule, so the counts are not merely bounded — they agree.
        assert [b.iterations for b in batched] == [
            s.iterations for s in scalar
        ]


class TestEdgeCases:
    def test_single_job_scenarios(self):
        population = [
            [RunningInstance(signature=CATALOGUE[name], load=1.0)]
            for name in _ALL_JOBS
        ]
        assert_batch_matches_scalar(MachinePerf(), population)

    def test_all_lp_population(self):
        population = [
            build([(name, 0.5 + 0.5 * (i % 2)) for name in _LP_ONLY[: i + 1]])
            for i in range(len(_LP_ONLY))
        ]
        assert_batch_matches_scalar(MachinePerf(), population)

    def test_saturated_bandwidth_hits_util_cap(self):
        # A starved memory system pushes raw utilisation past the 0.95
        # cap; both solvers must walk the capped-latency branch the same
        # way.
        machine = MachinePerf(mem_bw_gbps=8.0)
        heavy = [
            build([("mcf", 1.0)] * 12),
            build([("libquantum", 1.0)] * 16),
            build([("mcf", 1.0), ("libquantum", 1.0)] * 8),
        ]
        scalar, _ = assert_batch_matches_scalar(machine, heavy)
        assert any(sol.mem_bw_utilization > 0.95 for sol in scalar)

    def test_zero_apki_job(self):
        # A pure-compute signature never touches the LLC: total access
        # rate can be zero, exercising the keep-previous-shares branch.
        compute = JobSignature(
            name="spin",
            description="pure-compute synthetic",
            priority=Priority.LOW,
            vcpus=4,
            dram_gb=8.0,
            base_cpi=0.6,
            frontend_cpi=0.1,
            branch_mpki=0.0,
            l1i_apki=0.0,
            l1d_apki=0.0,
            l2_apki=0.0,
            llc_apki=0.0,
            mrc=MissRatioCurve(half_capacity_mb=4.0),
            mem_blocking_factor=0.5,
        )
        population = [
            [RunningInstance(signature=compute, load=1.0)],
            [RunningInstance(signature=compute, load=0.7)] * 3,
            [
                RunningInstance(signature=compute, load=1.0),
                RunningInstance(signature=CATALOGUE["mcf"], load=1.0),
            ],
        ]
        assert_batch_matches_scalar(MachinePerf(), population)

    def test_empty_scenario_in_batch(self):
        population = [build([("DA", 1.0)]), [], build([("mcf", 0.5)])]
        scalar, batched = assert_batch_matches_scalar(
            MachinePerf(), population
        )
        assert batched[1].instances == ()
        assert batched[1].converged
        assert batched[1].iterations == 0
        assert batched[1].mem_latency_ns == MachinePerf().mem_latency_ns

    def test_all_empty_batch(self):
        batched = solve_colocation_batch(MachinePerf(), [[], []])
        assert all(sol.instances == () for sol in batched)

    def test_ragged_batch_padding_is_invisible(self):
        # A 1-instance row padded to 16 lanes must not perturb sums.
        population = [
            build([("WSC", 1.0)]),
            build([("mcf", 1.0)] * 16),
            build([("DC", 0.85), ("GA", 0.6)]),
        ]
        assert_batch_matches_scalar(MachinePerf(), population)
        # Each row must also match its solo (unpadded) batch solve.
        per_row = [
            solve_colocation_batch(MachinePerf(), [instances])[0]
            for instances in population
        ]
        batched = solve_colocation_batch(MachinePerf(), population)
        for solo, row in zip(per_row, batched):
            assert_solutions_identical(solo, row)

    def test_ondemand_governor_machines(self):
        machine = MachinePerf(governor="ondemand")
        population = [build([("DA", 1.0), ("mcf", 0.8)]), build([("WSV", 0.4)])]
        assert_batch_matches_scalar(machine, population)


class TestScenarioBatchLayout:
    def test_signature_table_is_deduplicated(self):
        population = [
            build([("DA", 1.0), ("DA", 0.5), ("mcf", 1.0)]),
            build([("DA", 0.7), ("mcf", 0.9)]),
        ]
        batch = ScenarioBatch.from_instances(population)
        assert len(batch.signatures) == 2
        assert len(batch) == 2
        assert batch.sig_params.shape == (11, 2)
        assert batch.sig_index.shape == (2, 3)
        assert batch.mask.tolist() == [[True, True, True], [True, True, False]]
        assert batch.counts.tolist() == [3, 2]
        assert batch.loads[1, 2] == 0.0

    def test_prebuilt_batch_and_sequence_agree(self):
        population = [build([("DC", 1.0)]), build([("GA", 0.8), ("IA", 0.6)])]
        from_seq = solve_colocation_batch(MachinePerf(), population)
        from_batch = solve_colocation_batch(
            MachinePerf(), ScenarioBatch.from_instances(population)
        )
        for a, b in zip(from_seq, from_batch):
            assert_solutions_identical(a, b)


class TestSolverModeDispatch:
    """Every public entry point reaches the same batched fixed point."""

    def test_solve_colocation_is_a_one_row_batch(self):
        machine = MachinePerf()
        for mix in ([("DA", 1.0), ("mcf", 0.9)], [("WSC", 0.7)], []):
            instances = build(mix)
            assert_solutions_identical(
                oracle_solve(machine, instances),
                solve_colocation(machine, instances),
            )

    def test_many_rejects_unknown_solver(self):
        # There is no solver to choose: the retired keyword is an error,
        # not a silently ignored option.
        with pytest.raises(TypeError, match="solver"):
            solve_colocation_many(
                MachinePerf(), [build([("DA", 1.0)])], solver="scalar"
            )

    def test_many_agrees_across_modes(self):
        from repro.perfmodel.contention import solve_colocation_cached

        machine = MachinePerf()
        population = [
            build([("DA", 1.0), ("mcf", 0.9)]),
            build([("WSC", 0.7)]),
            build([("DA", 1.0), ("mcf", 0.9)]),
        ]
        solve_colocation_cached.cache_clear()
        modes = {
            "plain": solve_colocation_many(machine, population),
            "cached": solve_colocation_many(machine, population, cached=True),
            "memo": solve_colocation_many(
                machine, population, memo=SolveMemo("memory")
            ),
        }
        solve_colocation_cached.cache_clear()
        for instances, *solutions in zip(population, *modes.values()):
            reference = oracle_solve(machine, instances)
            for solution in solutions:
                assert_solutions_identical(reference, solution)


class TestEndToEndEquivalence:
    """The routed callers agree with the oracle and across executors."""

    def _feature(self):
        return PAPER_FEATURES[0]

    def test_profiler_matrix_identical_across_solvers(
        self, tiny_dataset, monkeypatch
    ):
        from repro.telemetry import Profiler

        batched = Profiler(seed=11).profile(tiny_dataset).matrix
        with routed_through_oracle(monkeypatch):
            oracle = Profiler(seed=11).profile(tiny_dataset).matrix
        assert (oracle == batched).all()

    def test_profiler_process_executor_identical(self, tiny_dataset):
        from repro.runtime import ProcessExecutor
        from repro.telemetry import Profiler

        serial = Profiler(seed=11).profile(tiny_dataset)
        with ProcessExecutor(max_workers=2) as pool:
            parallel = Profiler(seed=11).profile(tiny_dataset, runtime=pool)
        assert (serial.matrix == parallel.matrix).all()

    def test_replayer_identical_across_solvers_and_executors(
        self, tiny_dataset, monkeypatch
    ):
        from repro.core.replayer import Replayer
        from repro.runtime import ProcessExecutor

        feature = self._feature()
        scenarios = tiny_dataset.scenarios
        results = {}
        with routed_through_oracle(monkeypatch):
            replayer = Replayer(tiny_dataset.shape)
            results["oracle"] = replayer.replay_many(scenarios, feature)
        replayer = Replayer(tiny_dataset.shape)
        results["batched"] = replayer.replay_many(scenarios, feature)
        results["single"] = tuple(
            replayer.replay(scenario, feature) for scenario in scenarios
        )
        with ProcessExecutor(max_workers=2) as pool:
            results["process"] = replayer.replay_many(
                scenarios, feature, executor=pool
            )
        reference = [m.reduction_pct for m in results["oracle"]]
        for key in ("batched", "single", "process"):
            assert [m.reduction_pct for m in results[key]] == reference
            for ref, got in zip(results["oracle"], results[key]):
                assert got.baseline.overall == ref.baseline.overall
                assert got.enabled.overall == ref.enabled.overall
                assert got.baseline.per_job == ref.baseline.per_job

    def test_full_datacenter_truth_identical(self, tiny_dataset, monkeypatch):
        from repro.baselines import evaluate_full_datacenter

        feature = self._feature()
        with routed_through_oracle(monkeypatch) as calls:
            scalar = evaluate_full_datacenter(tiny_dataset, feature)
        # The truth solves through the lanes core: the oracle must have
        # answered it, or this would compare batched with batched.
        assert calls["solve_colocation_lanes"] > 0
        batched = evaluate_full_datacenter(tiny_dataset, feature)
        assert scalar.overall_reduction_pct == batched.overall_reduction_pct
        assert scalar.per_job == batched.per_job
        assert (scalar.reductions_pct == batched.reductions_pct).all()
