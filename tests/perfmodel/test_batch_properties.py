"""Physical-invariant property tests for the batched solver.

One-row solves (checked against the scalar test oracle) are covered
in ``test_contention_properties.py``; this module asserts the same physics
on :func:`repro.perfmodel.solve_colocation_batch` outputs — ragged
batches included — plus the model-level monotonicity and capping
contracts the batch layout must not disturb:

* LLC shares of a scenario never sum past the machine's capacity;
* the hyperbolic miss-ratio curve is monotone non-increasing in the
  allotted share;
* the bandwidth utilisation feeding the congestion latency is capped
  below 1, so memory latency is always finite and bounded;
* the SMT CPI penalty is exactly zero while the machine is not
  core-oversubscribed, and disabling SMT never shrinks the penalty.

Every batch solve here also checks each row bit for bit against the
scalar test oracle (:mod:`tests.perfmodel.scalar_oracle`).
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel import MachinePerf, RunningInstance
from repro.perfmodel import solve_colocation_batch as shipped_batch
from repro.perfmodel.contention import _BW_CONGESTION_GAIN, _BW_UTIL_CAP
from repro.perfmodel.mrc import hyperbolic_miss_ratio
from repro.workloads import HP_JOBS, LP_JOBS
from tests.perfmodel.scalar_oracle import solve_colocation as oracle_solve
from tests.perfmodel.test_batch_equivalence import assert_solutions_identical

_CATALOGUE = {**HP_JOBS, **LP_JOBS}
_ALL_JOBS = sorted(_CATALOGUE)

job_mixes = st.lists(
    st.tuples(
        st.sampled_from(_ALL_JOBS),
        st.floats(min_value=0.3, max_value=1.0),
    ),
    min_size=1,
    max_size=16,
)

populations = st.lists(job_mixes, min_size=1, max_size=6)

machines = st.builds(
    MachinePerf,
    llc_mb=st.floats(min_value=8.0, max_value=120.0),
    max_freq_ghz=st.floats(min_value=1.3, max_value=3.8),
    smt_enabled=st.booleans(),
    mem_bw_gbps=st.floats(min_value=15.0, max_value=200.0),
)


def solve_colocation_batch(machine, population):
    """The shipped batch solve, each row checked against the oracle."""
    solutions = shipped_batch(machine, population)
    for instances, solution in zip(population, solutions):
        assert_solutions_identical(oracle_solve(machine, instances), solution)
    return solutions


def build(pop):
    return [
        [
            RunningInstance(signature=_CATALOGUE[name], load=load)
            for name, load in mix
        ]
        for mix in pop
    ]


@settings(max_examples=50, deadline=None)
@given(machines, populations)
def test_llc_shares_never_exceed_capacity(machine, pop):
    for solution in solve_colocation_batch(machine, build(pop)):
        total_share = sum(inst.cache_share_mb for inst in solution.instances)
        assert total_share <= machine.llc_mb * (1.0 + 1e-6)
        for inst in solution.instances:
            assert inst.cache_share_mb >= 0.0


@settings(max_examples=50, deadline=None)
@given(
    st.sampled_from(_ALL_JOBS),
    st.lists(
        st.floats(min_value=0.0, max_value=240.0), min_size=2, max_size=12
    ),
)
def test_miss_ratio_monotone_non_increasing_in_share(name, shares):
    mrc = _CATALOGUE[name].mrc
    ordered = np.sort(np.asarray(shares))
    ratios = hyperbolic_miss_ratio(
        ordered,
        np.full_like(ordered, mrc.half_capacity_mb),
        np.full_like(ordered, mrc.shape),
        np.full_like(ordered, mrc.floor),
    )
    assert (np.diff(ratios) <= 1e-12).all()
    assert (ratios >= mrc.floor - 1e-12).all()
    assert (ratios <= 1.0 + 1e-12).all()


@settings(max_examples=50, deadline=None)
@given(machines, populations)
def test_bandwidth_is_capped_below_machine_ceiling(machine, pop):
    # The utilisation feeding the congestion term is clamped to
    # _BW_UTIL_CAP < 1, so the latency multiplier never blows up: the
    # solver models a saturated memory system, not an impossible one.
    latency_ceiling = machine.mem_latency_ns * (
        1.0
        + _BW_CONGESTION_GAIN * _BW_UTIL_CAP * _BW_UTIL_CAP / (1.0 - _BW_UTIL_CAP)
    )
    for solution in solve_colocation_batch(machine, build(pop)):
        assert solution.mem_bw_utilization >= 0.0
        assert np.isfinite(solution.mem_latency_ns)
        assert solution.mem_latency_ns <= latency_ceiling * (1.0 + 1e-12)
        # The *effective* utilisation — what the congestion latency
        # actually sees — never exceeds the cap, so modelled consumed
        # bandwidth stays below the machine ceiling.  (The reported raw
        # utilisation may exceed 1 in saturated scenarios by design:
        # it is the demand, not the delivered bandwidth.)
        effective = min(solution.mem_bw_utilization, _BW_UTIL_CAP)
        assert effective * machine.mem_bw_gbps < machine.mem_bw_gbps


@settings(max_examples=50, deadline=None)
@given(populations, st.booleans())
def test_smt_penalty_zero_without_core_oversubscription(pop, smt_enabled):
    # The SMT stack component models core *sharing*; while total busy
    # threads fit on physical cores there is nothing to share, SMT flag
    # or not.  (With SMT off and an oversubscribed machine the penalty
    # is legitimately non-zero — threads strictly time-slice.)
    machine = MachinePerf(smt_enabled=smt_enabled)
    population = build(pop)
    for scenario, solution in zip(
        population, solve_colocation_batch(machine, population)
    ):
        total_busy = sum(inst.busy_threads for inst in scenario)
        if total_busy <= machine.physical_cores:
            for inst in solution.instances:
                assert inst.cpi_stack.smt == 0.0


@settings(max_examples=40, deadline=None)
@given(populations)
def test_disabling_smt_never_shrinks_the_penalty(pop):
    population = build(pop)
    on = solve_colocation_batch(MachinePerf(smt_enabled=True), population)
    off = solve_colocation_batch(MachinePerf(smt_enabled=False), population)
    for sol_on, sol_off in zip(on, off):
        for inst_on, inst_off in zip(sol_on.instances, sol_off.instances):
            assert inst_off.cpi_stack.smt >= inst_on.cpi_stack.smt - 1e-12


@settings(max_examples=40, deadline=None)
@given(machines, populations)
def test_batched_solutions_are_physical(machine, pop):
    population = build(pop)
    for scenario, solution in zip(
        population, solve_colocation_batch(machine, population)
    ):
        assert len(solution.instances) == len(scenario)
        for inst in solution.instances:
            assert inst.mips > 0.0
            assert 0.0 < inst.ipc < 8.0
            assert 0.0 <= inst.llc_miss_ratio <= 1.0
            assert inst.llc_mpki >= 0.0
            assert inst.dram_gbps >= 0.0
        assert 0.0 <= solution.cpu_utilization <= 1.0
        assert solution.mem_latency_ns >= machine.mem_latency_ns
