"""Property-based tests for contention-solver invariants.

Every solve here goes through :func:`solve`, which also runs the scalar
test oracle and asserts bit-identity, so each hypothesis draw is a
differential check of the shipped solver as well as a physics check.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel import MachinePerf, RunningInstance
from repro.perfmodel import solve_colocation as shipped_solve
from repro.workloads import HP_JOBS, LP_JOBS
from tests.perfmodel.scalar_oracle import solve_colocation as oracle_solve
from tests.perfmodel.test_batch_equivalence import assert_solutions_identical

_ALL_JOBS = sorted({**HP_JOBS, **LP_JOBS})

job_mixes = st.lists(
    st.tuples(
        st.sampled_from(_ALL_JOBS),
        st.floats(min_value=0.3, max_value=1.0),
    ),
    min_size=1,
    max_size=12,
)

machines = st.builds(
    MachinePerf,
    llc_mb=st.floats(min_value=8.0, max_value=120.0),
    max_freq_ghz=st.floats(min_value=1.3, max_value=3.8),
    smt_enabled=st.booleans(),
    mem_bw_gbps=st.floats(min_value=30.0, max_value=200.0),
)


def solve_colocation(machine, instances):
    """The shipped solve, checked bit for bit against the oracle."""
    solution = shipped_solve(machine, instances)
    assert_solutions_identical(oracle_solve(machine, instances), solution)
    return solution


def build(mix):
    catalogue = {**HP_JOBS, **LP_JOBS}
    return [
        RunningInstance(signature=catalogue[name], load=load)
        for name, load in mix
    ]


@settings(max_examples=60, deadline=None)
@given(machines, job_mixes)
def test_solution_is_physical(machine, mix):
    sol = solve_colocation(machine, build(mix))
    total_share = 0.0
    for inst in sol.instances:
        assert inst.mips > 0.0
        assert 0.0 < inst.ipc < 8.0
        assert 0.0 <= inst.llc_miss_ratio <= 1.0
        assert inst.llc_mpki >= 0.0
        assert inst.cache_share_mb >= 0.0
        assert inst.dram_gbps >= 0.0
        total_share += inst.cache_share_mb
    assert total_share <= machine.llc_mb * (1.0 + 1e-6)
    assert 0.0 <= sol.cpu_utilization <= 1.0
    assert sol.mem_bw_utilization >= 0.0
    assert sol.mem_latency_ns >= machine.mem_latency_ns


@settings(max_examples=40, deadline=None)
@given(job_mixes)
def test_less_cache_never_helps(mix):
    instances = build(mix)
    big = solve_colocation(MachinePerf(llc_mb=60.0), instances)
    small = solve_colocation(MachinePerf(llc_mb=24.0), instances)
    assert small.total_mips <= big.total_mips * (1.0 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(job_mixes)
def test_lower_frequency_never_helps(mix):
    instances = build(mix)
    fast = solve_colocation(MachinePerf(max_freq_ghz=2.9), instances)
    slow = solve_colocation(MachinePerf(max_freq_ghz=1.8), instances)
    assert slow.total_mips <= fast.total_mips * (1.0 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(job_mixes)
def test_disabling_smt_never_helps(mix):
    instances = build(mix)
    on = solve_colocation(MachinePerf(smt_enabled=True), instances)
    off = solve_colocation(MachinePerf(smt_enabled=False), instances)
    assert off.total_mips <= on.total_mips * (1.0 + 1e-9)


@settings(max_examples=40, deadline=None)
@given(machines, job_mixes)
def test_deterministic(machine, mix):
    a = solve_colocation(machine, build(mix))
    b = solve_colocation(machine, build(mix))
    assert a.total_mips == b.total_mips
    assert a.mem_latency_ns == b.mem_latency_ns


@settings(max_examples=40, deadline=None)
@given(job_mixes)
def test_adding_a_job_never_speeds_up_existing_jobs(mix):
    machine = MachinePerf()
    instances = build(mix)
    before = solve_colocation(machine, instances)
    intruder = RunningInstance(signature=LP_JOBS["mcf"], load=1.0)
    after = solve_colocation(machine, instances + [intruder])
    for b, a in zip(before.instances, after.instances):
        assert a.mips <= b.mips * (1.0 + 1e-6)
