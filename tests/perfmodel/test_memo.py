"""Cross-layer equivalence battery for the persistent solve memo.

The memo is only sound if a hit is indistinguishable from a fresh
solve.  These tests pin that down from every direction:

* **differential equivalence** (hypothesis): memo-on and memo-off runs
  of ``solve_colocation_many`` agree on every published float *exactly*
  (``==``, not approx) with the scalar test oracle
  (:mod:`tests.perfmodel.scalar_oracle`), for random machines and
  scenario populations;
* **every entry point memoises**: one-scenario Profiler and Replayer
  calls consult and fill the memo like larger ones;
* **cold == warm == cross-run**: a store-backed memo returns the same
  bits whether the entry was just solved, is served from the in-process
  LRU, or is read back by a fresh process-equivalent instance from the
  segment files;
* **adversarial keys**: distinct machine configurations (including
  ``-0.0`` vs ``0.0``) and distinct scenarios can never alias onto one
  key, and a hypothetical digest collision degrades to a miss via the
  instance-count check rather than returning a wrong solve;
* **corruption/truncation**: damaged segment files fail their digest
  check and are dropped whole — every damaged-store outcome is a miss
  followed by a correct fresh solve, never a wrong answer.
"""

from __future__ import annotations

import dataclasses
import json
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, set_metrics
from repro.perfmodel import MachinePerf, RunningInstance
from repro.perfmodel.batch import solve_colocation_many
from repro.perfmodel.contention import solve_colocation
from repro.perfmodel.memo import (
    MEMO_FORMAT_VERSION,
    SolveMemo,
    _MEMO_REGISTRY,
    decode_memo_entries,
    encode_memo_entries,
    resolve_memo,
    solve_key,
    validate_memo_spec,
)
from repro.workloads import HP_JOBS, LP_JOBS
from tests.perfmodel.scalar_oracle import solve_colocation as oracle_solve

_CATALOGUE = {**HP_JOBS, **LP_JOBS}
_ALL_JOBS = sorted(_CATALOGUE)

job_mixes = st.lists(
    st.tuples(
        st.sampled_from(_ALL_JOBS),
        st.floats(min_value=0.3, max_value=1.0),
    ),
    min_size=1,
    max_size=10,
)

populations = st.lists(job_mixes, min_size=1, max_size=6)

machines = st.builds(
    MachinePerf,
    llc_mb=st.floats(min_value=8.0, max_value=120.0),
    max_freq_ghz=st.floats(min_value=1.3, max_value=3.8),
    smt_enabled=st.booleans(),
    mem_bw_gbps=st.floats(min_value=15.0, max_value=200.0),
)

_STACK_FIELDS = ("base", "frontend", "branch", "l2", "llc_hit", "dram", "smt")
_PERF_FIELDS = (
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


def build(pop):
    return [
        [
            RunningInstance(signature=_CATALOGUE[name], load=load)
            for name, load in mix
        ]
        for mix in pop
    ]


def assert_bit_identical(expected, actual, context=""):
    """Exact (``==``) equality on every published solve float."""
    assert actual.converged == expected.converged, context
    assert actual.iterations == expected.iterations, context
    assert actual.cpu_utilization == expected.cpu_utilization, context
    assert actual.mem_bw_utilization == expected.mem_bw_utilization, context
    assert actual.mem_latency_ns == expected.mem_latency_ns, context
    assert len(actual.instances) == len(expected.instances), context
    for got, want in zip(actual.instances, expected.instances):
        assert got.job_name == want.job_name, context
        assert got.priority == want.priority, context
        for field in _PERF_FIELDS:
            assert getattr(got, field) == getattr(want, field), (
                f"{context} {want.job_name}.{field}"
            )
        for field in _STACK_FIELDS:
            assert getattr(got.cpi_stack, field) == getattr(
                want.cpi_stack, field
            ), f"{context} {want.job_name}.cpi_stack.{field}"


@pytest.fixture(autouse=True)
def _clean_registry():
    _MEMO_REGISTRY.clear()
    yield
    _MEMO_REGISTRY.clear()


# ----------------------------------------------------------------------
# Differential equivalence: memo on == memo off, exactly
@settings(max_examples=40, deadline=None)
@given(machines, populations)
def test_memo_on_equals_memo_off_exactly(machine, pop):
    population = build(pop)
    plain = solve_colocation_many(machine, population)
    memo = SolveMemo("memory")
    cold = solve_colocation_many(machine, population, memo=memo)
    warm = solve_colocation_many(machine, population, memo=memo)
    for index, instances in enumerate(population):
        reference = oracle_solve(machine, instances)
        assert_bit_identical(reference, plain[index], f"plain[{index}]")
        assert_bit_identical(reference, cold[index], f"cold[{index}]")
        assert_bit_identical(reference, warm[index], f"warm[{index}]")


@settings(max_examples=25, deadline=None)
@given(machines, populations)
def test_memoised_scalar_equals_memoised_batched(machine, pop):
    population = build(pop)
    batched = solve_colocation_many(
        machine, population, memo=SolveMemo("memory")
    )
    for index, instances in enumerate(population):
        assert_bit_identical(
            oracle_solve(machine, instances), batched[index], f"[{index}]"
        )


def _population():
    return build(
        [
            [("WSC", 1.0), ("GA", 1.0)],
            [("DC", 0.85), ("mcf", 1.0)],
            [("DA", 1.0), ("DA", 0.7), ("WSV", 0.85)],
            [("IA", 1.0), ("MS", 0.7), ("omnetpp", 1.0)],
            [("WSC", 1.0), ("GA", 1.0)],  # duplicate of scenario 0
        ]
    )


def test_cold_warm_and_cross_run_are_bit_identical(tmp_path):
    machine = MachinePerf()
    population = _population()
    plain = solve_colocation_many(machine, population)
    spec = f"store:{tmp_path / 'memo'}"

    cold_memo = SolveMemo(spec)
    cold = solve_colocation_many(machine, population, memo=cold_memo)
    assert cold_memo.stats()["segments_written"] == 1
    # unique scenarios only — the duplicate dedups to one entry
    assert cold_memo.store_entries == 4

    warm = solve_colocation_many(machine, population, memo=cold_memo)
    assert cold_memo.stats()["memory_hits"] >= len(population)

    # A fresh instance over the same directory models the cross-run /
    # cross-process reader: everything must come from the segments.
    fresh = SolveMemo(spec)
    cross = solve_colocation_many(machine, population, memo=fresh)
    assert fresh.store_hits == 4
    assert fresh.segments_written == 0

    for index, reference in enumerate(plain):
        assert_bit_identical(reference, cold[index], f"cold[{index}]")
        assert_bit_identical(reference, warm[index], f"warm[{index}]")
        assert_bit_identical(reference, cross[index], f"cross[{index}]")


def test_in_batch_duplicates_share_one_solve(tmp_path):
    memo = SolveMemo(f"store:{tmp_path / 'memo'}")
    population = _population()
    solutions = solve_colocation_many(
        MachinePerf(), population, memo=memo
    )
    assert solutions[0] is solutions[4]


@pytest.mark.parametrize("solver", ["scalar", "batched"])
def test_in_batch_repeats_count_as_memo_hits(solver):
    """Repeats are hits whether solved in one batch or one at a time."""
    distinct = build(
        [
            [("DA", 1.0), ("mcf", 0.8)],
            [("WSV", 0.6)],
            [("GA", 0.9), ("omnetpp", 1.0)],
            [("IA", 1.0), ("MS", 0.7), ("DS", 0.85)],
            [("WSC", 0.7), ("libquantum", 1.0)],
        ]
    )
    scenarios = distinct + [distinct[0], distinct[3]]
    memo = SolveMemo()
    registry = MetricsRegistry()
    previous = set_metrics(registry)
    try:
        if solver == "batched":
            solved = solve_colocation_many(
                MachinePerf(), scenarios, memo=memo
            )
        else:
            solved = [
                solve_colocation_many(MachinePerf(), [one], memo=memo)[0]
                for one in scenarios
            ]
    finally:
        set_metrics(previous)
    assert solved[5] is solved[0] and solved[6] is solved[3]
    counted = (
        registry.counter("solve_memo_hits_total"),
        registry.counter("solve_memo_misses_total"),
    )
    assert counted == (2, 5)
    stats = memo.stats()
    assert (stats["memory_hits"], stats["memory_misses"]) == (2, 5)


# ----------------------------------------------------------------------
# Every entry point memoises, one-scenario calls included
def _memo_counts(memo) -> tuple[int, int]:
    stats = memo.stats()
    return stats["memory_hits"], stats["memory_misses"]


def test_one_scenario_replay_consults_the_memo(tiny_dataset):
    from repro.cluster.features import FEATURE_1_CACHE
    from repro.core.replayer import Replayer

    memo = SolveMemo("memory")
    replayer = Replayer(tiny_dataset.shape, memo=memo)
    first, second = tiny_dataset.scenarios[:2]
    # One scenario, solved on the baseline and on the feature machine.
    replayer.replay_many((first,), FEATURE_1_CACHE)
    assert _memo_counts(memo) == (0, 2)
    replayer.replay_many((first, second), FEATURE_1_CACHE)
    assert _memo_counts(memo) == (2, 4)
    replayer.replay(second, FEATURE_1_CACHE)
    assert _memo_counts(memo) == (4, 4)


def test_one_scenario_profile_consults_the_memo(tiny_dataset):
    from repro.cluster import ScenarioDataset
    from repro.telemetry import Profiler

    memo = SolveMemo("memory")
    profiler = Profiler(memo=memo)
    scenarios = tiny_dataset.scenarios

    def profile(rows):
        return profiler.profile(
            ScenarioDataset(shape=tiny_dataset.shape, scenarios=rows)
        ).matrix

    single = profile(scenarios[:1])
    assert _memo_counts(memo) == (0, 1)
    pair = profile(scenarios[:2])
    assert _memo_counts(memo) == (1, 2)
    assert (single[0] == pair[0]).all()


# ----------------------------------------------------------------------
# Adversarial keys
def test_solve_key_distinguishes_every_machine_field():
    # Reuses the override discipline of test_solve_cache: a new
    # MachinePerf field without coverage here fails the count check.
    from tests.perfmodel.test_solve_cache import _FIELD_OVERRIDES

    assert set(_FIELD_OVERRIDES) == {
        field.name for field in dataclasses.fields(MachinePerf)
    }
    instances = _population()[0]
    base_key = solve_key(MachinePerf(), instances)
    for field, value in _FIELD_OVERRIDES.items():
        variant = dataclasses.replace(MachinePerf(), **{field: value})
        assert solve_key(variant, instances) != base_key, field


def _machine_with(**overrides):
    # MachinePerf validates positivity at construction; keys must stay
    # sound even for values that slip past validation (defence in
    # depth), so these tests plant the payload directly.
    machine = MachinePerf()
    for name, value in overrides.items():
        object.__setattr__(machine, name, value)
    return machine


def test_solve_key_distinguishes_negative_zero_machines():
    instances = _population()[0]
    base = _machine_with(mem_bw_gbps=0.0)
    negative = _machine_with(mem_bw_gbps=-0.0)
    assert solve_key(base, instances) != solve_key(negative, instances)


def test_solve_key_with_nan_field_matches_itself():
    # NaN != NaN must not leak into the key: the same configuration
    # hashed twice (or in two processes) has to produce the same key.
    instances = _population()[0]
    broken = _machine_with(mem_bw_gbps=float("nan"))
    assert solve_key(broken, instances) == solve_key(broken, instances)


def test_solve_key_distinguishes_loads_order_and_signatures():
    machine = MachinePerf()
    a = _population()[0]
    assert solve_key(machine, a) != solve_key(
        machine, [dataclasses.replace(a[0], load=0.5), a[1]]
    )
    assert solve_key(machine, a) != solve_key(machine, [a[1], a[0]])
    assert solve_key(machine, a) != solve_key(machine, a[:1])


def test_stale_entries_never_served_across_machines(tmp_path):
    # The original _SolveCache hazard, replayed at the persistent tier:
    # solve the baseline into the store, then query a feature variant —
    # the variant must miss and solve its own physics.
    population = _population()
    spec = f"store:{tmp_path / 'memo'}"
    baseline = MachinePerf()
    solve_colocation_many(baseline, population, memo=SolveMemo(spec))

    variant = dataclasses.replace(baseline, mem_bw_gbps=64.0)
    memo = SolveMemo(spec)
    served = solve_colocation_many(variant, population, memo=memo)
    assert memo.store_hits == 0
    for index, reference in enumerate(
        solve_colocation_many(variant, population)
    ):
        assert_bit_identical(reference, served[index], f"[{index}]")


def test_collision_with_wrong_instance_count_degrades_to_miss(tmp_path):
    # Force the astronomically-unlikely case: two scenarios mapped onto
    # one key.  The stored instance count disagrees with the query, so
    # decode refuses and the caller re-solves — miss, not a wrong solve.
    machine = MachinePerf()
    two = _population()[0]
    three = _population()[2]
    solution = solve_colocation(machine, two)
    key = solve_key(machine, two)
    entries, rows = encode_memo_entries([(key, solution)])
    assert (
        decode_memo_entries(machine, three, entries[0], rows) is None
    )

    memo = SolveMemo(f"store:{tmp_path / 'memo'}")
    memo.record(key, solution)
    memo.flush()
    fresh = SolveMemo(f"store:{tmp_path / 'memo'}")
    assert fresh.lookup(key, machine, three) is None
    hit = fresh.lookup(key, machine, two)
    assert hit is not None
    assert_bit_identical(solution, hit)


# ----------------------------------------------------------------------
# Corruption and truncation: a damaged store is a miss, never a lie
def _written_memo(tmp_path):
    machine = MachinePerf()
    population = _population()
    spec = f"store:{tmp_path / 'memo'}"
    reference = solve_colocation_many(
        machine, population, memo=SolveMemo(spec)
    )
    return machine, population, spec, reference


def _segment_files(tmp_path, suffix):
    return sorted((tmp_path / "memo").glob(f"seg-*{suffix}"))


@pytest.mark.parametrize("suffix", [".entries.npy", ".instances.npy"])
def test_corrupt_segment_is_skipped_whole(tmp_path, suffix):
    machine, population, spec, reference = _written_memo(tmp_path)
    [target] = _segment_files(tmp_path, suffix)
    blob = bytearray(target.read_bytes())
    blob[-3] ^= 0xFF
    target.write_bytes(bytes(blob))

    memo = SolveMemo(spec)
    served = solve_colocation_many(machine, population, memo=memo)
    assert memo.corrupt_segments == 1
    assert memo.store_hits == 0
    for index, want in enumerate(reference):
        assert_bit_identical(want, served[index], f"[{index}]")


@pytest.mark.parametrize("suffix", [".entries.npy", ".instances.npy"])
def test_truncated_segment_is_skipped_whole(tmp_path, suffix):
    machine, population, spec, reference = _written_memo(tmp_path)
    [target] = _segment_files(tmp_path, suffix)
    target.write_bytes(target.read_bytes()[: target.stat().st_size // 2])

    memo = SolveMemo(spec)
    served = solve_colocation_many(machine, population, memo=memo)
    assert memo.corrupt_segments == 1
    for index, want in enumerate(reference):
        assert_bit_identical(want, served[index], f"[{index}]")


def test_missing_array_next_to_sidecar_is_skipped(tmp_path):
    machine, population, spec, reference = _written_memo(tmp_path)
    [target] = _segment_files(tmp_path, ".instances.npy")
    target.unlink()
    memo = SolveMemo(spec)
    served = solve_colocation_many(machine, population, memo=memo)
    assert memo.corrupt_segments == 1
    for index, want in enumerate(reference):
        assert_bit_identical(want, served[index], f"[{index}]")


def test_garbage_sidecar_is_skipped(tmp_path):
    machine, population, spec, _ = _written_memo(tmp_path)
    [sidecar] = _segment_files(tmp_path, ".json")
    sidecar.write_text("{not json")
    memo = SolveMemo(spec)
    assert memo.refresh() == 0
    assert memo.corrupt_segments == 1
    assert memo.store_entries == 0


def test_future_format_version_is_skipped(tmp_path):
    machine, population, spec, _ = _written_memo(tmp_path)
    [sidecar] = _segment_files(tmp_path, ".json")
    payload = json.loads(sidecar.read_text())
    payload["format_version"] = MEMO_FORMAT_VERSION + 1
    sidecar.write_text(json.dumps(payload))
    memo = SolveMemo(spec)
    assert memo.refresh() == 0
    assert memo.corrupt_segments == 1


def test_missing_directory_is_just_empty(tmp_path):
    memo = SolveMemo(f"store:{tmp_path / 'never-created'}")
    machine = MachinePerf()
    population = _population()
    served = solve_colocation_many(machine, population, memo=memo)
    for index, want in enumerate(solve_colocation_many(machine, population)):
        assert_bit_identical(want, served[index], f"[{index}]")


# ----------------------------------------------------------------------
# Knob plumbing, registry and pickling
def test_validate_memo_spec():
    assert validate_memo_spec("off") == ("off", None)
    assert validate_memo_spec("memory") == ("memory", None)
    assert validate_memo_spec("store:/x/y") == ("store", "/x/y")
    with pytest.raises(ValueError):
        validate_memo_spec("store:")
    with pytest.raises(ValueError):
        validate_memo_spec("disk:/x")
    with pytest.raises(TypeError):
        validate_memo_spec(7)


def test_resolve_memo_registry_and_off():
    assert resolve_memo(None) is None
    assert resolve_memo("off") is None
    first = resolve_memo("memory")
    assert resolve_memo("memory") is first
    direct = SolveMemo("memory")
    assert resolve_memo(direct) is direct


def test_pickled_memo_rebinds_to_registry(tmp_path):
    spec = f"store:{tmp_path / 'memo'}"
    memo = resolve_memo(spec)
    clone = pickle.loads(pickle.dumps(memo))
    assert clone is memo  # same process -> same registry instance


def test_memo_cannot_be_constructed_off():
    with pytest.raises(ValueError):
        SolveMemo("off")


def test_memory_mode_never_touches_disk(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    memo = SolveMemo("memory")
    machine = MachinePerf()
    population = _population()
    solve_colocation_many(machine, population, memo=memo)
    memo.flush()
    assert memo.path is None
    assert list(tmp_path.iterdir()) == []
