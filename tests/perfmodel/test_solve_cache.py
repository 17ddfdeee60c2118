"""Regression tests for the solve memo (`contention._SolveCache`).

The historical hazard: replaying a scenario under two feature variants
(same instances, different machine config) must never alias onto one
cache entry — a stale solve from the baseline machine silently
corrupting the feature measurement.  The key therefore expands *every*
``MachinePerf`` field; these tests pin that down field by field and
cover the LRU/statistics surface plus the batched cache-partition path.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.perfmodel import MachinePerf, RunningInstance
from repro.perfmodel.batch import solve_colocation_many
from repro.perfmodel.contention import (
    _SolveCache,
    solve_colocation_cached,
)
from repro.workloads import HP_JOBS, LP_JOBS
from tests.perfmodel.scalar_oracle import solve_colocation as oracle_solve

_CATALOGUE = {**HP_JOBS, **LP_JOBS}

# A distinct, valid override per MachinePerf field (each differs from
# the default), so the key-covers-every-field test cannot rot when the
# dataclass grows: a new field without an entry here fails loudly.
_FIELD_OVERRIDES = {
    "physical_cores": 16,
    "governor": "ondemand",
    "smt_enabled": False,
    "smt_speedup": 1.4,
    "min_freq_ghz": 1.0,
    "max_freq_ghz": 2.2,
    "llc_mb": 24.0,
    "mem_bw_gbps": 64.0,
    "mem_latency_ns": 95.0,
    "l2_hit_cycles": 14.0,
    "llc_hit_cycles": 44.0,
    "network_gbps": 25.0,
    "disk_mbps": 800.0,
}


def _instances(*pairs):
    return tuple(
        RunningInstance(signature=_CATALOGUE[name], load=load)
        for name, load in pairs
    )


@pytest.fixture(autouse=True)
def _clean_cache():
    solve_colocation_cached.cache_clear()
    yield
    solve_colocation_cached.cache_clear()


def test_override_table_covers_every_machine_field():
    assert set(_FIELD_OVERRIDES) == {
        field.name for field in dataclasses.fields(MachinePerf)
    }


@pytest.mark.parametrize("field", sorted(_FIELD_OVERRIDES))
def test_key_distinguishes_every_machine_field(field):
    base = MachinePerf()
    variant = dataclasses.replace(base, **{field: _FIELD_OVERRIDES[field]})
    instances = _instances(("DA", 1.0), ("mcf", 0.8))
    assert _SolveCache.make_key(base, instances) != _SolveCache.make_key(
        variant, instances
    )


def test_key_distinguishes_instances():
    machine = MachinePerf()
    assert _SolveCache.make_key(
        machine, _instances(("DA", 1.0))
    ) != _SolveCache.make_key(machine, _instances(("DA", 0.5)))


def _machine_with(**overrides):
    # MachinePerf validates positivity at construction; the cache key
    # must stay sound even for values that slip past validation
    # (defence in depth), so plant the payload directly.
    machine = MachinePerf()
    for name, value in overrides.items():
        object.__setattr__(machine, name, value)
    return machine


def test_key_never_aliases_negative_zero_machines():
    # -0.0 == 0.0 under tuple equality, so a naive value-tuple key would
    # alias two machines whose physics differ (1/x diverges).  The key
    # canonicalises floats via float.hex(), which keeps the sign.
    instances = _instances(("DA", 1.0), ("mcf", 0.8))
    positive = _machine_with(mem_bw_gbps=0.0)
    negative = _machine_with(mem_bw_gbps=-0.0)
    assert _SolveCache.make_key(
        positive, instances
    ) != _SolveCache.make_key(negative, instances)


def test_key_with_nan_field_is_self_consistent():
    # NaN != NaN would make such a key unmatchable even against itself
    # (every lookup a miss, every store a new entry); all NaN payloads
    # collapse onto one canonical token instead.
    instances = _instances(("DA", 1.0))
    broken = _machine_with(mem_latency_ns=float("nan"))
    key = _SolveCache.make_key(broken, instances)
    assert key == _SolveCache.make_key(broken, instances)
    cache = _SolveCache(maxsize=4)
    cache.store(key, "solved")
    assert cache.lookup(_SolveCache.make_key(broken, instances)) == "solved"


def test_feature_variants_never_share_a_stale_solve():
    # The original bug shape: solve the baseline first, then the feature
    # variant with identical instances — the second call must produce
    # the variant's own physics, not the cached baseline solution.
    instances = _instances(("WSC", 1.0), ("mcf", 1.0), ("DC", 0.85))
    baseline = MachinePerf()
    for field, value in _FIELD_OVERRIDES.items():
        solve_colocation_cached.cache_clear()
        variant = dataclasses.replace(baseline, **{field: value})
        from_cache_base = solve_colocation_cached(baseline, instances)
        from_cache_variant = solve_colocation_cached(variant, instances)
        assert from_cache_variant.machine == variant, field
        direct = oracle_solve(variant, instances)
        assert from_cache_variant.total_mips == direct.total_mips, field
        assert (
            from_cache_variant.mem_latency_ns == direct.mem_latency_ns
        ), field
        # And the baseline entry is still intact (no overwrite).
        assert solve_colocation_cached(baseline, instances) is from_cache_base


def test_cache_hit_returns_identical_object():
    machine = MachinePerf()
    instances = _instances(("GA", 0.9))
    first = solve_colocation_cached(machine, instances)
    info = solve_colocation_cached.cache_info()
    assert (info.hits, info.misses) == (0, 1)
    assert solve_colocation_cached(machine, instances) is first
    info = solve_colocation_cached.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_cache_clear_resets_entries_and_stats():
    solve_colocation_cached(MachinePerf(), _instances(("GA", 0.9)))
    solve_colocation_cached.cache_clear()
    info = solve_colocation_cached.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, 0, 0)


def test_lru_eviction_drops_oldest_entry():
    cache = _SolveCache(maxsize=2)
    cache.store(("a",), "A")
    cache.store(("b",), "B")
    assert cache.lookup(("a",)) == "A"  # refresh "a"; "b" is now oldest
    cache.store(("c",), "C")
    assert cache.lookup(("b",)) is None
    assert cache.lookup(("a",)) == "A"
    assert cache.lookup(("c",)) == "C"
    assert cache.info().currsize == 2


def test_batched_many_partitions_hits_and_misses():
    machine = MachinePerf()
    scenarios = [
        list(_instances(("DA", 1.0), ("mcf", 0.8))),
        list(_instances(("WSV", 0.6))),
        list(_instances(("DA", 1.0), ("mcf", 0.8))),  # in-batch duplicate
    ]
    first = solve_colocation_many(machine, scenarios, cached=True)
    info = solve_colocation_cached.cache_info()
    # Three lookups, two solves: the in-batch duplicate is a hit on the
    # pending solve, as a one-at-a-time caller would find it cached.
    assert (info.hits, info.misses) == (1, 2)
    assert info.currsize == 2
    assert first[0] is first[2]
    second = solve_colocation_many(machine, scenarios, cached=True)
    info = solve_colocation_cached.cache_info()
    assert (info.hits, info.misses) == (4, 2)
    for a, b in zip(first, second):
        assert a is b


def test_scalar_and_batched_callers_share_one_cache():
    machine = MachinePerf()
    instances = _instances(("IA", 1.0), ("omnetpp", 1.0))
    scalar = solve_colocation_cached(machine, instances)
    [batched] = solve_colocation_many(
        machine, [list(instances)], cached=True
    )
    assert batched is scalar
    assert solve_colocation_cached.cache_info().hits == 1


def test_batched_and_scalar_count_repeats_alike():
    machine = MachinePerf()
    distinct = [
        _instances(("DA", 1.0), ("mcf", 0.8)),
        _instances(("WSV", 0.6)),
        _instances(("GA", 0.9), ("omnetpp", 1.0)),
        _instances(("IA", 1.0), ("MS", 0.7), ("DS", 0.85)),
        _instances(("WSC", 0.7), ("libquantum", 1.0)),
    ]
    scenarios = [list(s) for s in distinct + [distinct[0], distinct[3]]]
    infos = {}
    solve_colocation_cached.cache_clear()
    one_by_one = [
        solve_colocation_cached(machine, tuple(instances))
        for instances in scenarios
    ]
    assert one_by_one[5] is one_by_one[0] and one_by_one[6] is one_by_one[3]
    infos["scalar"] = solve_colocation_cached.cache_info()
    solve_colocation_cached.cache_clear()
    solved = solve_colocation_many(machine, scenarios, cached=True)
    assert solved[5] is solved[0] and solved[6] is solved[3]
    infos["batched"] = solve_colocation_cached.cache_info()
    assert (infos["scalar"].hits, infos["scalar"].misses) == (2, 5)
    assert infos["batched"] == infos["scalar"]
