"""Differential battery: replay grouping never changes a measurement.

``Replayer.replay_many`` hands a plain serial executor one group holding
every scenario, and any other executor (a pool, a failure policy, a
checkpoint journal) groups of ``_REPLAY_GROUP_SIZE``.  The batched
solver treats each row on its own, so all of these must agree bit for
bit with a per-scenario ``replay`` loop.  The contract tests at the end
pin the grouping rule itself: one serial evaluate makes at most one
baseline and one feature solve, and a skipped group still degrades to
exactly ``_REPLAY_GROUP_SIZE`` stand-ins.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import repro.perfmodel.batch as batch_module
from repro.cluster.features import FEATURE_1_CACHE, PAPER_FEATURES, Feature
from repro.core.performance import inherent_mips
from repro.core.replayer import _REPLAY_GROUP_SIZE
from repro.perfmodel.contention import solve_colocation_cached
from repro.runtime import (
    FaultSpec,
    ProcessExecutor,
    ResilienceConfig,
    RetryPolicy,
    SerialExecutor,
    TaskFailure,
)

BATTERY = settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)


def _what_if(machine, *, llc_mb, max_freq_ghz, smt):
    if llc_mb is not None:
        machine = machine.with_llc_mb(llc_mb)
    if max_freq_ghz is not None:
        machine = machine.with_max_freq_ghz(max_freq_ghz)
    if smt is not None:
        machine = machine.with_smt(smt)
    return machine


@st.composite
def what_if_features(draw) -> Feature:
    llc_mb = draw(st.none() | st.floats(4.0, 60.0))
    max_freq_ghz = draw(st.none() | st.floats(1.2, 2.9))
    smt = draw(st.none() | st.booleans())
    return Feature(
        name=f"whatif-{llc_mb}-{max_freq_ghz}-{smt}",
        description="drawn what-if machine",
        apply=functools.partial(
            _what_if, llc_mb=llc_mb, max_freq_ghz=max_freq_ghz, smt=smt
        ),
    )


def _clear_solve_caches() -> None:
    solve_colocation_cached.cache_clear()
    inherent_mips.cache_clear()


def _performance_token(perf) -> tuple:
    return (
        perf.overall.hex(),
        tuple(value.hex() for value in perf.per_instance),
        tuple(sorted((job, value.hex()) for job, value in perf.per_job.items())),
    )


def _measurement_token(measurement) -> tuple:
    return (
        measurement.scenario.scenario_id,
        _performance_token(measurement.baseline),
        _performance_token(measurement.enabled),
    )


def _estimate_token(estimate) -> tuple:
    return (
        estimate.job_name,
        estimate.reduction_pct.hex(),
        estimate.evaluation_cost,
        tuple(
            (c.cluster_id, c.weight.hex(), c.reduction_pct.hex(), c.scenario_id)
            for c in estimate.per_cluster
        ),
    )


def _grouped_executor() -> SerialExecutor:
    """A serial executor that keeps groups of four: a policy, no faults."""
    return SerialExecutor(resilience=ResilienceConfig(policy="retry_then_skip"))


@pytest.fixture(scope="module")
def replay_pool(small_flare):
    """Every group's scenarios, the representatives first."""
    representatives = small_flare.representatives
    dataset = representatives.dataset
    return tuple(
        dataset[index]
        for group in representatives.groups
        for index in group.ranked_members[:3]
    )


@BATTERY
@given(data=st.data(), feature=what_if_features())
def test_one_batch_equals_per_scenario_and_groups_of_four(
    small_flare, replay_pool, data, feature
):
    picks = data.draw(
        st.lists(
            st.integers(0, len(replay_pool) - 1),
            min_size=1,
            max_size=2 * len(replay_pool),
        )
    )
    scenarios = tuple(replay_pool[i] for i in picks)
    replayer = small_flare.replayer

    _clear_solve_caches()
    one_batch = replayer.replay_many(scenarios, feature, executor=SerialExecutor())
    _clear_solve_caches()
    per_scenario = [replayer.replay(s, feature) for s in scenarios]
    _clear_solve_caches()
    grouped = replayer.replay_many(
        scenarios, feature, executor=_grouped_executor()
    )

    expected = [_measurement_token(m) for m in per_scenario]
    assert [_measurement_token(m) for m in one_batch] == expected
    assert [_measurement_token(m) for m in grouped] == expected


def test_serial_and_pool_estimates_agree(small_flare):
    jobs = sorted(
        {
            instance.signature.name
            for group in small_flare.representatives.groups
            for instance in small_flare.representatives.dataset[
                group.representative_index
            ].instances
            if instance.signature.is_high_priority
        }
    )
    assert jobs

    def estimates(runtime):
        tokens = []
        for feature in PAPER_FEATURES:
            _clear_solve_caches()
            tokens.append(
                _estimate_token(small_flare.evaluate(feature, runtime=runtime))
            )
            for job in jobs:
                tokens.append(
                    _estimate_token(
                        small_flare.evaluate_job(feature, job, runtime=runtime)
                    )
                )
        return tokens

    serial = estimates("serial")
    # The default runtime follows REPRO_EXECUTOR, so this covers the
    # pool branch too when the suite runs under a parallel default.
    assert estimates(None) == serial
    with ProcessExecutor(max_workers=2) as pool:
        assert estimates(pool) == serial


# ----------------------------------------------------------------------
# The grouping contract.
def test_serial_evaluate_is_one_batch_per_machine(small_flare, monkeypatch):
    calls = []
    real = batch_module.solve_colocation_batch

    def counting(machine, scenarios):
        calls.append([len(instances) for instances in scenarios])
        return real(machine, scenarios)

    monkeypatch.setattr(batch_module, "solve_colocation_batch", counting)
    _clear_solve_caches()
    estimate = small_flare.evaluate(FEATURE_1_CACHE, runtime="serial")
    assert len(estimate.per_cluster) > _REPLAY_GROUP_SIZE
    # The inherent-MIPS normalisers solve through the lanes core, so
    # every object-path solve is a replay batch.
    assert 1 <= len(calls) <= 2  # baseline and feature
    assert all(len(rows) > _REPLAY_GROUP_SIZE for rows in calls)


def test_skipped_group_expands_to_group_size(small_flare, replay_pool):
    scenarios = replay_pool[: 2 * _REPLAY_GROUP_SIZE]
    assert len(scenarios) == 2 * _REPLAY_GROUP_SIZE
    executor = SerialExecutor(
        resilience=ResilienceConfig(
            policy="retry_then_skip",
            retry=RetryPolicy(max_retries=0, backoff_base_s=0.0),
            faults=FaultSpec(exception_rate=1.0, faults_per_task=10),
        )
    )
    results = small_flare.replayer.replay_many(
        scenarios, FEATURE_1_CACHE, executor=executor
    )
    assert len(results) == len(scenarios)
    assert all(isinstance(r, TaskFailure) for r in results)
    # One stand-in object per skipped group, repeated over its positions.
    for start in range(0, len(results), _REPLAY_GROUP_SIZE):
        group = results[start : start + _REPLAY_GROUP_SIZE]
        assert all(r is group[0] for r in group)
    assert results[0] is not results[_REPLAY_GROUP_SIZE]
