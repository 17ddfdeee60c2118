"""Performance definitions shared by FLARE and the baselines (paper §5.1).

The summarising metric is instruction-throughput based::

    Performance = Job MIPS / Job's Inherent MIPS

where *inherent MIPS* is measured with the job running alone on an empty
machine.  Normalising prevents jobs with naturally high MIPS from
dominating.  Only High-Priority jobs count; LP batch jobs run on free
quota.  A feature's impact on a scenario is the relative MIPS reduction of
its normalised HP performance versus the baseline configuration.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

from ..cluster.scenario import Scenario
from ..perfmodel import batch as _batch
from ..perfmodel.contention import (
    ColocationPerformance,
    RunningInstance,
    _SolveCache,
    solve_colocation_cached,
)
from ..perfmodel.machine import MachinePerf
from ..perfmodel.signatures import JobSignature

__all__ = [
    "inherent_mips",
    "inherent_mips_many",
    "hp_performance",
    "ScenarioPerformance",
    "scenario_performance",
    "scenario_performance_many",
    "mips_reduction_pct",
]

#: ``(machine, signature, load) -> inherent MIPS``, LRU-bounded.
_INHERENT_CACHE = _SolveCache(maxsize=4096)


def inherent_mips(
    machine: MachinePerf, signature: JobSignature, load: float
) -> float:
    """MIPS of one instance running alone on an empty *machine* at *load*.

    Normalising at the instance's own submitted load isolates interference
    effects from demand effects: a half-loaded server is not "degraded".
    Memoised per ``(machine, signature, load)``; ``cache_clear()`` and
    ``cache_info()`` manage the memo as for ``functools.lru_cache``.
    """
    return inherent_mips_many(machine, [(signature, load)])[0]


inherent_mips.cache_clear = _INHERENT_CACHE.clear  # type: ignore[attr-defined]
inherent_mips.cache_info = _INHERENT_CACHE.info  # type: ignore[attr-defined]


def inherent_mips_many(
    machine: MachinePerf, pairs: Sequence[tuple[JobSignature, float]]
) -> list[float]:
    """:func:`inherent_mips` of each ``(signature, load)`` in *pairs*.

    Each pair is looked up in the memo, and the distinct pairs it lacks
    are solved together as one one-instance-per-row batch (a repeat of
    a missing pair counts as a hit, as it would one call at a time);
    rows are independent, so each value is bit-identical to a solve of
    its own.
    """
    values: list[float | None] = []
    missing: dict[tuple, list[int]] = {}
    for i, (signature, load) in enumerate(pairs):
        key = (machine, signature, load)
        value = _INHERENT_CACHE.lookup(key)
        values.append(value)
        if value is not None:
            continue
        rows = missing.get(key)
        if rows is None:
            missing[key] = [i]
        else:
            rows.append(i)
            _INHERENT_CACHE.count_pending_hit()
    if missing:
        solved = _solve_inherent(machine, [key[1:] for key in missing])
        for (key, rows), value in zip(missing.items(), solved):
            _INHERENT_CACHE.store(key, value)
            for row in rows:
                values[row] = value
    return values  # type: ignore[return-value]


def _solve_inherent(
    machine: MachinePerf, pairs: Sequence[tuple[JobSignature, float]]
) -> list[float]:
    """Solve each ``(signature, load)`` alone on *machine*, as one batch."""
    batch = _batch.ScenarioBatch.from_instances(
        [(RunningInstance(signature=sig, load=load),) for sig, load in pairs]
    )
    return _batch.solve_colocation_lanes(machine, batch).mips[:, 0].tolist()


@dataclass(frozen=True)
class ScenarioPerformance:
    """Normalised HP performance of one scenario under one machine config.

    Attributes
    ----------
    overall:
        Mean normalised performance over HP instances (0 when the scenario
        hosts no HP job).
    per_instance:
        Normalised performance of each HP instance, in scenario order.
    per_job:
        Mean normalised performance per HP job name.
    """

    overall: float
    per_instance: tuple[float, ...]
    per_job: dict[str, float]

    @property
    def has_hp(self) -> bool:
        return bool(self.per_instance)


def scenario_performance(
    machine: MachinePerf,
    scenario: Scenario,
    *,
    normalize_machine: MachinePerf | None = None,
) -> ScenarioPerformance:
    """Normalised HP performance of *scenario* on *machine*.

    Parameters
    ----------
    normalize_machine:
        Machine used to measure inherent MIPS.  Defaults to *machine*
        itself; pass the baseline machine to keep the normaliser fixed
        while sweeping features (both conventions give identical MIPS
        *reduction* numbers — the normaliser cancels — but fixing it makes
        per-configuration performance values comparable).
    """
    norm_machine = normalize_machine if normalize_machine is not None else machine
    solution = solve_colocation_cached(machine, scenario.instances)
    return _performance_from_solutions([solution], [scenario], norm_machine)[0]


def scenario_performance_many(
    machine: MachinePerf,
    scenarios: Sequence[Scenario],
    *,
    normalize_machine: MachinePerf | None = None,
    memo=None,
) -> tuple[ScenarioPerformance, ...]:
    """Normalised HP performance of many scenarios on one machine.

    The batched equivalent of calling :func:`scenario_performance` per
    scenario, and bit-identical to doing so: the contention fixed point
    runs through :func:`repro.perfmodel.batch.solve_colocation_many`
    (respecting the shared solve cache — hits are reused, misses solved
    as one batch), and the normalisers the inherent-MIPS memo lacks
    are solved as one more batch.  *memo* optionally routes solves
    through a persistent content-addressed
    :class:`~repro.perfmodel.memo.SolveMemo` so hits survive across
    batches, processes, and runs.
    """
    norm_machine = normalize_machine if normalize_machine is not None else machine
    solutions = _batch.solve_colocation_many(
        machine,
        [scenario.instances for scenario in scenarios],
        cached=True,
        memo=memo,
    )
    return _performance_from_solutions(solutions, scenarios, norm_machine)


def _performance_from_solutions(
    solutions: Sequence[ColocationPerformance],
    scenarios: Sequence[Scenario],
    norm_machine: MachinePerf,
) -> tuple[ScenarioPerformance, ...]:
    """Normalise solved co-locations into :class:`ScenarioPerformance`s."""
    hp_lanes = [
        [
            (running, perf)
            for running, perf in zip(scenario.instances, solution.instances)
            if perf.is_high_priority
        ]
        for solution, scenario in zip(solutions, scenarios)
    ]
    inherent = iter(
        inherent_mips_many(
            norm_machine,
            [(running.signature, running.load) for lanes in hp_lanes for running, _ in lanes],
        )
    )
    performances = []
    for lanes in hp_lanes:
        normalised = []
        for _, perf in lanes:
            value = next(inherent)
            normalised.append(perf.mips / value if value > 0 else 0.0)
        performances.append(
            hp_performance(normalised, [perf.job_name for _, perf in lanes])
        )
    return tuple(performances)


def hp_performance(
    normalised: list[float], job_names: Sequence[str]
) -> ScenarioPerformance:
    """Reduce one scenario's normalised HP lanes, given in lane order.

    The one reduction every caller shares: plain Python
    ``sum(...) / len(...)`` over the lane-ordered values, overall and
    per job.  Python's float ``sum`` differs between 3.11 and 3.12
    (3.12 compensates), so bit-identity across callers holds only if
    they all reduce here.
    """
    per_job_acc: dict[str, list[float]] = {}
    for name, value in zip(job_names, normalised):
        per_job_acc.setdefault(name, []).append(value)
    per_job = {
        name: sum(values) / len(values) for name, values in per_job_acc.items()
    }
    overall = sum(normalised) / len(normalised) if normalised else 0.0
    return ScenarioPerformance(
        overall=overall, per_instance=tuple(normalised), per_job=per_job
    )


def mips_reduction_pct(baseline_perf: float, feature_perf: float) -> float:
    """Relative MIPS reduction (%) going from baseline to feature."""
    if baseline_perf <= 0.0:
        return 0.0
    return (baseline_perf - feature_perf) / baseline_perf * 100.0
