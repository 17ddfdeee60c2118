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

from dataclasses import dataclass
from functools import lru_cache

from collections.abc import Sequence

from ..cluster.scenario import Scenario
from ..perfmodel.batch import solve_colocation_many
from ..perfmodel.contention import (
    ColocationPerformance,
    RunningInstance,
    solve_colocation_cached,
)
from ..perfmodel.machine import MachinePerf
from ..perfmodel.signatures import JobSignature

__all__ = [
    "inherent_mips",
    "ScenarioPerformance",
    "scenario_performance",
    "scenario_performance_many",
    "mips_reduction_pct",
]


@lru_cache(maxsize=4096)
def inherent_mips(
    machine: MachinePerf, signature: JobSignature, load: float
) -> float:
    """MIPS of one instance running alone on an empty *machine* at *load*.

    Normalising at the instance's own submitted load isolates interference
    effects from demand effects: a half-loaded server is not "degraded".
    """
    solution = solve_colocation_cached(
        machine, (RunningInstance(signature=signature, load=load),)
    )
    return solution.instances[0].mips


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
    return _performance_from_solution(solution, scenario, norm_machine)


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
    as one batch), and the inherent-MIPS normalisers go through the
    same per-signature cache.  *memo* optionally routes solves through
    a persistent content-addressed
    :class:`~repro.perfmodel.memo.SolveMemo` so hits survive across
    batches, processes, and runs.
    """
    norm_machine = normalize_machine if normalize_machine is not None else machine
    solutions = solve_colocation_many(
        machine,
        [scenario.instances for scenario in scenarios],
        cached=True,
        memo=memo,
    )
    return tuple(
        _performance_from_solution(solution, scenario, norm_machine)
        for solution, scenario in zip(solutions, scenarios)
    )


def _performance_from_solution(
    solution: ColocationPerformance,
    scenario: Scenario,
    norm_machine: MachinePerf,
) -> ScenarioPerformance:
    """Normalise a solved co-location into a :class:`ScenarioPerformance`."""
    per_instance: list[float] = []
    per_job_acc: dict[str, list[float]] = {}
    for running, perf in zip(scenario.instances, solution.instances):
        if not perf.is_high_priority:
            continue
        inherent = inherent_mips(norm_machine, running.signature, running.load)
        normalised = perf.mips / inherent if inherent > 0 else 0.0
        per_instance.append(normalised)
        per_job_acc.setdefault(perf.job_name, []).append(normalised)

    per_job = {
        name: sum(values) / len(values) for name, values in per_job_acc.items()
    }
    overall = sum(per_instance) / len(per_instance) if per_instance else 0.0
    return ScenarioPerformance(
        overall=overall, per_instance=tuple(per_instance), per_job=per_job
    )


def mips_reduction_pct(baseline_perf: float, feature_perf: float) -> float:
    """Relative MIPS reduction (%) going from baseline to feature."""
    if baseline_perf <= 0.0:
        return 0.0
    return (baseline_perf - feature_perf) / baseline_perf * 100.0
