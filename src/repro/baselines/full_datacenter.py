"""Full-datacenter evaluation: the ground truth (paper Figure 12).

Evaluates a feature on *every* recorded scenario, weighted by observation
time.  This is what FLARE and sampling are judged against — accurate but
50× more expensive than FLARE (every scenario must be reproduced or the
live datacenter must run the feature).

The truth is computed from arrays.  Each source batch's scenarios are
packed once into a :class:`~repro.perfmodel.batch.ScenarioBatch`,
solved into lane arrays on the baseline and the feature machine
(:func:`~repro.perfmodel.batch.solve_colocation_lanes`), normalised
lane by lane against a per-batch table of the distinct
``(signature, load)`` inherent MIPS, and reduced per scenario by
:func:`~repro.core.performance.hp_performance`, the reduction the
object path uses too.  No per-instance objects are built and the
process-global solve cache is neither consulted nor filled, so the
numbers are bit-identical to :func:`scenario_performance_many` while
peak memory stays at one source batch.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from dataclasses import dataclass

import numpy as np

from ..cluster.features import BASELINE, Feature
from ..cluster.scenario import Scenario
from ..cluster.source import ScenarioSource
from ..core.performance import (
    ScenarioPerformance,
    hp_performance,
    inherent_mips_many,
    mips_reduction_pct,
)
from ..perfmodel import batch as _batch
from ..perfmodel.machine import MachinePerf
from ..perfmodel.memo import resolve_memo

__all__ = [
    "DatacenterTruth",
    "evaluate_full_datacenter",
    "JobScenarioReductions",
    "per_job_scenario_reductions",
]


@dataclass(frozen=True)
class DatacenterTruth:
    """Per-scenario and aggregate feature impact over the whole datacenter.

    Attributes
    ----------
    feature:
        Feature evaluated.
    scenario_ids:
        Scenarios hosting at least one HP job, in dataset order.
    reductions_pct:
        MIPS reduction of each such scenario.
    weights:
        Observation-time weights of those scenarios (renormalised).
    per_job:
        Job code → weighted-average reduction across the scenarios that
        host it (weights additionally scaled by instance count — the
        datacenter average "of all instances of each service", §3.1).
    evaluation_cost:
        Scenario evaluations performed (= HP scenario count).
    """

    feature: Feature
    scenario_ids: tuple[int, ...]
    reductions_pct: np.ndarray
    weights: np.ndarray
    per_job: dict[str, float]
    evaluation_cost: int

    @property
    def overall_reduction_pct(self) -> float:
        """The datacenter-wide weighted-average MIPS reduction."""
        return float(self.reductions_pct @ self.weights)


def evaluate_full_datacenter(
    dataset: ScenarioSource,
    feature: Feature,
    *,
    memo=None,
) -> DatacenterTruth:
    """Evaluate *feature* on every scenario of *dataset*.

    Accepts any :class:`~repro.cluster.ScenarioSource` and walks it
    batch-by-batch, so computing the truth over a sharded store keeps
    peak memory at shard size.  Each source batch's HP scenarios are
    solved into lane arrays under both machine configurations (see the
    module docstring); *memo* optionally reuses already-memoised solves
    (a repeat feature sweep over the same fleet skips straight to
    aggregation) and records the ones it lacks.
    """
    all_weights = dataset.weights()

    ids: list[int] = []
    reductions: list[float] = []
    weights: list[float] = []
    job_acc: dict[str, list[tuple[float, float]]] = {}

    performances = _iter_performances(
        dataset, feature, lambda scenario: bool(scenario.hp_instances), memo
    )
    for index, scenario, base, enabled in performances:
        reduction = mips_reduction_pct(base.overall, enabled.overall)
        ids.append(scenario.scenario_id)
        reductions.append(reduction)
        weights.append(float(all_weights[index]))

        for job_name, base_perf in base.per_job.items():
            job_red = mips_reduction_pct(base_perf, enabled.per_job[job_name])
            job_weight = float(all_weights[index]) * scenario.count_of(job_name)
            job_acc.setdefault(job_name, []).append((job_weight, job_red))

    if not ids:
        raise ValueError("dataset contains no scenario with HP jobs")

    weight_arr = np.asarray(weights)
    weight_arr = weight_arr / weight_arr.sum()

    per_job = {}
    for job_name, entries in job_acc.items():
        total = sum(w for w, _ in entries)
        per_job[job_name] = (
            sum(w * r for w, r in entries) / total if total > 0 else 0.0
        )

    return DatacenterTruth(
        feature=feature,
        scenario_ids=tuple(ids),
        reductions_pct=np.asarray(reductions),
        weights=weight_arr,
        per_job=per_job,
        evaluation_cost=len(ids),
    )


def _iter_performances(
    dataset: ScenarioSource,
    feature: Feature,
    keep: Callable[[Scenario], bool],
    memo,
) -> Iterator[tuple[int, Scenario, ScenarioPerformance, ScenarioPerformance]]:
    """``(global index, scenario, baseline, feature)`` per kept scenario.

    Walks *dataset* one source batch at a time.
    """
    baseline_machine = BASELINE(dataset.shape.perf)
    feature_machine = feature(dataset.shape.perf)
    live_memo = resolve_memo(memo)
    index = 0
    for source_batch in dataset.iter_batches():
        kept = []
        for scenario in source_batch.scenarios:
            if keep(scenario):
                kept.append((index, scenario))
            index += 1
        if not kept:
            continue
        bases, enableds = _hp_performances(
            baseline_machine,
            feature_machine,
            [scenario for _, scenario in kept],
            live_memo,
        )
        for (position, scenario), base, enabled in zip(kept, bases, enableds):
            yield position, scenario, base, enabled


def _hp_performances(
    baseline_machine: MachinePerf,
    feature_machine: MachinePerf,
    scenarios: Sequence[Scenario],
    memo,
) -> list[list[ScenarioPerformance]]:
    """HP performance of every scenario on both machines, from lane arrays.

    Both are normalised against the baseline machine's inherent MIPS.
    Bit-identical to :func:`~repro.core.performance.scenario_performance_many`
    per machine: the lanes hold the exact MIPS its objects carry, the
    division is the same IEEE operation, and the reduction is the
    shared :func:`~repro.core.performance.hp_performance` over the HP
    lanes in lane order.
    """
    packed = _batch.ScenarioBatch.from_instances(
        [scenario.instances for scenario in scenarios]
    )
    is_hp = np.array(
        [sig.is_high_priority for sig in packed.signatures], dtype=bool
    )
    hp = packed.mask & is_hp[packed.sig_index]
    hp_sig = packed.sig_index[hp]
    inherent = _inherent_lanes(
        baseline_machine, packed.signatures, hp_sig, packed.loads[hp]
    )
    names_table = [sig.name for sig in packed.signatures]
    names = [names_table[i] for i in hp_sig.tolist()]
    bounds = [0, *np.cumsum(hp.sum(axis=1)).tolist()]

    performances = []
    for machine in (baseline_machine, feature_machine):
        mips = _lane_mips(machine, packed, scenarios, memo)[hp]
        normalised = np.divide(
            mips, inherent, out=np.zeros_like(mips), where=inherent > 0
        ).tolist()
        performances.append(
            [
                hp_performance(normalised[lo:hi], names[lo:hi])
                for lo, hi in zip(bounds, bounds[1:])
            ]
        )
    return performances


def _inherent_lanes(
    machine: MachinePerf,
    signatures: Sequence,
    sig_index: np.ndarray,
    loads: np.ndarray,
) -> np.ndarray:
    """Inherent MIPS per lane, looked up once per distinct (signature, load)."""
    load_values, load_code = np.unique(loads, return_inverse=True)
    pair_codes, lane_pair = np.unique(
        sig_index * len(load_values) + load_code, return_inverse=True
    )
    load_list = load_values.tolist()
    table = inherent_mips_many(
        machine,
        [
            (signatures[code // len(load_list)], load_list[code % len(load_list)])
            for code in pair_codes.tolist()
        ],
    )
    return np.asarray(table)[lane_pair]


def _lane_mips(
    machine: MachinePerf,
    packed: "_batch.ScenarioBatch",
    scenarios: Sequence[Scenario],
    memo,
) -> np.ndarray:
    """Per-lane MIPS of *packed* on *machine*.

    Without a memo, straight from the lanes core.  With one, memo hits
    supply their lanes and misses are solved (as objects, so they can
    be recorded) by the memoised batch path.
    """
    if memo is None:
        return _batch.solve_colocation_lanes(machine, packed).mips
    solutions = _batch.solve_colocation_many(
        machine, [scenario.instances for scenario in scenarios], memo=memo
    )
    mips = np.zeros(packed.sig_index.shape)
    for row, solution in enumerate(solutions):
        mips[row, : len(solution.instances)] = [
            perf.mips for perf in solution.instances
        ]
    return mips


@dataclass(frozen=True)
class JobScenarioReductions:
    """Per-scenario impact of a feature on one HP job.

    The population behind the per-job truth bars of Figures 2, 12b and 14b
    and behind per-job sampling.

    Attributes
    ----------
    job_name:
        The HP job.
    scenario_ids:
        Scenarios hosting the job.
    reductions_pct:
        The job's MIPS reduction in each such scenario.
    weights:
        Normalised weights: observation time × instance count (the
        likelihood of observing an instance of the job in that scenario).
    """

    job_name: str
    feature: Feature
    scenario_ids: tuple[int, ...]
    reductions_pct: np.ndarray
    weights: np.ndarray

    @property
    def mean_reduction_pct(self) -> float:
        """The datacenter truth for this job."""
        return float(self.reductions_pct @ self.weights)

    @property
    def std_reduction_pct(self) -> float:
        """Weighted standard deviation across scenarios (error bars)."""
        mean = self.mean_reduction_pct
        var = float(((self.reductions_pct - mean) ** 2) @ self.weights)
        return var**0.5


def per_job_scenario_reductions(
    dataset: ScenarioSource,
    feature: Feature,
    job_name: str,
    *,
    memo=None,
) -> JobScenarioReductions:
    """Evaluate *feature*'s impact on *job_name* in every hosting scenario.

    Like :func:`evaluate_full_datacenter`, accepts any scenario source,
    streams it batch-by-batch, and solves each batch's hosting
    scenarios into lane arrays per machine configuration (optionally
    memoised through *memo*).
    """
    all_weights = dataset.weights()

    ids: list[int] = []
    reductions: list[float] = []
    weights: list[float] = []
    performances = _iter_performances(
        dataset, feature, lambda scenario: scenario.count_of(job_name) > 0, memo
    )
    for index, scenario, base, enabled in performances:
        ids.append(scenario.scenario_id)
        reductions.append(
            mips_reduction_pct(base.per_job[job_name], enabled.per_job[job_name])
        )
        weights.append(float(all_weights[index]) * scenario.count_of(job_name))

    if not ids:
        raise ValueError(f"no scenario hosts job {job_name!r}")
    weight_arr = np.asarray(weights)
    weight_arr = weight_arr / weight_arr.sum()
    return JobScenarioReductions(
        job_name=job_name,
        feature=feature,
        scenario_ids=tuple(ids),
        reductions_pct=np.asarray(reductions),
        weights=weight_arr,
    )
