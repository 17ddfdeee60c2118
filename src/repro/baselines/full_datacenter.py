"""Full-datacenter evaluation: the ground truth (paper Figure 12).

Evaluates a feature on *every* recorded scenario, weighted by observation
time.  This is what FLARE and sampling are judged against — accurate but
50× more expensive than FLARE (every scenario must be reproduced or the
live datacenter must run the feature).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.features import BASELINE, Feature
from ..cluster.source import ScenarioSource
from ..core.performance import (
    mips_reduction_pct,
    scenario_performance_many,
)

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
    solved as one contention batch under both machine configurations;
    *memo* optionally reuses already-memoised solves (a repeat feature
    sweep over the same fleet skips straight to aggregation).
    """
    baseline_machine = BASELINE(dataset.shape.perf)
    feature_machine = feature(dataset.shape.perf)
    all_weights = dataset.weights()

    ids: list[int] = []
    reductions: list[float] = []
    weights: list[float] = []
    job_acc: dict[str, list[tuple[float, float]]] = {}

    for batch_pairs in _iter_batch_pairs(dataset):
        eligible = [
            (index, scenario)
            for index, scenario in batch_pairs
            if scenario.hp_instances
        ]
        if not eligible:
            continue
        scenarios = [scenario for _, scenario in eligible]
        bases = scenario_performance_many(
            baseline_machine, scenarios, memo=memo
        )
        enableds = scenario_performance_many(
            feature_machine,
            scenarios,
            normalize_machine=baseline_machine,
            memo=memo,
        )
        for (index, scenario), base, enabled in zip(eligible, bases, enableds):
            reduction = mips_reduction_pct(base.overall, enabled.overall)
            ids.append(scenario.scenario_id)
            reductions.append(reduction)
            weights.append(float(all_weights[index]))

            for job_name, base_perf in base.per_job.items():
                job_red = mips_reduction_pct(
                    base_perf, enabled.per_job[job_name]
                )
                job_weight = (
                    float(all_weights[index]) * scenario.count_of(job_name)
                )
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


def _iter_batch_pairs(source: ScenarioSource):
    """Batches of (global index, scenario) pairs, one batch resident at a time."""
    index = 0
    for batch in source.iter_batches():
        pairs = []
        for scenario in batch.scenarios:
            pairs.append((index, scenario))
            index += 1
        yield pairs


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
    scenarios as one contention batch per machine configuration
    (optionally memoised through *memo*).
    """
    baseline_machine = BASELINE(dataset.shape.perf)
    feature_machine = feature(dataset.shape.perf)
    all_weights = dataset.weights()

    ids: list[int] = []
    reductions: list[float] = []
    weights: list[float] = []
    for batch_pairs in _iter_batch_pairs(dataset):
        eligible = [
            (index, scenario, scenario.count_of(job_name))
            for index, scenario in batch_pairs
            if scenario.count_of(job_name) > 0
        ]
        if not eligible:
            continue
        scenarios = [scenario for _, scenario, _ in eligible]
        bases = scenario_performance_many(
            baseline_machine, scenarios, memo=memo
        )
        enableds = scenario_performance_many(
            feature_machine,
            scenarios,
            normalize_machine=baseline_machine,
            memo=memo,
        )
        for (index, scenario, count), base, enabled in zip(
            eligible, bases, enableds
        ):
            ids.append(scenario.scenario_id)
            reductions.append(
                mips_reduction_pct(
                    base.per_job[job_name], enabled.per_job[job_name]
                )
            )
            weights.append(float(all_weights[index]) * count)

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
