"""Stratified-sampling baseline: sampling with a single-metric heuristic.

Between naive random sampling and FLARE sits an obvious middle ground a
practitioner would try first: stratify the scenarios on one intuitive
metric (machine occupancy, or MPKI) and sample proportionally from each
stratum.  The paper's §3.2 observation — a feature's impact correlates
with no single metric — predicts this helps only modestly; this module
makes that testable.
"""

from __future__ import annotations

import functools

import numpy as np

from ..cluster.features import Feature
from ..cluster.source import ScenarioSource, ensure_dataset
from ..runtime.executor import Executor, resolve_executor
from ..runtime.resilience import partition_failures
from ..runtime.seeding import spawn_seed_sequences
from ..stats.sampling import TRIAL_CHUNK_SIZE, SamplingTrialResult
from .full_datacenter import DatacenterTruth, evaluate_full_datacenter
from .sampling import SamplingEvaluation

__all__ = ["stratify_by_metric", "evaluate_by_stratified_sampling"]


def stratify_by_metric(
    values: np.ndarray, *, n_strata: int = 6
) -> np.ndarray:
    """Assign each element a stratum index by quantile of *values*."""
    if n_strata < 1:
        raise ValueError("n_strata must be >= 1")
    arr = np.asarray(values, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError("values must be 1-D")
    if n_strata == 1:
        return np.zeros(arr.size, dtype=np.intp)
    edges = np.quantile(arr, np.linspace(0.0, 1.0, n_strata + 1)[1:-1])
    return np.searchsorted(edges, arr, side="right").astype(np.intp)


def _stratified_trial(
    reductions: np.ndarray,
    weights: np.ndarray,
    stratum_members: tuple[np.ndarray, ...],
    stratum_shares: np.ndarray,
    allocation: np.ndarray,
    seed_seq: np.random.SeedSequence,
) -> float:
    """One stratified trial with its own spawned stream (picklable)."""
    rng = np.random.default_rng(seed_seq)
    total = 0.0
    for members, share, count in zip(
        stratum_members, stratum_shares, allocation
    ):
        member_weights = weights[members]
        prob = member_weights / member_weights.sum()
        picked = rng.choice(members, size=count, replace=True, p=prob)
        total += share * reductions[picked].mean()
    return total


def evaluate_by_stratified_sampling(
    dataset: ScenarioSource,
    feature: Feature,
    *,
    sample_size: int,
    n_trials: int = 1000,
    seed: int = 0,
    n_strata: int = 6,
    stratify_on: str = "occupancy",
    truth: DatacenterTruth | None = None,
    executor: "Executor | str | None" = None,
) -> SamplingEvaluation:
    """Occupancy- (or metric-) stratified sampling estimate distribution.

    Each trial draws samples from every stratum (allocation proportional
    to stratum weight, at least one each) and combines stratum means with
    stratum weights — the textbook stratified estimator.  Trials dispatch
    on *executor* with per-trial spawned seeds, so results are identical
    under serial and parallel execution.

    Parameters
    ----------
    stratify_on:
        ``"occupancy"`` (total vCPU occupancy) or ``"hp_mpki"``
        (approximate HP LLC pressure from the recorded instances).
    """
    if sample_size < n_strata:
        raise ValueError("sample_size must be >= n_strata")
    # Stratification needs random access to the hosting scenarios, so a
    # non-resident source is materialised here; the truth computation
    # above it streams either way.
    dataset = ensure_dataset(dataset)
    resolved = truth if truth is not None else evaluate_full_datacenter(
        dataset, feature
    )
    id_to_index = {
        s.scenario_id: i for i, s in enumerate(dataset.scenarios)
    }
    hp_scenarios = [dataset[id_to_index[sid]] for sid in resolved.scenario_ids]

    if stratify_on == "occupancy":
        keys = np.array([s.occupancy(dataset.shape) for s in hp_scenarios])
    elif stratify_on == "hp_mpki":
        keys = np.array(
            [
                float(
                    np.mean(
                        [
                            inst.signature.llc_apki
                            for inst in s.hp_instances
                        ]
                    )
                )
                for s in hp_scenarios
            ]
        )
    else:
        raise ValueError(
            f"unknown stratification key {stratify_on!r}; "
            "expected 'occupancy' or 'hp_mpki'"
        )

    strata = stratify_by_metric(keys, n_strata=n_strata)
    reductions = resolved.reductions_pct
    weights = resolved.weights

    # Per-stratum population and weight share.
    stratum_members: list[np.ndarray] = []
    stratum_weights: list[float] = []
    for stratum in range(int(strata.max()) + 1):
        members = np.flatnonzero(strata == stratum)
        if members.size == 0:
            continue
        stratum_members.append(members)
        stratum_weights.append(float(weights[members].sum()))
    stratum_weight_arr = np.asarray(stratum_weights)
    stratum_weight_arr = stratum_weight_arr / stratum_weight_arr.sum()

    # Proportional allocation with a floor of one sample per stratum.
    allocation = np.maximum(
        1, np.round(stratum_weight_arr * sample_size).astype(int)
    )
    while allocation.sum() > sample_size:
        allocation[int(np.argmax(allocation))] -= 1
    while allocation.sum() < sample_size:
        allocation[int(np.argmax(stratum_weight_arr))] += 1

    trial = functools.partial(
        _stratified_trial,
        reductions,
        weights,
        tuple(stratum_members),
        stratum_weight_arr,
        allocation,
    )
    from ..obs import inc, span

    with span(
        "baseline.stratified",
        feature=feature.name,
        sample_size=sample_size,
        n_trials=n_trials,
        n_strata=len(stratum_members),
        stratify_on=stratify_on,
    ):
        raw = resolve_executor(executor).map(
            trial,
            spawn_seed_sequences(seed, n_trials),
            chunk_size=TRIAL_CHUNK_SIZE,
            stage="stratified-trials",
        )
    # Independent trials: drop any degraded to TaskFailure, keep the rest.
    survivors, failures = partition_failures(raw)
    if failures and not survivors:
        raise RuntimeError(
            f"all {n_trials} stratified trials failed: {failures[0].error}"
        )
    estimates = np.asarray(survivors)
    inc("sampling_trials_total", n_trials)

    trials = SamplingTrialResult(
        estimates=estimates,
        sample_size=sample_size,
        truth=resolved.overall_reduction_pct,
    )
    return SamplingEvaluation(
        feature=feature,
        job_name=None,
        trials=trials,
        evaluation_cost=sample_size,
    )
