"""Figure 12 — estimation accuracy: datacenter truth vs sampling vs FLARE.

(a) All-job impact: the truth, 1,000 random-sampling trials at FLARE's
    cost (one sample per representative), and FLARE's single estimate.
(b) Per-job impact: truth, sampling 95 % confidence interval, and FLARE's
    per-job estimate (with the next-nearest-scenario fallback).
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.sampling import evaluate_by_sampling, evaluate_job_by_sampling
from ..cluster.features import PAPER_FEATURES, Feature
from ..reporting.tables import render_table
from ..stats.sampling import DistributionSummary, percentile_interval
from ..workloads import HP_JOB_NAMES
from .context import ExperimentContext

__all__ = [
    "Fig12aRow",
    "Fig12bRow",
    "Fig12Result",
    "run_all_job",
    "run_per_job",
    "run",
]


@dataclass(frozen=True)
class Fig12aRow:
    """One feature's violin/box/FLARE triple in Figure 12a."""

    feature: Feature
    truth_pct: float
    flare_pct: float
    sampling: DistributionSummary
    sampling_ci95: tuple[float, float]

    @property
    def flare_error_pct(self) -> float:
        return abs(self.flare_pct - self.truth_pct)

    @property
    def sampling_max_error_pct(self) -> float:
        return max(
            abs(self.sampling.minimum - self.truth_pct),
            abs(self.sampling.maximum - self.truth_pct),
        )


@dataclass(frozen=True)
class Fig12bRow:
    """One (feature, job) cell in Figure 12b."""

    feature: Feature
    job_name: str
    truth_pct: float
    flare_pct: float
    sampling_mean_pct: float
    sampling_ci95: tuple[float, float]

    @property
    def flare_error_pct(self) -> float:
        return abs(self.flare_pct - self.truth_pct)


@dataclass(frozen=True)
class Fig12Result:
    """Both panels of Figure 12."""

    all_job: tuple[Fig12aRow, ...]
    per_job: tuple[Fig12bRow, ...]

    def max_flare_all_job_error(self) -> float:
        return max(r.flare_error_pct for r in self.all_job)

    def render(self) -> str:
        a = render_table(
            ["feature", "truth %", "FLARE %", "FLARE err",
             "samp q1", "samp q3", "samp max err"],
            [
                [
                    r.feature.name,
                    r.truth_pct,
                    r.flare_pct,
                    r.flare_error_pct,
                    r.sampling.q1,
                    r.sampling.q3,
                    r.sampling_max_error_pct,
                ]
                for r in self.all_job
            ],
            title="Figure 12a — all-job impact",
        )
        b = render_table(
            ["feature", "job", "truth %", "FLARE %", "samp mean %",
             "samp CI low", "samp CI high"],
            [
                [
                    r.feature.name,
                    r.job_name,
                    r.truth_pct,
                    r.flare_pct,
                    r.sampling_mean_pct,
                    r.sampling_ci95[0],
                    r.sampling_ci95[1],
                ]
                for r in self.per_job
            ],
            title="Figure 12b — per-job impact",
        )
        return a + "\n\n" + b


def run_all_job(
    context: ExperimentContext,
    features: tuple[Feature, ...] = PAPER_FEATURES,
    *,
    n_trials: int = 1000,
    seed: int = 0,
) -> tuple[Fig12aRow, ...]:
    """Reproduce Figure 12a (sampling cost = FLARE's cluster count)."""
    sample_size = context.n_clusters
    rows = []
    for feature in features:
        truth = context.truth(feature)
        flare_estimate = context.flare.evaluate(
            feature, runtime=context.executor
        )
        sampling = evaluate_by_sampling(
            context.dataset,
            feature,
            sample_size=sample_size,
            n_trials=n_trials,
            seed=seed,
            truth=truth,
            executor=context.executor,
        )
        rows.append(
            Fig12aRow(
                feature=feature,
                truth_pct=truth.overall_reduction_pct,
                flare_pct=flare_estimate.reduction_pct,
                sampling=sampling.trials.summary(),
                sampling_ci95=percentile_interval(
                    sampling.trials.estimates, confidence=0.95
                ),
            )
        )
    return tuple(rows)


def run_per_job(
    context: ExperimentContext,
    features: tuple[Feature, ...] = PAPER_FEATURES,
    jobs: tuple[str, ...] = HP_JOB_NAMES,
    *,
    n_trials: int = 1000,
    seed: int = 0,
) -> tuple[Fig12bRow, ...]:
    """Reproduce Figure 12b."""
    sample_size = context.n_clusters
    rows = []
    for feature in features:
        truth = context.truth(feature)
        for job_name in jobs:
            if job_name not in truth.per_job:
                continue
            flare_estimate = context.flare.evaluate_job(
                feature, job_name, runtime=context.executor
            )
            sampling = evaluate_job_by_sampling(
                context.dataset,
                feature,
                job_name,
                sample_size=sample_size,
                n_trials=n_trials,
                seed=seed,
                executor=context.executor,
            )
            rows.append(
                Fig12bRow(
                    feature=feature,
                    job_name=job_name,
                    truth_pct=truth.per_job[job_name],
                    flare_pct=flare_estimate.reduction_pct,
                    sampling_mean_pct=sampling.mean_estimate,
                    sampling_ci95=percentile_interval(
                        sampling.trials.estimates, confidence=0.95
                    ),
                )
            )
    return tuple(rows)


def run(
    context: ExperimentContext,
    features: tuple[Feature, ...] = PAPER_FEATURES,
    *,
    n_trials: int = 1000,
    seed: int = 0,
) -> Fig12Result:
    """Reproduce both panels of Figure 12."""
    return Fig12Result(
        all_job=run_all_job(context, features, n_trials=n_trials, seed=seed),
        per_job=run_per_job(context, features, n_trials=n_trials, seed=seed),
    )
