"""Extension experiment: how far can smarter *sampling* get?

The paper compares FLARE against naive random sampling; a natural
objection is "just stratify your samples".  This experiment pits, at
identical evaluation cost:

* naive random sampling,
* occupancy-stratified sampling,
* HP-cache-pressure-stratified sampling,
* FLARE,

against the full-datacenter truth.  Per §3.2's no-single-metric finding,
stratifying on one intuitive metric narrows the spread only modestly —
FLARE's multi-metric behaviour grouping remains necessary.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..baselines.sampling import evaluate_by_sampling
from ..baselines.stratified import evaluate_by_stratified_sampling
from ..cluster.features import FEATURE_2_DVFS, Feature
from ..reporting.tables import render_table
from .context import ExperimentContext

__all__ = ["StrategyRow", "SamplingStrategiesResult", "run"]


@dataclass(frozen=True)
class StrategyRow:
    """One estimation strategy's quality at fixed cost."""

    strategy: str
    mean_abs_error_pct: float
    max_error_at_95_pct: float


@dataclass(frozen=True)
class SamplingStrategiesResult:
    """All strategies, one feature, equal cost."""

    feature: Feature
    evaluation_cost: int
    rows: tuple[StrategyRow, ...]

    def row(self, strategy: str) -> StrategyRow:
        for row in self.rows:
            if row.strategy == strategy:
                return row
        raise KeyError(f"no strategy {strategy!r}")

    def render(self) -> str:
        return render_table(
            ["strategy", "mean |err| %", "err@95 %"],
            [
                [r.strategy, r.mean_abs_error_pct, r.max_error_at_95_pct]
                for r in self.rows
            ],
            title=(
                f"Sampling strategies vs FLARE ({self.feature.name}, "
                f"cost = {self.evaluation_cost} scenarios)"
            ),
        )


def run(
    context: ExperimentContext,
    feature: Feature = FEATURE_2_DVFS,
    *,
    n_trials: int = 1000,
    seed: int = 0,
) -> SamplingStrategiesResult:
    """Compare sampling strategies against FLARE at equal cost."""
    cost = context.n_clusters
    truth = context.truth(feature)
    executor = context.executor

    naive = evaluate_by_sampling(
        context.dataset,
        feature,
        sample_size=cost,
        n_trials=n_trials,
        seed=seed,
        truth=truth,
        executor=executor,
    )
    by_occupancy = evaluate_by_stratified_sampling(
        context.dataset,
        feature,
        sample_size=cost,
        n_trials=n_trials,
        seed=seed,
        stratify_on="occupancy",
        truth=truth,
        executor=executor,
    )
    by_mpki = evaluate_by_stratified_sampling(
        context.dataset,
        feature,
        sample_size=cost,
        n_trials=n_trials,
        seed=seed,
        stratify_on="hp_mpki",
        truth=truth,
        executor=executor,
    )
    flare_error = abs(
        context.flare.evaluate(feature, runtime=executor).reduction_pct
        - truth.overall_reduction_pct
    )

    rows = [
        StrategyRow(
            "random sampling",
            float(naive.trials.errors().mean()),
            naive.trials.max_error_at_confidence(0.95),
        ),
        StrategyRow(
            "stratified (occupancy)",
            float(by_occupancy.trials.errors().mean()),
            by_occupancy.trials.max_error_at_confidence(0.95),
        ),
        StrategyRow(
            "stratified (HP cache pressure)",
            float(by_mpki.trials.errors().mean()),
            by_mpki.trials.max_error_at_confidence(0.95),
        ),
        StrategyRow("FLARE", flare_error, flare_error),
    ]
    return SamplingStrategiesResult(
        feature=feature, evaluation_cost=cost, rows=tuple(rows)
    )
