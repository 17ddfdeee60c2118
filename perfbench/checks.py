"""Output checks run on every benchmark run.

Each checked output is one operation: an estimate, a truth, an
estimate-versus-truth comparison or a reproducibility comparison.  An
operation fails when any of its checks fails; the run is correct only
when none did.  The ``*_problems`` functions are pure, so a test can feed
them a perturbed value.
"""

from __future__ import annotations

import math
import sys

#: Largest |FLARE - truth| accepted for a checked feature, in percentage
#: points (the bound of tests/test_seed_robustness.py).
MAX_ERROR_PP = 1.5
#: Smallest accepted truth-evaluations / FLARE-evaluations ratio.
MIN_COST_REDUCTION_X = 10.0
#: Tolerance on the per-cluster weights' math.fsum around 1.
WEIGHT_SUM_TOLERANCE = 1e-9


def estimate_problems(estimate) -> list[str]:
    problems = []
    if not math.isfinite(estimate.reduction_pct):
        problems.append(f"estimate {estimate.reduction_pct!r} is not finite")
    if not all(math.isfinite(c.reduction_pct) for c in estimate.per_cluster):
        problems.append("a per-cluster reduction is not finite")
    weight_sum = math.fsum(c.weight for c in estimate.per_cluster)
    if not abs(weight_sum - 1.0) <= WEIGHT_SUM_TOLERANCE:
        problems.append(f"per-cluster weights sum to {weight_sum!r}, not 1")
    return problems


def truth_problems(truth) -> list[str]:
    values = [truth.overall_reduction_pct, *truth.per_job.values()]
    if all(math.isfinite(v) for v in values):
        return []
    return [f"truth for {truth.feature.name} is not finite"]


def error_pp(estimate, truth) -> float:
    return abs(estimate.reduction_pct - truth.overall_reduction_pct)


def cost_reduction_x(estimate, truth) -> float:
    return truth.evaluation_cost / estimate.evaluation_cost


def comparison_problems(estimate, truth) -> list[str]:
    problems = []
    error = error_pp(estimate, truth)
    if not error <= MAX_ERROR_PP:
        problems.append(
            f"{estimate.feature.name}: |FLARE - truth| = {error:.3f} pp "
            f"> {MAX_ERROR_PP} pp"
        )
    cost = cost_reduction_x(estimate, truth)
    if not cost > MIN_COST_REDUCTION_X:
        problems.append(
            f"{estimate.feature.name}: cost reduction {cost:.2f}x "
            f"<= {MIN_COST_REDUCTION_X}x"
        )
    return problems


class Checks:
    """Counts checked operations and the ones that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def record(self, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            for problem in problems:
                print(f"perfbench: check failed: {problem}", file=sys.stderr)

    def estimate(self, estimate) -> None:
        self.record(estimate_problems(estimate))

    def truth(self, truth) -> None:
        self.record(truth_problems(truth))

    def compare(self, estimate, truth) -> tuple[float, float]:
        self.record(comparison_problems(estimate, truth))
        return error_pp(estimate, truth), cost_reduction_x(estimate, truth)

    def same(self, got: str, want: str, what: str) -> None:
        self.record([] if got == want else [f"{what} differ: {got} != {want}"])

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
