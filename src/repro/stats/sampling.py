"""Sampling-based estimation machinery for the baseline comparisons.

The paper compares FLARE against random sampling: pick N co-location
scenarios at random, evaluate the feature on just those, and extrapolate
(§5.3, Figures 12–13).  This module provides the trial harness, the
distribution summaries shown as violin/box plots, and confidence-interval
helpers for the cost/accuracy curve.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from statistics import NormalDist

import numpy as np

from .._deprecations import resolve_positional_kwarg
from ..runtime.executor import Executor, resolve_executor
from ..runtime.resilience import partition_failures
from ..runtime.seeding import spawn_seed_sequences
from .validation import as_vector

__all__ = [
    "DistributionSummary",
    "summarize_distribution",
    "SamplingTrialResult",
    "run_sampling_trials",
    "percentile_interval",
    "expected_max_error",
]


@dataclass(frozen=True)
class DistributionSummary:
    """Five-number summary + mean/std for a trial distribution.

    This is the data behind the paper's violin-and-box plots (Fig. 12a).
    """

    mean: float
    std: float
    minimum: float
    q1: float
    median: float
    q3: float
    maximum: float
    n: int

    def iqr(self) -> float:
        """Interquartile range (box height)."""
        return self.q3 - self.q1

    def as_dict(self) -> dict[str, float]:
        return {
            "mean": self.mean,
            "std": self.std,
            "min": self.minimum,
            "q1": self.q1,
            "median": self.median,
            "q3": self.q3,
            "max": self.maximum,
            "n": float(self.n),
        }


def summarize_distribution(values) -> DistributionSummary:
    """Compute a :class:`DistributionSummary` for *values*."""
    arr = as_vector(values, name="values")
    if arr.size == 0:
        raise ValueError("values must be non-empty")
    q1, median, q3 = np.percentile(arr, [25.0, 50.0, 75.0])
    return DistributionSummary(
        mean=float(arr.mean()),
        std=float(arr.std(ddof=0)),
        minimum=float(arr.min()),
        q1=float(q1),
        median=float(median),
        q3=float(q3),
        maximum=float(arr.max()),
        n=int(arr.size),
    )


@dataclass(frozen=True)
class SamplingTrialResult:
    """Estimates from repeated random-sampling trials.

    Attributes
    ----------
    estimates:
        One population-mean estimate per trial.
    sample_size:
        Scenarios drawn per trial (the evaluation cost).
    truth:
        The full-population value the estimates target.
    """

    estimates: np.ndarray
    sample_size: int
    truth: float

    def errors(self) -> np.ndarray:
        """Absolute estimation error of each trial."""
        return np.abs(self.estimates - self.truth)

    def summary(self) -> DistributionSummary:
        return summarize_distribution(self.estimates)

    def max_error_at_confidence(self, confidence: float = 0.95) -> float:
        """Error magnitude not exceeded in *confidence* of trials."""
        if not 0.0 < confidence < 1.0:
            raise ValueError("confidence must be in (0, 1)")
        return float(np.percentile(self.errors(), confidence * 100.0))


#: Trials batched per pickled work unit when dispatching to an executor.
TRIAL_CHUNK_SIZE = 32


def _sampling_trial(
    values: np.ndarray,
    prob,
    sample_size: int,
    replace: bool,
    seed_seq: np.random.SeedSequence,
) -> float:
    """One trial: draw a subsample with the trial's own stream.

    Module-level (and fed shared arguments via ``functools.partial``) so
    process-pool executors can pickle it; the stream depends only on the
    spawned *seed_seq*, never on the executing worker.
    """
    rng = np.random.default_rng(seed_seq)
    idx = rng.choice(values.size, size=sample_size, replace=replace, p=prob)
    return float(values[idx].mean())


def run_sampling_trials(
    population,
    *,
    sample_size: int,
    n_trials: int,
    seed=None,
    weights=None,
    replace: bool = False,
    executor: "Executor | str | None" = None,
) -> SamplingTrialResult:
    """Estimate a population mean from repeated random subsamples.

    Parameters
    ----------
    population:
        Per-scenario values (e.g. MIPS-reduction percent of each scenario).
    sample_size:
        Number of scenarios per trial — the cost knob of Figure 13.
    n_trials:
        Number of independent trials (the paper uses 1,000).
    weights:
        Optional occurrence weights; the truth and the trial estimates are
        then occurrence-weighted means.
    replace:
        Sample with replacement (needed when sample_size approaches the
        population size under weighting).
    executor:
        Executor (or spec string) the trials are dispatched on.  Each
        trial draws from its own ``SeedSequence.spawn`` child stream, so
        serial and parallel execution produce bit-identical estimates.
    """
    values = as_vector(population, name="population")
    if values.size == 0:
        raise ValueError("population must be non-empty")
    if sample_size < 1:
        raise ValueError("sample_size must be >= 1")
    if not replace and sample_size > values.size:
        raise ValueError(
            f"sample_size={sample_size} exceeds population {values.size} "
            "without replacement"
        )
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")

    prob = None
    if weights is not None:
        w = as_vector(weights, name="weights")
        if w.shape != values.shape:
            raise ValueError("weights must match population length")
        if (w < 0).any() or w.sum() <= 0:
            raise ValueError("weights must be non-negative with positive sum")
        prob = w / w.sum()
        truth = float(values @ prob)
    else:
        truth = float(values.mean())

    from ..obs import inc, span

    trial = functools.partial(_sampling_trial, values, prob, sample_size, replace)
    with span(
        "sampling.trials", n_trials=n_trials, sample_size=sample_size
    ):
        raw = resolve_executor(executor).map(
            trial,
            spawn_seed_sequences(seed, n_trials),
            chunk_size=TRIAL_CHUNK_SIZE,
            stage="sampling-trials",
        )
    # Trials degraded to TaskFailure under retry_then_skip are dropped:
    # each trial is an independent estimate, so survivors remain a valid
    # (smaller) sample of the estimator's distribution.
    survivors, failures = partition_failures(raw)
    if failures and not survivors:
        raise RuntimeError(
            f"all {n_trials} sampling trials failed: {failures[0].error}"
        )
    estimates = np.asarray(survivors)
    inc("sampling_trials_total", n_trials)
    return SamplingTrialResult(
        estimates=estimates, sample_size=sample_size, truth=truth
    )


def percentile_interval(
    values, *args, confidence: float = 0.95
) -> tuple[float, float]:
    """Central percentile interval of *values* (e.g. 95 % CI of trials).

    ``confidence`` is keyword-only; passing it positionally is deprecated.
    """
    confidence = resolve_positional_kwarg(
        args, confidence, owner="percentile_interval", name="confidence"
    )
    arr = as_vector(values, name="values")
    if arr.size == 0:
        raise ValueError("values must be non-empty")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    tail = (1.0 - confidence) / 2.0 * 100.0
    low, high = np.percentile(arr, [tail, 100.0 - tail])
    return float(low), float(high)


def expected_max_error(
    population,
    *,
    sample_size: int,
    confidence: float = 0.95,
) -> float:
    """Analytic expected-max sampling error for a given cost.

    Uses the normal approximation of the sampling distribution of the mean
    with finite-population correction: the half-width of the *confidence*
    interval.  This mirrors the paper's Figure 13 "expected max performance
    estimation error (95 % confidence interval)" curve.
    """
    values = as_vector(population, name="population")
    n_pop = values.size
    if n_pop < 2:
        raise ValueError("population needs at least 2 values")
    if not 1 <= sample_size <= n_pop:
        raise ValueError("sample_size must be in [1, population size]")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")

    sigma = values.std(ddof=1)
    fpc = np.sqrt((n_pop - sample_size) / max(n_pop - 1, 1))
    stderr = sigma / np.sqrt(sample_size) * fpc
    z = NormalDist().inv_cdf(0.5 + confidence / 2.0)
    return float(z * stderr)
