"""Fleet-health drift monitor: score scenario streams against a fit.

The paper fits once on a frozen trace; a serving fleet drifts.  This
module watches any :class:`~repro.cluster.ScenarioSource` — the live
sharded store, a fresh simulation, yesterday's traffic — and scores it
against the :class:`~repro.core.representatives.FitBaseline` recorded
when the model was fitted, emitting three staleness signals:

* **occupancy shift** — population-stability index (PSI) of the
  observed cluster-occupancy distribution vs. fit time, per cluster and
  total;
* **tightness delta** — assignment-distance / SSE-per-scenario ratio
  vs. the fit-time clustering inertia;
* **novelty rate** — share of scenarios whose assignment distance
  exceeds the fit-time :data:`~repro.core.representatives.NOVELTY_QUANTILE`
  quantile.

Scoring streams batch-by-batch through ``Profiler.iter_profile`` (so a
sharded store is never materialised, and a parallel runtime fans the
profiling out as table slices) into a mergeable :class:`DriftState`.  The
state keeps *per-batch partial sums* and finalises them with
:func:`math.fsum`, which is exactly rounded — so merging is associative
bit-for-bit and serial ≡ parallel scores are bit-identical regardless
of how batches were grouped.

Quick start::

    report = flare.health(live_store)        # or DriftMonitor(flare)
    print(report.render())
    if report.status == "alert":
        ...refit...
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .metrics import inc, set_gauge
from .tracing import span as obs_span

__all__ = [
    "ClusterDrift",
    "DriftMonitor",
    "DriftReport",
    "DriftState",
    "DriftThresholds",
    "PSI_EPSILON",
]

#: Shares are clamped to this floor before the PSI log-ratio so empty
#: clusters (fit-time or observed) contribute a large-but-finite term.
PSI_EPSILON = 1e-6

_STATUS_ORDER = ("healthy", "warn", "alert")


@dataclass(frozen=True)
class DriftThresholds:
    """Alerting thresholds of the drift monitor.

    PSI cutoffs follow the conventional credit-scoring reading: < 0.1
    stable, 0.1–0.25 moderate shift, > 0.25 significant shift.
    """

    psi_warn: float = 0.1
    psi_alert: float = 0.25
    #: Per-cluster PSI contribution above which the cluster is flagged.
    cluster_psi_flag: float = 0.02
    novelty_warn: float = 0.05
    novelty_alert: float = 0.15
    sse_ratio_warn: float = 1.5
    sse_ratio_alert: float = 3.0

    def to_dict(self) -> dict:
        return {
            "psi_warn": self.psi_warn,
            "psi_alert": self.psi_alert,
            "cluster_psi_flag": self.cluster_psi_flag,
            "novelty_warn": self.novelty_warn,
            "novelty_alert": self.novelty_alert,
            "sse_ratio_warn": self.sse_ratio_warn,
            "sse_ratio_alert": self.sse_ratio_alert,
        }


@dataclass
class DriftState:
    """Mergeable accumulator of one monitoring pass.

    Float statistics are kept as *per-batch partial vectors* and only
    summed at :meth:`finalize` time with :func:`math.fsum`.  ``fsum``
    is exactly rounded — its result does not depend on how the partials
    were grouped — so :meth:`merge` is associative bit-for-bit.  That
    is the property that makes serial and process-parallel monitoring
    runs score identically, and it is tested directly
    (``tests/obs/test_monitor.py``).

    Integer statistics (counts, novelty) add exactly and need no such
    care.
    """

    n_clusters: int
    counts: np.ndarray = field(default=None)  # (k,) int64
    novel: int = 0
    #: Per-batch per-cluster observation-time mass (raw seconds).
    mass_parts: list = field(default_factory=list)
    #: Per-batch per-cluster assignment-distance sums.
    dist_parts: list = field(default_factory=list)
    #: Per-batch per-cluster squared-distance sums (SSE partials).
    sq_parts: list = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.counts is None:
            self.counts = np.zeros(self.n_clusters, dtype=np.int64)

    @property
    def n_scenarios(self) -> int:
        return int(self.counts.sum())

    # ------------------------------------------------------------------
    def merge(self, other: "DriftState") -> "DriftState":
        """Combined state; associative bit-for-bit (see class docs)."""
        if other.n_clusters != self.n_clusters:
            raise ValueError(
                f"cannot merge drift states over {self.n_clusters} and "
                f"{other.n_clusters} clusters"
            )
        return DriftState(
            n_clusters=self.n_clusters,
            counts=self.counts + other.counts,
            novel=self.novel + other.novel,
            mass_parts=[*self.mass_parts, *other.mass_parts],
            dist_parts=[*self.dist_parts, *other.dist_parts],
            sq_parts=[*self.sq_parts, *other.sq_parts],
        )

    def finalize(self) -> dict:
        """Exactly-rounded totals: mass, distance and SSE per cluster."""
        return {
            "counts": self.counts.copy(),
            "novel": self.novel,
            "mass": _fsum_columns(self.mass_parts, self.n_clusters),
            "dist_sum": _fsum_columns(self.dist_parts, self.n_clusters),
            "sq_sum": _fsum_columns(self.sq_parts, self.n_clusters),
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        """JSON-safe form; floats round-trip exactly (repr shortest)."""
        return {
            "n_clusters": self.n_clusters,
            "counts": [int(c) for c in self.counts],
            "novel": self.novel,
            "mass_parts": [[float(v) for v in p] for p in self.mass_parts],
            "dist_parts": [[float(v) for v in p] for p in self.dist_parts],
            "sq_parts": [[float(v) for v in p] for p in self.sq_parts],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DriftState":
        k = int(payload["n_clusters"])
        return cls(
            n_clusters=k,
            counts=np.asarray(payload["counts"], dtype=np.int64),
            novel=int(payload["novel"]),
            mass_parts=[
                np.asarray(p, dtype=np.float64)
                for p in payload["mass_parts"]
            ],
            dist_parts=[
                np.asarray(p, dtype=np.float64)
                for p in payload["dist_parts"]
            ],
            sq_parts=[
                np.asarray(p, dtype=np.float64) for p in payload["sq_parts"]
            ],
        )


def _fsum_columns(parts: list, n_clusters: int) -> np.ndarray:
    """Per-cluster exactly-rounded sum over per-batch partial vectors."""
    out = np.zeros(n_clusters, dtype=np.float64)
    if not parts:
        return out
    for c in range(n_clusters):
        out[c] = math.fsum(float(p[c]) for p in parts)
    return out


@dataclass(frozen=True)
class ClusterDrift:
    """Drift diagnostics of one cluster."""

    cluster_id: int
    baseline_share: float
    observed_share: float
    psi_term: float
    baseline_mean_distance: float
    observed_mean_distance: float
    n_observed: int
    flagged: bool

    def to_dict(self) -> dict:
        return {
            "cluster_id": self.cluster_id,
            "baseline_share": self.baseline_share,
            "observed_share": self.observed_share,
            "psi_term": self.psi_term,
            "baseline_mean_distance": self.baseline_mean_distance,
            "observed_mean_distance": self.observed_mean_distance,
            "n_observed": self.n_observed,
            "flagged": self.flagged,
        }


@dataclass(frozen=True)
class DriftReport:
    """One scored monitoring pass, ready to render or serialise."""

    n_scenarios: int
    psi_total: float
    novelty_rate: float
    novelty_threshold: float
    sse_per_scenario: float
    baseline_sse_per_scenario: float
    sse_ratio: float
    clusters: tuple[ClusterDrift, ...]
    status: str
    thresholds: DriftThresholds

    @property
    def flagged_clusters(self) -> tuple[int, ...]:
        return tuple(c.cluster_id for c in self.clusters if c.flagged)

    @property
    def exit_code(self) -> int:
        """0 healthy, 1 warn, 2 alert — the CLI's threshold contract."""
        return _STATUS_ORDER.index(self.status)

    def to_dict(self) -> dict:
        return {
            "status": self.status,
            "n_scenarios": self.n_scenarios,
            "psi_total": self.psi_total,
            "novelty_rate": self.novelty_rate,
            "novelty_threshold": self.novelty_threshold,
            "sse_per_scenario": self.sse_per_scenario,
            "baseline_sse_per_scenario": self.baseline_sse_per_scenario,
            "sse_ratio": self.sse_ratio,
            "flagged_clusters": list(self.flagged_clusters),
            "clusters": [c.to_dict() for c in self.clusters],
            "thresholds": self.thresholds.to_dict(),
        }

    def render(self) -> str:
        """Human-readable report (the ``repro monitor`` text output)."""
        lines = [
            f"drift status: {self.status}  "
            f"({self.n_scenarios} scenarios scored)",
            f"  psi_total        {self.psi_total:.6f}  "
            f"(warn {self.thresholds.psi_warn}, "
            f"alert {self.thresholds.psi_alert})",
            f"  novelty_rate     {self.novelty_rate:.4f}  "
            f"(threshold distance {self.novelty_threshold:.4f}; "
            f"warn {self.thresholds.novelty_warn}, "
            f"alert {self.thresholds.novelty_alert})",
            f"  sse/scenario     {self.sse_per_scenario:.6f}  "
            f"(fit {self.baseline_sse_per_scenario:.6f}, "
            f"ratio {self.sse_ratio:.3f})",
        ]
        if self.flagged_clusters:
            lines.append(
                "  shifted clusters: "
                + ", ".join(str(c) for c in self.flagged_clusters)
            )
        header = (
            f"  {'cluster':>7} {'fit%':>8} {'now%':>8} "
            f"{'psi':>10} {'dist(fit)':>10} {'dist(now)':>10}"
        )
        lines.append(header)
        for c in self.clusters:
            mark = " *" if c.flagged else ""
            lines.append(
                f"  {c.cluster_id:>7} {100 * c.baseline_share:>7.2f}% "
                f"{100 * c.observed_share:>7.2f}% {c.psi_term:>10.6f} "
                f"{c.baseline_mean_distance:>10.4f} "
                f"{c.observed_mean_distance:>10.4f}{mark}"
            )
        return "\n".join(lines)


class DriftMonitor:
    """Scores scenario streams against a fitted model's baseline.

    Parameters
    ----------
    flare:
        A fitted :class:`~repro.core.Flare` whose representative set
        carries a :class:`~repro.core.representatives.FitBaseline`
        (every fit since the observatory landed records one; older
        saved models refit on load and pick one up for free).
    thresholds:
        Alerting cutoffs; defaults to :class:`DriftThresholds`.
    """

    def __init__(self, flare, thresholds: DriftThresholds | None = None):
        baseline = flare.representatives.baseline
        if baseline is None:
            raise ValueError(
                "model carries no fit-time baseline; refit to monitor"
            )
        self.flare = flare
        self.baseline = baseline
        self.thresholds = (
            thresholds if thresholds is not None else DriftThresholds()
        )
        self._kept = list(flare.prune_report.kept)

    # ------------------------------------------------------------------
    def observe(self, source, *, runtime=None) -> DriftReport:
        """Stream *source* through the model and score its drift.

        Accepts any :class:`~repro.cluster.ScenarioSource`; a sharded
        store streams batch-by-batch and never materialises.  With a
        parallel *runtime* the profiling fan-out runs under the process
        executor; per-batch drift partials are folded in global batch
        order, so the resulting report is bit-identical to a serial
        pass (see :class:`DriftState`).
        """
        if source.shape != self.flare.dataset.shape:
            raise ValueError(
                f"cannot monitor scenarios from shape "
                f"{source.shape.name!r} with a model fitted on "
                f"{self.flare.dataset.shape.name!r} (paper §5.5)"
            )
        with obs_span(
            "monitor.observe", n_scenarios=len(source)
        ) as observe_span:
            state = self.observe_state(source, runtime=runtime)
            report = self.report(state)
            inc("monitor_scenarios", report.n_scenarios)
            inc("monitor_novel", state.novel)
            set_gauge("monitor_psi_total", report.psi_total)
            set_gauge("monitor_novelty_rate", report.novelty_rate)
            set_gauge("monitor_sse_ratio", report.sse_ratio)
            if observe_span is not None:
                observe_span.attrs["status"] = report.status
                observe_span.attrs["psi_total"] = report.psi_total
        return report

    def observe_state(self, source, *, runtime=None) -> DriftState:
        """The mergeable :class:`DriftState` of one pass (no scoring)."""
        profiler = self.flare.config.make_profiler()
        state = DriftState(n_clusters=self.baseline.n_clusters)
        # One columnar pass up front beats per-batch scenario access:
        # for a sharded store this reads only the duration column
        # (memory-mapped), and under a runtime it spares the parent
        # from decoding each batch's scenarios just for weights.
        all_durations = (
            source.durations()
            if hasattr(source, "durations")
            else np.array(
                [s.total_duration_s for s in source.scenarios],
                dtype=np.float64,
            )
        )
        for batch in profiler.iter_profile(source, runtime=runtime):
            rows = batch.matrix.shape[0]
            durations = all_durations[
                batch.start_row : batch.start_row + rows
            ]
            state = state.merge(self.batch_state(batch.matrix, durations))
        return state

    def batch_state(
        self, matrix: np.ndarray, durations: np.ndarray
    ) -> DriftState:
        """Drift partials of one profiled batch.

        *matrix* is a raw profiled batch (all metric columns);
        *durations* the scenarios' raw observation seconds — raw, not
        batch-normalised, so partial masses add across batches.
        """
        from ..stats.distance import pairwise_sq_euclidean
        from ..stats.kmeans import assigned_sq_distances

        analysis = self.flare.analysis
        projected = analysis.project(matrix[:, self._kept])
        centroids = analysis.kmeans.centroids
        labels = np.argmin(
            pairwise_sq_euclidean(projected, centroids), axis=1
        )
        # Same direct-differencing kernel the fit-time baseline used, so
        # self-monitoring reproduces fit-time distances exactly.
        sq = assigned_sq_distances(projected, centroids, labels)
        distances = np.sqrt(sq)
        k = self.baseline.n_clusters
        return DriftState(
            n_clusters=k,
            counts=np.bincount(labels, minlength=k).astype(np.int64),
            novel=int(
                np.count_nonzero(distances > self.baseline.novelty_threshold)
            ),
            mass_parts=[np.bincount(labels, weights=durations, minlength=k)],
            dist_parts=[np.bincount(labels, weights=distances, minlength=k)],
            sq_parts=[np.bincount(labels, weights=sq, minlength=k)],
        )

    # ------------------------------------------------------------------
    def report(self, state: DriftState) -> DriftReport:
        """Score a finalized :class:`DriftState` against the baseline."""
        totals = state.finalize()
        counts = totals["counts"]
        n = int(counts.sum())
        if n == 0:
            raise ValueError("drift state covers no scenarios")
        mass = totals["mass"]
        mass_total = float(mass.sum())
        if mass_total > 0.0:
            observed_share = mass / mass_total
        else:
            # Zero-duration stream (synthetic probes): fall back to counts.
            observed_share = counts / n
        baseline = self.baseline
        thresholds = self.thresholds
        psi_terms = _psi_terms(baseline.occupancy, observed_share)
        mean_distance = totals["dist_sum"] / np.maximum(counts, 1)
        clusters = tuple(
            ClusterDrift(
                cluster_id=c,
                baseline_share=float(baseline.occupancy[c]),
                observed_share=float(observed_share[c]),
                psi_term=float(psi_terms[c]),
                baseline_mean_distance=float(baseline.mean_distance[c]),
                observed_mean_distance=float(mean_distance[c]),
                n_observed=int(counts[c]),
                flagged=bool(psi_terms[c] >= thresholds.cluster_psi_flag),
            )
            for c in range(baseline.n_clusters)
        )
        psi_total = float(psi_terms.sum())
        novelty_rate = totals["novel"] / n
        sse_per_scenario = float(totals["sq_sum"].sum()) / n
        base_spn = baseline.sse_per_scenario
        if base_spn > 0.0:
            sse_ratio = sse_per_scenario / base_spn
        else:
            sse_ratio = math.inf if sse_per_scenario > 0.0 else 1.0
        status = _status(
            psi_total, novelty_rate, sse_ratio, thresholds=thresholds
        )
        return DriftReport(
            n_scenarios=n,
            psi_total=psi_total,
            novelty_rate=novelty_rate,
            novelty_threshold=baseline.novelty_threshold,
            sse_per_scenario=sse_per_scenario,
            baseline_sse_per_scenario=base_spn,
            sse_ratio=sse_ratio,
            clusters=clusters,
            status=status,
            thresholds=thresholds,
        )


def _psi_terms(expected: np.ndarray, observed: np.ndarray) -> np.ndarray:
    """Per-cluster population-stability terms, epsilon-clamped."""
    p = np.maximum(np.asarray(expected, dtype=np.float64), PSI_EPSILON)
    q = np.maximum(np.asarray(observed, dtype=np.float64), PSI_EPSILON)
    return (q - p) * np.log(q / p)


def _status(
    psi_total: float,
    novelty_rate: float,
    sse_ratio: float,
    *,
    thresholds: DriftThresholds,
) -> str:
    if (
        psi_total >= thresholds.psi_alert
        or novelty_rate >= thresholds.novelty_alert
        or sse_ratio >= thresholds.sse_ratio_alert
    ):
        return "alert"
    if (
        psi_total >= thresholds.psi_warn
        or novelty_rate >= thresholds.novelty_warn
        or sse_ratio >= thresholds.sse_ratio_warn
    ):
        return "warn"
    return "healthy"
