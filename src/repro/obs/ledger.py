"""Run ledger: durable cross-run records and perf-regression gates.

``repro.obs.tracing`` / ``metrics`` see inside one run; the ledger sees
*across* runs.  Every ``fit`` / ``evaluate`` / bench invocation appends
a structured :class:`RunRecord` — configuration and runtime digests,
environment fingerprint, stage timings folded from the tracer and
:data:`~repro.telemetry.runtime_stats.RUNTIME_STATS`, and the key
metrics of the run — to an append-only JSONL file, and the
:class:`RegressionDetector` compares the newest record against a robust
rolling baseline (median ± k·MAD per metric, direction-aware, with a
minimum-history rule) so a silent 2x slowdown fails CI instead of
compounding quietly.

The historical ``benchmarks/results/bench_smoke.jsonl`` records (raw
dicts without a schema header) read back transparently: numeric fields
become dotted ``metrics`` keys, strings/booleans become ``labels``, so
the bench trajectory collected since PR 1 feeds the same detector.

Quick start::

    ledger = RunLedger("runs.jsonl")
    ledger.append(record_run("fit", metrics={"fit_s": 1.23}))
    report = RegressionDetector(DEFAULT_BENCH_RULES).check(ledger.read())
    if not report.ok:
        sys.exit(report.render())
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import sys
import uuid
from dataclasses import dataclass, field, replace
from datetime import datetime, timezone
from pathlib import Path

__all__ = [
    "DEFAULT_BENCH_RULES",
    "LEDGER_SCHEMA_VERSION",
    "MetricRule",
    "RegressionDetector",
    "RegressionFinding",
    "RegressionReport",
    "RunLedger",
    "RunRecord",
    "disable_ledger",
    "enable_ledger",
    "env_fingerprint",
    "get_ledger",
    "record_run",
    "set_ledger",
]

#: Version of the on-disk record schema; bump on breaking field changes.
LEDGER_SCHEMA_VERSION = 1

#: Consistency scale factor: 1.4826 · MAD estimates σ for normal data.
MAD_SIGMA = 1.4826


def env_fingerprint() -> dict:
    """Where a record came from: interpreter, platform, host resources."""
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpu_count": os.cpu_count() or 1,
    }


@dataclass(frozen=True)
class RunRecord:
    """One ledger entry: a single fit / evaluate / bench invocation.

    Attributes
    ----------
    kind:
        What ran: ``"fit"``, ``"evaluate"``, ``"bench"``, ``"monitor"``.
    run_id:
        Unique id of the invocation (hex).
    timestamp:
        ISO-8601 UTC time the record was written.
    env:
        :func:`env_fingerprint` of the producing process.
    config:
        Configuration digests / knobs of the run (JSON-safe).
    stages:
        Per-stage timing aggregates (span name → count / wall_s / …),
        folded from the tracer and the runtime-stats registry.
    metrics:
        The run's scalar results (name → float) — the values the
        regression detector watches.
    labels:
        Non-numeric context (booleans, strings): gate outcomes,
        executor specs, versions.
    schema_version:
        On-disk schema version of this record.
    """

    kind: str
    run_id: str = field(default_factory=lambda: uuid.uuid4().hex[:16])
    timestamp: str = field(
        default_factory=lambda: datetime.now(timezone.utc).isoformat(
            timespec="seconds"
        )
    )
    env: dict = field(default_factory=env_fingerprint)
    config: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    metrics: dict = field(default_factory=dict)
    labels: dict = field(default_factory=dict)
    schema_version: int = LEDGER_SCHEMA_VERSION

    def to_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "kind": self.kind,
            "run_id": self.run_id,
            "timestamp": self.timestamp,
            "env": dict(self.env),
            "config": dict(self.config),
            "stages": dict(self.stages),
            "metrics": dict(self.metrics),
            "labels": dict(self.labels),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "RunRecord":
        """Parse one JSONL payload; legacy bench dicts are coerced.

        Pre-observatory bench records are flat dicts without a
        ``schema_version``: their numeric fields (nested dicts
        flattened to dotted keys, booleans excluded) become
        ``metrics``, strings and booleans become ``labels``, and their
        ``stage_breakdown`` becomes ``stages`` — so ten PRs of bench
        history remain first-class detector input.
        """
        if "schema_version" in payload:
            return cls(
                kind=str(payload.get("kind", "unknown")),
                run_id=str(payload.get("run_id", "")),
                timestamp=str(payload.get("timestamp", "")),
                env=dict(payload.get("env", {})),
                config=dict(payload.get("config", {})),
                stages=dict(payload.get("stages", {})),
                metrics=dict(payload.get("metrics", {})),
                labels=dict(payload.get("labels", {})),
                schema_version=int(payload["schema_version"]),
            )
        metrics: dict = {}
        labels: dict = {}
        stages = dict(payload.get("stage_breakdown", {}))
        env = {}
        for key, value in payload.items():
            if key == "stage_breakdown":
                continue
            if key in ("python", "cpu_count"):
                env[key] = value
                continue
            _flatten_numeric(key, value, metrics, labels)
        return cls(
            kind="bench",
            run_id="",
            timestamp=str(payload.get("timestamp", "")),
            env=env,
            config={},
            stages=stages,
            metrics=metrics,
            labels=labels,
            schema_version=0,
        )


def _flatten_numeric(key: str, value, metrics: dict, labels: dict) -> None:
    """Sort a legacy field into dotted metrics vs. labels."""
    if isinstance(value, bool):
        labels[key] = value
    elif isinstance(value, (int, float)):
        metrics[key] = float(value)
    elif isinstance(value, dict):
        for sub, subvalue in value.items():
            _flatten_numeric(f"{key}.{sub}", subvalue, metrics, labels)
    elif key != "timestamp":
        labels[key] = value


class RunLedger:
    """Append-only JSONL file of :class:`RunRecord` entries."""

    def __init__(self, path: str | Path) -> None:
        self.path = Path(path)

    def append(self, record: RunRecord) -> RunRecord:
        """Durably append *record* (one JSON line, flushed)."""
        self.path.parent.mkdir(parents=True, exist_ok=True)
        line = json.dumps(record.to_dict(), sort_keys=True)
        with open(self.path, "a", encoding="utf-8") as handle:
            handle.write(line + "\n")
            handle.flush()
            os.fsync(handle.fileno())
        return record

    def read(self) -> list[RunRecord]:
        """All records, oldest first; legacy lines coerced, blanks skipped."""
        if not self.path.exists():
            return []
        records = []
        with open(self.path, encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                records.append(RunRecord.from_dict(json.loads(line)))
        return records

    def tail(self, n: int) -> list[RunRecord]:
        return self.read()[-n:]

    def __repr__(self) -> str:
        return f"RunLedger({str(self.path)!r})"


# ----------------------------------------------------------------------
# Active-ledger plumbing (mirrors the tracer/metrics pattern): library
# code calls record_run(); it lands in the active ledger when one is
# installed and is a cheap no-op otherwise.

_LEDGER: RunLedger | None = None


def get_ledger() -> RunLedger | None:
    """The process-global ledger (``None`` when disabled)."""
    return _LEDGER


def set_ledger(ledger: RunLedger | None) -> RunLedger | None:
    """Install *ledger* globally; returns the previous one (for restore)."""
    global _LEDGER
    previous = _LEDGER
    _LEDGER = ledger
    return previous


def enable_ledger(path: str | Path) -> RunLedger:
    """Start appending run records to *path*; returns the live ledger."""
    ledger = RunLedger(path)
    set_ledger(ledger)
    return ledger


def disable_ledger() -> None:
    set_ledger(None)


def record_run(
    kind: str,
    *,
    config: dict | None = None,
    metrics: dict | None = None,
    labels: dict | None = None,
    stages: dict | None = None,
    ledger: RunLedger | None = None,
) -> RunRecord:
    """Build a :class:`RunRecord` and append it to the active ledger.

    Stage timings are folded in automatically from whatever telemetry
    is live: the global tracer's per-span totals and the runtime-stats
    registry's per-dispatch aggregates.  Explicit *stages* win over the
    auto-folded ones — callers that timed a section under a tracer that
    is no longer installed (the smoke bench) pass its totals here.
    Returns the record either way; appends only when a ledger is active
    (or passed explicitly).
    """
    from ..telemetry.runtime_stats import RUNTIME_STATS
    from .tracing import get_tracer

    explicit_stages = dict(stages or {})
    stages = {}
    for name, agg in get_tracer().totals().items():
        stages[name] = {
            "count": int(agg["count"]),
            "wall_s": round(float(agg["wall_s"]), 6),
            "cpu_s": round(float(agg["cpu_s"]), 6),
        }
    for stage, agg in RUNTIME_STATS.totals().items():
        stages.setdefault(f"runtime:{stage}", {}).update(
            {
                "dispatches": int(agg["dispatches"]),
                "tasks": int(agg["tasks"]),
                "wall_s": round(float(agg["wall_s"]), 6),
            }
        )
    stages.update(explicit_stages)
    record = RunRecord(
        kind=kind,
        config=dict(config or {}),
        stages=stages,
        metrics={k: float(v) for k, v in (metrics or {}).items()},
        labels=dict(labels or {}),
    )
    target = ledger if ledger is not None else get_ledger()
    if target is not None:
        target.append(record)
    return record


# ----------------------------------------------------------------------
# Regression detection


@dataclass(frozen=True)
class MetricRule:
    """How one ledger metric is allowed to move.

    The latest value breaches when it falls on the *bad* side of the
    history median by more than ``slack``, where::

        slack = max(k · 1.4826 · MAD, rel_floor · |median|, abs_floor)

    The MAD term adapts to the metric's natural run-to-run noise; the
    relative floor keeps constant (zero-MAD) histories from flagging
    measurement jitter; the absolute floor guards near-zero medians
    where a relative floor collapses.

    Attributes
    ----------
    metric:
        Dotted metric name in :attr:`RunRecord.metrics`.
    lower_is_better:
        Direction: ``True`` flags increases (latencies, overheads),
        ``False`` flags decreases (speedups, throughputs).
    k:
        MAD multiplier (≈ σ units for normal noise).
    rel_floor / abs_floor:
        Minimum slack, relative to ``|median|`` / absolute.
    min_samples:
        History size below which the rule reports *insufficient
        history* instead of a verdict.
    """

    metric: str
    lower_is_better: bool = True
    k: float = 3.0
    rel_floor: float = 0.10
    abs_floor: float = 0.0
    min_samples: int = 4

    def __post_init__(self) -> None:
        if self.k < 0 or self.rel_floor < 0 or self.abs_floor < 0:
            raise ValueError("rule slack parameters must be non-negative")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


#: Rules for the smoke-bench trajectory — the enforced perf contract.
DEFAULT_BENCH_RULES: tuple[MetricRule, ...] = (
    MetricRule("serial_s", lower_is_better=True),
    MetricRule("speedup", lower_is_better=False),
    MetricRule("batch_solver_speedup_x", lower_is_better=False),
    MetricRule("store_write_mb_s", lower_is_better=False),
    MetricRule("store_read_mb_s", lower_is_better=False),
    MetricRule("evaluate_warm_speedup_x", lower_is_better=False),
    MetricRule("evaluate_warm_s", lower_is_better=True),
    MetricRule("memory_fit_s", lower_is_better=True),
    MetricRule("streaming_fit_s", lower_is_better=True),
    MetricRule("profile_serial_s", lower_is_better=True),
)


@dataclass(frozen=True)
class RegressionFinding:
    """Verdict of one rule against the latest record."""

    metric: str
    status: str  # "ok" | "regressed" | "insufficient-history" | "missing"
    latest: float | None = None
    median: float | None = None
    mad: float | None = None
    slack: float | None = None
    n_history: int = 0
    lower_is_better: bool = True

    @property
    def breached(self) -> bool:
        return self.status == "regressed"

    def to_dict(self) -> dict:
        return {
            "metric": self.metric,
            "status": self.status,
            "latest": self.latest,
            "median": self.median,
            "mad": self.mad,
            "slack": self.slack,
            "n_history": self.n_history,
            "lower_is_better": self.lower_is_better,
        }

    def describe(self) -> str:
        if self.status == "missing":
            return f"{self.metric}: absent from the latest record"
        if self.status == "insufficient-history":
            return (
                f"{self.metric}: only {self.n_history} prior samples "
                "(rule needs more) — skipped"
            )
        direction = "<=" if self.lower_is_better else ">="
        bound = (
            self.median + self.slack
            if self.lower_is_better
            else self.median - self.slack
        )
        verdict = "REGRESSED" if self.breached else "ok"
        return (
            f"{self.metric}: {verdict}  latest={self.latest:.6g} "
            f"{direction} {bound:.6g} "
            f"(median={self.median:.6g}, mad={self.mad:.6g}, "
            f"n={self.n_history})"
        )


@dataclass(frozen=True)
class RegressionReport:
    """All findings of one check; ``ok`` is the CI gate."""

    findings: tuple[RegressionFinding, ...]

    @property
    def ok(self) -> bool:
        return not any(f.breached for f in self.findings)

    @property
    def breaches(self) -> tuple[RegressionFinding, ...]:
        return tuple(f for f in self.findings if f.breached)

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "findings": [f.to_dict() for f in self.findings],
        }

    def render(self) -> str:
        lines = [
            "ledger check: " + ("PASS" if self.ok else "FAIL"),
        ]
        lines.extend("  " + f.describe() for f in self.findings)
        return "\n".join(lines)


class RegressionDetector:
    """Robust latest-vs-history comparison over ledger records.

    Median ± k·MAD is used instead of mean ± k·σ because perf histories
    are short and spiky: one slow CI run must not poison the baseline
    it is judged against.
    """

    def __init__(self, rules: tuple[MetricRule, ...] | list[MetricRule]):
        if not rules:
            raise ValueError("RegressionDetector needs at least one rule")
        self.rules = tuple(rules)

    def check(
        self,
        records: list[RunRecord],
        *,
        kind: str | None = None,
        window: int | None = None,
    ) -> RegressionReport:
        """Judge the newest record against the ones before it.

        *kind* restricts to records of one kind (e.g. ``"bench"``);
        *window* bounds the history to the most recent N predecessors.
        """
        if kind is not None:
            records = [r for r in records if r.kind == kind]
        if not records:
            raise ValueError("ledger holds no records to check")
        latest, history = records[-1], records[:-1]
        if window is not None:
            history = history[-window:]
        findings = tuple(
            self.check_rule(rule, latest, history) for rule in self.rules
        )
        return RegressionReport(findings=findings)

    @staticmethod
    def check_rule(
        rule: MetricRule, latest: RunRecord, history: list[RunRecord]
    ) -> RegressionFinding:
        """One rule, one verdict (the unit the hypothesis tests drive)."""
        values = [
            float(r.metrics[rule.metric])
            for r in history
            if rule.metric in r.metrics
        ]
        if rule.metric not in latest.metrics:
            return RegressionFinding(
                metric=rule.metric,
                status="missing",
                n_history=len(values),
                lower_is_better=rule.lower_is_better,
            )
        latest_value = float(latest.metrics[rule.metric])
        if len(values) < rule.min_samples:
            return RegressionFinding(
                metric=rule.metric,
                status="insufficient-history",
                latest=latest_value,
                n_history=len(values),
                lower_is_better=rule.lower_is_better,
            )
        median = statistics.median(values)
        mad = statistics.median(abs(v - median) for v in values)
        slack = max(
            rule.k * MAD_SIGMA * mad,
            rule.rel_floor * abs(median),
            rule.abs_floor,
        )
        if rule.lower_is_better:
            breached = latest_value > median + slack
        else:
            breached = latest_value < median - slack
        return RegressionFinding(
            metric=rule.metric,
            status="regressed" if breached else "ok",
            latest=latest_value,
            median=median,
            mad=mad,
            slack=slack,
            n_history=len(values),
            lower_is_better=rule.lower_is_better,
        )

    def with_overrides(
        self,
        *,
        k: float | None = None,
        rel_floor: float | None = None,
        min_samples: int | None = None,
    ) -> "RegressionDetector":
        """Copy with per-CLI-flag overrides applied to every rule."""
        updates = {}
        if k is not None:
            updates["k"] = k
        if rel_floor is not None:
            updates["rel_floor"] = rel_floor
        if min_samples is not None:
            updates["min_samples"] = min_samples
        if not updates:
            return self
        return RegressionDetector(
            tuple(replace(rule, **updates) for rule in self.rules)
        )
