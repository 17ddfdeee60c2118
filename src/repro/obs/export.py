"""Trace exporters: span JSONL and Chrome trace-event format.

Two on-disk forms of the same span tree:

* **JSONL** (``*.jsonl``) — one JSON object per line: ``{"type":
  "span", ...}`` records followed by one ``{"type": "metrics", ...}``
  registry snapshot.  Lossless; :func:`load_jsonl` round-trips it.
* **Chrome trace-event** (anything else, conventionally ``*.json``) —
  a ``{"traceEvents": [...]}`` document of complete (``"ph": "X"``)
  events, loadable in Perfetto (https://ui.perfetto.dev) or
  ``chrome://tracing``.  Worker spans keep their own pid, so a parallel
  run renders as one lane per worker process under the parent timeline.

Executor dispatches already appear as ``dispatch:<stage>`` spans
carrying the :class:`~repro.telemetry.runtime_stats.StageStats` fields
as attributes, so the exported timeline subsumes ``RUNTIME_STATS`` —
one timeline, not two.
"""

from __future__ import annotations

import json
import pathlib
import re
from typing import Iterable, Sequence

from .metrics import MetricsRegistry, get_metrics
from .tracing import Span

__all__ = [
    "write_trace",
    "spans_to_jsonl",
    "load_jsonl",
    "spans_to_chrome_trace",
    "chrome_trace_events",
    "prometheus_text",
    "render_summary",
]


def spans_to_jsonl(
    spans: Iterable[Span],
    path,
    *,
    metrics: MetricsRegistry | None = None,
) -> pathlib.Path:
    """Write spans (and a metrics snapshot) as JSON lines."""
    path = pathlib.Path(path)
    with path.open("w") as fh:
        for span in spans:
            fh.write(json.dumps({"type": "span", **span.to_dict()}) + "\n")
        if metrics is not None:
            fh.write(
                json.dumps({"type": "metrics", **metrics.snapshot()}) + "\n"
            )
    return path


def load_jsonl(path) -> tuple[tuple[Span, ...], MetricsRegistry | None]:
    """Read a span JSONL file back into spans + a metrics registry."""
    spans: list[Span] = []
    metrics: MetricsRegistry | None = None
    with pathlib.Path(path).open() as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            kind = record.pop("type")
            if kind == "span":
                spans.append(Span.from_dict(record))
            elif kind == "metrics":
                metrics = MetricsRegistry()
                metrics.merge(record)
            else:
                raise ValueError(f"unknown trace record type {kind!r}")
    return tuple(spans), metrics


def chrome_trace_events(spans: Sequence[Span]) -> list[dict]:
    """Spans as Chrome trace-event dicts (complete events + metadata).

    Timestamps are microseconds relative to the earliest span start, so
    the numbers stay small and the viewers start at t=0.
    """
    spans = list(spans)
    t0 = min((s.start_unix for s in spans), default=0.0)
    events: list[dict] = []
    for pid in sorted({s.pid for s in spans}):
        events.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "args": {"name": f"repro pid {pid}"},
            }
        )
    for span in spans:
        args = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "cpu_s": span.cpu_s,
            "peak_rss_delta_kb": span.peak_rss_delta_kb,
            "status": span.status,
        }
        args.update(span.attrs)
        events.append(
            {
                "ph": "X",
                "cat": "repro",
                "name": span.name,
                "pid": span.pid,
                "tid": 0,
                "ts": (span.start_unix - t0) * 1e6,
                "dur": span.wall_s * 1e6,
                "args": args,
            }
        )
    return events


def spans_to_chrome_trace(
    spans: Sequence[Span],
    path,
    *,
    metrics: MetricsRegistry | None = None,
) -> pathlib.Path:
    """Write spans as a Chrome trace-event JSON document."""
    document = {
        "traceEvents": chrome_trace_events(spans),
        "displayTimeUnit": "ms",
    }
    if metrics is not None:
        document["otherData"] = {"metrics": metrics.snapshot()}
    path = pathlib.Path(path)
    path.write_text(json.dumps(document, indent=1))
    return path


def write_trace(
    spans: Sequence[Span],
    path,
    *,
    metrics: MetricsRegistry | None = None,
) -> pathlib.Path:
    """Export *spans* to *path*, format chosen by suffix.

    ``*.jsonl`` writes the lossless span-per-line form; anything else
    writes the Chrome trace-event document.
    """
    path = pathlib.Path(path)
    if path.suffix == ".jsonl":
        return spans_to_jsonl(spans, path, metrics=metrics)
    return spans_to_chrome_trace(spans, path, metrics=metrics)


_PROM_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _prom_name(name: str) -> str:
    """Sanitize a metric name to the Prometheus charset."""
    name = _PROM_NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _prom_value(value: float) -> str:
    if value != value:  # NaN
        return "NaN"
    if value == float("inf"):
        return "+Inf"
    if value == float("-inf"):
        return "-Inf"
    return repr(float(value))


def prometheus_text(metrics: MetricsRegistry | None = None) -> str:
    """The registry in the Prometheus text exposition format.

    Counters and gauges map directly; each power-of-two
    :class:`~repro.obs.metrics.Histogram` bucket (frexp exponent *e*
    covering values < 2^e) becomes a cumulative ``le="2^e"`` bucket,
    with the conventional ``_sum`` / ``_count`` series.  This is the
    scrape surface for service mode: mount it on ``/metrics`` and any
    Prometheus-compatible collector ingests the registry as-is.
    """
    metrics = metrics if metrics is not None else get_metrics()
    lines: list[str] = []
    for name in sorted(metrics.counters):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} counter")
        lines.append(f"{prom} {_prom_value(metrics.counter(name))}")
    for name in sorted(metrics.gauges):
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} gauge")
        lines.append(f"{prom} {_prom_value(metrics.gauges[name])}")
    for name in sorted(metrics.histograms):
        hist = metrics.histograms[name]
        prom = _prom_name(name)
        lines.append(f"# TYPE {prom} histogram")
        cumulative = 0
        for exponent in sorted(hist.buckets):
            cumulative += hist.buckets[exponent]
            lines.append(
                f'{prom}_bucket{{le="{2.0 ** exponent!r}"}} {cumulative}'
            )
        lines.append(f'{prom}_bucket{{le="+Inf"}} {hist.count}')
        lines.append(f"{prom}_sum {_prom_value(hist.total)}")
        lines.append(f"{prom}_count {hist.count}")
    return "\n".join(lines) + "\n" if lines else ""


def render_summary(
    tracer=None,
    metrics: MetricsRegistry | None = None,
    *,
    include_runtime_stats: bool = True,
) -> str:
    """Combined per-stage span table + metrics summary.

    This is what the CLI's ``--obs-summary`` prints: stage wall/CPU/RSS
    totals from the tracer — worker spans included, since the executor
    stitches them back — followed by the counters/gauges/histograms of
    the active registry, the legacy per-dispatch ``RUNTIME_STATS``
    table, the latest drift-monitor scores (when a monitoring pass
    ran), and the tail of the active run ledger (when one is
    installed).
    """
    from .tracing import get_tracer

    tracer = tracer if tracer is not None else get_tracer()
    metrics = metrics if metrics is not None else get_metrics()
    sections = [tracer.render(), metrics.render()]
    if include_runtime_stats:
        from ..telemetry.runtime_stats import RUNTIME_STATS

        if RUNTIME_STATS.records():
            sections.append(RUNTIME_STATS.render())
    if metrics.gauge("monitor_psi_total") is not None:
        sections.append(
            "drift monitor\n"
            f"  psi_total     {metrics.gauge('monitor_psi_total'):.6f}\n"
            f"  novelty_rate  "
            f"{metrics.gauge('monitor_novelty_rate') or 0.0:.4f}\n"
            f"  sse_ratio     "
            f"{metrics.gauge('monitor_sse_ratio') or 0.0:.3f}\n"
            f"  scenarios     {metrics.counter('monitor_scenarios'):g}"
        )
    from .ledger import get_ledger

    ledger = get_ledger()
    if ledger is not None:
        tail = ledger.tail(3)
        if tail:
            lines = [f"run ledger ({ledger.path}, last {len(tail)})"]
            for record in tail:
                lines.append(
                    f"  {record.timestamp or '-':<26} {record.kind:<10} "
                    f"{len(record.metrics)} metrics, "
                    f"{len(record.stages)} stages"
                )
            sections.append("\n".join(lines))
    return "\n\n".join(sections)
