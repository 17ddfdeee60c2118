"""Observability layer: span tracing, metrics, trace export.

``repro.obs`` is the measurement substrate of the reproduction — the
paper's headline claim is evaluation *cost* (§5.4, Fig. 13), and this
package is how the repo shows where that cost goes:

* :mod:`~repro.obs.tracing` — hierarchical :class:`Span`/:class:`Tracer`
  (context-manager and decorator APIs) recording wall-clock, CPU time,
  peak-RSS delta and attributes; disabled by default via a no-op tracer;
* :mod:`~repro.obs.metrics` — process-wide counters / gauges /
  histograms (``replays_total``, ``checkpoint_hits_total``, …) that merge
  across process-pool workers;
* :mod:`~repro.obs.export` — JSONL and Chrome trace-event exporters
  (Perfetto / ``chrome://tracing``) plus the ``--obs-summary`` renderer.

Quick start::

    from repro import obs

    tracer = obs.enable()
    with obs.span("my-stage", n_items=3):
        ...
    obs.write_trace(tracer.spans(), "trace.json")   # open in Perfetto
    print(obs.render_summary())
"""

from .export import (
    chrome_trace_events,
    load_jsonl,
    prometheus_text,
    render_summary,
    spans_to_chrome_trace,
    spans_to_jsonl,
    write_trace,
)
from .ledger import (
    DEFAULT_BENCH_RULES,
    LEDGER_SCHEMA_VERSION,
    MetricRule,
    RegressionDetector,
    RegressionFinding,
    RegressionReport,
    RunLedger,
    RunRecord,
    disable_ledger,
    enable_ledger,
    env_fingerprint,
    get_ledger,
    record_run,
    set_ledger,
)
from .metrics import (
    METRICS,
    Histogram,
    MetricsRegistry,
    get_metrics,
    inc,
    observe,
    set_gauge,
    set_metrics,
)
from .monitor import (
    ClusterDrift,
    DriftMonitor,
    DriftReport,
    DriftState,
    DriftThresholds,
)
from .tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    Tracer,
    disable,
    enable,
    get_tracer,
    set_tracer,
    span,
    traced,
)

__all__ = [
    # tracing
    "Span",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "get_tracer",
    "set_tracer",
    "enable",
    "disable",
    "span",
    "traced",
    # metrics
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "get_metrics",
    "set_metrics",
    "inc",
    "set_gauge",
    "observe",
    # export
    "write_trace",
    "spans_to_jsonl",
    "load_jsonl",
    "spans_to_chrome_trace",
    "chrome_trace_events",
    "prometheus_text",
    "render_summary",
    # monitor
    "ClusterDrift",
    "DriftMonitor",
    "DriftReport",
    "DriftState",
    "DriftThresholds",
    # ledger
    "DEFAULT_BENCH_RULES",
    "LEDGER_SCHEMA_VERSION",
    "MetricRule",
    "RegressionDetector",
    "RegressionFinding",
    "RegressionReport",
    "RunLedger",
    "RunRecord",
    "enable_ledger",
    "disable_ledger",
    "env_fingerprint",
    "get_ledger",
    "set_ledger",
    "record_run",
]
