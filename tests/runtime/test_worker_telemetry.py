"""Worker telemetry travels back through the executor capture channel.

Regression suite for the historical loss of worker-side telemetry:
counters incremented inside a process-pool worker (cache hits, replay
counts) used to die with the worker because each worker mutates its own
copy of the process-global registry.  The executor now captures spans,
metric increments and nested ``StageStats`` per chunk and merges them
into the parent — these tests pin that contract, including the
serial-vs-process trace-tree equivalence it is designed around.
"""

import os

import pytest

from repro.obs import MetricsRegistry, disable, enable, get_metrics, inc
from repro.obs.metrics import set_metrics
from repro.obs.tracing import get_tracer, set_tracer
from repro.runtime.executor import ProcessExecutor, SerialExecutor
from repro.telemetry import RUNTIME_STATS


@pytest.fixture(autouse=True)
def _isolated_obs():
    previous_tracer = get_tracer()
    previous_metrics = set_metrics(MetricsRegistry())
    yield
    set_tracer(previous_tracer)
    set_metrics(previous_metrics)


def _counting_square(x: int) -> int:
    """Module-level (picklable) task that scores a counter per call."""
    inc("unit_probe_total")
    return x * x


def _inc_then_maybe_fail(x: int) -> int:
    """Scores a counter per call, then fails on odd items."""
    inc("unit_probe_total")
    if x % 2:
        raise ValueError(f"item {x} is odd")
    return x * x


def _nested_map(x: int) -> int:
    """Task that itself fans out through a serial executor."""
    return sum(
        SerialExecutor().map(
            _counting_square, range(x), stage="inner-unit"
        )
    )


class TestWorkerCounters:
    def test_counters_survive_worker_exit_without_tracing(self):
        """The satellite fix: counters merge back even with tracing off."""
        assert not get_tracer().enabled
        with ProcessExecutor(max_workers=2) as pool:
            results = pool.map(
                _counting_square, range(8), chunk_size=2, stage="unit"
            )
        assert results == [i * i for i in range(8)]
        assert get_metrics().counter("unit_probe_total") == 8.0

    def test_counters_match_serial_run(self):
        SerialExecutor().map(_counting_square, range(5), stage="unit")
        serial_count = get_metrics().counter("unit_probe_total")
        set_metrics(MetricsRegistry())
        with ProcessExecutor(max_workers=2) as pool:
            pool.map(_counting_square, range(5), chunk_size=2, stage="unit")
        assert get_metrics().counter("unit_probe_total") == serial_count == 5.0

    def test_counters_survive_a_failing_chunk(self):
        """The latent-bug fix: telemetry recorded before a chunk raises
        used to die with the exception instead of shipping back."""
        from repro.runtime.resilience import (
            ResilienceConfig,
            RetryPolicy,
            TaskFailure,
        )

        res = ResilienceConfig(
            policy="retry_then_skip",
            retry=RetryPolicy(
                max_retries=0, backoff_base_s=0.0, backoff_jitter=0.0
            ),
        )
        with ProcessExecutor(max_workers=2, resilience=res) as pool:
            results = pool.map(
                _inc_then_maybe_fail, range(8), chunk_size=1, stage="unit"
            )
        failed = [r for r in results if isinstance(r, TaskFailure)]
        assert len(failed) == 4  # the odd items
        assert [r for r in results if not isinstance(r, TaskFailure)] == [
            x * x for x in range(8) if x % 2 == 0
        ]
        # Every execution scored its increment — including the four
        # chunks that raised.
        assert get_metrics().counter("unit_probe_total") == 8.0

    def test_counters_from_failing_chunks_match_serial(self):
        from repro.runtime.resilience import ResilienceConfig, RetryPolicy

        res = ResilienceConfig(
            policy="retry_then_skip",
            retry=RetryPolicy(
                max_retries=2, backoff_base_s=0.0, backoff_jitter=0.0
            ),
        )
        SerialExecutor(resilience=res).map(
            _inc_then_maybe_fail, range(6), chunk_size=1, stage="unit"
        )
        serial_count = get_metrics().counter("unit_probe_total")
        set_metrics(MetricsRegistry())
        with ProcessExecutor(max_workers=2, resilience=res) as pool:
            pool.map(
                _inc_then_maybe_fail, range(6), chunk_size=1, stage="unit"
            )
        # 3 even items once each + 3 odd items three times each = 12.
        assert (
            get_metrics().counter("unit_probe_total") == serial_count == 12.0
        )

    def test_nested_stage_stats_ship_back(self):
        RUNTIME_STATS.clear()
        with ProcessExecutor(max_workers=2) as pool:
            pool.map(_nested_map, [3, 4], chunk_size=1, stage="outer-unit")
        stages = {record.stage for record in RUNTIME_STATS.records()}
        assert "outer-unit" in stages
        # The maps dispatched *inside* the workers arrived too.
        inner = [
            r for r in RUNTIME_STATS.records() if r.stage == "inner-unit"
        ]
        assert len(inner) == 2
        assert sum(r.n_tasks for r in inner) == 7
        # ... and their counter increments with them.
        assert get_metrics().counter("unit_probe_total") == 7.0


def _span_tree(tracer) -> dict[str, set]:
    """Span tree as parent-name -> multiset-ish of child names."""
    by_id = {span.span_id: span for span in tracer.spans()}
    tree: dict[str, set] = {}
    for span in tracer.spans():
        parent = by_id[span.parent_id].name if span.parent_id else None
        tree.setdefault(parent, set()).add(span.name)
    return tree


class TestWorkerSpans:
    def test_chunk_spans_stitch_under_dispatch(self):
        tracer = enable()
        try:
            with ProcessExecutor(max_workers=2) as pool:
                pool.map(
                    _counting_square, range(6), chunk_size=2, stage="unit"
                )
        finally:
            disable()
        by_name: dict[str, list] = {}
        for span in tracer.spans():
            by_name.setdefault(span.name, []).append(span)
        (dispatch,) = by_name["dispatch:unit"]
        chunks = by_name["chunk:unit"]
        assert len(chunks) == 3
        assert all(c.parent_id == dispatch.span_id for c in chunks)
        assert dispatch.attrs["executor"] == "process"
        assert dispatch.attrs["n_tasks"] == 6
        # Worker chunks keep their own pid (their Perfetto lane).
        assert all(c.pid != os.getpid() for c in chunks)

    def test_task_latency_histogram_recorded(self):
        enable()
        try:
            with ProcessExecutor(max_workers=1) as pool:
                pool.map(
                    _counting_square, range(4), chunk_size=2, stage="unit"
                )
        finally:
            disable()
        hist = get_metrics().histogram("task_latency_s:unit")
        assert hist is not None
        assert hist.count == 2  # one observation per chunk

    def test_serial_and_process_trace_trees_match(self):
        serial_tracer = enable()
        try:
            SerialExecutor().map(
                _counting_square, range(6), chunk_size=2, stage="unit"
            )
        finally:
            disable()
        process_tracer = enable()
        try:
            with ProcessExecutor(max_workers=2) as pool:
                pool.map(
                    _counting_square, range(6), chunk_size=2, stage="unit"
                )
        finally:
            disable()
        assert _span_tree(serial_tracer) == _span_tree(process_tracer)
        assert len(serial_tracer.spans()) == len(process_tracer.spans())
