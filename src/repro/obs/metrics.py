"""Counters, gauges and histograms for pipeline-level accounting.

The registry complements the tracer: spans say *where time went*,
metrics say *how much work happened* — ``replays_total``,
``checkpoint_hits_total``, ``scenarios_profiled``, per-stage task-latency
histograms.  Everything is JSON-able and **mergeable**, which is what
lets worker processes ship their increments back to the parent through
the executor's capture channel (:mod:`repro.runtime.executor`) instead
of losing them when the worker exits.

Instrumented code should use the module-level helpers (:func:`inc`,
:func:`set_gauge`, :func:`observe`) so worker-side capture can swap the
active registry under them.
"""

from __future__ import annotations

import math

__all__ = [
    "Histogram",
    "MetricsRegistry",
    "METRICS",
    "get_metrics",
    "set_metrics",
    "inc",
    "set_gauge",
    "observe",
]


class Histogram:
    """Mergeable summary of an observation stream.

    Keeps count / sum / min / max plus power-of-two bucket counts (by
    ``math.frexp`` exponent), so two histograms — e.g. one per worker —
    merge exactly without retaining individual observations.
    """

    __slots__ = ("count", "total", "minimum", "maximum", "buckets")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        self.buckets: dict[int, int] = {}

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.minimum = min(self.minimum, value)
        self.maximum = max(self.maximum, value)
        exponent = math.frexp(value)[1] if value > 0.0 else 0
        self.buckets[exponent] = self.buckets.get(exponent, 0) + 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "buckets": {str(k): v for k, v in sorted(self.buckets.items())},
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "Histogram":
        hist = cls()
        hist.count = int(payload["count"])
        hist.total = float(payload["total"])
        hist.minimum = (
            float(payload["min"]) if payload["min"] is not None else math.inf
        )
        hist.maximum = (
            float(payload["max"]) if payload["max"] is not None else -math.inf
        )
        hist.buckets = {int(k): int(v) for k, v in payload["buckets"].items()}
        return hist

    def merge(self, other: "Histogram") -> None:
        self.count += other.count
        self.total += other.total
        self.minimum = min(self.minimum, other.minimum)
        self.maximum = max(self.maximum, other.maximum)
        for exponent, n in other.buckets.items():
            self.buckets[exponent] = self.buckets.get(exponent, 0) + n

    def bucket_rows(self) -> list[tuple[str, int]]:
        """Renderable ``(range label, count)`` rows, in bucket order.

        Merged worker histograms can carry zero-count entries at the
        extremes (a worker observed a range the merged stream never
        filled); the rows clamp to the first/last *non-zero* bucket so
        empty edge ranges are never printed, while interior zero-count
        buckets still show as gaps.
        """
        nonzero = sorted(e for e, n in self.buckets.items() if n > 0)
        if not nonzero:
            return []
        rows = []
        for exponent in range(nonzero[0], nonzero[-1] + 1):
            if exponent == 0:
                # frexp exponent 0 doubles as the <=0 catch-all bucket.
                label = "(-inf, 1)"
            else:
                label = f"[{2.0 ** (exponent - 1):g}, {2.0 ** exponent:g})"
            rows.append((label, self.buckets.get(exponent, 0)))
        return rows

    def __repr__(self) -> str:
        return f"Histogram(count={self.count}, mean={self.mean:.6g})"


class MetricsRegistry:
    """Named counters, gauges and histograms for one process."""

    def __init__(self) -> None:
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------
    def inc(self, name: str, value: float = 1.0) -> None:
        """Add *value* to counter *name* (created at 0)."""
        self._counters[name] = self._counters.get(name, 0.0) + value

    def set_gauge(self, name: str, value: float) -> None:
        """Set gauge *name* to its latest value."""
        self._gauges[name] = float(value)

    def observe(self, name: str, value: float) -> None:
        """Record one observation into histogram *name*."""
        hist = self._histograms.get(name)
        if hist is None:
            hist = self._histograms[name] = Histogram()
        hist.observe(value)

    # ------------------------------------------------------------------
    def counter(self, name: str) -> float:
        return self._counters.get(name, 0.0)

    def gauge(self, name: str) -> float | None:
        return self._gauges.get(name)

    def histogram(self, name: str) -> Histogram | None:
        return self._histograms.get(name)

    @property
    def counters(self) -> dict[str, float]:
        return dict(self._counters)

    @property
    def gauges(self) -> dict[str, float]:
        return dict(self._gauges)

    @property
    def histograms(self) -> dict[str, Histogram]:
        return dict(self._histograms)

    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        """Plain JSON-able dump (the worker → parent wire format)."""
        return {
            "counters": dict(self._counters),
            "gauges": dict(self._gauges),
            "histograms": {
                name: hist.to_dict()
                for name, hist in self._histograms.items()
            },
        }

    def merge(self, snapshot: dict) -> None:
        """Fold another registry's :meth:`snapshot` into this one.

        Counters add, gauges take the incoming value (last write wins),
        histograms merge exactly.
        """
        for name, value in snapshot.get("counters", {}).items():
            self.inc(name, value)
        for name, value in snapshot.get("gauges", {}).items():
            self.set_gauge(name, value)
        for name, payload in snapshot.get("histograms", {}).items():
            incoming = Histogram.from_dict(payload)
            hist = self._histograms.get(name)
            if hist is None:
                self._histograms[name] = incoming
            else:
                hist.merge(incoming)

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def render(self) -> str:
        """Human-readable counters / gauges / histograms summary."""
        lines = []
        if self._counters:
            lines.append("counters")
            for name in sorted(self._counters):
                lines.append(f"  {name:<34} {self._counters[name]:>12g}")
        if self._gauges:
            lines.append("gauges")
            for name in sorted(self._gauges):
                lines.append(f"  {name:<34} {self._gauges[name]:>12g}")
        if self._histograms:
            lines.append("histograms")
            for name in sorted(self._histograms):
                hist = self._histograms[name]
                lines.append(
                    f"  {name:<34} n={hist.count} mean={hist.mean:.6g} "
                    f"min={hist.minimum:.6g} max={hist.maximum:.6g}"
                )
                for label, count in hist.bucket_rows():
                    lines.append(f"    {label:<20} {count:>8}")
        return "\n".join(lines) if lines else "no metrics recorded"

    def __repr__(self) -> str:
        return (
            f"MetricsRegistry(counters={len(self._counters)}, "
            f"gauges={len(self._gauges)}, "
            f"histograms={len(self._histograms)})"
        )


#: The process-wide default registry.
METRICS = MetricsRegistry()

_REGISTRY: MetricsRegistry = METRICS


def get_metrics() -> MetricsRegistry:
    """The currently active registry (worker capture may swap it)."""
    return _REGISTRY


def set_metrics(registry: MetricsRegistry) -> MetricsRegistry:
    """Install *registry* as active; returns the previous one."""
    global _REGISTRY
    previous = _REGISTRY
    _REGISTRY = registry
    return previous


def inc(name: str, value: float = 1.0) -> None:
    """Increment a counter on the active registry."""
    _REGISTRY.inc(name, value)


def set_gauge(name: str, value: float) -> None:
    """Set a gauge on the active registry."""
    _REGISTRY.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    """Record a histogram observation on the active registry."""
    _REGISTRY.observe(name, value)
