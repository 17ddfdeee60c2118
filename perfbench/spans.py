"""In-memory span recording for the traced benchmark run.

A :class:`SpanRecorder` keeps every span (kind, start, end, parent) in
memory.  The benchmark opens the top-level spans itself, around each call
it makes into the library (fit, evaluate, truth); :func:`install_wrappers`
adds nested spans by wrapping public entry points of the layers below for
the duration of the traced run only.  A span's self time is its duration
minus the time its direct children cover.

Counters come from the library's public registries, snapshotted before
and after each top-level span: the solve cache's ``cache_info()``,
``RUNTIME_STATS`` and the memo counters in ``METRICS``.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import resource
import time
from collections import defaultdict
from dataclasses import dataclass, field


@dataclass
class Span:
    kind: str
    start: float
    parent: int | None
    end: float = 0.0
    cpu_s: float = 0.0
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.duration - self.children_s


@dataclass
class SpanRecorder:
    """Spans, per-kind counts and registry deltas of one traced run."""

    spans: list[Span] = field(default_factory=list)
    counts: dict[str, float] = field(default_factory=lambda: defaultdict(float))
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, kind: str):
        parent = self._stack[-1] if self._stack else None
        before = _registry_snapshot() if parent is None else None
        self._stack.append(len(self.spans))
        cpu0 = time.process_time()
        record = Span(kind=kind, start=time.perf_counter(), parent=parent)
        self.spans.append(record)
        try:
            yield
        finally:
            record.end = time.perf_counter()
            record.cpu_s = time.process_time() - cpu0
            self._stack.pop()
            if parent is not None:
                self.spans[parent].children_s += record.duration
            if before is not None:
                for name, delta in _registry_delta(before).items():
                    self.counts[f"{kind}:{name}"] += delta

    def count(self, name: str, value: float = 1.0) -> None:
        self.counts[name] += value

    def self_time(self, kind: str) -> float:
        return sum(s.self_s for s in self.spans if s.kind == kind)

    def _outer(self, kind: str) -> list[Span]:
        """*kind* spans not nested in another *kind* span."""
        return [
            s
            for s in self.spans
            if s.kind == kind
            and (s.parent is None or not self._inside(s.parent, kind))
        ]

    def inclusive_time(self, kind: str) -> float:
        """Wall time of *kind* spans, not double counting nested ones."""
        return sum(s.duration for s in self._outer(kind))

    def cpu_time(self, kind: str) -> float:
        """This process's CPU time inside *kind* spans."""
        return sum(s.cpu_s for s in self._outer(kind))

    def outer_count(self, kind: str) -> int:
        return len(self._outer(kind))

    def _inside(self, index: int | None, kind: str) -> bool:
        while index is not None:
            if self.spans[index].kind == kind:
                return True
            index = self.spans[index].parent
        return False

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()


class NullRecorder:
    """The untraced run's recorder: spans cost one context manager."""

    @contextlib.contextmanager
    def span(self, kind: str):
        yield

    def count(self, name: str, value: float = 1.0) -> None:
        pass

    def reset(self) -> None:
        pass


# ----------------------------------------------------------------------
# Registry snapshots
def _registry_snapshot():
    from repro.api import METRICS, RUNTIME_STATS
    from repro.perfmodel.contention import solve_colocation_cached

    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (
        solve_colocation_cached.cache_info(),
        RUNTIME_STATS.records(),
        METRICS.counter("solve_memo_hits_total"),
        METRICS.counter("solve_memo_misses_total"),
        children.ru_utime + children.ru_stime,
    )


def _registry_delta(before) -> dict[str, float]:
    cache0, records0, memo_hits0, memo_misses0, children0 = before
    cache1, records1, memo_hits1, memo_misses1, children1 = _registry_snapshot()
    # RUNTIME_STATS is a bounded deque: find the new records by identity
    # rather than by position, so a full deque cannot skew the delta.
    seen = {id(record) for record in records0}
    new_records = [r for r in records1 if id(r) not in seen]
    return {
        "cache_hits": cache1.hits - cache0.hits,
        "cache_misses": cache1.misses - cache0.misses,
        "memo_hits": memo_hits1 - memo_hits0,
        "memo_misses": memo_misses1 - memo_misses0,
        "dispatches": len(new_records),
        "tasks": sum(r.n_tasks for r in new_records),
        "chunks": sum(r.n_chunks for r in new_records),
        "dispatch_wall_s": sum(r.wall_s for r in new_records),
        # CPU of worker processes reaped during the span (a process
        # pool is shut down when the call that made it returns).
        "children_cpu_s": children1 - children0,
    }


# ----------------------------------------------------------------------
# Wrappers around the layers' public entry points
def _wrap_call(recorder: SpanRecorder, kind: str, fn, counter=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if counter is not None:
            counter(recorder, args, kwargs)
        with recorder.span(kind):
            return fn(*args, **kwargs)

    return wrapper


def _wrap_generator(recorder: SpanRecorder, kind: str, fn):
    """Time each step of a generator, not the consumer's work between."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        iterator = fn(*args, **kwargs)
        try:
            while True:
                with recorder.span(kind):
                    try:
                        item = next(iterator)
                    except StopIteration:
                        return
                yield item
        finally:
            iterator.close()

    return wrapper


def _count_replays(recorder, args, kwargs) -> None:
    # Replayer.replay_many(self, scenarios, feature, ...)
    recorder.count("replays", len(args[1]))


def _count_shard_load(recorder, args, kwargs) -> None:
    recorder.count("shard_loads")


def _targets():
    """(owner, attribute, span kind, counter) for every wrapped entry point.

    Functions that a module imported by name are wrapped where the
    caller looks them up, so the call sites see the wrapper.
    """
    from repro.core import analyzer, pipeline, streaming_fit
    from repro.core.replayer import Replayer
    from repro.stats import silhouette
    from repro.stats.kmeans import KMeans, StreamingKMeans
    from repro.stats.pca import PCA, IncrementalPCA
    from repro.store.store import ShardedScenarioStore
    from repro.telemetry.profiler import Profiler

    return [
        (Profiler, "profile", "profile", None),
        (Profiler, "iter_profile", "profile", None),
        (pipeline, "refine", "refine", None),
        (streaming_fit, "prune_from_correlation", "refine", None),
        (analyzer.Analyzer, "analyze", "analyze", None),
        (PCA, "fit", "pca", None),
        (IncrementalPCA, "partial_fit", "pca", None),
        (IncrementalPCA, "finalize", "pca", None),
        (analyzer, "sweep_cluster_counts", "sweep", None),
        (streaming_fit, "sweep_cluster_counts", "sweep", None),
        (KMeans, "fit", "kmeans", None),
        (StreamingKMeans, "fit", "kmeans", None),
        (silhouette, "silhouette_score", "silhouette", None),
        (pipeline, "extract_representatives", "representatives", None),
        (streaming_fit, "representatives_from_assignments", "representatives", None),
        (pipeline, "interpret_components", "interpret", None),
        (Replayer, "replay_many", "replay", _count_replays),
        (Replayer, "replay_batch", "replay", None),
        (ShardedScenarioStore, "iter_batches", "store_read", None),
        (ShardedScenarioStore, "__getitem__", "store_read", None),
        (ShardedScenarioStore, "load_shard_arrays", "store_read", _count_shard_load),
    ]


def install_wrappers(recorder: SpanRecorder):
    """Wrap the layer entry points; returns a function that undoes it."""
    originals = []
    for owner, name, kind, counter in _targets():
        fn = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
        if inspect.isgeneratorfunction(fn):
            wrapped = _wrap_generator(recorder, kind, fn)
        else:
            wrapped = _wrap_call(recorder, kind, fn, counter)
        originals.append((owner, name, fn))
        setattr(owner, name, wrapped)

    def uninstall() -> None:
        for owner, name, fn in reversed(originals):
            setattr(owner, name, fn)

    return uninstall
