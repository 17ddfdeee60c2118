"""Deterministic parallel execution runtime.

The scaffolding every fan-out loop in the reproduction dispatches
through:

* :mod:`repro.runtime.executor` — the :class:`Executor` protocol with
  serial and process-pool implementations, selectable per call or via
  the ``REPRO_EXECUTOR`` environment variable;
* :mod:`repro.runtime.seeding` — per-task seed derivation via
  ``numpy.random.SeedSequence.spawn`` so parallel results are
  bit-identical to serial ones;
* :mod:`repro.runtime.resilience` — the failure model executors
  enforce: timeouts, bounded seeded-backoff retries, pool recovery and
  :class:`FailurePolicy`-driven degradation to typed
  :class:`TaskFailure` results;
* :mod:`repro.runtime.faultinject` — seeded, executor-independent fault
  injection (crash/hang/slow/flaky-exception) for reproducible chaos
  testing of those paths;
* :mod:`repro.runtime.cache` — the :class:`CheckpointJournal` behind
  CLI ``--resume``: completed executor chunks journaled on disk by
  content digest.

Per-dispatch wall-clock and task counts are surfaced through
:data:`repro.telemetry.RUNTIME_STATS`.

:mod:`repro.runtime.config` unifies the execution knobs into
:class:`RuntimeConfig` — one value carrying executor choice, chunking,
resilience and checkpointing.  Scenario profiling ships columnar table
slices by value to its workers (see ``Profiler.iter_profile``); there
is no transport to choose.
"""

from .cache import CheckpointJournal
from .config import (
    ResolvedRuntime,
    RuntimeConfig,
    cost_aware_block,
    record_stage_cost,
    resolve_runtime,
)
from .executor import (
    EXECUTOR_ENV_VAR,
    Executor,
    ProcessExecutor,
    SerialExecutor,
    available_workers,
    resolve_executor,
)
from .faultinject import (
    FaultSpec,
    InjectedCrash,
    InjectedFault,
    InjectedHang,
)
from .resilience import (
    ExecutorBrokenError,
    FailurePolicy,
    ResilienceConfig,
    RetryPolicy,
    TaskFailure,
    TaskRetryError,
    TaskTimeoutError,
    partition_failures,
)
from .seeding import (
    root_seed_sequence,
    spawn_generators,
    spawn_seed_sequences,
)

__all__ = [
    "RuntimeConfig",
    "ResolvedRuntime",
    "resolve_runtime",
    "cost_aware_block",
    "record_stage_cost",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "available_workers",
    "EXECUTOR_ENV_VAR",
    "root_seed_sequence",
    "spawn_seed_sequences",
    "spawn_generators",
    "FailurePolicy",
    "RetryPolicy",
    "ResilienceConfig",
    "TaskFailure",
    "TaskRetryError",
    "TaskTimeoutError",
    "ExecutorBrokenError",
    "partition_failures",
    "FaultSpec",
    "InjectedFault",
    "InjectedCrash",
    "InjectedHang",
    "CheckpointJournal",
]
