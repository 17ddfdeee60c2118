"""Stable public API of the FLARE reproduction.

This module is the supported import surface: everything listed in
``__all__`` keeps its name and signature across releases, while internal
module layout (``repro.core``, ``repro.stats``, …) may change freely.
Prefer::

    from repro.api import Flare, FlareConfig, run_simulation, FEATURE_1_CACHE

over reaching into submodules.  The legacy top-level re-exports
(``from repro import Flare``), deprecated in 1.1, were removed in 1.2;
accessing one raises an ``AttributeError`` pointing here.

The surface groups into:

* **simulation** — build a scenario dataset (`run_simulation`,
  `DatacenterConfig`, machine shapes);
* **pipeline** — fit and query FLARE (`Flare`, `FlareConfig`,
  `AnalyzerConfig`, `Replayer`, fleet evaluation);
* **features** — the Table 4 features and the `Feature` type;
* **baselines** — full-datacenter, random-sampling, stratified and
  load-testing comparisons;
* **runtime** — the unified execution configuration (`RuntimeConfig`,
  `resolve_runtime`) over the deterministic parallel engine
  (`Executor`, `SerialExecutor`, `ProcessExecutor`, `resolve_executor`;
  parallel profiles ship columnar table slices to their workers, see
  docs/runtime.md), and the failure model (`ResilienceConfig`,
  `FailurePolicy`, `RetryPolicy`, `TaskFailure`, `partition_failures`,
  `FaultSpec`, `CheckpointJournal`; see docs/resilience.md);
* **observability** — span tracing, the metrics registry and trace
  export (`Tracer`, `Span`, `METRICS`, `write_trace`, `render_summary`,
  `prometheus_text`), plus the fleet-health observatory: model drift
  monitoring (`DriftMonitor`, `Flare.health`) and the append-only run
  ledger with statistical regression gates (`RunLedger`, `record_run`,
  `RegressionDetector`, `DEFAULT_BENCH_RULES`; see :mod:`repro.obs`
  and docs/observability.md);
* **persistence** — dataset/model save & load round-trips, plus the
  sharded columnar scenario store for out-of-core pipelines
  (`ScenarioSource`, `ShardedScenarioStore`, `StoreWriter`,
  `open_store`, `write_store`, `compact_store`; see docs/store.md);
* **perfmodel** — the batched contention solver (`ScenarioBatch`,
  `solve_colocation`, `solve_colocation_batch`,
  `solve_colocation_many`) and the content-addressed
  solve memo (`SolveMemo`, `resolve_memo`, `MEMO_MODES`; see
  docs/perfmodel.md).
"""

from __future__ import annotations

from .baselines import (
    DatacenterTruth,
    LoadTestResult,
    SamplingEvaluation,
    evaluate_by_sampling,
    evaluate_by_stratified_sampling,
    evaluate_full_datacenter,
    evaluate_job_by_sampling,
    load_test_all_jobs,
    load_test_job,
    sampling_cost_curve,
    stratify_by_metric,
)
from .cluster import (
    BASELINE,
    DEFAULT_SHAPE,
    FEATURE_1_CACHE,
    FEATURE_2_DVFS,
    FEATURE_3_SMT,
    PAPER_FEATURES,
    SMALL_SHAPE,
    DatacenterConfig,
    Feature,
    MachineShape,
    ScenarioDataset,
    ScenarioSource,
    SimulationResult,
    SubmissionConfig,
    ensure_dataset,
    run_simulation,
)
from .core import (
    AnalyzerConfig,
    FeatureImpactEstimate,
    Flare,
    FlareConfig,
    FleetEvaluator,
    FleetSegment,
    Replayer,
)
from .io.serialization import (
    load_dataset,
    load_model,
    save_dataset,
    save_model,
)
from .store import (
    DEFAULT_SHARD_SIZE,
    ShardedScenarioStore,
    StoreCorruptionError,
    StoreError,
    StoreWriter,
    compact_store,
    open_store,
    write_store,
)
from .obs import (
    DEFAULT_BENCH_RULES,
    METRICS,
    DriftMonitor,
    DriftReport,
    DriftState,
    DriftThresholds,
    MetricRule,
    MetricsRegistry,
    RegressionDetector,
    RegressionReport,
    RunLedger,
    RunRecord,
    Span,
    Tracer,
    enable_ledger,
    get_ledger,
    get_metrics,
    get_tracer,
    prometheus_text,
    record_run,
    render_summary,
    write_trace,
)
from .runtime import (
    CheckpointJournal,
    Executor,
    FailurePolicy,
    FaultSpec,
    ProcessExecutor,
    ResilienceConfig,
    ResolvedRuntime,
    RetryPolicy,
    RuntimeConfig,
    SerialExecutor,
    TaskFailure,
    available_workers,
    partition_failures,
    resolve_executor,
    resolve_runtime,
)
from .perfmodel import (
    MEMO_MODES,
    ColocationPerformance,
    MachinePerf,
    RunningInstance,
    ScenarioBatch,
    SolveMemo,
    resolve_memo,
    solve_colocation,
    solve_colocation_batch,
    solve_colocation_many,
)
from .telemetry import RUNTIME_STATS, Database, ProfiledDataset, Profiler
from .workloads import HP_JOB_NAMES, HP_JOBS, LP_JOB_NAMES, LP_JOBS, get_job

__all__ = [
    # simulation
    "DatacenterConfig",
    "SubmissionConfig",
    "SimulationResult",
    "run_simulation",
    "MachineShape",
    "DEFAULT_SHAPE",
    "SMALL_SHAPE",
    "ScenarioDataset",
    # features
    "Feature",
    "BASELINE",
    "FEATURE_1_CACHE",
    "FEATURE_2_DVFS",
    "FEATURE_3_SMT",
    "PAPER_FEATURES",
    # pipeline
    "Flare",
    "FlareConfig",
    "AnalyzerConfig",
    "FeatureImpactEstimate",
    "Replayer",
    "FleetEvaluator",
    "FleetSegment",
    "Profiler",
    "ProfiledDataset",
    "Database",
    # baselines
    "DatacenterTruth",
    "evaluate_full_datacenter",
    "SamplingEvaluation",
    "evaluate_by_sampling",
    "evaluate_job_by_sampling",
    "evaluate_by_stratified_sampling",
    "stratify_by_metric",
    "sampling_cost_curve",
    "LoadTestResult",
    "load_test_job",
    "load_test_all_jobs",
    # runtime
    "RuntimeConfig",
    "ResolvedRuntime",
    "resolve_runtime",
    "Executor",
    "SerialExecutor",
    "ProcessExecutor",
    "resolve_executor",
    "available_workers",
    "RUNTIME_STATS",
    # resilience
    "FailurePolicy",
    "RetryPolicy",
    "ResilienceConfig",
    "TaskFailure",
    "partition_failures",
    "FaultSpec",
    "CheckpointJournal",
    # observability
    "Tracer",
    "Span",
    "MetricsRegistry",
    "METRICS",
    "get_tracer",
    "get_metrics",
    "write_trace",
    "render_summary",
    "prometheus_text",
    # fleet health (drift monitor + run ledger)
    "DriftMonitor",
    "DriftReport",
    "DriftState",
    "DriftThresholds",
    "RunLedger",
    "RunRecord",
    "record_run",
    "enable_ledger",
    "get_ledger",
    "MetricRule",
    "RegressionDetector",
    "RegressionReport",
    "DEFAULT_BENCH_RULES",
    # persistence
    "save_dataset",
    "load_dataset",
    "save_model",
    "load_model",
    # scenario store
    "ScenarioSource",
    "ensure_dataset",
    "ShardedScenarioStore",
    "StoreWriter",
    "StoreError",
    "StoreCorruptionError",
    "DEFAULT_SHARD_SIZE",
    "open_store",
    "write_store",
    "compact_store",
    # perfmodel
    "MachinePerf",
    "RunningInstance",
    "ColocationPerformance",
    "ScenarioBatch",
    "MEMO_MODES",
    "SolveMemo",
    "resolve_memo",
    "solve_colocation",
    "solve_colocation_batch",
    "solve_colocation_many",
    # workloads
    "HP_JOBS",
    "HP_JOB_NAMES",
    "LP_JOBS",
    "LP_JOB_NAMES",
    "get_job",
]
