"""Command-line interface: the FLARE workflow as four commands.

::

    repro simulate  --seed 7 --scenarios 300 --out dataset.json
    repro simulate  --seed 7 --scenarios 100000 --store store/ --shard-size 4096
    repro ingest    --trace events.csv --shape default --out dataset.json
    repro fit       --dataset dataset.json --clusters 18 --out model.json
    repro evaluate  --model model.json --feature feature1 [--job WSC]
    repro report    --model model.json
    repro diagnose  --model model.json
    repro monitor   --model model.json --source live.json [--json]
    repro ledger check --ledger runs.jsonl [--kind bench]
    repro ledger show  --ledger runs.jsonl [--last 5]
    repro store inspect --store store/ [--verify]
    repro store compact --store store/ --out compact/ --shard-size 8192
    repro experiment --figure fig12 --scale small

``fit --dataset`` accepts either a dataset JSON file or a sharded store
directory; store-backed fits run out-of-core (see docs/store.md).
Also runnable as ``python -m repro …``.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .cluster.features import BASELINE, PAPER_FEATURES, Feature
from .cluster.machine import DEFAULT_SHAPE, SMALL_SHAPE
from .cluster.simulation import DatacenterConfig, run_simulation
from .core.analyzer import AnalyzerConfig
from .core.pipeline import Flare, FlareConfig
from .io.serialization import load_dataset, load_model, save_dataset, save_model
from .reporting.radar import render_radar_report
from .reporting.tables import render_table
from .runtime.config import ResolvedRuntime, RuntimeConfig
from .store import DEFAULT_SHARD_SIZE, StoreWriter, compact_store, open_store

__all__ = ["main", "build_parser"]

_SHAPES = {"default": DEFAULT_SHAPE, "small": SMALL_SHAPE}
_FEATURES: dict[str, Feature] = {f.name: f for f in PAPER_FEATURES}
_FEATURES[BASELINE.name] = BASELINE

def _add_runtime_flags(parser: argparse.ArgumentParser) -> None:
    """Execution/resilience flags shared by fit / evaluate / experiment."""
    parser.add_argument(
        "--executor",
        help="execution backend: serial (default), process, process:<N>",
    )
    parser.add_argument(
        "--chunk-size",
        type=int,
        metavar="N",
        help=(
            "scenarios per dispatched block (default: cost-aware "
            "auto-sizing from observed per-scenario cost)"
        ),
    )
    parser.add_argument(
        "--retries",
        type=int,
        metavar="N",
        help="retry failed tasks up to N times (seeded backoff)",
    )
    parser.add_argument(
        "--task-timeout",
        type=float,
        metavar="SECONDS",
        help=(
            "per-task wall-clock budget; hung process-pool workers are "
            "killed and their work re-dispatched"
        ),
    )
    parser.add_argument(
        "--failure-policy",
        choices=("fail_fast", "retry_then_skip", "retry_then_raise"),
        help=(
            "what exhausted retries do (default fail_fast, or "
            "retry_then_raise when --retries/--task-timeout is given)"
        ),
    )
    parser.add_argument(
        "--checkpoint",
        metavar="DIR",
        help=(
            "journal completed tasks under DIR so a killed run can be "
            "resumed with --resume"
        ),
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help=(
            "resume from the --checkpoint journal of a previous "
            "identical invocation instead of starting fresh"
        ),
    )


def _add_ledger_flag(parser: argparse.ArgumentParser) -> None:
    """The run-ledger flag shared by fit / evaluate / monitor."""
    parser.add_argument(
        "--ledger",
        metavar="PATH",
        help=(
            "append a structured run record (config digest, env "
            "fingerprint, stage timings, key metrics) to this JSONL "
            "ledger; check the trajectory with `repro ledger check`"
        ),
    )


def _add_obs_flags(parser: argparse.ArgumentParser) -> None:
    """Observability flags shared by fit / evaluate / diagnose / experiment."""
    parser.add_argument(
        "--trace",
        metavar="PATH",
        help=(
            "write a trace of this run: Chrome trace-event JSON "
            "(open in Perfetto / chrome://tracing), or span JSONL when "
            "PATH ends in .jsonl"
        ),
    )
    parser.add_argument(
        "--obs-summary",
        action="store_true",
        help=(
            "print a per-stage span/counter summary afterwards "
            "(worker-side telemetry included)"
        ),
    )
    parser.add_argument(
        "--runtime-stats",
        action="store_true",
        help="alias for --obs-summary",
    )


_EXPERIMENTS = (
    "fig01",
    "fig02",
    "fig03",
    "fig07",
    "fig08",
    "fig09",
    "fig10",
    "fig11",
    "fig12",
    "fig13",
    "fig14",
    "sec56",
    "ablations",
    "sampling-strategies",
    "holdout",
)


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="FLARE: representative-scenario datacenter evaluation",
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    simulate = sub.add_parser(
        "simulate", help="run the datacenter and collect scenarios"
    )
    simulate.add_argument("--seed", type=int, default=2023)
    simulate.add_argument("--scenarios", type=int, default=895)
    simulate.add_argument(
        "--shape", choices=sorted(_SHAPES), default="default"
    )
    simulate_out = simulate.add_mutually_exclusive_group(required=True)
    simulate_out.add_argument("--out", help="output dataset JSON")
    simulate_out.add_argument(
        "--store",
        metavar="DIR",
        help=(
            "stream scenarios into a sharded columnar store at DIR "
            "instead of an in-memory JSON dataset"
        ),
    )
    simulate.add_argument(
        "--shard-size",
        type=int,
        default=DEFAULT_SHARD_SIZE,
        metavar="N",
        help=f"scenarios per store shard (default {DEFAULT_SHARD_SIZE})",
    )

    ingest = sub.add_parser(
        "ingest", help="build a dataset from a container-lifecycle trace CSV"
    )
    ingest.add_argument("--trace", required=True, help="input trace CSV")
    ingest.add_argument(
        "--shape", choices=sorted(_SHAPES), default="default"
    )
    ingest.add_argument(
        "--lenient",
        action="store_true",
        help="skip malformed trace rows instead of failing",
    )
    ingest.add_argument("--out", required=True, help="output dataset JSON")

    fit = sub.add_parser("fit", help="fit FLARE on a collected dataset")
    fit.add_argument(
        "--dataset",
        required=True,
        help="input dataset JSON, or a sharded store directory",
    )
    fit.add_argument("--clusters", type=int, default=18)
    fit.add_argument(
        "--memo",
        default="off",
        metavar="off|memory|store:<path>",
        help="content-addressed solve memo (bit-identical hits; "
        "'store:<path>' persists solves across runs)",
    )
    fit.add_argument("--out", required=True, help="output model JSON")
    _add_runtime_flags(fit)
    _add_obs_flags(fit)
    _add_ledger_flag(fit)

    evaluate = sub.add_parser(
        "evaluate", help="estimate a feature's impact from a fitted model"
    )
    evaluate.add_argument("--model", required=True)
    evaluate.add_argument(
        "--feature", choices=sorted(_FEATURES), required=True
    )
    evaluate.add_argument("--job", help="per-job estimate for this HP job")
    evaluate.add_argument(
        "--memo",
        default=None,
        metavar="off|memory|store:<path>",
        help="override the model's solve-memo spec for replays",
    )
    _add_runtime_flags(evaluate)
    _add_obs_flags(evaluate)
    _add_ledger_flag(evaluate)

    report = sub.add_parser(
        "report", help="print a fitted model's interpretation report"
    )
    report.add_argument("--model", required=True)

    diagnose = sub.add_parser(
        "diagnose", help="print a fitted model's representativeness report"
    )
    diagnose.add_argument("--model", required=True)
    _add_obs_flags(diagnose)

    monitor = sub.add_parser(
        "monitor",
        help="score a scenario stream's drift against a fitted model",
    )
    monitor.add_argument("--model", required=True, help="fitted model JSON")
    monitor.add_argument(
        "--source",
        help=(
            "scenario source to score: dataset JSON or sharded store "
            "directory (default: the model's own dataset — a self-check "
            "that should report healthy)"
        ),
    )
    monitor.add_argument(
        "--json",
        action="store_true",
        help="emit the full drift report as JSON instead of text",
    )
    monitor.add_argument(
        "--fail-on",
        choices=("warn", "alert", "never"),
        default="alert",
        help=(
            "lowest drift status that exits non-zero (exit 1 = warn, "
            "2 = alert; default: alert)"
        ),
    )
    _add_runtime_flags(monitor)
    _add_obs_flags(monitor)
    _add_ledger_flag(monitor)

    fleet = sub.add_parser(
        "fleet",
        help=(
            "continuous fleet mode: ingest a segmented simulation into a "
            "live store, monitor each generation for drift, and refit "
            "incrementally on warn/alert (see docs/fleet.md)"
        ),
    )
    fleet.add_argument(
        "--store", required=True, metavar="DIR", help="live store directory"
    )
    fleet.add_argument(
        "--spill",
        required=True,
        metavar="DIR",
        help="persistent metric spill reused across refits",
    )
    fleet.add_argument("--out", required=True, help="final model JSON")
    fleet.add_argument("--seed", type=int, default=2023)
    fleet.add_argument(
        "--days", type=float, default=3.0, help="simulated horizon in days"
    )
    fleet.add_argument(
        "--segment-days",
        type=float,
        default=1.0,
        help="ingestion window; one store generation committed per segment",
    )
    fleet.add_argument(
        "--scenarios",
        type=int,
        default=None,
        help="stop the simulation after this many distinct co-locations",
    )
    fleet.add_argument(
        "--shape", choices=sorted(_SHAPES), default="default"
    )
    fleet.add_argument(
        "--shard-size", type=int, default=DEFAULT_SHARD_SIZE, metavar="N"
    )
    fleet.add_argument(
        "--clusters",
        type=int,
        default=None,
        help="fixed cluster count (default: knee-point sweep at gen 0)",
    )
    _add_runtime_flags(fleet)
    _add_obs_flags(fleet)
    _add_ledger_flag(fleet)

    ledger = sub.add_parser(
        "ledger", help="inspect or gate on the run ledger"
    )
    ledger_sub = ledger.add_subparsers(dest="ledger_command", required=True)
    ledger_check = ledger_sub.add_parser(
        "check",
        help=(
            "compare the newest record against the rolling history "
            "(median ± k·MAD per metric); non-zero exit on regression"
        ),
    )
    ledger_check.add_argument("--ledger", required=True, metavar="PATH")
    ledger_check.add_argument(
        "--kind",
        default="bench",
        help="record kind to gate on (default bench; 'any' disables)",
    )
    ledger_check.add_argument(
        "--metric",
        action="append",
        metavar="NAME[:lower|:higher]",
        help=(
            "metric rule: NAME:lower flags increases (default), "
            "NAME:higher flags decreases; repeatable; default is the "
            "built-in smoke-bench rule set"
        ),
    )
    ledger_check.add_argument(
        "--k", type=float, default=None, help="MAD multiplier (default 3)"
    )
    ledger_check.add_argument(
        "--rel-floor",
        type=float,
        default=None,
        help="minimum slack as a fraction of |median| (default 0.1)",
    )
    ledger_check.add_argument(
        "--min-samples",
        type=int,
        default=None,
        help="history size below which a rule is skipped (default 4)",
    )
    ledger_check.add_argument(
        "--window",
        type=int,
        default=None,
        metavar="N",
        help="only judge against the most recent N prior records",
    )
    ledger_check.add_argument(
        "--json", action="store_true", help="emit the report as JSON"
    )
    ledger_show = ledger_sub.add_parser(
        "show", help="print the most recent ledger records"
    )
    ledger_show.add_argument("--ledger", required=True, metavar="PATH")
    ledger_show.add_argument(
        "--last", type=int, default=10, metavar="N", help="records to show"
    )

    store = sub.add_parser(
        "store", help="inspect or compact a sharded scenario store"
    )
    store_sub = store.add_subparsers(dest="store_command", required=True)
    inspect = store_sub.add_parser(
        "inspect", help="print a store's manifest summary"
    )
    inspect.add_argument("--store", required=True, metavar="DIR")
    inspect.add_argument(
        "--verify",
        action="store_true",
        help="re-read every shard and check all content digests",
    )
    compact = store_sub.add_parser(
        "compact", help="rewrite a store with a new shard size"
    )
    compact.add_argument("--store", required=True, metavar="DIR")
    compact.add_argument("--out", required=True, metavar="DIR")
    compact.add_argument(
        "--shard-size",
        type=int,
        metavar="N",
        help="scenarios per shard in the rewritten store (default: keep)",
    )

    experiment = sub.add_parser(
        "experiment", help="regenerate a paper figure"
    )
    experiment.add_argument("--figure", choices=_EXPERIMENTS, required=True)
    experiment.add_argument(
        "--scale", choices=("small", "paper"), default="small"
    )
    experiment.add_argument("--seed", type=int, default=2023)
    _add_runtime_flags(experiment)
    _add_obs_flags(experiment)

    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    handler = {
        "simulate": _cmd_simulate,
        "ingest": _cmd_ingest,
        "fit": _cmd_fit,
        "evaluate": _cmd_evaluate,
        "report": _cmd_report,
        "diagnose": _cmd_diagnose,
        "monitor": _cmd_monitor,
        "fleet": _cmd_fleet,
        "ledger": _cmd_ledger,
        "store": _cmd_store,
        "experiment": _cmd_experiment,
    }[args.command]

    trace_path = getattr(args, "trace", None)
    want_summary = getattr(args, "obs_summary", False) or getattr(
        args, "runtime_stats", False
    )
    # `repro ledger …` reads a ledger; every other command's --ledger
    # flag *writes* one — install it for the duration of the run.
    ledger_path = (
        getattr(args, "ledger", None) if args.command != "ledger" else None
    )
    if ledger_path:
        from .obs.ledger import disable_ledger, enable_ledger

        enable_ledger(ledger_path)
    try:
        if not trace_path and not want_summary:
            return handler(args)
        return _run_observed(handler, args, trace_path, want_summary)
    finally:
        if ledger_path:
            disable_ledger()


def _run_observed(handler, args, trace_path, want_summary: bool) -> int:
    """Run a command under a live tracer; export/summarise afterwards."""
    from . import obs

    tracer = obs.enable()
    try:
        code = handler(args)
    finally:
        obs.disable()
    if want_summary:
        print()
        print(obs.render_summary(tracer))
    if trace_path:
        path = obs.write_trace(
            tracer.spans(), trace_path, metrics=obs.get_metrics()
        )
        print(f"\ntrace written -> {path}")
    return code


# ----------------------------------------------------------------------
def _resolve_runtime(args, run_key: tuple) -> ResolvedRuntime | None:
    """Resolved runtime for one command's flags (None = legacy path).

    The flags map one-to-one onto :class:`RuntimeConfig` fields (see its
    docstring table); the checkpoint run id digests the command and its
    semantic arguments (*run_key*), so ``--resume`` only ever restores
    chunks journaled by an identical invocation — a different dataset,
    feature or figure lands in a different journal.
    """
    spec = getattr(args, "executor", None)
    non_default = (
        spec
        or args.chunk_size is not None
        or args.retries is not None
        or args.task_timeout is not None
        or args.failure_policy is not None
        or args.checkpoint
        or args.resume
    )
    if not non_default:
        return None
    if args.resume and not args.checkpoint:
        raise SystemExit("error: --resume requires --checkpoint DIR")
    config = RuntimeConfig(
        executor=spec,
        chunk_size=args.chunk_size if args.chunk_size is not None else "auto",
        retries=args.retries,
        task_timeout_s=args.task_timeout,
        failure_policy=args.failure_policy,
        checkpoint_dir=args.checkpoint,
        resume=args.resume,
    )
    return ResolvedRuntime(config.resolve(run_key), config, owned=True)


def _print_resume_summary(args) -> None:
    """Report how much work ``--resume`` restored from the journal."""
    if not getattr(args, "resume", False):
        return
    from .obs.metrics import get_metrics

    hits = (
        get_metrics().snapshot()["counters"].get("checkpoint_hits_total", 0)
    )
    print(f"resume: {int(hits)} task(s) restored from the checkpoint journal")


# ----------------------------------------------------------------------
def _cmd_simulate(args) -> int:
    config = DatacenterConfig(
        shape=_SHAPES[args.shape],
        seed=args.seed,
        target_unique_scenarios=args.scenarios,
    )
    if args.store is not None:
        with StoreWriter(
            args.store,
            config.shape,
            shard_size=args.shard_size,
            overwrite=True,
        ) as writer:
            result = run_simulation(config, sink=writer)
        destination = f"{args.store} ({writer.store.n_shards} shards)"
    else:
        result = run_simulation(config)
        save_dataset(result.dataset, args.out)
        destination = args.out
    print(
        f"collected {result.n_unique_scenarios} scenarios "
        f"({result.stats.n_placed} placements, "
        f"{result.stats.denial_rate:.1%} denials) -> {destination}"
    )
    return 0


def _cmd_ingest(args) -> int:
    from .io.tracecsv import dataset_from_trace_csv

    dataset = dataset_from_trace_csv(
        args.trace, _SHAPES[args.shape], strict=not args.lenient
    )
    save_dataset(dataset, args.out)
    print(
        f"ingested {len(dataset)} distinct co-locations from "
        f"{args.trace} -> {args.out}"
    )
    return 0


def _cmd_fit(args) -> int:
    dataset = load_dataset(args.dataset)
    config = FlareConfig(
        analyzer=AnalyzerConfig(n_clusters=args.clusters),
        memo=args.memo,
    )
    runtime = _resolve_runtime(args, ("fit", args.dataset, args.clusters))
    try:
        flare = Flare(config).fit(dataset, runtime=runtime)
    finally:
        if runtime is not None:
            runtime.close()
    save_model(flare, args.out)
    _print_resume_summary(args)
    report = flare.prune_report
    print(
        f"fitted FLARE: {report.n_kept + report.n_dropped} raw -> "
        f"{report.n_kept} refined metrics, "
        f"{flare.analysis.n_components} PCs, "
        f"{flare.analysis.n_clusters} groups -> {args.out}"
    )
    return 0


def _cmd_evaluate(args) -> int:
    flare = load_model(args.model)
    if args.memo is not None:
        from .perfmodel.memo import validate_memo_spec

        validate_memo_spec(args.memo)
        flare.replayer.memo = args.memo if args.memo != "off" else None
    feature = _FEATURES[args.feature]
    runtime = _resolve_runtime(
        args, ("evaluate", args.model, args.feature, args.job)
    )
    try:
        if args.job:
            estimate = flare.evaluate_job(feature, args.job, runtime=runtime)
            label = f"{feature.name} impact on {args.job}"
        else:
            estimate = flare.evaluate(feature, runtime=runtime)
            label = f"{feature.name} impact (all HP jobs)"
    finally:
        if runtime is not None:
            runtime.close()
    _print_resume_summary(args)
    print(f"{label}: {estimate.reduction_pct:.2f}% MIPS reduction")
    print(f"evaluation cost: {estimate.evaluation_cost} scenario replays")
    rows = [
        [c.cluster_id, c.weight * 100.0, c.reduction_pct, c.scenario_id]
        for c in estimate.per_cluster
    ]
    print(
        render_table(
            ["cluster", "weight %", "impact %", "scenario"],
            rows,
            title="per-group breakdown",
        )
    )
    return 0


def _cmd_report(args) -> int:
    flare = load_model(args.model)
    print("High-level metrics (Figure 8 style):")
    for interp in flare.interpretations:
        print("  " + interp.describe())
    print()
    analysis = flare.analysis
    print(
        render_radar_report(
            analysis.kmeans.centroids, analysis.cluster_weights
        )
    )
    return 0


def _cmd_diagnose(args) -> int:
    from .core.diagnostics import diagnose

    flare = load_model(args.model)
    report = diagnose(flare)
    print(report.render())
    worst = report.worst_group()
    print(
        f"\nloosest group: cluster {worst.cluster_id} "
        f"(mean member distance {worst.mean_member_distance:.2f}); "
        f"mean representative centrality "
        f"{report.mean_centrality():.2f} (lower = more central)"
    )
    return 0


def _cmd_monitor(args) -> int:
    import json as _json

    flare = load_model(args.model)
    source = load_dataset(args.source) if args.source else None
    runtime = _resolve_runtime(
        args, ("monitor", args.model, args.source or "")
    )
    try:
        report = flare.health(source, runtime=runtime)
    finally:
        if runtime is not None:
            runtime.close()
    if args.json:
        print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
    else:
        print(report.render())
    fail_floor = {"warn": 1, "alert": 2, "never": 99}[args.fail_on]
    return report.exit_code if report.exit_code >= fail_floor else 0


class _SegmentReplay:
    """A deterministic stand-in for a live tail over a committed store.

    The fleet command first re-runs the seeded segmented simulation to
    (re)build the whole store, then replays its generation marks one
    ``refresh()`` at a time — so the watch loop sees exactly the growth
    a live deployment would, and a ``--resume`` of a killed run walks
    the identical sequence.
    """

    def __init__(self, store, marks: list, index: int) -> None:
        self._store = store
        self._marks = marks
        self._index = index

    @property
    def shape(self):
        return self._store.shape

    @property
    def cycle_index(self) -> int:
        return self._index

    def refresh(self) -> int:
        before = self._marks[self._index]
        if self._index < len(self._marks) - 1:
            self._index += 1
        return self._marks[self._index] - before

    def _view(self):
        from .store.live import StoreSlice

        return StoreSlice(self._store, 0, len(self))

    def __len__(self) -> int:
        return int(self._marks[self._index])

    def __getitem__(self, index: int):
        if not 0 <= index < len(self):
            raise IndexError(index)
        return self._store[index]

    def new_since(self, watermark: int):
        from .store.live import StoreSlice

        return StoreSlice(self._store, watermark, len(self))

    def iter_batches(self, batch_size=None):
        return self._view().iter_batches(batch_size)

    def weights(self):
        return self._view().weights()

    def durations(self):
        return self._view().durations()

    def schema(self):
        return self._store.schema()

    def digest(self) -> str:
        return self._view().digest()


def _cmd_fleet(args) -> int:
    import json as _json
    import pathlib

    from .core.refit import refit, replay_refit
    from .io.serialization import fitted_digest
    from .store import LiveStore, TailingSource
    from .store.live import StoreSlice

    shape = _SHAPES[args.shape]
    store_dir = pathlib.Path(args.store)
    spill_dir = pathlib.Path(args.spill)
    config = FlareConfig(analyzer=AnalyzerConfig(n_clusters=args.clusters))
    sim = DatacenterConfig(
        shape=shape,
        seed=args.seed,
        max_days=args.days,
        target_unique_scenarios=args.scenarios,
    )

    # Phase 1 — ingestion: (re)build the live store from the seeded
    # simulation, committing one generation per segment.  Deterministic,
    # so a resumed run reconstructs the identical store.
    marks: list[int] = []
    with LiveStore(
        store_dir, shape, shard_size=args.shard_size, overwrite=True
    ) as live:

        def on_segment(index: int, drained: int, now_s: float) -> None:
            live.commit()
            if live.watermark and (
                not marks or live.watermark > marks[-1]
            ):
                marks.append(live.watermark)

        run_simulation(
            sim,
            sink=live,
            segment_days=args.segment_days,
            on_segment=on_segment,
        )
    if not marks:
        raise SystemExit("error: the simulation produced no scenarios")
    reader = open_store(store_dir)
    print(
        f"ingested {marks[-1]} scenarios across {len(marks)} "
        f"generation(s) -> {store_dir}"
    )

    # The fleet journal makes the control loop resumable: one line per
    # completed cycle, carrying the lineage and the deterministic-replay
    # plan of the model in force after that cycle.
    journal_path = (
        pathlib.Path(args.checkpoint) / "fleet-journal.jsonl"
        if args.checkpoint
        else None
    )
    entries: list[dict] = []
    if args.resume and journal_path is not None and journal_path.exists():
        with journal_path.open() as handle:
            entries = [_json.loads(line) for line in handle if line.strip()]

    def journal_append(entry: dict) -> None:
        if journal_path is None:
            return
        journal_path.parent.mkdir(parents=True, exist_ok=True)
        with journal_path.open("a") as handle:
            handle.write(_json.dumps(entry) + "\n")

    def journal_entry(cycle: int, status: str, action: str, model) -> dict:
        plan = model._refit_plan
        return {
            "cycle": cycle,
            "covered": int(model.analysis.labels.shape[0]),
            "status": status,
            "action": action,
            "digest": fitted_digest(model),
            "lineage": [e.to_dict() for e in model.lineage],
            "plan": None if plan is None else plan.to_dict(),
        }

    runtime = _resolve_runtime(
        args, ("fleet", str(store_dir), args.seed, args.days)
    )
    try:
        if entries:
            # Phase 2a — resume: rebuild the last journaled model (and
            # its spill, bit-identically) from the recorded plan.
            last = entries[-1]
            covered = int(last["covered"])
            # A store-covering model is replayed over a path-bearing
            # source so the republished payload can keep the store
            # reference (a StoreSlice has no on-disk identity).
            source = (
                TailingSource(reader)
                if covered == len(reader)
                else StoreSlice(reader, 0, covered)
            )
            model = replay_refit(
                source, config, last["plan"], spill_dir=spill_dir
            )
            if fitted_digest(model) != last["digest"]:
                raise SystemExit(
                    "error: resumed model does not reproduce the "
                    "journaled state; delete the checkpoint to restart"
                )
            from .core.refit import ModelLineage

            model.lineage = tuple(
                ModelLineage.from_dict(e) for e in last["lineage"]
            )
            start_cycle = int(last["cycle"]) + 1
            print(
                f"resume: restored cycle {last['cycle']} model "
                f"({covered} rows, generation "
                f"{model.lineage[-1].generation if model.lineage else 0})"
            )
        else:
            # Phase 2b — generation 0: full fit over the first window.
            model = refit(
                StoreSlice(reader, 0, marks[0]),
                config,
                spill_dir=spill_dir,
                trigger="initial",
                runtime=runtime,
            )
            journal_append(journal_entry(0, "initial", "fit:full", model))
            print(
                f"cycle 0: fitted generation 0 on {marks[0]} rows "
                f"({model.analysis.n_clusters} clusters)"
            )
            start_cycle = 1

        # A journal whose last entry is the final publish means the
        # previous run completed: republish it verbatim instead of
        # stacking another (fixed-point, but lineage-growing) refit.
        run_complete = bool(entries) and entries[-1]["status"] == "final"
        if run_complete:
            print("resume: previous run completed; republishing")

        # Phase 3 — the watch loop over the remaining generations.
        if not run_complete and start_cycle <= len(marks) - 1:
            tail = _SegmentReplay(reader, marks, start_cycle - 1)
            for decision in model.watch(
                tail, spill_dir=spill_dir, runtime=runtime
            ):
                model = decision.model
                cycle = tail.cycle_index
                journal_append(
                    journal_entry(
                        cycle, decision.status, decision.action, model
                    )
                )
                print(
                    f"cycle {cycle}: +{decision.n_new} rows, "
                    f"{decision.status} -> {decision.action}"
                )

        # Phase 4 — publish: absorb any healthy tail so the final model
        # covers the full store (a no-op fixed point when it already
        # does), then save it with the store reference.
        if not run_complete:
            final_tail = TailingSource(reader)
            model = model.refit(
                final_tail, spill_dir=spill_dir, trigger="final"
            )
            journal_append(
                journal_entry(
                    len(marks),
                    "final",
                    f"refit:{model.lineage[-1].kind}",
                    model,
                )
            )
    finally:
        if runtime is not None:
            runtime.close()
    save_model(model, args.out)
    _print_resume_summary(args)
    lineage = model.lineage[-1]
    print(
        f"published generation {lineage.generation} "
        f"({lineage.kind}, {lineage.n_scenarios} scenarios, "
        f"{model.analysis.n_clusters} clusters) -> {args.out}"
    )
    return 0


def _cmd_ledger(args) -> int:
    import json as _json

    from .obs.ledger import (
        DEFAULT_BENCH_RULES,
        MetricRule,
        RegressionDetector,
        RunLedger,
    )

    ledger = RunLedger(args.ledger)
    if args.ledger_command == "show":
        records = ledger.tail(args.last)
        if not records:
            print(f"ledger {args.ledger}: empty")
            return 0
        print(f"ledger {args.ledger}: last {len(records)} record(s)")
        for record in records:
            metrics = ", ".join(
                f"{k}={v:.6g}"
                for k, v in sorted(record.metrics.items())[:4]
            )
            print(
                f"  {record.timestamp or '-':<26} {record.kind:<10} "
                f"{metrics}"
            )
        return 0
    if args.ledger_command == "check":
        if args.metric:
            rules = []
            for spec in args.metric:
                name, _, direction = spec.partition(":")
                if direction not in ("", "lower", "higher"):
                    raise SystemExit(
                        f"error: bad metric direction {direction!r} "
                        "(use :lower or :higher)"
                    )
                rules.append(
                    MetricRule(
                        name, lower_is_better=(direction != "higher")
                    )
                )
        else:
            rules = list(DEFAULT_BENCH_RULES)
        detector = RegressionDetector(rules).with_overrides(
            k=args.k,
            rel_floor=args.rel_floor,
            min_samples=args.min_samples,
        )
        records = ledger.read()
        if not records:
            raise SystemExit(f"error: ledger {args.ledger} holds no records")
        kind = None if args.kind == "any" else args.kind
        try:
            report = detector.check(records, kind=kind, window=args.window)
        except ValueError as exc:
            raise SystemExit(f"error: {exc}") from None
        if args.json:
            print(_json.dumps(report.to_dict(), indent=2, sort_keys=True))
        else:
            print(report.render())
        return 0 if report.ok else 1
    raise AssertionError(f"unknown ledger command {args.ledger_command!r}")


def _cmd_store(args) -> int:
    if args.store_command == "inspect":
        store = open_store(args.store)
        mib = store.bytes_total / (1024.0 * 1024.0)
        rows = [
            [
                stat["shard"],
                stat["rows"],
                stat["bytes"],
                stat["duration_mass_s"],
            ]
            for stat in store.shard_stats()
        ]
        print(
            f"store {store.path}: {len(store)} scenarios in "
            f"{store.n_shards} shard(s) of <= {store.shard_size}, "
            f"{mib:.2f} MiB"
        )
        print(f"content digest: {store.digest()}")
        print(render_table(["shard", "rows", "bytes", "duration s"], rows))
        if args.verify:
            summary = store.verify()
            print(
                f"verified: {summary['rows']} rows across "
                f"{summary['n_shards']} shard(s), digests OK"
            )
        return 0
    if args.store_command == "compact":
        store = open_store(args.store)
        compacted = compact_store(
            store, args.out, shard_size=args.shard_size, overwrite=True
        )
        print(
            f"compacted {store.n_shards} shard(s) of <= {store.shard_size} "
            f"-> {compacted.n_shards} shard(s) of <= "
            f"{compacted.shard_size} at {args.out}"
        )
        return 0
    raise AssertionError(f"unknown store command {args.store_command!r}")


def _cmd_experiment(args) -> int:
    from . import experiments
    from .experiments import get_context

    context = get_context(args.scale, seed=args.seed)
    runtime = _resolve_runtime(
        args, ("experiment", args.figure, args.scale, args.seed)
    )
    if runtime is not None:
        context.use_executor(runtime.executor)
    figure = args.figure
    if figure == "fig03":
        print(experiments.fig03_scenario_landscape.run_occupancy(context).render())
        print()
        print(
            experiments.fig03_scenario_landscape.run_impact_vs_mpki(
                context
            ).render()
        )
    elif figure == "fig14":
        print(experiments.fig14_heterogeneous.run_transfer(context).render())
        print()
        print(experiments.fig14_heterogeneous.run(context).render())
    elif figure == "ablations":
        print(experiments.ablations.run_pipeline_variants(context).render())
    elif figure == "sampling-strategies":
        print(experiments.sampling_strategies.run(context).render())
    elif figure == "holdout":
        print(experiments.holdout.run(context).render())
    else:
        module = {
            "fig01": experiments.fig01_landscape,
            "fig02": experiments.fig02_loadtesting_pitfall,
            "fig07": experiments.fig07_pca_variance,
            "fig08": experiments.fig08_pc_interpretation,
            "fig09": experiments.fig09_cluster_selection,
            "fig10": experiments.fig10_cluster_radar,
            "fig11": experiments.fig11_cluster_impacts,
            "fig12": experiments.fig12_accuracy,
            "fig13": experiments.fig13_cost_accuracy,
            "sec56": experiments.sec56_scheduler_change,
        }[figure]
        print(module.run(context).render())
    _print_resume_summary(args)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
