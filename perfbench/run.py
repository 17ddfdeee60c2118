"""End-to-end FLARE benchmark: one command, three workloads, checked outputs.

Run from the root of a repository checkout::

    python3 perfbench/run.py --workload paper-cold --seed 1 --seconds 15 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed.
``--trace 1`` first runs the same command untraced in a fresh
interpreter, then repeats the work in this process with timing wrappers
around the layers' entry points; it reports the per-layer metrics, the
tracing overhead against the untraced run, and fails unless both runs'
estimates are bit-identical.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The exit
code is 0 only when every output check passed.  See perfbench/README.md
for the metric definitions.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import multiprocessing  # noqa: E402
import os  # noqa: E402
import pathlib  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper-cold", "fleet-10x-store", "whatif-sweep")
FINGERPRINT_TAG = "perfbench-untraced"


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale",
        choices=("full", "tiny"),
        default="full",
        help="input sizes; 'tiny' is for the benchmark's own tests",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            f"perfbench: library sources not found at {SRC / 'repro'}; "
            "run from the root of a repository checkout",
            file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    work_dir = HERE / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    (work_dir / "tmp").mkdir(parents=True, exist_ok=True)
    # Temporary files (the out-of-core fit's metric spill) stay inside
    # the checkout; spawned workers inherit the variable.
    os.environ["TMPDIR"] = str(work_dir / "tmp")
    tempfile.tempdir = str(work_dir / "tmp")
    try:
        untraced = run_untraced_twin(args) if args.trace else None
        return run(args, work_dir, untraced)
    finally:
        for child in multiprocessing.active_children():
            child.join(timeout=30)
        shutil.rmtree(work_dir, ignore_errors=True)


def run_untraced_twin(args) -> dict | None:
    """Run this command with ``--trace 0`` in a fresh interpreter."""
    command = [
        sys.executable,
        str(pathlib.Path(__file__).resolve()),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", "0",
        "--scale", args.scale,
    ]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    for line in done.stdout.splitlines():
        if line.startswith(FINGERPRINT_TAG + " "):
            twin = json.loads(line[len(FINGERPRINT_TAG) + 1 :])
            twin["returncode"] = done.returncode
            return twin
    print(
        f"perfbench: untraced run exited {done.returncode} without a result",
        file=sys.stderr,
    )
    return None


def run(args, work_dir: pathlib.Path, untraced: dict | None) -> int:
    import_started = time.perf_counter()
    import flows
    import spans
    from checks import Checks

    import_s = time.perf_counter() - import_started
    imported_at = time.perf_counter() - _STARTED

    checks = Checks()
    recorder = spans.SpanRecorder() if args.trace else spans.NullRecorder()
    workload = flows.WORKLOAD_CLASSES[args.workload](
        args.seed, flows.SCALES[args.scale], work_dir, recorder, checks
    )
    workload.setup()
    uninstall = spans.install_wrappers(recorder) if args.trace else None
    recorder.reset()
    try:
        workload.measure(args.seconds)
    finally:
        if uninstall is not None:
            uninstall()
    m = workload.m

    if args.trace:
        if untraced is None:
            checks.record(["the untraced run produced no estimates"])
        else:
            # Compare every world both runs visited (both visit them all).
            untraced_digests = {int(k): v for k, v in untraced["digests"].items()}
            for world in sorted(untraced_digests.keys() & m.digests.keys()):
                checks.same(
                    m.digests[world],
                    untraced_digests[world],
                    f"traced and untraced estimates of world {world}",
                )
            if untraced["returncode"] != 0:
                checks.record([f"the untraced run exited {untraced['returncode']}"])
        metrics = per_layer_metrics(m, recorder, import_s, untraced)
    else:
        metrics = end_to_end_metrics(m, imported_at)

    print(
        f"{args.workload} seed={args.seed} trace={args.trace}: "
        f"{len(m.iteration_s)} iterations, {len(m.evaluate_s)} evaluate calls, "
        f"{len(m.truth_s)} truth calls, {checks.failed}/{checks.attempted} checks failed"
    )
    for name, metric in metrics.items():
        print(f"  {name:<36} {metric['value']:>14.6g} {metric['unit']}")
    if not args.trace:
        # The traced run's untraced twin reads this line; the result
        # JSON stays the last one.
        twin = {
            "digests": m.digests,
            "iteration_s": m.iteration_s,
            "evaluate": evaluate_latency_metrics(m),
        }
        print(FINGERPRINT_TAG + " " + json.dumps(twin))
    print(
        json.dumps(
            {
                "correct": checks.correct,
                "attempted": checks.attempted,
                "failed": checks.failed,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if checks.correct else 1


def _metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    # ru_maxrss is in KiB on Linux.
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end_metrics(m, imported_at: float) -> dict:
    median = statistics.median
    fit_s = median(m.fit_s)
    return {
        "setup_s": _metric(imported_at + median(m.prepare_s), "s"),
        "fit_s": _metric(fit_s, "s"),
        "time_to_estimate_s": _metric(fit_s + median(m.first_evaluate_s), "s"),
        "pass_s": _metric(median(m.iteration_s), "s"),
        "truth_s": _metric(sum(m.truth_s) / len(m.truth_s), "s"),
        "peak_rss_mb": _metric(peak_rss_mb(), "MB"),
    }


def evaluate_latency_metrics(m) -> dict:
    """Latency of single evaluate calls, from an untraced run."""
    return {
        "core.evaluate_calls": _metric(len(m.evaluate_s), "count"),
        "core.evaluate_p50_ms": _metric(statistics.median(m.evaluate_s) * 1e3, "ms"),
        "core.evaluate_p90_ms": _metric(
            statistics.quantiles(m.evaluate_s, n=10, method="inclusive")[-1] * 1e3,
            "ms",
        ),
        "core.evals_per_s": _metric(len(m.evaluate_s) / sum(m.evaluate_s), "1/s"),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer_metrics(m, rec, import_s: float, untraced: dict | None) -> dict:
    """Per-iteration layer figures of the measured phase of a traced run."""
    n = len(m.iteration_s)
    median = statistics.median
    counts = rec.counts
    simulate_s = median(m.simulate_s)
    write_s = median(m.write_s) if m.write_s else 0.0
    profile_wall = rec.inclusive_time("profile")
    cache_hits = counts["evaluate:cache_hits"]
    cache_misses = counts["evaluate:cache_misses"]
    top_level = ("fit", "evaluate", "truth")

    def runtime_total(name: str) -> float:
        return sum(counts[f"{kind}:{name}"] for kind in top_level) / n

    # Evaluate latencies come from the untraced twin, free of wrapper cost.
    twin = untraced if untraced is not None else {
        "iteration_s": m.iteration_s,
        "evaluate": evaluate_latency_metrics(m),
    }
    overhead = (median(m.iteration_s) / median(twin["iteration_s"]) - 1.0) * 100.0
    return {
        "startup.import_s": _metric(import_s, "s"),
        "cluster.simulate_s": _metric(simulate_s, "s"),
        "cluster.scenarios_per_s": _metric(m.scenarios / simulate_s, "1/s"),
        "store.write_s": _metric(write_s, "s"),
        "store.write_mb_s": _metric(_ratio(m.store_mb, write_s), "MB/s"),
        "store.read_s": _metric(rec.self_time("store_read") / n, "s"),
        "store.batches_read": _metric(counts["shard_loads"] / n, "count"),
        "telemetry.profile_s": _metric(rec.self_time("profile") / n, "s"),
        "telemetry.profile_cpu_s": _metric(
            (rec.cpu_time("profile") + counts["fit:children_cpu_s"]) / n, "s"
        ),
        "telemetry.profile_rows_per_s": _metric(
            _ratio(counts["rows_profiled"], profile_wall), "1/s"
        ),
        "stats.pca_s": _metric(rec.self_time("pca") / n, "s"),
        "stats.sweep_s": _metric(rec.inclusive_time("sweep") / n, "s"),
        "stats.kmeans_fits": _metric(rec.outer_count("kmeans") / n, "count"),
        "stats.kmeans_s": _metric(rec.self_time("kmeans") / n, "s"),
        "stats.silhouette_s": _metric(rec.self_time("silhouette") / n, "s"),
        "core.fit_self_s": _metric(rec.self_time("fit") / n, "s"),
        "core.refine_s": _metric(rec.self_time("refine") / n, "s"),
        "core.analyze_self_s": _metric(rec.self_time("analyze") / n, "s"),
        "core.representatives_s": _metric(rec.self_time("representatives") / n, "s"),
        "core.interpret_s": _metric(rec.self_time("interpret") / n, "s"),
        "core.replay_s": _metric(rec.self_time("replay") / n, "s"),
        "core.replays": _metric(counts["replays"] / n, "count"),
        "core.estimate_self_s": _metric(rec.self_time("evaluate") / n, "s"),
        **twin["evaluate"],
        "perfmodel.solve_cache_hits": _metric(cache_hits / n, "count"),
        "perfmodel.solve_cache_misses": _metric(cache_misses / n, "count"),
        "perfmodel.solve_cache_lookups": _metric((cache_hits + cache_misses) / n, "count"),
        "perfmodel.solve_cache_hit_ratio": _metric(
            _ratio(cache_hits, cache_hits + cache_misses), "ratio"
        ),
        "perfmodel.memo_hits": _metric(counts["evaluate:memo_hits"] / n, "count"),
        "perfmodel.memo_misses": _metric(counts["evaluate:memo_misses"] / n, "count"),
        "baselines.truth_scenarios_per_s": _metric(
            _ratio(m.truth_scenarios, sum(m.truth_s)), "1/s"
        ),
        "runtime.dispatches": _metric(runtime_total("dispatches"), "count"),
        "runtime.tasks": _metric(runtime_total("tasks"), "count"),
        "runtime.chunks": _metric(runtime_total("chunks"), "count"),
        "runtime.dispatch_wall_s": _metric(runtime_total("dispatch_wall_s"), "s"),
        "quality.error_pp": _metric(max(m.errors_pp), "pp"),
        "quality.cost_reduction_x": _metric(min(m.cost_reductions_x), "x"),
        "bench.trace_overhead_pct": _metric(overhead, "%"),
    }


if __name__ == "__main__":
    sys.exit(main())
