"""Smoke benchmark: sampling-baseline wall-clock, serial vs process pool.

Times the 1,000-trial random-sampling baseline (the hottest fan-out
loop) with the serial executor and with a process pool, verifies the
estimates are bit-identical, and appends one JSON line per run to
``benchmarks/results/bench_smoke.jsonl``.  Run via ``make bench-smoke``.

On multi-core machines the process pool should win clearly (the
acceptance bar is >= 2x on >= 4 cores); on a single core it only adds
dispatch overhead — the record keeps ``cpu_count`` alongside the
timings so the two situations are distinguishable in the artefact.

The record also carries the observability overhead budget: the serial
run is repeated with the tracer enabled and the enabled-vs-disabled
delta recorded as ``tracing_overhead_pct``; the traced run's per-stage
span breakdown is folded into the record's ``stages``.  The < 2%
budget is *enforced* (fails ``ok``) only when the untraced section ran
at least ``MIN_GATE_WALL_S`` — on shorter sections the percentage is
dominated by fixed span setup and scheduler noise rather than by
per-span cost (historical records show 15–19% "overhead" on 2–40 ms
sections), so it is recorded for trend analysis but not gated.  The
cost of the *disabled* path (the no-op tracer the instrumentation hits
when ``--trace`` is off) is measured directly — no-op span cost times
the span count the traced run produced, relative to the untraced wall
time — and recorded as ``disabled_overhead_pct``; the budget is < 2%.

The fleet-health observatory is billed the same way: the drift monitor
rides the profiling pass, so its own cost — the per-batch drift
scoring — is probe-timed over cached profiled batches and billed
against the profiling wall it rides on (``monitor_overhead_pct``); the
run ledger's cost is the probe-timed fsync'd append of one record,
relative to the fit that emits it (``ledger_overhead_pct``).  Both
share the < 2% budget and the same minimum-wall enforcement rule; the
monitor's drift report is written to
``benchmarks/results/drift_report.json`` for CI upload.

Records append through the run-ledger API (``repro.obs.ledger``) as
schema-versioned ``RunRecord`` lines — config knobs under ``config``,
numeric results under ``metrics`` (nested values dotted, e.g.
``profile_speedup.2``), gate booleans under ``labels`` — so bench and
production runs share one schema and ``repro ledger check`` can gate
the trajectory.  Pre-observatory flat records in the same file remain
readable; the reader coerces them on load.

Finally the resilience layer is billed the same way: the serial run is
repeated with an *enabled* ``ResilienceConfig`` (``retry_then_raise``,
no faults injected) so every chunk goes through the retry/fault
accounting path, and the delta is recorded as
``resilience_overhead_pct`` — same < 2% budget.

The batched contention solver is benchmarked head-to-head against the
scalar test oracle (``tests/perfmodel/scalar_oracle.py``, the
per-scenario fixed point the library shipped before it kept only the
batch): every simulated scenario is solved through both (best-of-two
each), the solutions must be bit-identical, and the ratio
is recorded as ``batch_solver_speedup_x`` (acceptance bar >= 5x)
alongside per-batch-size throughput in ``batch_throughput_scn_s``.

Parallel profiling is gated per worker count: the scenario store is
profiled serially and through process pools of 1, 2 and 4 workers
(pools warmed before timing; workers receive columnar table slices by
value), each ``profile_speedup[w]`` must reach
``0.8 * min(w, cpu_count)``, and every run — serial inline, a
``SerialExecutor``, the pools on the store and ``process:2`` on the
in-memory dataset — must produce the bit-identical metric matrix
(``dispatch_identical``).

The sharded scenario store (repro.store) is billed too: the simulated
dataset is written out as a store under ``benchmarks/results/smoke_store``
(kept as a CI artifact), re-read and decoded in full, and the write/read
throughputs recorded as ``store_write_mb_s`` / ``store_read_mb_s``.  A
full FLARE fit is then timed through the in-memory path and through the
out-of-core streaming path over that store; the delta is recorded as
``streaming_fit_overhead_pct`` (budget < 10%) and the cluster
assignments of the two paths must be identical on this smoke dataset.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import sys
import time

import numpy as np

from repro.api import (
    DatacenterConfig,
    FEATURE_2_DVFS,
    ProcessExecutor,
    SerialExecutor,
    available_workers,
    evaluate_by_sampling,
    evaluate_full_datacenter,
    run_simulation,
)

RESULTS_PATH = (
    pathlib.Path(__file__).parent / "results" / "bench_smoke.jsonl"
)
#: Repository root, for the scalar solver oracle under ``tests/``.
REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent

#: Observability overhead budget (tracing / monitor / ledger), percent.
OVERHEAD_BUDGET_PCT = 2.0

#: Overhead percentages are only enforced when the base section ran at
#: least this long — below it, fixed setup costs and scheduler noise
#: dwarf the per-operation cost the budget is about.
MIN_GATE_WALL_S = 0.5


def _timed(fn):
    start = time.perf_counter()
    result = fn()
    return time.perf_counter() - start, result


def _time_run(dataset, truth, executor, *, n_trials: int, seed: int):
    # The one-time truth computation is passed in precomputed so the
    # timing isolates the trial fan-out the executor actually affects.
    start = time.perf_counter()
    evaluation = evaluate_by_sampling(
        dataset,
        FEATURE_2_DVFS,
        sample_size=18,
        n_trials=n_trials,
        seed=seed,
        truth=truth,
        executor=executor,
    )
    return time.perf_counter() - start, evaluation.trials.estimates


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--scenarios", type=int, default=300)
    parser.add_argument("--seed", type=int, default=2023)
    parser.add_argument(
        "--workers",
        type=int,
        default=available_workers(),
        help="process-pool size for the parallel run",
    )
    parser.add_argument(
        "--ledger",
        type=pathlib.Path,
        default=None,
        help=(
            "run-ledger JSONL to append the record to "
            f"(default: {RESULTS_PATH})"
        ),
    )
    args = parser.parse_args(argv)

    print(
        f"simulating {args.scenarios} scenarios "
        f"(seed {args.seed}) ...",
        flush=True,
    )
    dataset = run_simulation(
        DatacenterConfig(
            seed=args.seed, target_unique_scenarios=args.scenarios
        )
    ).dataset

    truth = evaluate_full_datacenter(dataset, FEATURE_2_DVFS)

    serial_s, serial_estimates = _time_run(
        dataset, truth, SerialExecutor(), n_trials=args.trials, seed=args.seed
    )
    print(f"serial:         {serial_s:8.3f} s ({args.trials} trials)")

    # Observability overhead: repeat the serial run with a live tracer.
    # Best-of-two on both sides to damp scheduler noise in the small pct.
    from repro import obs

    serial2_s, _ = _time_run(
        dataset, truth, SerialExecutor(), n_trials=args.trials, seed=args.seed
    )
    untraced_s = min(serial_s, serial2_s)
    tracer = obs.enable()
    try:
        traced_a, traced_estimates = _time_run(
            dataset,
            truth,
            SerialExecutor(),
            n_trials=args.trials,
            seed=args.seed,
        )
        traced_b, _ = _time_run(
            dataset,
            truth,
            SerialExecutor(),
            n_trials=args.trials,
            seed=args.seed,
        )
    finally:
        obs.disable()
    traced_s = min(traced_a, traced_b)
    overhead_pct = (traced_s - untraced_s) / untraced_s * 100.0
    stage_breakdown = {
        name: {"count": int(agg["count"]), "wall_s": round(agg["wall_s"], 4)}
        for name, agg in tracer.totals().items()
    }
    traced_identical = bool(
        np.array_equal(serial_estimates, traced_estimates)
    )
    tracing_gate_enforced = untraced_s >= MIN_GATE_WALL_S
    tracing_overhead_ok = (
        overhead_pct < OVERHEAD_BUDGET_PCT or not tracing_gate_enforced
    )
    print(
        f"serial+tracer:  {traced_s:8.3f} s "
        f"(tracing overhead {overhead_pct:+.2f}%, "
        f"budget < {OVERHEAD_BUDGET_PCT:.0f}% "
        + (
            "enforced"
            if tracing_gate_enforced
            else f"recorded only: untraced < {MIN_GATE_WALL_S}s"
        )
        + ")"
    )

    # Disabled-path cost: the instrumentation points hit the no-op
    # tracer when tracing is off.  Time that no-op directly and scale
    # by how many spans the traced run actually produced.
    n_spans = sum(int(a["count"]) for a in tracer.totals().values())
    n_probe = 200_000
    probe_start = time.perf_counter()
    for _ in range(n_probe):
        with obs.span("probe"):
            pass
    noop_call_s = (time.perf_counter() - probe_start) / n_probe
    disabled_overhead_pct = (
        n_spans * noop_call_s / untraced_s * 100.0 if untraced_s else 0.0
    )
    print(
        f"disabled-path cost: {n_spans} no-op spans x "
        f"{noop_call_s * 1e9:.0f} ns = {disabled_overhead_pct:.4f}% "
        f"of the untraced run"
    )

    # Resilience overhead: the retry/fault accounting wrapper on the
    # chunk path, with no faults actually injected.  Best-of-two again.
    from repro.api import ResilienceConfig

    resilient = SerialExecutor(
        resilience=ResilienceConfig(policy="retry_then_raise")
    )
    resilient_a, resilient_estimates = _time_run(
        dataset, truth, resilient, n_trials=args.trials, seed=args.seed
    )
    resilient_b, _ = _time_run(
        dataset, truth, resilient, n_trials=args.trials, seed=args.seed
    )
    resilient_s = min(resilient_a, resilient_b)
    resilience_overhead_pct = (
        (resilient_s - untraced_s) / untraced_s * 100.0 if untraced_s else 0.0
    )
    resilient_identical = bool(
        np.array_equal(serial_estimates, resilient_estimates)
    )
    print(
        f"serial+resilience: {resilient_s:5.3f} s "
        f"(resilience overhead {resilience_overhead_pct:+.2f}%)"
    )

    with ProcessExecutor(max_workers=args.workers) as pool:
        # Warm the pool so worker start-up is not billed to the trials.
        pool.map(abs, range(args.workers))
        parallel_s, parallel_estimates = _time_run(
            dataset, truth, pool, n_trials=args.trials, seed=args.seed
        )
    print(
        f"process:{args.workers:<2}     {parallel_s:8.3f} s "
        f"(speedup {serial_s / parallel_s:.2f}x)"
    )

    identical = bool(np.array_equal(serial_estimates, parallel_estimates))
    print(f"bit-identical estimates: {identical}")

    # Batched contention solver vs the scalar test oracle: solve every
    # simulated scenario on the baseline machine through both, best-of-
    # two, and verify the solutions are bit-identical (frozen
    # dataclasses compare field-by-field).  The acceptance bar for the
    # vectorised path is >= 5x on this population.
    from repro.api import BASELINE, solve_colocation_batch

    if str(REPO_ROOT) not in sys.path:
        sys.path.insert(0, str(REPO_ROOT))
    from tests.perfmodel.scalar_oracle import solve_colocation

    solver_machine = BASELINE(dataset.shape.perf)
    population = [list(s.instances) for s in dataset.scenarios]

    def _solve_scalar():
        return [solve_colocation(solver_machine, inst) for inst in population]

    scalar_runs = [_timed(_solve_scalar) for _ in range(2)]
    scalar_solver_s = min(t for t, _ in scalar_runs)
    batched_runs = [
        _timed(lambda: solve_colocation_batch(solver_machine, population))
        for _ in range(2)
    ]
    batched_solver_s = min(t for t, _ in batched_runs)
    batch_identical = scalar_runs[0][1] == batched_runs[0][1]
    batch_solver_speedup_x = (
        scalar_solver_s / batched_solver_s if batched_solver_s else 0.0
    )
    print(
        f"solver: scalar {scalar_solver_s:.3f} s, "
        f"batched {batched_solver_s:.3f} s "
        f"(speedup {batch_solver_speedup_x:.1f}x); "
        f"bit-identical solutions: {batch_identical}"
    )

    # Throughput at several batch sizes, so regressions in the batch
    # layout (padding waste, per-row Python overhead) are visible even
    # when the headline speedup holds.
    batch_throughput_scn_s = {}
    for size in sorted({8, 32, 128, len(population)}):
        if size > len(population):
            continue

        def _solve_chunked(chunk=size):
            for start in range(0, len(population), chunk):
                solve_colocation_batch(
                    solver_machine, population[start : start + chunk]
                )

        chunked_s = min(_timed(_solve_chunked)[0] for _ in range(2))
        batch_throughput_scn_s[str(size)] = round(
            len(population) / chunked_s if chunked_s else 0.0, 1
        )
    print(f"solver throughput (scenarios/s by batch size): "
          f"{batch_throughput_scn_s}")

    # Scenario-store throughput + streaming-fit overhead.
    from repro.api import Flare, FlareConfig, write_store

    store_path = RESULTS_PATH.parent / "smoke_store"
    write_start = time.perf_counter()
    store = write_store(
        dataset, store_path, shard_size=64, overwrite=True
    )
    write_s = time.perf_counter() - write_start
    store_mb = store.bytes_total / (1024.0 * 1024.0)

    read_start = time.perf_counter()
    decoded_rows = sum(len(batch) for batch in store.iter_batches())
    read_s = time.perf_counter() - read_start
    assert decoded_rows == len(dataset)
    store_write_mb_s = store_mb / write_s if write_s else 0.0
    store_read_mb_s = store_mb / read_s if read_s else 0.0
    print(
        f"store: {store_mb:.2f} MiB in {store.n_shards} shards; "
        f"write {store_write_mb_s:.1f} MiB/s, "
        f"read {store_read_mb_s:.1f} MiB/s"
    )

    # Parallel profiling: profile a store through the serial path and
    # through process pools of 1/2/4 workers (the parent reads each
    # shard's tables and ships slices of them by value).  Pools
    # are warmed before timing, best-of-two each.  The local gate scales
    # with the cores actually present: speedup[w] >= 0.8 * min(w, cores)
    # — on a single core the process backend may not lose more than 20%
    # to dispatch overhead; with real cores it must win.  Dispatch cost
    # is per-window, so the gate is measured at >= 800 scenarios where
    # solver work dominates and the ratio is stable run-to-run.
    from repro.api import Profiler

    dispatch_n = max(args.scenarios, 800)
    if dispatch_n == len(dataset):
        dispatch_dataset, dispatch_store = dataset, store
    else:
        dispatch_dataset = run_simulation(
            DatacenterConfig(
                seed=args.seed, target_unique_scenarios=dispatch_n
            )
        ).dataset
        dispatch_store = write_store(
            dispatch_dataset,
            RESULTS_PATH.parent / "smoke_dispatch_store",
            shard_size=64,
            overwrite=True,
        )

    profile_serial_s, serial_profiled = min(
        (
            _timed(lambda: Profiler().profile(dispatch_store))
            for _ in range(2)
        ),
        key=lambda pair: pair[0],
    )
    print(
        f"profile serial:    {profile_serial_s:7.3f} s "
        f"({len(dispatch_dataset)} scenarios)"
    )

    cpu_count = available_workers()
    profile_parallel_s: dict[str, float] = {}
    profile_speedup: dict[str, float] = {}
    pool_matrices = {}
    for n_workers in (1, 2, 4):
        with ProcessExecutor(max_workers=n_workers) as pool:
            pool.map(abs, range(n_workers))  # warm the workers
            wall, profiled = min(
                (
                    _timed(
                        lambda: Profiler().profile(
                            dispatch_store, runtime=pool
                        )
                    )
                    for _ in range(2)
                ),
                key=lambda pair: pair[0],
            )
        profile_parallel_s[str(n_workers)] = round(wall, 4)
        profile_speedup[str(n_workers)] = round(
            profile_serial_s / wall if wall else 0.0, 3
        )
        pool_matrices[n_workers] = profiled.matrix
        print(
            f"profile process:{n_workers}  {wall:7.3f} s "
            f"(speedup {profile_speedup[str(n_workers)]:.2f}x, "
            f"gate >= {0.8 * min(n_workers, cpu_count):.2f}x)"
        )

    # Every run must produce the bit-identical matrix: the pools on the
    # store (above), a serial executor, and process:2 on the in-memory
    # dataset, against the inline profiles of both sources.
    with SerialExecutor() as serial_pool:
        pool_matrices["serial"] = (
            Profiler().profile(dispatch_store, runtime=serial_pool).matrix
        )
    in_memory_profiled = Profiler().profile(
        dispatch_dataset, runtime="process:2"
    )
    inline_profiled = Profiler().profile(dispatch_dataset)
    dispatch_identical = bool(
        all(
            np.array_equal(serial_profiled.matrix, matrix)
            for matrix in pool_matrices.values()
        )
        and np.array_equal(serial_profiled.matrix, inline_profiled.matrix)
        and np.array_equal(inline_profiled.matrix, in_memory_profiled.matrix)
    )
    runtime_speedup_ok = all(
        profile_speedup[str(w)] >= 0.8 * min(w, cpu_count)
        for w in (1, 2, 4)
    )
    print(
        f"parallel profiles bit-identical: {dispatch_identical}; "
        f"speedup gate: {'ok' if runtime_speedup_ok else 'FAILED'}"
    )

    fit_config = FlareConfig()
    memory_fit_s = min(
        _timed(lambda: Flare(fit_config).fit(dataset))[0]
        for _ in range(2)
    )
    stream_times = [_timed(lambda: Flare(fit_config).fit(store)) for _ in range(2)]
    streaming_fit_s = min(t for t, _ in stream_times)
    streaming_flare = stream_times[0][1]
    memory_flare = Flare(fit_config).fit(dataset)
    streaming_fit_overhead_pct = (
        (streaming_fit_s - memory_fit_s) / memory_fit_s * 100.0
        if memory_fit_s
        else 0.0
    )
    assignments_identical = bool(
        np.array_equal(
            memory_flare.analysis.kmeans.labels,
            streaming_flare.analysis.kmeans.labels,
        )
    )
    print(
        f"fit: in-memory {memory_fit_s:.3f} s, "
        f"streaming {streaming_fit_s:.3f} s "
        f"(overhead {streaming_fit_overhead_pct:+.2f}%, budget < 10%); "
        f"assignments identical: {assignments_identical}"
    )

    # Fleet-health observatory overhead.  The drift monitor rides the
    # profiling pass, so its own cost is the per-batch scoring math —
    # probe that directly (like the disabled-tracer path): profile the
    # store once into cached batches, time the scoring loop over them,
    # and bill it against the profiling wall it rides on.  A wall-clock
    # delta of two ~0.5 s passes cannot resolve a 2% budget; the probe
    # can.
    from repro.api import DriftMonitor, DriftState, RunLedger, record_run

    monitor = DriftMonitor(memory_flare)
    fit_profiler = fit_config.make_profiler()
    dispatch_durations = dispatch_store.durations()

    def _profile_batches():
        return [
            (
                batch.matrix,
                dispatch_durations[
                    batch.start_row : batch.start_row + batch.matrix.shape[0]
                ],
            )
            for batch in fit_profiler.iter_profile(dispatch_store)
        ]

    profile_runs = [_timed(_profile_batches) for _ in range(2)]
    monitor_profile_s = min(t for t, _ in profile_runs)
    profiled_batches = profile_runs[0][1]

    def _score_batches():
        state = DriftState(n_clusters=monitor.baseline.n_clusters)
        for matrix, durations in profiled_batches:
            state = state.merge(monitor.batch_state(matrix, durations))
        return state

    score_runs = [_timed(_score_batches) for _ in range(2)]
    monitor_score_s = min(t for t, _ in score_runs)
    monitor_overhead_pct = (
        monitor_score_s / monitor_profile_s * 100.0
        if monitor_profile_s
        else 0.0
    )
    monitor_gate_enforced = monitor_profile_s >= MIN_GATE_WALL_S
    monitor_overhead_ok = (
        monitor_overhead_pct < OVERHEAD_BUDGET_PCT
        or not monitor_gate_enforced
    )
    drift_report = monitor.report(score_runs[0][1])
    drift_report_path = RESULTS_PATH.parent / "drift_report.json"
    drift_report_path.write_text(
        json.dumps(drift_report.to_dict(), indent=2, sort_keys=True) + "\n"
    )
    print(
        f"monitor: scoring {monitor_score_s * 1e3:.1f} ms on a "
        f"{monitor_profile_s:.3f} s profiling pass "
        f"(overhead {monitor_overhead_pct:.3f}%, "
        f"status {drift_report.status}); report -> {drift_report_path}"
    )

    # Ledger overhead: one fsync'd append per instrumented run, probed
    # directly (like the disabled-tracer path) and billed against the
    # fit that emits it.
    probe_path = RESULTS_PATH.parent / "ledger_probe.jsonl"
    probe_path.unlink(missing_ok=True)
    probe_ledger = RunLedger(probe_path)
    n_appends = 64
    probe_start = time.perf_counter()
    for i in range(n_appends):
        record_run(
            "probe", metrics={"i": float(i)}, ledger=probe_ledger
        )
    ledger_append_s = (time.perf_counter() - probe_start) / n_appends
    probe_path.unlink(missing_ok=True)
    ledger_overhead_pct = (
        ledger_append_s / memory_fit_s * 100.0 if memory_fit_s else 0.0
    )
    ledger_gate_enforced = memory_fit_s >= MIN_GATE_WALL_S
    ledger_overhead_ok = (
        ledger_overhead_pct < OVERHEAD_BUDGET_PCT
        or not ledger_gate_enforced
    )
    obs_overhead_ok = monitor_overhead_ok and ledger_overhead_ok
    print(
        f"ledger: {ledger_append_s * 1e3:.2f} ms/append = "
        f"{ledger_overhead_pct:.3f}% of a fit; "
        f"observatory gate: {'ok' if obs_overhead_ok else 'FAILED'}"
    )

    ok = (
        identical
        and traced_identical
        and resilient_identical
        and assignments_identical
        and batch_identical
        and dispatch_identical
        and runtime_speedup_ok
        and tracing_overhead_ok
        and obs_overhead_ok
    )

    # One schema-versioned RunRecord through the run-ledger API: config
    # knobs, flat numeric metrics (nested values dotted, matching what
    # the legacy-record reader produces), gate booleans as labels, and
    # the traced section's span breakdown as explicit stages.  This is
    # the history `repro ledger check` gates.
    metrics = {
        "serial_s": round(serial_s, 4),
        "parallel_s": round(parallel_s, 4),
        "speedup": round(serial_s / parallel_s, 3),
        "untraced_s": round(untraced_s, 4),
        "traced_s": round(traced_s, 4),
        "tracing_overhead_pct": round(overhead_pct, 3),
        "disabled_overhead_pct": round(disabled_overhead_pct, 4),
        "resilient_s": round(resilient_s, 4),
        "resilience_overhead_pct": round(resilience_overhead_pct, 3),
        "store_mb": round(store_mb, 3),
        "store_n_shards": store.n_shards,
        "store_write_mb_s": round(store_write_mb_s, 2),
        "store_read_mb_s": round(store_read_mb_s, 2),
        "memory_fit_s": round(memory_fit_s, 4),
        "streaming_fit_s": round(streaming_fit_s, 4),
        "streaming_fit_overhead_pct": round(streaming_fit_overhead_pct, 3),
        "profile_serial_s": round(profile_serial_s, 4),
        "scalar_solver_s": round(scalar_solver_s, 4),
        "batched_solver_s": round(batched_solver_s, 4),
        "batch_solver_speedup_x": round(batch_solver_speedup_x, 2),
        "monitor_score_s": round(monitor_score_s, 6),
        "monitor_profile_s": round(monitor_profile_s, 4),
        "monitor_overhead_pct": round(monitor_overhead_pct, 3),
        "monitor_psi_total": round(drift_report.psi_total, 6),
        "monitor_novelty_rate": round(drift_report.novelty_rate, 4),
        "ledger_append_s": round(ledger_append_s, 6),
        "ledger_overhead_pct": round(ledger_overhead_pct, 4),
    }
    for n_workers, wall in profile_parallel_s.items():
        metrics[f"profile_parallel_s.{n_workers}"] = wall
    for n_workers, ratio in profile_speedup.items():
        metrics[f"profile_speedup.{n_workers}"] = ratio
    for size, throughput in batch_throughput_scn_s.items():
        metrics[f"batch_throughput_scn_s.{size}"] = throughput
    ledger = RunLedger(args.ledger if args.ledger else RESULTS_PATH)
    record = record_run(
        "bench",
        config={
            "workers": args.workers,
            "n_trials": args.trials,
            "n_scenarios": len(dataset),
            "dispatch_n_scenarios": len(dispatch_dataset),
            "seed": args.seed,
        },
        metrics=metrics,
        labels={
            "bit_identical": identical,
            "traced_bit_identical": traced_identical,
            "resilient_bit_identical": resilient_identical,
            "streaming_assignments_identical": assignments_identical,
            "runtime_speedup_ok": runtime_speedup_ok,
            "dispatch_identical": dispatch_identical,
            "batch_identical": batch_identical,
            "tracing_overhead_ok": tracing_overhead_ok,
            "tracing_gate_enforced": tracing_gate_enforced,
            "monitor_status": drift_report.status,
            "obs_overhead_ok": obs_overhead_ok,
            "ok": ok,
        },
        stages=stage_breakdown,
        ledger=ledger,
    )
    print(f"recorded {record.run_id} -> {ledger.path}")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
