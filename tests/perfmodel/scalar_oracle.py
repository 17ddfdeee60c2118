"""Scalar reference implementations: the oracles the batched code must match.

The contention solver in ``src/`` is one batched fixed point
(:func:`repro.perfmodel.batch.solve_colocation_batch`), and
:func:`repro.perfmodel.contention.solve_colocation` is its one-row
form.  This module keeps the historical per-scenario implementations,
moved here unchanged, so the differential batteries compare the batch
against an independent reference rather than against itself:

* :func:`solve_colocation` — the per-scenario damped fixed point with
  per-instance Python CPI-stack assembly (:func:`_build_stack`);
* :func:`temporal_metrics_scalar` — the per-sample loop over
  :func:`repro.telemetry.profiler._level_metrics` that the vectorised
  ``Profiler._temporal_metrics`` must reproduce bit for bit (formerly
  ``Profiler._temporal_metrics_scalar``; it solves through the oracle
  above);
* :func:`solve_colocation_lanes` — the oracle packed into the batch
  solver's lane arrays, so columnar callers can be routed through it;
* :func:`row_sums` — the historical per-row loop behind the batch
  solver's count-grouped ``_row_sums``;
* :func:`routed_through_oracle` — a context that sends every solve the
  library makes through the oracle, for end-to-end comparisons.
"""

from __future__ import annotations

import collections
import contextlib

import numpy as np

from repro.perfmodel.contention import (
    _BRANCH_PENALTY_CYCLES,
    _BW_CONGESTION_GAIN,
    _BW_UTIL_CAP,
    _CACHE_LINE_BYTES,
    _DAMPING,
    _L2_BLOCKING,
    _LLC_HIT_BLOCKING,
    _MAX_ITERATIONS,
    _RELATIVE_TOLERANCE,
    ColocationPerformance,
    InstancePerformance,
    RunningInstance,
    _core_throughput_factor,
)
from repro.perfmodel.cpistack import CPIStack
from repro.perfmodel.machine import MachinePerf
from repro.perfmodel.mrc import hyperbolic_miss_ratio
from repro.perfmodel.signatures import JobSignature
from repro.telemetry.metrics import (
    TEMPORAL_BASES,
    MetricLevel,
    temporal_metric_name,
)
from repro.telemetry.profiler import _level_metrics

__all__ = [
    "routed_through_oracle",
    "row_sums",
    "solve_colocation",
    "solve_colocation_lanes",
    "temporal_metrics_scalar",
]


@contextlib.contextmanager
def routed_through_oracle(monkeypatch):
    """Route every solve in the library through :func:`solve_colocation`.

    Every caller looks the solver up on :mod:`repro.perfmodel.batch` at
    call time: ``solve_colocation_batch`` (the batch-many helpers and
    the one-row public ``solve_colocation``) or
    ``solve_colocation_lanes`` (the full-datacenter truth and the
    inherent-MIPS normalisers).  Patching those two attributes
    reroutes the Profiler, the Replayer and the truth baseline.  The
    context yields a :class:`collections.Counter` of oracle calls by
    patched name, so a test can assert the oracle really ran.  The
    process-global solve caches are emptied on entry and exit, so no
    batch-solved entry answers an oracle run or the reverse.  Serial
    code paths only: process workers do not see the patch.
    """
    from repro.core.performance import inherent_mips
    from repro.perfmodel import batch as batch_module
    from repro.perfmodel.contention import solve_colocation_cached

    calls: collections.Counter = collections.Counter()

    def solve(machine, scenarios):
        if isinstance(scenarios, batch_module.ScenarioBatch):
            raise TypeError("the oracle solves instance lists only")
        calls["solve_colocation_batch"] += 1
        return [solve_colocation(machine, instances) for instances in scenarios]

    def solve_lanes(machine, batch):
        calls["solve_colocation_lanes"] += 1
        return solve_colocation_lanes(machine, batch)

    def clear():
        solve_colocation_cached.cache_clear()
        inherent_mips.cache_clear()

    clear()
    with monkeypatch.context() as patch:
        patch.setattr(batch_module, "solve_colocation_batch", solve)
        patch.setattr(batch_module, "solve_colocation_lanes", solve_lanes)
        try:
            yield calls
        finally:
            clear()


def solve_colocation_lanes(machine: MachinePerf, batch):
    """The oracle's solutions of *batch*'s rows, packed as lane arrays.

    Each row is rebuilt into its :class:`RunningInstance` list, solved
    by :func:`solve_colocation`, and its object fields copied into the
    matching :class:`~repro.perfmodel.batch.ColocationLanes` arrays;
    ``branch`` ... ``smt`` are the CPI-stack components.
    """
    from repro.perfmodel.batch import LANE_FIELDS, ColocationLanes

    n_rows, width = batch.sig_index.shape
    lanes = ColocationLanes(
        **{name: np.zeros((n_rows, width)) for name in LANE_FIELDS},
        frequency_ghz=np.zeros(n_rows),
        cpu_utilization=np.zeros(n_rows),
        mem_bw_utilization=np.zeros(n_rows),
        mem_latency_ns=np.zeros(n_rows),
        converged=np.zeros(n_rows, dtype=bool),
        iterations=np.zeros(n_rows, dtype=np.intp),
    )
    stack_fields = {"branch", "l2", "llc_hit", "dram", "smt"}
    for row, count in enumerate(batch.counts.tolist()):
        instances = [
            RunningInstance(
                signature=batch.signatures[batch.sig_index[row, lane]],
                load=float(batch.loads[row, lane]),
            )
            for lane in range(count)
        ]
        solution = solve_colocation(machine, instances)
        for lane, perf in enumerate(solution.instances):
            for name in LANE_FIELDS:
                source = perf.cpi_stack if name in stack_fields else perf
                getattr(lanes, name)[row, lane] = getattr(source, name)
            lanes.frequency_ghz[row] = perf.frequency_ghz
        lanes.cpu_utilization[row] = solution.cpu_utilization
        lanes.mem_bw_utilization[row] = solution.mem_bw_utilization
        lanes.mem_latency_ns[row] = solution.mem_latency_ns
        lanes.converged[row] = solution.converged
        lanes.iterations[row] = solution.iterations
    return lanes


def row_sums(matrix: np.ndarray, counts) -> np.ndarray:
    """Per-row sums over each row's first ``counts[i]`` lanes, row by row.

    The historical loop the count-grouped ``_row_sums`` of
    :mod:`repro.perfmodel.batch` replaced: one ``ndarray.sum`` per
    contiguous prefix slice.
    """
    out = np.empty(len(counts))
    for i, count in enumerate(counts):
        out[i] = matrix[i, :count].sum()
    return out


def solve_colocation(
    machine: MachinePerf,
    instances: list[RunningInstance] | tuple[RunningInstance, ...],
) -> ColocationPerformance:
    """Solve the contention fixed point for *instances* on *machine*."""
    if not instances:
        return ColocationPerformance(
            machine=machine,
            instances=(),
            cpu_utilization=0.0,
            mem_bw_utilization=0.0,
            mem_latency_ns=machine.mem_latency_ns,
            converged=True,
            iterations=0,
        )

    n = len(instances)
    busy = np.array([inst.busy_threads for inst in instances])
    total_busy = float(busy.sum())
    freq = machine.effective_frequency_ghz(total_busy)
    core_factor = _core_throughput_factor(machine, total_busy)

    sigs = [inst.signature for inst in instances]
    llc_apki = np.array([s.llc_apki for s in sigs])
    write_fraction = np.array([s.write_fraction for s in sigs])
    # MRC parameters as arrays so the miss ratio is evaluated through the
    # shared vectorised helper — the batched solver evaluates the exact
    # same expression on the exact same dtype, keeping the paths
    # bit-identical (numpy array ``**`` != Python scalar ``**``).
    mrc_half = np.array([s.mrc.half_capacity_mb for s in sigs])
    mrc_shape = np.array([s.mrc.shape for s in sigs])
    mrc_floor = np.array([s.mrc.floor for s in sigs])

    # Initial guess: equal cache shares, unloaded memory latency.
    inst_rate = np.full(n, 1e9)
    mem_latency = machine.mem_latency_ns
    shares = np.full(n, machine.llc_mb / n)
    converged = False
    iterations = 0

    for iterations in range(1, _MAX_ITERATIONS + 1):
        # --- LLC partitioning: proportional to access rate -------------
        access_rate = inst_rate * llc_apki / 1000.0
        total_access = access_rate.sum()
        if total_access > 0.0:
            target_shares = machine.llc_mb * access_rate / total_access
        else:
            target_shares = np.full(n, machine.llc_mb / n)
        shares = _DAMPING * shares + (1.0 - _DAMPING) * target_shares

        miss_ratio = hyperbolic_miss_ratio(shares, mrc_half, mrc_shape, mrc_floor)
        mpki = llc_apki * miss_ratio

        # --- DRAM bandwidth congestion ----------------------------------
        bytes_per_instr = (
            mpki / 1000.0 * _CACHE_LINE_BYTES * (1.0 + write_fraction)
        )
        traffic_gbps = inst_rate * bytes_per_instr / 1e9
        util = min(float(traffic_gbps.sum()) / machine.mem_bw_gbps, _BW_UTIL_CAP)
        mem_latency = machine.mem_latency_ns * (
            1.0 + _BW_CONGESTION_GAIN * util * util / (1.0 - util)
        )

        # --- CPI stacks and instruction rates ---------------------------
        new_rate = np.empty(n)
        for i, sig in enumerate(sigs):
            stack = _build_stack(
                machine, sig, freq, miss_ratio[i], mem_latency, core_factor
            )
            new_rate[i] = busy[i] * freq * 1e9 / stack.total

        if np.allclose(new_rate, inst_rate, rtol=_RELATIVE_TOLERANCE, atol=1.0):
            inst_rate = new_rate
            converged = True
            break
        inst_rate = _DAMPING * inst_rate + (1.0 - _DAMPING) * new_rate

    # Final consistent pass with the converged rates.
    access_rate = inst_rate * llc_apki / 1000.0
    total_access = access_rate.sum()
    if total_access > 0.0:
        shares = machine.llc_mb * access_rate / total_access
    miss_ratio = hyperbolic_miss_ratio(shares, mrc_half, mrc_shape, mrc_floor)
    mpki = llc_apki * miss_ratio
    bytes_per_instr = (
        mpki / 1000.0 * _CACHE_LINE_BYTES * (1.0 + write_fraction)
    )
    traffic_gbps = inst_rate * bytes_per_instr / 1e9
    raw_util = float(traffic_gbps.sum()) / machine.mem_bw_gbps
    util = min(raw_util, _BW_UTIL_CAP)
    mem_latency = machine.mem_latency_ns * (
        1.0 + _BW_CONGESTION_GAIN * util * util / (1.0 - util)
    )

    results = []
    for i, (inst, sig) in enumerate(zip(instances, sigs)):
        stack = _build_stack(
            machine, sig, freq, miss_ratio[i], mem_latency, core_factor
        )
        rate = busy[i] * freq * 1e9 / stack.total
        results.append(
            InstancePerformance(
                job_name=sig.name,
                priority=sig.priority,
                mips=rate / 1e6,
                ipc=1.0 / stack.total,
                cpi_stack=stack,
                busy_threads=float(busy[i]),
                cache_share_mb=float(shares[i]),
                llc_miss_ratio=float(miss_ratio[i]),
                llc_mpki=float(mpki[i]),
                dram_gbps=float(rate * bytes_per_instr[i] / 1e9),
                network_gbps=float(rate * sig.network_bytes_per_instr * 8.0 / 1e9),
                disk_mbps=float(rate * sig.disk_bytes_per_instr / 1e6),
                frequency_ghz=freq,
            )
        )

    return ColocationPerformance(
        machine=machine,
        instances=tuple(results),
        cpu_utilization=min(total_busy / machine.hardware_threads, 1.0),
        mem_bw_utilization=raw_util,
        mem_latency_ns=mem_latency,
        converged=converged,
        iterations=iterations,
    )



def _build_stack(
    machine: MachinePerf,
    sig: JobSignature,
    freq_ghz: float,
    llc_miss_ratio: float,
    mem_latency_ns: float,
    core_factor: float,
) -> CPIStack:
    """Assemble the CPI stack for one instance at the current state."""
    branch = sig.branch_mpki / 1000.0 * _BRANCH_PENALTY_CYCLES
    l2_stall = sig.l2_apki / 1000.0 * _L2_BLOCKING * machine.l2_hit_cycles
    llc_hits_pki = sig.llc_apki * (1.0 - llc_miss_ratio)
    llc_hit_stall = (
        llc_hits_pki / 1000.0 * _LLC_HIT_BLOCKING * machine.llc_hit_cycles
    )
    dram_stall = (
        sig.llc_apki
        * llc_miss_ratio
        / 1000.0
        * mem_latency_ns
        * freq_ghz
        * sig.mem_blocking_factor
    )
    # Core sharing penalises cycles that need the pipeline (issue slots,
    # fetch bandwidth, on-core caches).  DRAM stall cycles overlap with the
    # co-resident thread, so memory-bound jobs are naturally SMT-friendly.
    core_side_cpi = (
        sig.base_cpi + sig.frontend_cpi + branch + l2_stall + llc_hit_stall
    )
    smt_penalty = (
        core_side_cpi * (1.0 / core_factor - 1.0) if core_factor < 1.0 else 0.0
    )
    return CPIStack(
        base=sig.base_cpi,
        frontend=sig.frontend_cpi,
        branch=branch,
        l2=l2_stall,
        llc_hit=llc_hit_stall,
        dram=dram_stall,
        smt=smt_penalty,
    )


def temporal_metrics_scalar(
    profiler,
    scenario,
    machine: MachinePerf,
    base_values: dict[str, float],
) -> dict[str, float]:
    """Reference implementation of ``Profiler._temporal_metrics``.

    The historical per-sample loop over :func:`_level_metrics`, kept
    as the ground truth the vectorised path must match bit-for-bit
    (see the differential test in ``tests/telemetry``).
    """
    rng = np.random.default_rng((profiler.seed, scenario.scenario_id))
    samples: dict[str, list[float]] = {}
    for level in (MetricLevel.MACHINE, MetricLevel.HP):
        for base in TEMPORAL_BASES:
            name = f"{base}-{level.value}"
            samples[name] = [base_values[name]]

    jittered_samples: list[list[RunningInstance]] = []
    for _ in range(profiler.temporal_samples):
        jittered = []
        for inst in scenario.instances:
            factor = 1.0 + rng.uniform(
                -profiler.temporal_jitter, profiler.temporal_jitter
            )
            load = float(np.clip(inst.load * factor, 0.05, 1.0))
            jittered.append(
                RunningInstance(signature=inst.signature, load=load)
            )
        jittered_samples.append(jittered)
    solutions = [
        solve_colocation(machine, jittered) for jittered in jittered_samples
    ]
    for jittered, solution in zip(jittered_samples, solutions):
        pairs = list(zip(jittered, solution.instances))
        for level, selector in (
            (MetricLevel.MACHINE, lambda _: True),
            (MetricLevel.HP, lambda perf: perf.is_high_priority),
        ):
            subset = [(ri, pi) for ri, pi in pairs if selector(pi)]
            level_values = _level_metrics(
                subset,
                scenario.total_vcpus,
                1.0,
                machine,
            )
            for base in TEMPORAL_BASES:
                samples[f"{base}-{level.value}"].append(
                    level_values[base]
                )

    out = {}
    for level in (MetricLevel.MACHINE, MetricLevel.HP):
        for base in TEMPORAL_BASES:
            series = np.asarray(samples[f"{base}-{level.value}"])
            out[temporal_metric_name(base, level)] = float(
                series.std(ddof=0)
            )
    return out
