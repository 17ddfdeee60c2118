"""Batched structure-of-arrays contention solving: the one solver.

Every caller — the Profiler, the Replayer, the full-datacenter
baseline, and one-scenario calls through
:func:`repro.perfmodel.contention.solve_colocation` — solves through
this module:

* :class:`ScenarioBatch` packs a scenario population into a
  structure-of-arrays layout: a signature table deduplicated by job
  signature (in practice: by job name, since the catalogue maps each
  name to one signature), per-scenario instance index arrays padded
  into dense ``(n_scenarios, max_instances)`` matrices, and a validity
  mask marking real lanes.
* :func:`solve_colocation_lanes` runs the damped fixed point — LLC
  shares, miss ratios, bandwidth pressure, CPI stacks, instruction
  rates — as whole-matrix numpy ops over every scenario
  simultaneously, with an active-scenario convergence mask so
  converged rows freeze while stragglers iterate, and returns the
  results as lane arrays (:class:`ColocationLanes`).
* :func:`colocation_objects` turns lane arrays into
  :class:`ColocationPerformance` objects without further arithmetic;
  :func:`solve_colocation_batch` is the lanes core followed by it.

**Row independence.**  A scenario's result does not depend on which
batch it is solved in, bit for bit.  Every arithmetic step is
elementwise IEEE-754 (``+ - * / minimum``), the single transcendental
(the MRC ``pow``) goes through
:func:`repro.perfmodel.mrc.hyperbolic_miss_ratio` on ndarrays, and
per-scenario reductions sum exactly the scenario's lane count (never
padded lanes, whose different lengths could change numpy's
pairwise-summation tree).  The test suite keeps
the historical per-scenario scalar fixed point as an oracle
(``tests/perfmodel/scalar_oracle.py``) and checks this solver against
it bit for bit on hypothesis-generated populations and golden
fixtures.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .contention import (
    _BRANCH_PENALTY_CYCLES,
    _BW_CONGESTION_GAIN,
    _BW_UTIL_CAP,
    _CACHE_LINE_BYTES,
    _DAMPING,
    _L2_BLOCKING,
    _LLC_HIT_BLOCKING,
    _MAX_ITERATIONS,
    _RELATIVE_TOLERANCE,
    _SOLVE_CACHE,
    _SolveCache,
    _core_throughput_factor,
    ColocationPerformance,
    InstancePerformance,
    RunningInstance,
)
from .cpistack import CPIStack
from .machine import MachinePerf
from .mrc import hyperbolic_miss_ratio
from .signatures import JobSignature

__all__ = [
    "ColocationLanes",
    "ScenarioBatch",
    "colocation_objects",
    "solve_colocation_batch",
    "solve_colocation_lanes",
    "solve_colocation_many",
]

# Indices into ScenarioBatch.sig_params rows.
_P_LLC_APKI = 0
_P_L2_APKI = 1
_P_BRANCH_MPKI = 2
_P_BASE_CPI = 3
_P_FRONTEND_CPI = 4
_P_WRITE_FRACTION = 5
_P_MEM_BLOCKING = 6
_P_MRC_HALF = 7
_P_MRC_SHAPE = 8
_P_MRC_FLOOR = 9
_P_BUSY_BASE = 10
_N_PARAMS = 11


@dataclass(eq=False)
class ScenarioBatch:
    """Structure-of-arrays packing of a scenario population.

    Attributes
    ----------
    signatures:
        Deduplicated signature table.  Lanes reference it through
        ``sig_index``; a signature co-located in fifty scenarios is
        stored once.
    sig_params:
        ``(_N_PARAMS, n_signatures)`` float matrix of the solver-facing
        parameters of each table entry (APKIs, CPI components, MRC
        shape, ``vcpus * active_fraction`` busy base, ...).
    sig_index:
        ``(n_scenarios, max_instances)`` int lane -> table index.
        Padded lanes hold 0 (any valid index; they are masked out).
    loads:
        ``(n_scenarios, max_instances)`` per-lane load; 0.0 in padding.
    mask:
        ``(n_scenarios, max_instances)`` bool validity mask.
    counts:
        ``(n_scenarios,)`` instance count per scenario (may be 0).
    """

    signatures: tuple[JobSignature, ...]
    sig_params: np.ndarray
    sig_index: np.ndarray
    loads: np.ndarray
    mask: np.ndarray
    counts: np.ndarray

    @classmethod
    def from_instances(
        cls,
        scenarios: Sequence[Sequence[RunningInstance]],
    ) -> "ScenarioBatch":
        """Pack *scenarios* (each a sequence of instances) into a batch."""
        n_scenarios = len(scenarios)
        counts = np.array(
            [len(instances) for instances in scenarios], dtype=np.intp
        )
        max_instances = int(counts.max()) if n_scenarios else 0

        table: dict[JobSignature, int] = {}
        signatures: list[JobSignature] = []
        lane_sigs: list[int] = []
        lane_loads: list[float] = []
        for instances in scenarios:
            for inst in instances:
                sig = inst.signature
                idx = table.get(sig)
                if idx is None:
                    idx = table[sig] = len(signatures)
                    signatures.append(sig)
                lane_sigs.append(idx)
                lane_loads.append(inst.load)
        # Boolean-mask assignment fills lanes in row-major order, which
        # is scenario order, then instance order.
        mask = np.arange(max_instances) < counts[:, None]
        sig_index = np.zeros((n_scenarios, max_instances), dtype=np.intp)
        loads = np.zeros((n_scenarios, max_instances))
        sig_index[mask] = lane_sigs
        loads[mask] = lane_loads

        return cls(
            signatures=tuple(signatures),
            sig_params=_pack_sig_params(signatures),
            sig_index=sig_index,
            loads=loads,
            mask=mask,
            counts=counts,
        )

    def __len__(self) -> int:
        return len(self.counts)


def _pack_sig_params(signatures: Sequence[JobSignature]) -> np.ndarray:
    """The ``(_N_PARAMS, n_signatures)`` solver-parameter matrix."""
    sig_params = np.empty((_N_PARAMS, len(signatures)))
    for col, sig in enumerate(signatures):
        sig_params[_P_LLC_APKI, col] = sig.llc_apki
        sig_params[_P_L2_APKI, col] = sig.l2_apki
        sig_params[_P_BRANCH_MPKI, col] = sig.branch_mpki
        sig_params[_P_BASE_CPI, col] = sig.base_cpi
        sig_params[_P_FRONTEND_CPI, col] = sig.frontend_cpi
        sig_params[_P_WRITE_FRACTION, col] = sig.write_fraction
        sig_params[_P_MEM_BLOCKING, col] = sig.mem_blocking_factor
        sig_params[_P_MRC_HALF, col] = sig.mrc.half_capacity_mb
        sig_params[_P_MRC_SHAPE, col] = sig.mrc.shape
        sig_params[_P_MRC_FLOOR, col] = sig.mrc.floor
        # Same association order as RunningInstance.busy_threads:
        # (vcpus * active_fraction) * load, with the first product
        # taken here in plain Python floats.
        sig_params[_P_BUSY_BASE, col] = sig.vcpus * sig.active_fraction
    return sig_params


def _row_sums(matrix: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Per-row sums over each row's first ``counts[i]`` lanes.

    Every row is summed as a fresh ``counts[i]``-long array, never over
    padded lanes, so a row's sum does not depend on the batch's padding
    width or on the other rows.  The rows of each distinct count are
    gathered into one ``(rows, count)`` array and reduced along the
    lanes; numpy reduces each row of it with the pairwise-summation
    tree of a ``count``-long array, so the bits are those of a per-row
    ``matrix[i, :count].sum()``.
    """
    out = np.empty(len(counts))
    if not len(counts):
        return out
    order = np.argsort(counts, kind="stable")
    sorted_counts = counts[order]
    bounds = (np.flatnonzero(sorted_counts[1:] != sorted_counts[:-1]) + 1).tolist()
    for lo, hi in zip([0, *bounds], [*bounds, len(counts)]):
        rows = order[lo:hi]
        out[rows] = matrix[rows, : int(sorted_counts[lo])].sum(axis=1)
    return out


@dataclass(eq=False)
class ColocationLanes:
    """Columnar solve results: :class:`ColocationPerformance` as arrays.

    One row per scenario of the solved :class:`ScenarioBatch`, one
    column per lane.  Each per-lane matrix holds one
    :class:`InstancePerformance` field (the CPI-stack components are
    ``branch`` ... ``smt``; ``base`` and ``frontend`` are the
    signature's); padded lanes hold unspecified finite values.  The
    per-row vectors hold the :class:`ColocationPerformance` fields and
    the scenario's ``frequency_ghz``.  Every value is the exact float
    the object form carries.
    """

    mips: np.ndarray
    ipc: np.ndarray
    branch: np.ndarray
    l2: np.ndarray
    llc_hit: np.ndarray
    dram: np.ndarray
    smt: np.ndarray
    busy_threads: np.ndarray
    cache_share_mb: np.ndarray
    llc_miss_ratio: np.ndarray
    llc_mpki: np.ndarray
    dram_gbps: np.ndarray
    network_gbps: np.ndarray
    disk_mbps: np.ndarray
    frequency_ghz: np.ndarray
    cpu_utilization: np.ndarray
    mem_bw_utilization: np.ndarray
    mem_latency_ns: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray


#: The per-lane matrices of :class:`ColocationLanes`, in field order.
LANE_FIELDS = (
    "mips",
    "ipc",
    "branch",
    "l2",
    "llc_hit",
    "dram",
    "smt",
    "busy_threads",
    "cache_share_mb",
    "llc_miss_ratio",
    "llc_mpki",
    "dram_gbps",
    "network_gbps",
    "disk_mbps",
)


def solve_colocation_lanes(
    machine: MachinePerf, batch: ScenarioBatch
) -> ColocationLanes:
    """Solve every scenario in *batch* on *machine* into lane arrays.

    The fixed point itself: :func:`solve_colocation_batch` is this plus
    the step that builds objects, and columnar callers (the
    full-datacenter truth, the batched inherent-MIPS normalisers) read
    the arrays directly.  Each row's values are bit-identical whatever
    else is in the batch (see the module docstring).
    """
    n_total, width = batch.sig_index.shape
    nonempty = np.flatnonzero(batch.counts > 0)
    if nonempty.size == 0:
        return _empty_lanes(machine, n_total, width)

    counts = batch.counts[nonempty]
    sig_index = batch.sig_index[nonempty]
    loads = batch.loads[nonempty]
    lane_mask = batch.mask[nonempty]
    params = batch.sig_params

    # Per-lane parameter matrices, gathered once (constant across the
    # fixed-point iterations).  Padded lanes carry signature 0's
    # parameters with load 0 — every derived quantity there is finite
    # and excluded from the per-scenario reductions below.
    llc_apki = params[_P_LLC_APKI][sig_index]
    l2_apki = params[_P_L2_APKI][sig_index]
    branch_mpki = params[_P_BRANCH_MPKI][sig_index]
    base_cpi = params[_P_BASE_CPI][sig_index]
    frontend_cpi = params[_P_FRONTEND_CPI][sig_index]
    write_fraction = params[_P_WRITE_FRACTION][sig_index]
    mem_blocking = params[_P_MEM_BLOCKING][sig_index]
    mrc_half = params[_P_MRC_HALF][sig_index]
    mrc_shape = params[_P_MRC_SHAPE][sig_index]
    mrc_floor = params[_P_MRC_FLOOR][sig_index]
    busy = params[_P_BUSY_BASE][sig_index] * loads

    # Frequency and core sharing depend only on the (fixed) total busy
    # threads — one exact Python-float computation per scenario.
    total_busy = _row_sums(busy, counts)
    freq = np.empty(len(nonempty))
    core_factor = np.empty(len(nonempty))
    for i, busy_i in enumerate(total_busy.tolist()):
        freq[i] = machine.effective_frequency_ghz(busy_i)
        core_factor[i] = _core_throughput_factor(machine, busy_i)
    freq_col = freq[:, None]

    # Mutable fixed-point state.
    rate = np.where(lane_mask, 1e9, 0.0)
    counts_f = counts.astype(float)
    shares = np.where(lane_mask, (machine.llc_mb / counts_f)[:, None], 0.0)
    converged = np.zeros(len(nonempty), dtype=bool)
    iterations = np.full(len(nonempty), _MAX_ITERATIONS, dtype=np.intp)
    active = np.arange(len(nonempty))

    def _stack_totals(sub, miss_ratio, mem_latency_col, freq_sub_col, cf_sub):
        """CPI-stack component matrices for the row subset *sub*.

        Every expression keeps the association order of
        ``CPIStack.total``, so the returned ``total`` equals the total
        of the :class:`CPIStack` built from the components.
        """
        branch = branch_mpki[sub] / 1000.0 * _BRANCH_PENALTY_CYCLES
        l2_stall = l2_apki[sub] / 1000.0 * _L2_BLOCKING * machine.l2_hit_cycles
        llc_hits_pki = llc_apki[sub] * (1.0 - miss_ratio)
        llc_hit_stall = (
            llc_hits_pki / 1000.0 * _LLC_HIT_BLOCKING * machine.llc_hit_cycles
        )
        dram_stall = (
            llc_apki[sub]
            * miss_ratio
            / 1000.0
            * mem_latency_col
            * freq_sub_col
            * mem_blocking[sub]
        )
        core_side = (
            base_cpi[sub] + frontend_cpi[sub] + branch + l2_stall + llc_hit_stall
        )
        smt_factor = 1.0 / cf_sub - 1.0
        smt_penalty = np.where(
            (cf_sub < 1.0)[:, None], core_side * smt_factor[:, None], 0.0
        )
        total = core_side + dram_stall + smt_penalty
        return branch, l2_stall, llc_hit_stall, dram_stall, smt_penalty, total

    for iteration in range(1, _MAX_ITERATIONS + 1):
        if active.size == 0:
            break
        act_counts = counts[active]
        r = rate[active]

        # --- LLC partitioning: proportional to access rate -------------
        access_rate = r * llc_apki[active] / 1000.0
        total_access = _row_sums(access_rate, act_counts)
        has_access = total_access > 0.0
        safe_total = np.where(has_access, total_access, 1.0)
        target_shares = np.where(
            has_access[:, None],
            machine.llc_mb * access_rate / safe_total[:, None],
            (machine.llc_mb / counts_f[active])[:, None],
        )
        sh = _DAMPING * shares[active] + (1.0 - _DAMPING) * target_shares
        shares[active] = sh

        miss_ratio = hyperbolic_miss_ratio(
            sh, mrc_half[active], mrc_shape[active], mrc_floor[active]
        )
        mpki = llc_apki[active] * miss_ratio

        # --- DRAM bandwidth congestion ----------------------------------
        bytes_per_instr = (
            mpki / 1000.0 * _CACHE_LINE_BYTES * (1.0 + write_fraction[active])
        )
        traffic_gbps = r * bytes_per_instr / 1e9
        util = np.minimum(
            _row_sums(traffic_gbps, act_counts) / machine.mem_bw_gbps,
            _BW_UTIL_CAP,
        )
        mem_latency = machine.mem_latency_ns * (
            1.0 + _BW_CONGESTION_GAIN * util * util / (1.0 - util)
        )

        # --- CPI stacks and instruction rates ---------------------------
        *_, total_cpi = _stack_totals(
            active,
            miss_ratio,
            mem_latency[:, None],
            freq_col[active],
            core_factor[active],
        )
        new_rate = busy[active] * freq_col[active] * 1e9 / total_cpi

        # Convergence per row, mirroring np.allclose(new, old, rtol, atol=1)
        # elementwise; padded lanes compare 0 against 0 and never block.
        close = np.abs(new_rate - r) <= 1.0 + _RELATIVE_TOLERANCE * np.abs(r)
        row_converged = close.all(axis=1)

        conv_rows = active[row_converged]
        if conv_rows.size:
            # Scalar break semantics: the converging iteration assigns the
            # *undamped* rate and stops updating that scenario.
            rate[conv_rows] = new_rate[row_converged]
            converged[conv_rows] = True
            iterations[conv_rows] = iteration
        live = ~row_converged
        live_rows = active[live]
        if live_rows.size:
            rate[live_rows] = (
                _DAMPING * r[live] + (1.0 - _DAMPING) * new_rate[live]
            )
        active = live_rows

    # Final consistent pass with the converged rates, over all rows.
    access_rate = rate * llc_apki / 1000.0
    total_access = _row_sums(access_rate, counts)
    has_access = total_access > 0.0
    safe_total = np.where(has_access, total_access, 1.0)
    shares = np.where(
        has_access[:, None],
        machine.llc_mb * access_rate / safe_total[:, None],
        shares,
    )
    miss_ratio = hyperbolic_miss_ratio(shares, mrc_half, mrc_shape, mrc_floor)
    mpki = llc_apki * miss_ratio
    bytes_per_instr = (
        mpki / 1000.0 * _CACHE_LINE_BYTES * (1.0 + write_fraction)
    )
    traffic_gbps = rate * bytes_per_instr / 1e9
    raw_util = _row_sums(traffic_gbps, counts) / machine.mem_bw_gbps
    util = np.minimum(raw_util, _BW_UTIL_CAP)
    mem_latency = machine.mem_latency_ns * (
        1.0 + _BW_CONGESTION_GAIN * util * util / (1.0 - util)
    )
    branch, l2_stall, llc_hit_stall, dram_stall, smt_penalty, total_cpi = (
        _stack_totals(
            slice(None), miss_ratio, mem_latency[:, None], freq_col, core_factor
        )
    )
    final_rate = busy * freq_col * 1e9 / total_cpi
    network = np.array(
        [sig.network_bytes_per_instr for sig in batch.signatures]
    )[sig_index]
    disk = np.array([sig.disk_bytes_per_instr for sig in batch.signatures])[
        sig_index
    ]

    solved = ColocationLanes(
        mips=final_rate / 1e6,
        ipc=1.0 / total_cpi,
        branch=branch,
        l2=l2_stall,
        llc_hit=llc_hit_stall,
        dram=dram_stall,
        smt=smt_penalty,
        busy_threads=busy,
        cache_share_mb=shares,
        llc_miss_ratio=miss_ratio,
        llc_mpki=mpki,
        dram_gbps=final_rate * bytes_per_instr / 1e9,
        network_gbps=final_rate * network * 8.0 / 1e9,
        disk_mbps=final_rate * disk / 1e6,
        frequency_ghz=freq,
        cpu_utilization=np.minimum(total_busy / machine.hardware_threads, 1.0),
        mem_bw_utilization=raw_util,
        mem_latency_ns=mem_latency,
        converged=converged,
        iterations=iterations,
    )
    if nonempty.size == n_total:
        return solved
    lanes = _empty_lanes(machine, n_total, width)
    for name, values in vars(solved).items():
        getattr(lanes, name)[nonempty] = values
    return lanes


def _empty_lanes(machine: MachinePerf, n_rows: int, width: int) -> ColocationLanes:
    """Lanes of *n_rows* empty scenarios: what an empty machine reports."""
    per_lane = {name: np.zeros((n_rows, width)) for name in LANE_FIELDS}
    return ColocationLanes(
        **per_lane,
        frequency_ghz=np.zeros(n_rows),
        cpu_utilization=np.zeros(n_rows),
        mem_bw_utilization=np.zeros(n_rows),
        mem_latency_ns=np.full(n_rows, machine.mem_latency_ns),
        converged=np.ones(n_rows, dtype=bool),
        iterations=np.zeros(n_rows, dtype=np.intp),
    )


def colocation_objects(
    machine: MachinePerf, batch: ScenarioBatch, lanes: ColocationLanes
) -> list[ColocationPerformance]:
    """Build one :class:`ColocationPerformance` per row of *lanes*.

    No arithmetic: every field is copied from the lane arrays (through
    ``tolist``, which yields the exact floats), and the CPI stack's
    ``base``/``frontend`` come from the lane's signature.
    """
    signatures = batch.signatures
    sig_rows = batch.sig_index.tolist()
    columns = [getattr(lanes, name).tolist() for name in LANE_FIELDS]
    row_columns = zip(
        batch.counts.tolist(),
        sig_rows,
        zip(*columns),
        lanes.frequency_ghz.tolist(),
        lanes.cpu_utilization.tolist(),
        lanes.mem_bw_utilization.tolist(),
        lanes.mem_latency_ns.tolist(),
        lanes.converged.tolist(),
        lanes.iterations.tolist(),
    )
    results: list[ColocationPerformance] = []
    for (
        count, sig_row, lane_rows, freq, cpu, mem_bw, latency, conv, iters
    ) in row_columns:
        perf: list[InstancePerformance] = []
        for (
            sig_i, mips, ipc, branch, l2, llc_hit, dram, smt, busy, share,
            miss_ratio, mpki, dram_gbps, network_gbps, disk_mbps,
        ) in zip(sig_row[:count], *lane_rows):
            sig = signatures[sig_i]
            perf.append(
                InstancePerformance(
                    job_name=sig.name,
                    priority=sig.priority,
                    mips=mips,
                    ipc=ipc,
                    cpi_stack=CPIStack(
                        base=sig.base_cpi,
                        frontend=sig.frontend_cpi,
                        branch=branch,
                        l2=l2,
                        llc_hit=llc_hit,
                        dram=dram,
                        smt=smt,
                    ),
                    busy_threads=busy,
                    cache_share_mb=share,
                    llc_miss_ratio=miss_ratio,
                    llc_mpki=mpki,
                    dram_gbps=dram_gbps,
                    network_gbps=network_gbps,
                    disk_mbps=disk_mbps,
                    frequency_ghz=freq,
                )
            )
        results.append(
            ColocationPerformance(
                machine=machine,
                instances=tuple(perf),
                cpu_utilization=cpu,
                mem_bw_utilization=mem_bw,
                mem_latency_ns=latency,
                converged=conv,
                iterations=iters,
            )
        )
    return results


def solve_colocation_batch(
    machine: MachinePerf,
    batch: ScenarioBatch | Sequence[Sequence[RunningInstance]],
) -> list[ColocationPerformance]:
    """Solve every scenario in *batch* on *machine* simultaneously.

    Returns one :class:`ColocationPerformance` per scenario, in batch
    order: :func:`solve_colocation_lanes` followed by
    :func:`colocation_objects`.  Each row's result is bit-identical
    whatever else is in the batch (see the module docstring).
    """
    if not isinstance(batch, ScenarioBatch):
        batch = ScenarioBatch.from_instances(batch)
    return colocation_objects(machine, batch, solve_colocation_lanes(machine, batch))


def solve_colocation_many(
    machine: MachinePerf,
    scenarios: Sequence[Sequence[RunningInstance]],
    *,
    cached: bool = False,
    memo=None,
) -> list[ColocationPerformance]:
    """Solve many scenarios as one batch, optionally through a cache.

    With ``cached=True`` the shared solve memo is consulted per
    scenario: hits are returned directly, misses are solved as one
    batch (deduplicated within the batch) and written back, so every
    caller of :func:`~repro.perfmodel.contention.solve_colocation_cached`
    shares one coherent cache.  A repeat of a scenario pending in the
    same batch counts as a hit, as a one-at-a-time caller would find
    it cached.

    ``memo`` accepts a :class:`~repro.perfmodel.memo.SolveMemo`, a memo
    spec string (``"memory"``/``"store:<path>"``), or ``None``/``"off"``.
    When active it supersedes ``cached=``: lookups go through the
    content-addressed two-tier memo (so hits survive across processes
    and runs), misses are solved as one batch and recorded back into
    both tiers.
    """
    if memo is not None:
        from .memo import resolve_memo

        live = resolve_memo(memo)
        if live is not None:
            return _solve_many_memoised(machine, scenarios, live)
    if not cached:
        return solve_colocation_batch(machine, scenarios)

    results: list[ColocationPerformance | None] = [None] * len(scenarios)
    pending: dict[tuple, list[int]] = {}
    miss_scenarios: list[tuple[RunningInstance, ...]] = []
    machine_key = _SolveCache.machine_key(machine)
    for i, raw in enumerate(scenarios):
        instances = tuple(raw)
        key = (machine_key, instances)
        hit = _SOLVE_CACHE.lookup(key)
        if hit is not None:
            results[i] = hit
            continue
        rows = pending.get(key)
        if rows is None:
            pending[key] = [i]
            miss_scenarios.append(instances)
        else:
            rows.append(i)
            _SOLVE_CACHE.count_pending_hit()
    if miss_scenarios:
        solved = solve_colocation_batch(machine, miss_scenarios)
        for (key, rows), solution in zip(pending.items(), solved):
            _SOLVE_CACHE.store(key, solution)
            for row in rows:
                results[row] = solution
    return results  # type: ignore[return-value]


def _solve_many_memoised(
    machine: MachinePerf,
    scenarios: Sequence[Sequence[RunningInstance]],
    memo,
) -> list[ColocationPerformance]:
    """Memo-first solve: hits from the memo, misses as one batch.

    Mirrors the ``cached=True`` pending-dict shape, but keyed on the
    content digest so hits carry across batches, processes, and runs.
    A repeat of a key pending in the same batch counts as a hit, as a
    one-at-a-time caller would find it solved.
    Misses solved here are recorded and flushed at the end of the call
    — one segment append per batch, which keeps concurrent writers to
    coarse atomic appends rather than per-solve churn.
    """
    results: list[ColocationPerformance | None] = [None] * len(scenarios)
    pending: dict[str, list[int]] = {}
    miss_scenarios: list[tuple[RunningInstance, ...]] = []
    for i, raw in enumerate(scenarios):
        instances = tuple(raw)
        key = memo.key_for(machine, instances)
        rows = pending.get(key)
        if rows is not None:
            rows.append(i)
            memo.count_pending_hit()
            continue
        hit = memo.lookup(key, machine, instances)
        if hit is not None:
            results[i] = hit
            continue
        pending[key] = [i]
        miss_scenarios.append(instances)
    if miss_scenarios:
        solved = solve_colocation_batch(machine, miss_scenarios)
        for (key, rows), solution in zip(pending.items(), solved):
            memo.record(key, solution)
            for row in rows:
                results[row] = solution
        memo.flush()
    return results  # type: ignore[return-value]
