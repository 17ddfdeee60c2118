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
* :func:`solve_colocation_batch` runs the damped fixed point — LLC
  shares, miss ratios, bandwidth pressure, CPI stacks, instruction
  rates — as whole-matrix numpy ops over every scenario
  simultaneously, with an active-scenario convergence mask so
  converged rows freeze while stragglers iterate.

**Row independence.**  A scenario's result does not depend on which
batch it is solved in, bit for bit.  Every arithmetic step is
elementwise IEEE-754 (``+ - * / minimum``), the single transcendental
(the MRC ``pow``) goes through
:func:`repro.perfmodel.mrc.hyperbolic_miss_ratio` on ndarrays, and
per-scenario reductions sum contiguous row slices of exactly the
scenario's lane count (never padded lanes, whose different lengths
could change numpy's pairwise-summation tree).  The test suite keeps
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
    "ScenarioBatch",
    "solve_colocation_batch",
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
        sig_index = np.zeros((n_scenarios, max_instances), dtype=np.intp)
        loads = np.zeros((n_scenarios, max_instances))
        mask = np.zeros((n_scenarios, max_instances), dtype=bool)
        for row, instances in enumerate(scenarios):
            for lane, inst in enumerate(instances):
                sig = inst.signature
                idx = table.get(sig)
                if idx is None:
                    idx = table[sig] = len(signatures)
                    signatures.append(sig)
                sig_index[row, lane] = idx
                loads[row, lane] = inst.load
                mask[row, lane] = True

        return cls(
            signatures=tuple(signatures),
            sig_params=_pack_sig_params(signatures),
            sig_index=sig_index,
            loads=loads,
            mask=mask,
            counts=counts,
        )

    @classmethod
    def from_tables(
        cls,
        scenario_table: np.ndarray,
        instance_table: np.ndarray,
        job_names: Sequence[str],
        signatures_by_job: dict[str, JobSignature],
    ) -> "ScenarioBatch":
        """Pack a batch straight from the store's columnar tables.

        *scenario_table* / *instance_table* are (slices of) the arrays
        the shard codec writes (:mod:`repro.store.format`) — typically
        memory-mapped or shared-memory backed, which is the zero-copy
        dispatch path: no :class:`RunningInstance` objects are
        materialised.  ``inst_offset`` values are absolute into
        *instance_table*, so any scenario-row slice pairs with the full
        instance table.

        Bit-identical to decoding the slice and calling
        :meth:`from_instances`: the signature table dedupes by interned
        job index in first-encounter lane order, which matches
        dedupe-by-signature because the catalogue maps each job name to
        exactly one signature (and signature equality includes the
        name); loads are the same float64 values either way.
        """
        counts = scenario_table["inst_count"].astype(np.intp)
        offsets = scenario_table["inst_offset"].astype(np.intp)
        n_scenarios = len(counts)
        max_instances = int(counts.max()) if n_scenarios else 0

        jobs = np.asarray(instance_table["job"])
        load_column = np.asarray(instance_table["load"], dtype=np.float64)
        table: dict[int, int] = {}
        signatures: list[JobSignature] = []
        sig_index = np.zeros((n_scenarios, max_instances), dtype=np.intp)
        loads = np.zeros((n_scenarios, max_instances))
        mask = np.zeros((n_scenarios, max_instances), dtype=bool)
        for row in range(n_scenarios):
            start = int(offsets[row])
            for lane in range(int(counts[row])):
                job = int(jobs[start + lane])
                idx = table.get(job)
                if idx is None:
                    idx = table[job] = len(signatures)
                    signatures.append(signatures_by_job[job_names[job]])
                sig_index[row, lane] = idx
                loads[row, lane] = load_column[start + lane]
                mask[row, lane] = True

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


def _row_sums(matrix: np.ndarray, counts: list[int]) -> np.ndarray:
    """Per-row sums over each row's first ``counts[i]`` lanes.

    Summing the contiguous prefix slice (rather than the whole padded
    row) keeps numpy's pairwise-summation tree that of a fresh
    ``len == count`` array, so a row's sums do not depend on the
    batch's padding width.
    """
    out = np.empty(len(counts))
    for i, count in enumerate(counts):
        out[i] = matrix[i, :count].sum()
    return out


def solve_colocation_batch(
    machine: MachinePerf,
    batch: ScenarioBatch | Sequence[Sequence[RunningInstance]],
) -> list[ColocationPerformance]:
    """Solve every scenario in *batch* on *machine* simultaneously.

    Returns one :class:`ColocationPerformance` per scenario, in batch
    order.  Each row's result is bit-identical whatever else is in the
    batch (see the module docstring).
    """
    if not isinstance(batch, ScenarioBatch):
        batch = ScenarioBatch.from_instances(batch)
    n_total = len(batch)
    results: list[ColocationPerformance | None] = [None] * n_total

    nonempty = np.flatnonzero(batch.counts > 0)
    for row in np.flatnonzero(batch.counts == 0):
        results[row] = ColocationPerformance(
            machine=machine,
            instances=(),
            cpu_utilization=0.0,
            mem_bw_utilization=0.0,
            mem_latency_ns=machine.mem_latency_ns,
            converged=True,
            iterations=0,
        )
    if nonempty.size == 0:
        return results  # type: ignore[return-value]

    counts = batch.counts[nonempty]
    counts_list = counts.tolist()
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
    total_busy = _row_sums(busy, counts_list)
    freq = np.empty(len(nonempty))
    core_factor = np.empty(len(nonempty))
    for i in range(len(nonempty)):
        busy_i = float(total_busy[i])
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
        act_counts = [counts_list[i] for i in active]
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
    total_access = _row_sums(access_rate, counts_list)
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
    raw_util = _row_sums(traffic_gbps, counts_list) / machine.mem_bw_gbps
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

    for i, row in enumerate(nonempty):
        perf: list[InstancePerformance] = []
        for lane in range(counts_list[i]):
            sig = batch.signatures[sig_index[i, lane]]
            stack = CPIStack(
                base=sig.base_cpi,
                frontend=sig.frontend_cpi,
                branch=float(branch[i, lane]),
                l2=float(l2_stall[i, lane]),
                llc_hit=float(llc_hit_stall[i, lane]),
                dram=float(dram_stall[i, lane]),
                smt=float(smt_penalty[i, lane]),
            )
            lane_rate = final_rate[i, lane]
            perf.append(
                InstancePerformance(
                    job_name=sig.name,
                    priority=sig.priority,
                    mips=float(lane_rate / 1e6),
                    ipc=float(1.0 / total_cpi[i, lane]),
                    cpi_stack=stack,
                    busy_threads=float(busy[i, lane]),
                    cache_share_mb=float(shares[i, lane]),
                    llc_miss_ratio=float(miss_ratio[i, lane]),
                    llc_mpki=float(mpki[i, lane]),
                    dram_gbps=float(lane_rate * bytes_per_instr[i, lane] / 1e9),
                    network_gbps=float(
                        lane_rate * sig.network_bytes_per_instr * 8.0 / 1e9
                    ),
                    disk_mbps=float(lane_rate * sig.disk_bytes_per_instr / 1e6),
                    frequency_ghz=float(freq[i]),
                )
            )
        results[row] = ColocationPerformance(
            machine=machine,
            instances=tuple(perf),
            cpu_utilization=min(
                float(total_busy[i]) / machine.hardware_threads, 1.0
            ),
            mem_bw_utilization=float(raw_util[i]),
            mem_latency_ns=float(mem_latency[i]),
            converged=bool(converged[i]),
            iterations=int(iterations[i]),
        )
    return results  # type: ignore[return-value]


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
