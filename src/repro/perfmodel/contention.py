"""Shared-resource contention model: its types, constants and caches.

Given a machine and the set of job instances co-located on it, this module
computes every instance's steady-state performance under contention for:

* **LLC capacity** — proportional-to-access-rate partitioning, with each
  job's miss ratio read off its hyperbolic miss-ratio curve (Feature 1 acts
  here by shrinking the capacity being shared);
* **DRAM bandwidth** — total miss traffic inflates memory latency through a
  queueing-style congestion term;
* **Physical cores / SMT** — busy hardware threads beyond the physical core
  count share core throughput at ``smt_speedup`` (SMT on) or strict
  time-slicing (SMT off — Feature 3);
* **DVFS frequency** — core-side CPI components are in cycles while memory
  stalls are in nanoseconds, so frequency changes (Feature 2) shift the
  balance exactly as leading-loads DVFS models predict.

The solver iterates cache shares → miss rates → bandwidth congestion →
CPI → instruction rates to a damped fixed point.  That iteration lives in
:func:`repro.perfmodel.batch.solve_colocation_lanes`, the one solver,
which :func:`~repro.perfmodel.batch.solve_colocation_batch` wraps into
objects; :func:`solve_colocation` is its one-scenario form.  Everything downstream
of the simulator (Profiler counters, FLARE clustering, replay) consumes
only its outputs.
"""

from __future__ import annotations

import dataclasses
import math
from collections import OrderedDict
from dataclasses import dataclass
from typing import NamedTuple

from .cpistack import CPIStack
from .machine import MachinePerf
from .signatures import JobSignature, Priority

__all__ = [
    "RunningInstance",
    "InstancePerformance",
    "ColocationPerformance",
    "solve_colocation",
    "solve_colocation_cached",
    "inherent_performance",
]

_BRANCH_PENALTY_CYCLES = 15.0
_L2_BLOCKING = 0.30
_LLC_HIT_BLOCKING = 0.40
_CACHE_LINE_BYTES = 64.0
_BW_CONGESTION_GAIN = 1.6
_BW_UTIL_CAP = 0.95
_MAX_ITERATIONS = 60
_RELATIVE_TOLERANCE = 1e-7
_DAMPING = 0.35


@dataclass(frozen=True)
class RunningInstance:
    """One container scheduled on the machine.

    Attributes
    ----------
    signature:
        The job's resource signature.
    load:
        User-demand level in ``(0, 1]`` fixed at submission time; scales
        thread busy-time (and therefore all throughput-derived traffic).
    """

    signature: JobSignature
    load: float = 1.0

    def __post_init__(self) -> None:
        if not 0.0 < self.load <= 1.0:
            raise ValueError("load must be in (0, 1]")

    @property
    def busy_threads(self) -> float:
        """Hardware threads this instance keeps busy on average."""
        return self.signature.vcpus * self.signature.active_fraction * self.load


@dataclass(frozen=True)
class InstancePerformance:
    """Steady-state performance of one instance under co-location."""

    job_name: str
    priority: Priority
    mips: float
    ipc: float
    cpi_stack: CPIStack
    busy_threads: float
    cache_share_mb: float
    llc_miss_ratio: float
    llc_mpki: float
    dram_gbps: float
    network_gbps: float
    disk_mbps: float
    frequency_ghz: float

    @property
    def is_high_priority(self) -> bool:
        return self.priority is Priority.HIGH


@dataclass(frozen=True)
class ColocationPerformance:
    """Machine-wide solution for one co-location scenario."""

    machine: MachinePerf
    instances: tuple[InstancePerformance, ...]
    cpu_utilization: float
    mem_bw_utilization: float
    mem_latency_ns: float
    converged: bool
    iterations: int

    @property
    def total_mips(self) -> float:
        return sum(inst.mips for inst in self.instances)

    @property
    def hp_mips(self) -> float:
        return sum(i.mips for i in self.instances if i.is_high_priority)

    def per_job_mips(self) -> dict[str, float]:
        """Total MIPS by job name (summing multiple instances)."""
        totals: dict[str, float] = {}
        for inst in self.instances:
            totals[inst.job_name] = totals.get(inst.job_name, 0.0) + inst.mips
        return totals


def solve_colocation(
    machine: MachinePerf,
    instances: list[RunningInstance] | tuple[RunningInstance, ...],
) -> ColocationPerformance:
    """Solve the contention fixed point for *instances* on *machine*.

    A one-row :func:`~repro.perfmodel.batch.solve_colocation_batch`:
    the batched fixed point is the only solver, so a single scenario
    gets exactly the numbers it would get inside any larger batch.
    """
    from .batch import solve_colocation_batch  # batch imports this module

    return solve_colocation_batch(machine, [instances])[0]


class _CacheInfo(NamedTuple):
    """``functools.lru_cache``-compatible statistics tuple."""

    hits: int
    misses: int
    maxsize: int
    currsize: int


def canonical_float_token(value: float) -> str:
    """Exact, canonical text form of a float for cache/memo keys.

    ``float.hex()`` round-trips every finite double exactly and keeps
    ``-0.0`` distinct from ``0.0`` (``-0x0.0p+0`` vs ``0x0.0p+0``) —
    they are different machine configurations, since expressions like
    ``1/x`` diverge at the sign of zero, yet ``-0.0 == 0.0`` under the
    tuple equality a naive key relies on.  Conversely, all NaN payloads
    collapse onto one ``"nan"`` token: ``nan != nan``, so a raw NaN in
    a key would never match anything, not even itself.
    """
    if math.isnan(value):
        return "nan"
    return float(value).hex()


def _canonical_machine_value(value):
    """Canonical key token for one MachinePerf field value."""
    if isinstance(value, float):
        return ("f", canonical_float_token(value))
    return value


class _SolveCache:
    """Explicit LRU memo for ``(machine, instances) -> ColocationPerformance``.

    The key expands *every* field of the machine config by name —
    ``max_freq_ghz`` (DVFS), ``smt_enabled`` (SMT), ``llc_mb`` (cache
    sizing), governor, bandwidth, latencies — so replayed feature
    variants that share a scenario can never alias onto a stale solve:
    two machines are the same cache entry only if every configuration
    field is equal.  Relying on the dataclass's derived ``__hash__``
    alone would couple cache correctness to ``MachinePerf``'s equality
    semantics; the explicit field expansion keeps the key honest even
    if those are customised later.
    """

    def __init__(self, maxsize: int = 65536) -> None:
        self.maxsize = maxsize
        self._entries: OrderedDict[tuple, ColocationPerformance] = OrderedDict()
        self.hits = 0
        self.misses = 0

    @staticmethod
    def machine_key(machine: MachinePerf) -> tuple:
        """The machine half of a key, reusable across one machine's rows."""
        return tuple(
            (field.name, _canonical_machine_value(getattr(machine, field.name)))
            for field in dataclasses.fields(machine)
        )

    @staticmethod
    def make_key(
        machine: MachinePerf, instances: tuple[RunningInstance, ...]
    ) -> tuple:
        return (_SolveCache.machine_key(machine), instances)

    def lookup(self, key: tuple) -> ColocationPerformance | None:
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry

    def count_pending_hit(self) -> None:
        """Turn the last miss into a hit.

        A solve pending in the same batch answers that lookup, as a
        one-at-a-time caller would find the solve cached.
        """
        self.misses -= 1
        self.hits += 1

    def store(self, key: tuple, value: ColocationPerformance) -> None:
        self._entries[key] = value
        self._entries.move_to_end(key)
        while len(self._entries) > self.maxsize:
            self._entries.popitem(last=False)

    def clear(self) -> None:
        self._entries.clear()
        self.hits = 0
        self.misses = 0

    def info(self) -> _CacheInfo:
        return _CacheInfo(self.hits, self.misses, self.maxsize, len(self._entries))


_SOLVE_CACHE = _SolveCache(maxsize=65536)


def solve_colocation_cached(
    machine: MachinePerf,
    instances: tuple[RunningInstance, ...],
) -> ColocationPerformance:
    """Memoised :func:`solve_colocation` for repeated scenario evaluation.

    FLARE, the baselines and the Profiler all solve the same (machine,
    scenario) pairs; every argument is a frozen dataclass, so caching on
    identity-by-value is safe.  Pass instances as a tuple.  The memo is
    a :class:`_SolveCache` keyed on the full machine configuration so
    feature variants (DVFS frequency, SMT flag, cache size, ...) of the
    same scenario always occupy distinct entries.
    """
    key = _SolveCache.make_key(machine, instances)
    cached = _SOLVE_CACHE.lookup(key)
    if cached is None:
        cached = solve_colocation(machine, instances)
        _SOLVE_CACHE.store(key, cached)
    return cached


# functools.lru_cache-compatible management surface.
solve_colocation_cached.cache_clear = _SOLVE_CACHE.clear  # type: ignore[attr-defined]
solve_colocation_cached.cache_info = _SOLVE_CACHE.info  # type: ignore[attr-defined]


def inherent_performance(
    machine: MachinePerf, signature: JobSignature
) -> InstancePerformance:
    """Performance of one instance running *alone* on an empty machine.

    The paper normalises each job's in-datacenter MIPS by this "inherent
    MIPS" so jobs with naturally high instruction rates do not dominate the
    summary metric (§5.1).
    """
    solution = solve_colocation(machine, [RunningInstance(signature, load=1.0)])
    return solution.instances[0]


def _core_throughput_factor(machine: MachinePerf, total_busy: float) -> float:
    """Per-thread throughput factor from core sharing.

    With ``t`` average busy threads per core (t ∈ [0, 2]), aggregate core
    throughput ramps linearly from 1.0 at t=1 to ``smt_speedup`` at t=2
    (or stays at 1.0 without SMT).  Each thread receives ``agg(t)/t``.
    """
    cores = machine.physical_cores
    if total_busy <= cores or total_busy <= 0.0:
        return 1.0
    threads_per_core = min(total_busy / cores, 2.0)
    aggregate_speedup = machine.smt_speedup if machine.smt_enabled else 1.0
    aggregate = 1.0 + (aggregate_speedup - 1.0) * (threads_per_core - 1.0)
    return aggregate / threads_per_core
