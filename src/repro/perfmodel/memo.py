"""Persistent content-addressed solve memo (two tiers).

The batched solver dedups identical scenarios *within* one call;
at fleet scale the same co-locations repeat *across* batches, shards,
repeated ``evaluate`` runs and service-mode requests.  This module
memoises the contention fixed point across all of them:

* **Tier 1 — in-process LRU.**  The same :class:`_SolveCache` structure
  the shared solve cache uses, keyed by the canonical content digest,
  so repeated lookups in one process cost a dict probe.
* **Tier 2 — store segments.**  A directory of digest-verified,
  mmap-readable numpy segments (the ``repro.store`` codec discipline:
  temp-file + ``os.replace`` appends, sidecar manifest written last,
  sha256 checked on read).  Misses that fall through tier 1 are looked
  up here; solves are appended as new segments and *merged on read*,
  so any number of concurrent writer processes can share one memo
  directory without coordination — segment names are content digests,
  so two writers flushing identical work collide harmlessly and
  conflicting names are impossible.

Memoisation is only admissible because solves are bit-reproducible: a
:func:`~repro.perfmodel.contention.solve_colocation` call is a pure
deterministic function of ``(machine, instances)`` whatever batch it
is solved in.  Every float round-trips the segment
encoding exactly (raw IEEE-754 doubles), so a memo hit returns the same
bits a fresh solve would.  A corrupt or truncated segment fails its
digest check and is dropped whole — a corrupt entry degrades to a miss,
never to a wrong solve.

The key canonicalises float payloads before hashing: ``-0.0`` and
``0.0`` hash differently (they are different machine configurations —
``1/x`` diverges), while every NaN payload collapses onto one token
(NaN != NaN would otherwise make such keys unmatchable even against
themselves).  See :func:`solve_key`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .contention import (
    ColocationPerformance,
    InstancePerformance,
    RunningInstance,
    _SolveCache,
    canonical_float_token,
)
from .cpistack import CPIStack
from .machine import MachinePerf

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .signatures import JobSignature

__all__ = [
    "MEMO_FORMAT",
    "MEMO_FORMAT_VERSION",
    "MEMO_MODES",
    "SolveMemo",
    "canonical_float_token",
    "decode_memo_entries",
    "encode_memo_entries",
    "resolve_memo",
    "solve_key",
    "validate_memo_spec",
]

MEMO_FORMAT = "repro-solve-memo"
MEMO_FORMAT_VERSION = 1

#: Accepted ``memo=`` knob spellings (``store`` takes a ``:<path>``).
MEMO_MODES = ("off", "memory", "store")

#: One memoised solve: header row + an (offset, count) slice into the
#: companion instance table.  Explicit little-endian, like the scenario
#: store, so segments are byte-identical across platforms.
MEMO_ENTRY_DTYPE = np.dtype(
    [
        ("key", "S64"),
        ("inst_offset", "<i8"),
        ("inst_count", "<i4"),
        ("iterations", "<i4"),
        ("converged", "<i1"),
        ("cpu_utilization", "<f8"),
        ("mem_bw_utilization", "<f8"),
        ("mem_latency_ns", "<f8"),
    ]
)

#: One solved instance, in scenario order: every published
#: ``InstancePerformance`` float plus the full CPI stack.  Job name and
#: priority are *not* stored — they are a function of the query's own
#: signatures, which the key already covers.
MEMO_INSTANCE_DTYPE = np.dtype(
    [
        (name, "<f8")
        for name in (
            "mips",
            "ipc",
            "busy_threads",
            "cache_share_mb",
            "llc_miss_ratio",
            "llc_mpki",
            "dram_gbps",
            "network_gbps",
            "disk_mbps",
            "frequency_ghz",
            "cpi_base",
            "cpi_frontend",
            "cpi_branch",
            "cpi_l2",
            "cpi_llc_hit",
            "cpi_dram",
            "cpi_smt",
        )
    ]
)

_CPI_FIELDS = ("base", "frontend", "branch", "l2", "llc_hit", "dram", "smt")
_PERF_FIELDS = (
    "mips",
    "ipc",
    "busy_threads",
    "cache_share_mb",
    "llc_miss_ratio",
    "llc_mpki",
    "dram_gbps",
    "network_gbps",
    "disk_mbps",
    "frequency_ghz",
)


# ----------------------------------------------------------------------
# Canonical content-addressed key
def _canonical_value_token(value) -> str:
    if isinstance(value, float):
        return canonical_float_token(value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    return repr(value)


#: id() -> (signature kept alive, digest bytes).  Signatures are tiny
#: frozen dataclasses reused across millions of instances; keeping the
#: object referenced makes the id key stable for the process lifetime.
_SIGNATURE_DIGESTS: dict[int, tuple["JobSignature", bytes]] = {}


def _signature_digest(signature: "JobSignature") -> bytes:
    cached = _SIGNATURE_DIGESTS.get(id(signature))
    if cached is not None:
        return cached[1]
    digest = hashlib.sha256(repr(signature).encode()).hexdigest().encode()
    _SIGNATURE_DIGESTS[id(signature)] = (signature, digest)
    return digest


#: id() -> (machine kept alive, hash state over the machine fields).
#: Every key in one evaluate run shares the machine prefix; caching the
#: partially-fed hasher and ``copy()``-ing it per scenario drops the
#: per-key cost to the instance bytes alone.
_MACHINE_PREFIXES: dict[int, tuple[MachinePerf, "hashlib._Hash"]] = {}

#: load value -> canonical token bytes.  Fleet loads draw from a small
#: discrete set; 0.0 is excluded (``-0.0`` aliases it under dict
#: equality but tokenises differently) and non-finite values are
#: excluded (NaN never equals itself, so it could only grow the dict).
_LOAD_TOKENS: dict[float, bytes] = {}


def _machine_prefix(machine: MachinePerf) -> "hashlib._Hash":
    cached = _MACHINE_PREFIXES.get(id(machine))
    if cached is not None:
        return cached[1]
    hasher = hashlib.sha256()
    hasher.update(f"{MEMO_FORMAT}-key-v{MEMO_FORMAT_VERSION}".encode())
    for field in dataclasses.fields(machine):
        hasher.update(field.name.encode())
        hasher.update(b"=")
        hasher.update(
            _canonical_value_token(getattr(machine, field.name)).encode()
        )
        hasher.update(b";")
    _MACHINE_PREFIXES[id(machine)] = (machine, hasher)
    return hasher


def _load_token(value: float) -> bytes:
    token = _LOAD_TOKENS.get(value)
    if token is None:
        token = canonical_float_token(value).encode()
        if value != 0.0 and value == value:
            _LOAD_TOKENS[value] = token
    return token


def solve_key(
    machine: MachinePerf, instances: Sequence[RunningInstance]
) -> str:
    """Canonical content digest of one ``(machine, scenario)`` solve.

    Covers every :class:`MachinePerf` field by name (the same contract
    as ``_SolveCache.make_key``) and, per instance in scenario order,
    the full job-signature content plus the load — all floats via
    :func:`canonical_float_token`, so the key is identical no matter
    which process, representation or run derives it.
    """
    hasher = _machine_prefix(machine).copy()
    for instance in instances:
        hasher.update(_signature_digest(instance.signature))
        hasher.update(b"@")
        hasher.update(_load_token(instance.load))
        hasher.update(b"|")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Segment codec
def encode_memo_entries(
    items: Iterable[tuple[str, ColocationPerformance]],
) -> tuple[np.ndarray, np.ndarray]:
    """Pack ``(key, solution)`` pairs into (entry table, instance table).

    Deterministic: the same items in the same order produce byte-
    identical arrays, which is what makes content-digest segment names
    and the golden serialisation fixture possible.
    """
    pairs = list(items)
    entries = np.empty(len(pairs), dtype=MEMO_ENTRY_DTYPE)
    total = sum(len(solution.instances) for _, solution in pairs)
    instances = np.empty(total, dtype=MEMO_INSTANCE_DTYPE)
    offset = 0
    for row, (key, solution) in enumerate(pairs):
        count = len(solution.instances)
        entries[row] = (
            key.encode(),
            offset,
            count,
            solution.iterations,
            1 if solution.converged else 0,
            solution.cpu_utilization,
            solution.mem_bw_utilization,
            solution.mem_latency_ns,
        )
        for perf in solution.instances:
            instances[offset] = tuple(
                getattr(perf, name) for name in _PERF_FIELDS
            ) + tuple(
                getattr(perf.cpi_stack, name) for name in _CPI_FIELDS
            )
            offset += 1
    return entries, instances


def decode_memo_entries(
    machine: MachinePerf,
    instances: Sequence[RunningInstance],
    entry: np.void,
    instance_rows: np.ndarray,
) -> ColocationPerformance | None:
    """Rebuild a solved :class:`ColocationPerformance` from segment rows.

    Job names and priorities come from the *query's* signatures (the
    key guarantees they match what was solved); every float is read
    back as the exact double that was written.  Returns ``None`` when
    the stored instance count disagrees with the query — the defensive
    stance against an (astronomically unlikely) digest collision:
    degrade to a miss, never return a wrong solve.
    """
    if int(entry["inst_count"]) != len(instances):
        return None
    performances = []
    # One tolist() converts the whole slice to plain-float tuples in
    # dtype order: the 10 _PERF_FIELDS then the 7 CPI components.
    for instance, values in zip(instances, instance_rows.tolist()):
        signature = instance.signature
        performances.append(
            InstancePerformance(
                job_name=signature.name,
                priority=signature.priority,
                mips=values[0],
                ipc=values[1],
                cpi_stack=CPIStack(*values[10:]),
                busy_threads=values[2],
                cache_share_mb=values[3],
                llc_miss_ratio=values[4],
                llc_mpki=values[5],
                dram_gbps=values[6],
                network_gbps=values[7],
                disk_mbps=values[8],
                frequency_ghz=values[9],
            )
        )
    return ColocationPerformance(
        machine=machine,
        instances=tuple(performances),
        cpu_utilization=float(entry["cpu_utilization"]),
        mem_bw_utilization=float(entry["mem_bw_utilization"]),
        mem_latency_ns=float(entry["mem_latency_ns"]),
        converged=bool(entry["converged"]),
        iterations=int(entry["iterations"]),
    )


def _inc(counter: str, value: int = 1) -> None:
    from ..obs import inc

    inc(counter, value)


# ----------------------------------------------------------------------
class SolveMemo:
    """Two-tier content-addressed memo for contention solves.

    Parameters
    ----------
    spec:
        The knob spelling this memo realises: ``"memory"`` for the LRU
        tier alone, or ``"store:<path>"`` to back it with a persistent
        segment directory at ``<path>``.
    maxsize:
        In-process LRU capacity.
    flush_threshold:
        Pending store-tier entries that trigger an automatic segment
        flush; callers also flush at natural batch boundaries.
    """

    def __init__(
        self,
        spec: str = "memory",
        *,
        maxsize: int = 65536,
        flush_threshold: int = 2048,
    ) -> None:
        mode, path = validate_memo_spec(spec)
        if mode == "off":
            raise ValueError("SolveMemo cannot be constructed for 'off'")
        self.spec = spec
        self._memory = _SolveCache(maxsize=maxsize)
        self.flush_threshold = flush_threshold
        self.path = pathlib.Path(path) if path is not None else None
        self._pending: dict[str, ColocationPerformance] = {}
        #: (id(machine), id(instances tuple)) -> (machine, instances,
        #: key), both kept alive.  Re-evaluating the same dataset keys
        #: each scenario with one dict probe instead of a sha256 pass.
        self._keys: dict[tuple[int, int], tuple] = {}
        #: key -> (entry table, instance table, entry row)
        self._store_index: dict[
            str, tuple[np.ndarray, np.ndarray, int]
        ] = {}
        self._segments_seen: set[str] = set()
        self._loaded = False
        self.store_hits = 0
        self.segments_written = 0
        self.corrupt_segments = 0

    # -- pickling: workers resolve their own per-process instance ------
    def __reduce__(self):
        return (resolve_memo, (self.spec,))

    def __enter__(self) -> "SolveMemo":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.flush()

    # ------------------------------------------------------------------
    def key_for(
        self, machine: MachinePerf, instances: Sequence[RunningInstance]
    ) -> str:
        """:func:`solve_key`, cached by object identity for tuples.

        Safe only because the cached operands are immutable (a tuple of
        frozen instances, a frozen machine) and are kept referenced, so
        an id cannot be recycled while its entry lives; mutable
        sequences bypass the cache.
        """
        if type(instances) is not tuple:
            return solve_key(machine, instances)
        token = (id(machine), id(instances))
        cached = self._keys.get(token)
        if cached is not None:
            return cached[2]
        key = solve_key(machine, instances)
        self._keys[token] = (machine, instances, key)
        return key

    def lookup(
        self,
        key: str,
        machine: MachinePerf,
        instances: Sequence[RunningInstance],
    ) -> ColocationPerformance | None:
        """Tier-1 then tier-2 lookup; ``None`` is a genuine miss."""
        hit = self._memory.lookup(key)
        if hit is not None:
            _inc("solve_memo_hits_total")
            return hit
        if self.path is not None:
            if not self._loaded:
                self.refresh()
            located = self._store_index.get(key)
            if located is not None:
                entries, rows, row = located
                entry = entries[row]
                start = int(entry["inst_offset"])
                stop = start + int(entry["inst_count"])
                solution = decode_memo_entries(
                    machine, instances, entry, rows[start:stop]
                )
                if solution is not None:
                    self._memory.store(key, solution)
                    self.store_hits += 1
                    _inc("solve_memo_hits_total")
                    _inc("solve_memo_store_hits_total")
                    return solution
        _inc("solve_memo_misses_total")
        return None

    def count_pending_hit(self) -> None:
        """Count a repeat of a key pending in the caller's batch as a hit.

        The batch solves that key once and answers the repeat from the
        same solution, as a one-at-a-time caller would find it memoised.
        """
        self._memory.hits += 1
        _inc("solve_memo_hits_total")

    def record(self, key: str, solution: ColocationPerformance) -> None:
        """Admit one solved scenario into both tiers."""
        self._memory.store(key, solution)
        if self.path is not None and key not in self._store_index:
            self._pending[key] = solution
            if len(self._pending) >= self.flush_threshold:
                self.flush()

    # ------------------------------------------------------------------
    def flush(self) -> int:
        """Write pending entries as one atomic segment; returns count.

        The segment name is the content digest of its own tables, so a
        concurrent writer producing the same solves lands on the same
        name with the same bytes — the second ``os.replace`` is a
        no-op, not a conflict.  The sidecar manifest is written last:
        no sidecar, no segment.
        """
        if self.path is None or not self._pending:
            self._pending.clear()
            return 0
        from ..store.format import array_digest, write_array_atomic

        items = sorted(self._pending.items())
        entries, instances = encode_memo_entries(items)
        entries_digest = array_digest(entries)
        instances_digest = array_digest(instances)
        name = "seg-" + hashlib.sha256(
            f"{entries_digest}:{instances_digest}".encode()
        ).hexdigest()[:16]
        self.path.mkdir(parents=True, exist_ok=True)
        sidecar_path = self.path / f"{name}.json"
        if not sidecar_path.exists():
            write_array_atomic(self.path / f"{name}.entries.npy", entries)
            write_array_atomic(
                self.path / f"{name}.instances.npy", instances
            )
            sidecar = {
                "format": MEMO_FORMAT,
                "format_version": MEMO_FORMAT_VERSION,
                "entries": int(entries.shape[0]),
                "instances": int(instances.shape[0]),
                "entries_digest": entries_digest,
                "instances_digest": instances_digest,
            }
            temporary = sidecar_path.with_name(f".tmp-{sidecar_path.name}")
            try:
                temporary.write_text(json.dumps(sidecar, indent=1) + "\n")
                import os

                os.replace(temporary, sidecar_path)
            finally:
                temporary.unlink(missing_ok=True)
        # Serve the flushed entries from the in-memory arrays directly.
        self._segments_seen.add(name)
        for row in range(entries.shape[0]):
            key = entries[row]["key"].decode()
            self._store_index.setdefault(key, (entries, instances, row))
        written = len(items)
        self._pending.clear()
        self.segments_written += 1
        _inc("solve_memo_entries_written_total", written)
        _inc("solve_memo_segments_written_total")
        return written

    def refresh(self) -> int:
        """Merge-on-read: index any segments not yet seen.

        Safe to call at any time; concurrent writers only ever add new
        uniquely-named segments, and a segment failing its digest check
        (corruption, truncation, torn concurrent state) is skipped
        whole — its keys simply stay misses.
        """
        self._loaded = True
        if self.path is None or not self.path.is_dir():
            return 0
        from ..store.format import StoreCorruptionError, read_shard_array

        merged = 0
        for sidecar_path in sorted(self.path.glob("seg-*.json")):
            name = sidecar_path.name[: -len(".json")]
            if name in self._segments_seen:
                continue
            self._segments_seen.add(name)
            try:
                sidecar = json.loads(sidecar_path.read_text())
                if (
                    sidecar.get("format") != MEMO_FORMAT
                    or sidecar.get("format_version") != MEMO_FORMAT_VERSION
                ):
                    raise StoreCorruptionError(
                        f"unrecognised memo segment sidecar {sidecar_path}"
                    )
                entries = read_shard_array(
                    self.path / f"{name}.entries.npy",
                    mmap=True,
                    expected_rows=int(sidecar["entries"]),
                    expected_digest=sidecar["entries_digest"],
                )
                instances = read_shard_array(
                    self.path / f"{name}.instances.npy",
                    mmap=True,
                    expected_rows=int(sidecar["instances"]),
                    expected_digest=sidecar["instances_digest"],
                )
            except (
                StoreCorruptionError,
                OSError,
                ValueError,
                KeyError,
                json.JSONDecodeError,
            ):
                self.corrupt_segments += 1
                _inc("solve_memo_corrupt_segments_total")
                continue
            for row in range(entries.shape[0]):
                key = entries[row]["key"].decode()
                self._store_index.setdefault(key, (entries, instances, row))
            merged += 1
        return merged

    # ------------------------------------------------------------------
    def clear_memory(self) -> None:
        """Drop tier 1 (the persistent tier is untouched)."""
        self._memory.clear()

    @property
    def store_entries(self) -> int:
        """Distinct keys indexed from the persistent tier."""
        return len(self._store_index)

    def stats(self) -> dict:
        info = self._memory.info()
        return {
            "spec": self.spec,
            "memory_hits": info.hits,
            "memory_misses": info.misses,
            "memory_entries": info.currsize,
            "store_hits": self.store_hits,
            "store_entries": len(self._store_index),
            "pending": len(self._pending),
            "segments_written": self.segments_written,
            "corrupt_segments": self.corrupt_segments,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SolveMemo({self.spec!r}, entries={self.store_entries})"


# ----------------------------------------------------------------------
# Knob plumbing
def validate_memo_spec(spec: str) -> tuple[str, str | None]:
    """Parse/validate a ``memo=`` knob; returns ``(mode, path | None)``."""
    if not isinstance(spec, str):
        raise TypeError(f"memo spec must be a string, got {spec!r}")
    if spec in ("off", "memory"):
        return spec, None
    if spec.startswith("store:"):
        path = spec[len("store:") :]
        if not path:
            raise ValueError("memo='store:<path>' needs a non-empty path")
        return "store", path
    raise ValueError(
        f"unknown memo spec {spec!r}; expected one of "
        "'off', 'memory', or 'store:<path>'"
    )


#: Per-process memo instances by spec — the warm cache service-mode
#: workers (and pickled tasks, via ``SolveMemo.__reduce__``) share.
_MEMO_REGISTRY: dict[str, SolveMemo] = {}


def resolve_memo(value: "SolveMemo | str | None") -> SolveMemo | None:
    """Resolve a memo knob to a live per-process :class:`SolveMemo`.

    ``None``/``"off"`` disable memoisation; a :class:`SolveMemo` passes
    through; a spec string maps onto this process's shared instance for
    that spec (creating it on first use), which is also how pickled
    tasks rebind to their worker's memo.
    """
    if value is None:
        return None
    if isinstance(value, SolveMemo):
        return value
    mode, _ = validate_memo_spec(value)
    if mode == "off":
        return None
    memo = _MEMO_REGISTRY.get(value)
    if memo is None:
        memo = SolveMemo(value)
        _MEMO_REGISTRY[value] = memo
    return memo
