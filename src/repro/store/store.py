"""Sharded scenario store: writer, reader, compaction.

The store is a directory::

    store/
      manifest.json            # written last; no manifest -> no store
      shard-00000.scenarios.npy
      shard-00000.instances.npy
      shard-00001.scenarios.npy
      ...

:class:`StoreWriter` is the streaming sink — ``append`` buffers at most
one shard of scenarios and flushes it to disk when full, so a
simulation can stream millions of scenarios through it at shard-bounded
memory.  :class:`ShardedScenarioStore` is the reader; it satisfies the
:class:`~repro.cluster.ScenarioSource` protocol (len / getitem /
iter_batches / weights / schema / digest) with shards memory-mapped and
decoded one at a time.
"""

from __future__ import annotations

import json
import os
import pathlib
from typing import TYPE_CHECKING, Any, Iterator

import numpy as np

from ..cluster.machine import MachineShape
from ..cluster.scenario import (
    Scenario,
    ScenarioDataset,
    normalized_weights,
)
from ..cluster.source import (
    ScenarioContentHasher,
    ScenarioSource,
    scenario_schema,
)
from ..io.serialization import (
    _shape_from_dict,
    _shape_to_dict,
    _signature_from_dict,
    _signature_to_dict,
)
from ..obs import inc, span
from ..perfmodel.signatures import JobSignature
from .format import (
    DEFAULT_SHARD_SIZE,
    SHARD_COMPRESSIONS,
    STORE_FORMAT,
    STORE_FORMAT_VERSION,
    StoreCorruptionError,
    StoreError,
    array_digest,
    decode_shard,
    encode_shard,
    fsync_path,
    read_shard_array,
    write_array_atomic,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..cluster.scenario import ScenarioKey

__all__ = [
    "StoreWriter",
    "ShardedScenarioStore",
    "open_store",
    "write_store",
    "compact_store",
]

MANIFEST_NAME = "manifest.json"
#: Decoded-shard cache depth for random access (``__getitem__``): the
#: representative-extraction access pattern is runs of hits within one
#: group's shard with occasional jumps back, so two slots suffice.
_DECODE_CACHE_SLOTS = 2


class StoreWriter:
    """Streaming scenario sink that shards to disk as it fills.

    Usable as a context manager — the store is finalised (manifest
    written) on clean exit only, so an exception mid-stream leaves no
    manifest and therefore no readable store::

        with StoreWriter(path, shape, shard_size=4096) as writer:
            run_simulation(config, sink=writer)
        store = writer.store
    """

    def __init__(
        self,
        path,
        shape: MachineShape,
        *,
        shard_size: int = DEFAULT_SHARD_SIZE,
        overwrite: bool = False,
        compression: str | None = None,
    ) -> None:
        if shard_size < 1:
            raise ValueError("shard_size must be >= 1")
        if compression not in SHARD_COMPRESSIONS:
            raise StoreError(
                f"unknown shard compression {compression!r} "
                f"(expected one of {SHARD_COMPRESSIONS})"
            )
        self.path = pathlib.Path(path)
        self.shape = shape
        self.shard_size = shard_size
        self.compression = compression
        self.path.mkdir(parents=True, exist_ok=True)
        manifest = self.path / MANIFEST_NAME
        if manifest.exists() and not overwrite:
            raise StoreError(
                f"{self.path} already contains a store "
                "(pass overwrite=True to replace it)"
            )
        self._hasher = ScenarioContentHasher(shape)
        self._job_index: dict[str, int] = {}
        self._buffer: list[Scenario] = []
        self._shards: list[dict[str, Any]] = []
        self._written_files: list[pathlib.Path] = []
        self._total_rows = 0
        self._total_instances = 0
        self._finalized = False
        self.store: ShardedScenarioStore | None = None

    # ------------------------------------------------------------------
    def append(self, scenario: Scenario) -> None:
        """Buffer one scenario, flushing a shard when the buffer fills.

        Deliberately just a list push: content hashing, signature
        interning and columnar packing all happen per *shard* in
        :meth:`_flush_shard`, not per append — the per-row Python
        overhead here is what capped write throughput at ~1 MB/s.
        """
        if self._finalized:
            raise StoreError("StoreWriter is already finalized")
        self._buffer.append(scenario)
        if len(self._buffer) >= self.shard_size:
            self._flush_shard()

    def extend(self, scenarios) -> None:
        for scenario in scenarios:
            self.append(scenario)

    def finalize(self) -> "ShardedScenarioStore":
        """Flush the tail shard, write the manifest, open the store.

        Shard writes skip their per-file fsync; durability is settled
        here instead — one batched fsync pass over every written shard
        file plus the directory, *before* the manifest rename that
        makes them reachable.  The "no manifest, no store" contract
        keeps the deferral safe: a crash before this point loses only
        an unfinished store that never existed to readers.
        """
        if self._finalized:
            assert self.store is not None
            return self.store
        if self._buffer:
            self._flush_shard()
        self._sync_pending()
        manifest = self._manifest()
        self._write_manifest(manifest)
        self._finalized = True
        self.store = ShardedScenarioStore(self.path, manifest)
        return self.store

    def _sync_pending(self) -> None:
        """Batched fsync of every shard file written since the last sync."""
        with span("store.fsync", files=len(self._written_files)):
            for path in self._written_files:
                fsync_path(path)
            fsync_path(self.path)
        self._written_files.clear()

    def _manifest(self, *, extra: dict[str, Any] | None = None) -> dict:
        """Build the manifest for everything flushed so far.

        *extra* lets callers (the live store) ride additional fields —
        generation counters, watermarks — on top of the base layout
        without forking the format.
        """
        signatures = self._hasher.signature_objects()
        manifest = {
            "format": STORE_FORMAT,
            "format_version": STORE_FORMAT_VERSION,
            "schema_version": scenario_schema()["version"],
            "shape": _shape_to_dict(self.shape),
            "signatures": {
                name: _signature_to_dict(signatures[name])
                for name in sorted(signatures)
            },
            "job_names": [
                name
                for name, _ in sorted(
                    self._job_index.items(), key=lambda item: item[1]
                )
            ],
            "shard_size": self.shard_size,
            "compression": self.compression,
            "total_rows": self._total_rows,
            "total_instances": self._total_instances,
            "content_digest": self._hasher.hexdigest(),
            "shards": list(self._shards),
        }
        if extra:
            manifest.update(extra)
        return manifest

    def _write_manifest(self, manifest: dict[str, Any]) -> None:
        """Atomically publish *manifest* (tmp + fsync + rename)."""
        manifest_path = self.path / MANIFEST_NAME
        temporary = manifest_path.with_name(f".tmp-{MANIFEST_NAME}")
        try:
            with temporary.open("w") as handle:
                json.dump(manifest, handle, indent=1)
                handle.flush()
                os.fsync(handle.fileno())
            os.replace(temporary, manifest_path)
        finally:
            temporary.unlink(missing_ok=True)

    def __enter__(self) -> "StoreWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.finalize()

    # ------------------------------------------------------------------
    def _flush_shard(self) -> None:
        name = f"shard-{len(self._shards):05d}"
        with span(
            "store.write_shard", shard=name, rows=len(self._buffer)
        ):
            # One hash update per shard — same byte stream and conflict
            # detection as hashing per append (the buffer preserves
            # append order), an order of magnitude fewer Python calls.
            self._hasher.update_many(self._buffer)
            scenario_table, instance_table = encode_shard(
                self._buffer, self._job_index
            )
            scenario_bytes = write_array_atomic(
                self.path / f"{name}.scenarios.npy",
                scenario_table,
                fsync=False,
                compression=self.compression,
            )
            instance_bytes = write_array_atomic(
                self.path / f"{name}.instances.npy",
                instance_table,
                fsync=False,
                compression=self.compression,
            )
            self._written_files.append(self.path / f"{name}.scenarios.npy")
            self._written_files.append(self.path / f"{name}.instances.npy")
            entry: dict[str, Any] = {
                "name": name,
                "rows": int(scenario_table.shape[0]),
                "instances": int(instance_table.shape[0]),
                "scenarios_digest": array_digest(scenario_table),
                "instances_digest": array_digest(instance_table),
                "scenarios_bytes": scenario_bytes,
                "instances_bytes": instance_bytes,
            }
            if self.compression is not None:
                entry["compression"] = self.compression
            self._shards.append(entry)
            self._total_rows += int(scenario_table.shape[0])
            self._total_instances += int(instance_table.shape[0])
            inc("store_rows_written_total", scenario_table.shape[0])
            inc(
                "store_bytes_written_total",
                scenario_bytes + instance_bytes,
            )
        self._buffer.clear()


class ShardedScenarioStore:
    """Read side of the store; a disk-backed :class:`ScenarioSource`.

    Batches come out shard-by-shard (memory-mapped, decoded on demand);
    scalar columns needed globally — the observation durations behind
    ``weights()`` — are assembled straight from the mapped structured
    arrays without decoding scenarios.  Random access via ``__getitem__``
    decodes the owning shard and keeps the last few decoded shards
    cached.
    """

    def __init__(self, path, manifest: dict[str, Any]) -> None:
        self.path = pathlib.Path(path)
        self._validate_manifest(manifest)
        self.manifest = manifest
        self.shape = _shape_from_dict(manifest["shape"])
        self.signatures: dict[str, JobSignature] = {
            name: _signature_from_dict(raw)
            for name, raw in manifest["signatures"].items()
        }
        self.job_names: list[str] = list(manifest["job_names"])
        self.shard_size: int = int(manifest["shard_size"])
        self._shards: list[dict[str, Any]] = list(manifest["shards"])
        self._row_offsets = np.concatenate(
            [[0], np.cumsum([entry["rows"] for entry in self._shards])]
        ).astype(np.int64)
        self._decoded: dict[int, ScenarioDataset] = {}
        self._weights_cache: np.ndarray | None = None

    # ------------------------------------------------------------------
    @classmethod
    def open(cls, path) -> "ShardedScenarioStore":
        path = pathlib.Path(path)
        manifest_path = path / MANIFEST_NAME
        if not manifest_path.exists():
            raise StoreError(f"no store manifest at {manifest_path}")
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as error:
            raise StoreCorruptionError(
                f"unreadable store manifest {manifest_path}: {error}"
            ) from error
        return cls(path, manifest)

    @staticmethod
    def _validate_manifest(manifest: dict[str, Any]) -> None:
        if manifest.get("format") != STORE_FORMAT:
            raise StoreError(
                f"not a scenario store (format {manifest.get('format')!r})"
            )
        if manifest.get("format_version") != STORE_FORMAT_VERSION:
            raise StoreError(
                "unsupported store format version "
                f"{manifest.get('format_version')!r} "
                f"(expected {STORE_FORMAT_VERSION})"
            )
        declared = sum(entry["rows"] for entry in manifest["shards"])
        if declared != manifest["total_rows"]:
            raise StoreCorruptionError(
                f"manifest total_rows={manifest['total_rows']} but "
                f"shards sum to {declared}"
            )

    def refresh(self) -> int:
        """Re-read the manifest, picking up newly appended generations.

        Returns the number of scenario rows gained.  The manifest is
        replaced atomically by writers, so a reader only ever sees a
        complete old or complete new manifest — never a torn one.  The
        already-known shard prefix must be byte-identical (same names
        and digests); anything else means the store was rewritten in
        place and the reader must reopen from scratch
        (:class:`StoreCorruptionError`).  Decoded-shard cache entries
        survive a refresh: committed shards are immutable.
        """
        manifest_path = self.path / MANIFEST_NAME
        try:
            manifest = json.loads(manifest_path.read_text())
        except json.JSONDecodeError as error:
            raise StoreCorruptionError(
                f"unreadable store manifest {manifest_path}: {error}"
            ) from error
        self._validate_manifest(manifest)
        fresh = list(manifest["shards"])
        if len(fresh) < len(self._shards):
            raise StoreCorruptionError(
                f"store at {self.path} lost shards across refresh "
                f"({len(self._shards)} -> {len(fresh)}); reopen it"
            )
        for known, seen in zip(self._shards, fresh):
            if (
                known["name"] != seen["name"]
                or known["scenarios_digest"] != seen["scenarios_digest"]
                or known["instances_digest"] != seen["instances_digest"]
            ):
                raise StoreCorruptionError(
                    f"shard {known['name']} changed across refresh; the "
                    "store was rewritten in place — reopen it"
                )
        gained = sum(int(e["rows"]) for e in fresh[len(self._shards):])
        self.manifest = manifest
        self.signatures = {
            name: _signature_from_dict(raw)
            for name, raw in manifest["signatures"].items()
        }
        self.job_names = list(manifest["job_names"])
        self._shards = fresh
        self._row_offsets = np.concatenate(
            [[0], np.cumsum([entry["rows"] for entry in self._shards])]
        ).astype(np.int64)
        if gained:
            self._weights_cache = None
        return gained

    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self._shards)

    @property
    def shard_entries(self) -> list[dict[str, Any]]:
        return list(self._shards)

    @property
    def bytes_total(self) -> int:
        return sum(
            entry["scenarios_bytes"] + entry["instances_bytes"]
            for entry in self._shards
        )

    def __len__(self) -> int:
        return int(self._row_offsets[-1])

    def __getitem__(self, index: int) -> Scenario:
        length = len(self)
        if index < 0:
            index += length
        if not 0 <= index < length:
            raise IndexError(f"scenario index {index} out of range")
        shard = int(
            np.searchsorted(self._row_offsets, index, side="right") - 1
        )
        local = index - int(self._row_offsets[shard])
        return self._shard_dataset(shard).scenarios[local]

    # ------------------------------------------------------------------
    def load_shard_arrays(
        self, shard: int, *, mmap: bool = True, verify: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """The raw (scenario table, instance table) of one shard."""
        entry = self._shards[shard]
        compression = entry.get("compression")
        with span(
            "store.read_shard", shard=entry["name"], rows=entry["rows"]
        ):
            scenario_table = read_shard_array(
                self.path / f"{entry['name']}.scenarios.npy",
                mmap=mmap,
                expected_rows=entry["rows"],
                expected_digest=(
                    entry["scenarios_digest"] if verify else None
                ),
                compression=compression,
            )
            instance_table = read_shard_array(
                self.path / f"{entry['name']}.instances.npy",
                mmap=mmap,
                expected_rows=entry["instances"],
                expected_digest=(
                    entry["instances_digest"] if verify else None
                ),
                compression=compression,
            )
            inc("store_rows_read_total", entry["rows"])
            inc(
                "store_bytes_read_total",
                entry["scenarios_bytes"] + entry["instances_bytes"],
            )
        return scenario_table, instance_table

    def _shard_dataset(self, shard: int) -> ScenarioDataset:
        cached = self._decoded.get(shard)
        if cached is not None:
            return cached
        scenario_table, instance_table = self.load_shard_arrays(shard)
        dataset = decode_shard(
            scenario_table,
            instance_table,
            self.job_names,
            self.signatures,
            self.shape,
        )
        while len(self._decoded) >= _DECODE_CACHE_SLOTS:
            self._decoded.pop(next(iter(self._decoded)))
        self._decoded[shard] = dataset
        return dataset

    def iter_tables(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Yield each shard's (scenario table, instance table), in order.

        The arrays are read through :meth:`load_shard_arrays` —
        memory-mapped (decompressed for compressed shards) and
        digest-verified — and decode no scenarios.  ``inst_offset``
        indexes the shard's own instance table.
        """
        for shard in range(self.n_shards):
            yield self.load_shard_arrays(shard)

    # ------------------------------------------------------------------
    # ScenarioSource protocol
    def iter_batches(
        self, batch_size: int | None = None
    ) -> Iterator[ScenarioDataset]:
        """Decode and yield shards in order (optionally re-sliced).

        ``None`` yields one batch per shard — the store's natural
        granularity.  An explicit *batch_size* re-slices within each
        shard; the concatenated row stream is identical either way.
        """
        for shard in range(self.n_shards):
            dataset = self._shard_dataset(shard)
            if batch_size is None:
                yield dataset
            else:
                yield from dataset.iter_batches(batch_size)

    def weights(self) -> np.ndarray:
        """Normalised observation-time weights, from the raw columns."""
        if self._weights_cache is None:
            self._weights_cache = normalized_weights(self.durations())
        return self._weights_cache

    def durations(self) -> np.ndarray:
        """Raw per-scenario observed durations, in scenario order."""
        if len(self) == 0:
            return np.zeros(0, dtype=np.float64)
        columns = [
            np.asarray(
                self.load_shard_arrays(shard)[0]["total_duration_s"],
                dtype=np.float64,
            )
            for shard in range(self.n_shards)
        ]
        return np.concatenate(columns)

    def shard_stats(self) -> list[dict[str, Any]]:
        """Per-shard summary statistics, streamed shard-by-shard.

        Reads only the columnar scenario tables (memory-mapped, one
        shard resident at a time) — scenarios are never decoded — so
        the pass stays cheap enough for the drift monitor and the
        ``repro store`` CLI to run it routinely against live stores.
        """
        stats: list[dict[str, Any]] = []
        for index, entry in enumerate(self._shards):
            table = self.load_shard_arrays(index)[0]
            durations = np.asarray(
                table["total_duration_s"], dtype=np.float64
            )
            stats.append(
                {
                    "shard": entry["name"],
                    "rows": int(entry["rows"]),
                    "instances": int(entry["instances"]),
                    "bytes": int(
                        entry["scenarios_bytes"] + entry["instances_bytes"]
                    ),
                    "duration_mass_s": float(durations.sum()),
                    "duration_min_s": (
                        float(durations.min()) if durations.size else 0.0
                    ),
                    "duration_max_s": (
                        float(durations.max()) if durations.size else 0.0
                    ),
                }
            )
        return stats

    def schema(self) -> dict[str, Any]:
        return scenario_schema()

    def digest(self) -> str:
        """Logical content digest recorded at write time."""
        return self.manifest["content_digest"]

    # ------------------------------------------------------------------
    def to_dataset(self) -> ScenarioDataset:
        """Materialise the full store in memory (use deliberately)."""
        scenarios: list[Scenario] = []
        for batch in self.iter_batches():
            scenarios.extend(batch.scenarios)
        return ScenarioDataset(shape=self.shape, scenarios=tuple(scenarios))

    def with_weights_from(
        self, durations: "dict[ScenarioKey, float]"
    ) -> ScenarioDataset:
        """Materialised copy re-weighted by external observation times.

        Mirrors :meth:`ScenarioDataset.with_weights_from`; reweighting
        feeds clustering, which needs the scenarios resident anyway.
        """
        return self.to_dataset().with_weights_from(durations)

    def verify(self) -> dict[str, Any]:
        """Re-read every shard, checking digests; returns a summary.

        Raises :class:`StoreCorruptionError` on the first bad shard.
        """
        rows = 0
        for shard in range(self.n_shards):
            scenario_table, _ = self.load_shard_arrays(shard, verify=True)
            rows += int(scenario_table.shape[0])
        hasher = ScenarioContentHasher(self.shape)
        for batch in self.iter_batches():
            for scenario in batch.scenarios:
                hasher.update(scenario)
        digest = hasher.hexdigest()
        if digest != self.digest():
            raise StoreCorruptionError(
                "store content digest mismatch "
                f"(manifest {self.digest()[:12]}…, decoded {digest[:12]}…)"
            )
        return {
            "n_shards": self.n_shards,
            "rows": rows,
            "content_digest": digest,
        }


def open_store(path) -> ShardedScenarioStore:
    """Open an existing scenario store directory."""
    return ShardedScenarioStore.open(path)


def write_store(
    source: ScenarioSource,
    path,
    *,
    shard_size: int = DEFAULT_SHARD_SIZE,
    overwrite: bool = False,
    compression: str | None = None,
) -> ShardedScenarioStore:
    """Write any :class:`ScenarioSource` out as a sharded store."""
    writer = StoreWriter(
        path,
        source.shape,
        shard_size=shard_size,
        overwrite=overwrite,
        compression=compression,
    )
    for batch in source.iter_batches():
        writer.extend(batch.scenarios)
    return writer.finalize()


def compact_store(
    store: ShardedScenarioStore,
    path,
    *,
    shard_size: int | None = None,
    overwrite: bool = False,
    compression: str | None = None,
) -> ShardedScenarioStore:
    """Rewrite *store* at *path* with a new shard size (and/or codec).

    The logical content digest is preserved and checked — compaction
    changes the physical layout, never the data.  Digests cover the
    uncompressed array bytes, so compressing or decompressing during
    compaction cannot change the digest either.
    """
    target_size = shard_size if shard_size is not None else store.shard_size
    compacted = write_store(
        store,
        path,
        shard_size=target_size,
        overwrite=overwrite,
        compression=compression,
    )
    if compacted.digest() != store.digest():
        raise StoreCorruptionError(
            "compaction changed the store's logical content"
        )
    return compacted
