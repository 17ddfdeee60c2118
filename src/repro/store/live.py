"""Live (continuously appendable) scenario store and tailing reader.

Fleet mode never sees a frozen trace: scenarios arrive in batches as
the datacenter runs.  :class:`LiveStore` extends the one-shot
:class:`~repro.store.StoreWriter` discipline to a sequence of
*generations* — each ``commit()`` flushes the buffered scenarios as
shard files, fsyncs them, and then atomically replaces the manifest
with one carrying a bumped generation number and a row watermark.
Because the manifest rename is atomic and shards are written (and
synced) before it, a concurrent reader only ever observes a complete
generation: old manifest or new manifest, never a torn state.

:class:`TailingSource` is the read side: a
:class:`~repro.cluster.ScenarioSource` over a growing store that can
cheaply ``refresh()`` to pick up newly committed generations and hand
out ``new_since(watermark)`` row-range views, so incremental passes
touch only fresh rows.
"""

from __future__ import annotations

import pathlib
from typing import Any, Iterator

import numpy as np

from ..cluster.machine import MachineShape
from ..cluster.scenario import (
    Scenario,
    ScenarioDataset,
    normalized_weights,
)
from ..cluster.source import ScenarioContentHasher, scenario_schema
from .format import DEFAULT_SHARD_SIZE, StoreError
from .store import ShardedScenarioStore, StoreWriter

__all__ = ["LiveStore", "StoreSlice", "TailingSource"]


class LiveStore:
    """Continuously appendable scenario store with atomic generations.

    Usable as a context manager — pending scenarios are committed on
    clean exit only, mirroring :class:`StoreWriter`'s "no manifest, no
    store" contract per generation::

        with LiveStore(path, shape, shard_size=512) as live:
            live.extend(first_batch)
            live.commit()          # generation 1 becomes visible
            live.extend(more)      # generation 2 committed on exit

    Each commit flushes the buffer (a partial shard is flushed too —
    generations do not wait for a full shard), fsyncs every new shard
    file plus the directory, and atomically replaces ``manifest.json``
    with the full shard list plus ``generation`` and ``watermark``
    fields.  Committed shards are immutable; readers holding the store
    open pick up new generations via
    :meth:`ShardedScenarioStore.refresh`.
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
        self._writer = StoreWriter(
            path,
            shape,
            shard_size=shard_size,
            overwrite=overwrite,
            compression=compression,
        )
        self.generation = 0
        self._committed_rows = 0
        self._manifest_written = False
        self._closed = False

    @property
    def path(self) -> pathlib.Path:
        return self._writer.path

    @property
    def shape(self) -> MachineShape:
        return self._writer.shape

    @property
    def watermark(self) -> int:
        """Rows visible to readers (committed), not rows appended."""
        return self._committed_rows

    # ------------------------------------------------------------------
    def append(self, scenario: Scenario) -> None:
        if self._closed:
            raise StoreError("LiveStore is closed")
        self._writer.append(scenario)

    def extend(self, scenarios) -> None:
        for scenario in scenarios:
            self.append(scenario)

    def commit(self) -> int:
        """Publish everything appended so far as the next generation.

        Returns the generation number now visible to readers.  A commit
        with nothing new appended is a no-op (the current generation is
        returned) once a first manifest exists; the very first commit
        may be empty, publishing a readable zero-row store.
        """
        if self._closed:
            raise StoreError("LiveStore is closed")
        if self._writer._buffer:
            self._writer._flush_shard()
        if (
            self._manifest_written
            and self._writer._total_rows == self._committed_rows
        ):
            return self.generation
        self._writer._sync_pending()
        self.generation += 1
        manifest = self._writer._manifest(
            extra={
                "generation": self.generation,
                "watermark": self._writer._total_rows,
            }
        )
        self._writer._write_manifest(manifest)
        self._committed_rows = self._writer._total_rows
        self._manifest_written = True
        return self.generation

    def close(self) -> None:
        """Commit pending scenarios and refuse further appends."""
        if not self._closed:
            self.commit()
            self._closed = True

    def reader(self) -> ShardedScenarioStore:
        """Open a fresh reader over the last committed generation."""
        if not self._manifest_written:
            raise StoreError(
                f"{self.path} has no committed generation yet "
                "(call commit() first)"
            )
        return ShardedScenarioStore.open(self.path)

    def tail(self) -> "TailingSource":
        """A :class:`TailingSource` over the last committed generation."""
        return TailingSource(self.reader())

    def __enter__(self) -> "LiveStore":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()


class StoreSlice:
    """A half-open row-range view of a store; a :class:`ScenarioSource`.

    Batches slice the owning store's shards in place — only shards
    overlapping the range are touched, and only their boundary batches
    are re-sliced.  The digest is the logical content digest of the
    slice alone, so checkpoint journals and memo keys scoped to "the
    new rows" stay stable across refreshes.
    """

    def __init__(
        self, store: ShardedScenarioStore, start: int, stop: int
    ) -> None:
        if not 0 <= start <= stop <= len(store):
            raise ValueError(
                f"slice [{start}, {stop}) out of range for a "
                f"{len(store)}-row store"
            )
        self._store = store
        self.start = start
        self.stop = stop
        self._digest: str | None = None

    @property
    def store(self) -> ShardedScenarioStore:
        """The store this slice views."""
        return self._store

    @property
    def shape(self) -> MachineShape:
        return self._store.shape

    def __len__(self) -> int:
        return self.stop - self.start

    def __getitem__(self, index: int) -> Scenario:
        if index < 0:
            index += len(self)
        if not 0 <= index < len(self):
            raise IndexError(f"scenario index {index} out of range")
        return self._store[self.start + index]

    def _shard_ranges(self) -> Iterator[tuple[int, int, int]]:
        """``(shard, lo, hi)``: the shard-local row range of each overlap."""
        offsets = self._store._row_offsets
        for shard in range(self._store.n_shards):
            base = int(offsets[shard])
            top = int(offsets[shard + 1])
            if top <= self.start or base >= self.stop:
                continue
            yield shard, max(0, self.start - base), min(top, self.stop) - base

    def iter_batches(
        self, batch_size: int | None = None
    ) -> Iterator[ScenarioDataset]:
        for shard, lo, hi in self._shard_ranges():
            dataset = self._store._shard_dataset(shard)
            if lo > 0 or hi < len(dataset):
                dataset = ScenarioDataset(
                    shape=dataset.shape,
                    scenarios=dataset.scenarios[lo:hi],
                )
            if batch_size is None:
                yield dataset
            else:
                yield from dataset.iter_batches(batch_size)

    def iter_tables(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The store's shard tables, scenario rows clipped to the slice.

        Each instance table stays whole: ``inst_offset`` still indexes
        it.
        """
        for shard, lo, hi in self._shard_ranges():
            scenario_table, instance_table = self._store.load_shard_arrays(
                shard
            )
            yield scenario_table[lo:hi], instance_table

    def durations(self) -> np.ndarray:
        """Observed durations for the slice, from the raw columns."""
        if len(self) == 0:
            return np.zeros(0, dtype=np.float64)
        return np.concatenate(
            [
                np.asarray(table["total_duration_s"], dtype=np.float64)
                for table, _ in self.iter_tables()
            ]
        )

    def weights(self) -> np.ndarray:
        """Weights normalised over the slice alone."""
        return normalized_weights(self.durations())

    def schema(self) -> dict[str, Any]:
        return scenario_schema()

    def digest(self) -> str:
        """Logical content digest of the slice (computed once)."""
        if self._digest is None:
            hasher = ScenarioContentHasher(self.shape)
            for batch in self.iter_batches():
                hasher.update_many(batch.scenarios)
            self._digest = hasher.hexdigest()
        return self._digest


class TailingSource:
    """A :class:`ScenarioSource` over a store that is still growing.

    Wraps an open :class:`ShardedScenarioStore` (or a path to one) and
    adds the fleet-mode affordances: ``refresh()`` to see newly
    committed generations without reopening, ``watermark`` marking the
    rows seen so far, and ``new_since(watermark)`` returning a
    :class:`StoreSlice` over only the fresh rows.
    """

    def __init__(self, store) -> None:
        if not isinstance(store, ShardedScenarioStore):
            store = ShardedScenarioStore.open(store)
        self._store = store

    @property
    def store(self) -> ShardedScenarioStore:
        return self._store

    @property
    def path(self) -> pathlib.Path:
        """Store directory (lets save_model persist a store reference)."""
        return self._store.path

    @property
    def shape(self) -> MachineShape:
        return self._store.shape

    @property
    def watermark(self) -> int:
        return len(self._store)

    @property
    def generation(self) -> int:
        """The store's committed generation (0 for one-shot stores)."""
        return int(self._store.manifest.get("generation", 0))

    def refresh(self) -> int:
        """Pick up newly committed generations; returns rows gained."""
        return self._store.refresh()

    def new_since(self, watermark: int) -> StoreSlice:
        """View of the rows appended after *watermark*."""
        return StoreSlice(self._store, watermark, len(self._store))

    # ------------------------------------------------------------------
    # ScenarioSource protocol (delegated to the underlying store)
    def __len__(self) -> int:
        return len(self._store)

    def __getitem__(self, index: int) -> Scenario:
        return self._store[index]

    def iter_batches(
        self, batch_size: int | None = None
    ) -> Iterator[ScenarioDataset]:
        return self._store.iter_batches(batch_size)

    def iter_tables(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        return self._store.iter_tables()

    def weights(self) -> np.ndarray:
        return self._store.weights()

    def durations(self) -> np.ndarray:
        return self._store.durations()

    def schema(self) -> dict[str, Any]:
        return self._store.schema()

    def digest(self) -> str:
        return self._store.digest()
