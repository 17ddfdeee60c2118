"""On-disk shard codec for the scenario store.

Each shard is a pair of uncompressed ``.npy`` files holding numpy
structured arrays — the columnar split of the scenario records:

* ``<name>.scenarios.npy`` — one row per scenario: id, occurrence
  count, observed duration, and the (offset, count) slice of its
  instances in the companion file;
* ``<name>.instances.npy`` — one row per running instance: an interned
  job index (into the manifest's ``job_names`` list) and the load.

Uncompressed ``.npy`` is the point, not a shortcut: ``numpy.load``
memory-maps it directly, so readers touch only the pages they use and
the OS owns eviction — which is what keeps profiling and fitting at
shard-bounded memory.  Writes go to a temp file in the same directory
followed by ``os.replace``, so a crash mid-write can leave garbage temp
files but never a half-written shard under a live name; the manifest is
written last, making store creation atomic as a whole (no manifest, no
store).  Every array's sha256 is recorded in the manifest and checked
on read, so truncation and corruption are detected rather than decoded.
"""

from __future__ import annotations

import hashlib
import io
import os
import pathlib
import zlib

import numpy as np

from ..cluster.machine import MachineShape
from ..cluster.scenario import Scenario, ScenarioDataset
from ..perfmodel.contention import RunningInstance
from ..perfmodel.signatures import JobSignature

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "STORE_FORMAT",
    "STORE_FORMAT_VERSION",
    "SCENARIO_DTYPE",
    "INSTANCE_DTYPE",
    "SHARD_COMPRESSIONS",
    "StoreError",
    "StoreCorruptionError",
    "array_digest",
    "fsync_path",
    "write_array_atomic",
    "read_shard_array",
    "encode_shard",
    "decode_shard",
]

STORE_FORMAT = "repro-scenario-store"
STORE_FORMAT_VERSION = 1
DEFAULT_SHARD_SIZE = 1024

#: Supported shard codecs.  ``None`` (raw ``.npy``) keeps shards
#: memory-mappable; ``"zlib"`` trades memory-mapped reads for smaller
#: files.  Digests always cover the *uncompressed* array bytes,
#: so a store's ``content_digest`` is codec-independent.
SHARD_COMPRESSIONS = (None, "zlib")

#: Columnar scenario record; ``inst_offset``/``inst_count`` index the
#: shard's instance table.  Explicit little-endian so shards are
#: byte-identical across platforms.
SCENARIO_DTYPE = np.dtype(
    [
        ("scenario_id", "<i8"),
        ("n_occurrences", "<i8"),
        ("total_duration_s", "<f8"),
        ("inst_offset", "<i8"),
        ("inst_count", "<i4"),
    ]
)

#: One running instance: interned job index + load.
INSTANCE_DTYPE = np.dtype([("job", "<i4"), ("load", "<f8")])


class StoreError(Exception):
    """A scenario-store operation failed."""


class StoreCorruptionError(StoreError):
    """On-disk bytes do not match what the manifest promises."""


def array_digest(array: np.ndarray) -> str:
    """sha256 of the array's C-order bytes."""
    return hashlib.sha256(
        np.ascontiguousarray(array).tobytes()
    ).hexdigest()


def fsync_path(path: pathlib.Path) -> None:
    """fsync a file (or directory) that already exists under its name."""
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def write_array_atomic(
    path: pathlib.Path,
    array: np.ndarray,
    *,
    fsync: bool = True,
    compression: str | None = None,
) -> int:
    """Write *array* as ``.npy`` via temp-file + rename; returns bytes.

    ``fsync=False`` skips the per-file flush — the rename is still
    atomic, so readers never see a half-written array under a live
    name, but durability is deferred to the caller (the store writer
    batches one fsync pass over all shards at ``finalize`` time, just
    before the manifest that makes them reachable; "no manifest, no
    store" keeps that safe).  ``compression="zlib"`` deflates the
    ``.npy`` byte stream; such files are not memory-mappable and must
    be read back with the same ``compression=``.
    """
    if compression not in SHARD_COMPRESSIONS:
        raise StoreError(f"unknown shard compression {compression!r}")
    path = pathlib.Path(path)
    temporary = path.with_name(f".tmp-{path.name}")
    buffer = io.BytesIO()
    np.save(buffer, array)
    data = buffer.getbuffer()
    if compression == "zlib":
        data = zlib.compress(data, 6)
    # Raw fd writes: at fleet shard cadence the buffered-IO and pathlib
    # ceremony around a temp file costs more than the data itself.
    fd = os.open(temporary, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        os.write(fd, data)
        if fsync:
            os.fsync(fd)
    except BaseException:
        os.close(fd)
        temporary.unlink(missing_ok=True)
        raise
    os.close(fd)
    os.replace(temporary, path)
    return len(data)


def read_shard_array(
    path: pathlib.Path,
    *,
    mmap: bool = True,
    expected_rows: int | None = None,
    expected_digest: str | None = None,
    compression: str | None = None,
) -> np.ndarray:
    """Load one shard array, verifying it against the manifest entry.

    With ``mmap=True`` (the default) the data stays on disk and pages in
    on access.  Digest verification necessarily touches every page of
    the shard — a shard-sized cost, which is the unit the whole store is
    designed to bound memory and latency by.  Compressed shards
    (``compression="zlib"``) are decompressed in memory — ``mmap`` is
    ignored — and the digest is checked over the *decompressed* array,
    so corruption anywhere in the pipeline still surfaces as
    :class:`StoreCorruptionError`.
    """
    if compression not in SHARD_COMPRESSIONS:
        raise StoreError(f"unknown shard compression {compression!r}")
    path = pathlib.Path(path)
    if not path.exists():
        raise StoreCorruptionError(f"missing shard file: {path}")
    try:
        if compression == "zlib":
            array = np.load(
                io.BytesIO(zlib.decompress(path.read_bytes())),
                allow_pickle=False,
            )
        else:
            array = np.load(
                path, mmap_mode="r" if mmap else None, allow_pickle=False
            )
    except Exception as error:
        raise StoreCorruptionError(
            f"unreadable shard file {path}: {error}"
        ) from error
    if expected_rows is not None and array.shape[0] != expected_rows:
        raise StoreCorruptionError(
            f"shard {path.name} has {array.shape[0]} rows, manifest "
            f"says {expected_rows}"
        )
    if expected_digest is not None:
        actual = array_digest(array)
        if actual != expected_digest:
            raise StoreCorruptionError(
                f"shard {path.name} content digest mismatch "
                f"(manifest {expected_digest[:12]}…, file {actual[:12]}…)"
            )
    return array


# ----------------------------------------------------------------------
def encode_shard(
    scenarios: tuple[Scenario, ...] | list[Scenario],
    job_index: dict[str, int],
) -> tuple[np.ndarray, np.ndarray]:
    """Columnarise *scenarios* into (scenario table, instance table).

    *job_index* interns job names; unseen names are assigned the next
    index in place, so the caller's ``job_names`` list (ordered by
    index) stays in sync across shards.

    Packing is columnar: one generator pass per column feeding
    ``np.fromiter`` plus a cumulative-sum for the instance offsets,
    instead of per-row structured assignment — an order of magnitude
    less Python-level work per scenario, byte-identical output (every
    field of both tables is assigned, and the dtypes have no padding).
    """
    n = len(scenarios)
    counts = np.fromiter(
        (len(s.instances) for s in scenarios), dtype=np.int64, count=n
    )
    scenario_table = np.empty(n, dtype=SCENARIO_DTYPE)
    scenario_table["scenario_id"] = np.fromiter(
        (s.scenario_id for s in scenarios), dtype=np.int64, count=n
    )
    scenario_table["n_occurrences"] = np.fromiter(
        (s.n_occurrences for s in scenarios), dtype=np.int64, count=n
    )
    scenario_table["total_duration_s"] = np.fromiter(
        (s.total_duration_s for s in scenarios), dtype=np.float64, count=n
    )
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1])) if n else counts
    scenario_table["inst_offset"] = offsets
    scenario_table["inst_count"] = counts

    n_instances = int(counts.sum())
    instance_table = np.empty(n_instances, dtype=INSTANCE_DTYPE)
    instance_table["job"] = np.fromiter(
        (
            job_index.setdefault(
                instance.signature.name, len(job_index)
            )
            for scenario in scenarios
            for instance in scenario.instances
        ),
        dtype=np.int32,
        count=n_instances,
    )
    instance_table["load"] = np.fromiter(
        (
            instance.load
            for scenario in scenarios
            for instance in scenario.instances
        ),
        dtype=np.float64,
        count=n_instances,
    )
    return scenario_table, instance_table


def decode_shard(
    scenario_table: np.ndarray,
    instance_table: np.ndarray,
    job_names: list[str],
    signatures: dict[str, JobSignature],
    shape: MachineShape,
) -> ScenarioDataset:
    """Rebuild the in-memory scenarios of one shard.

    The scenario key is recomputed from the instance job counts, the
    same reconstruction ``dataset_from_dict`` performs for the legacy
    JSON format — so a store round trip is indistinguishable from a
    JSON round trip.
    """
    # One conversion per column, not one memmap index per element.
    jobs = instance_table["job"].tolist()
    loads = instance_table["load"].tolist()
    scenarios = []
    for scenario_id, n_occurrences, duration, start, count in zip(
        scenario_table["scenario_id"].tolist(),
        scenario_table["n_occurrences"].tolist(),
        scenario_table["total_duration_s"].tolist(),
        scenario_table["inst_offset"].tolist(),
        scenario_table["inst_count"].tolist(),
    ):
        counts: dict[str, int] = {}
        instances = []
        for position in range(start, start + count):
            name = job_names[jobs[position]]
            counts[name] = counts.get(name, 0) + 1
            instances.append(
                RunningInstance(
                    signature=signatures[name], load=loads[position]
                )
            )
        scenarios.append(
            Scenario(
                scenario_id=scenario_id,
                key=tuple(sorted(counts.items())),
                instances=tuple(instances),
                n_occurrences=n_occurrences,
                total_duration_s=duration,
            )
        )
    return ScenarioDataset(shape=shape, scenarios=tuple(scenarios))
