"""Checkpoint journal: completed executor chunks, kept on disk for resume.

An executor with a :class:`CheckpointJournal` attached records each
completed chunk's results; a restarted run (CLI ``--resume``) restores
them instead of re-executing.  Fitted models are memoised per
``(scale, seed)`` by :func:`repro.experiments.context.get_context`, and
solves by :mod:`repro.perfmodel.memo`; this module keeps no other cache.
"""

from __future__ import annotations

import hashlib
import os
import pathlib
import pickle

__all__ = ["CheckpointJournal"]


class CheckpointJournal:
    """Digest-keyed journal of completed executor chunks for resume.

    An executor with a journal attached records every completed chunk's
    results under ``sha256(stage, task digest, chunk payload)`` — one
    pickle file per chunk, written atomically.  When a killed run
    restarts with the same journal (CLI ``--resume``), every ``map``
    call restores its already-journaled chunks instead of re-executing
    them (scored on the ``checkpoint_hits_total`` counter) and re-runs
    only the rest.  Because tasks are pure functions of their items,
    a key depends on content alone — not on where the chunk sits in a
    ``map`` call — so a chunk is restored whatever worker count or
    dispatch window the resumed run uses, and the resumed run's
    results are bit-identical to an uninterrupted one.

    Chunks containing :class:`~repro.runtime.resilience.TaskFailure`
    entries are never journaled — a degraded chunk gets a fresh chance
    on resume rather than its failure becoming sticky.
    """

    def __init__(self, directory, run_id: str = "default") -> None:
        safe = "".join(
            c if c.isalnum() or c in "-_." else "-" for c in run_id
        )
        if not safe:
            raise ValueError("run_id must be non-empty")
        self.run_id = safe
        self.directory = pathlib.Path(directory) / safe

    # ------------------------------------------------------------------
    def chunk_keys(self, stage: str, fn, chunks: list) -> list[str]:
        """Content keys of one ``map`` call's chunks.

        Keys digest the stage label, the task callable and each chunk's
        pickled payload, so a changed task or input set misses the
        journal instead of restoring stale results.  A chunk's position
        in the call is left out: equal content has equal results.
        """
        try:
            fn_digest = hashlib.sha256(
                pickle.dumps(fn, protocol=4)
            ).hexdigest()
        except Exception:  # closures etc. — identify by name instead
            fn_digest = f"{getattr(fn, '__module__', '?')}." + getattr(
                fn, "__qualname__", repr(fn)
            )
        keys = []
        for chunk in chunks:
            digest = hashlib.sha256()
            digest.update(stage.encode())
            digest.update(fn_digest.encode())
            try:
                digest.update(pickle.dumps(chunk, protocol=4))
            except Exception:
                digest.update(repr(chunk).encode())
            keys.append(digest.hexdigest())
        return keys

    def _path(self, key: str) -> pathlib.Path:
        return self.directory / f"chunk-{key[:40]}.pkl"

    def get(self, key: str):
        """Journaled results for *key*, or ``None`` (corrupt ⇒ miss)."""
        path = self._path(key)
        if not path.exists():
            return None
        try:
            with open(path, "rb") as handle:
                return pickle.load(handle)
        except Exception:
            path.unlink(missing_ok=True)
            return None

    def put(self, key: str, results: list) -> None:
        """Journal one completed chunk (atomic; unpicklable ⇒ no-op)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self._path(key)
        tmp = path.with_suffix(f".tmp-{os.getpid()}")
        try:
            with open(tmp, "wb") as handle:
                pickle.dump(results, handle, protocol=4)
        except Exception:
            tmp.unlink(missing_ok=True)
            return
        os.replace(tmp, path)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        if not self.directory.exists():
            return 0
        return sum(1 for _ in self.directory.glob("chunk-*.pkl"))

    def clear(self) -> None:
        """Drop every journaled chunk (a completed run's cleanup)."""
        if not self.directory.exists():
            return
        for path in self.directory.glob("chunk-*.pkl"):
            path.unlink(missing_ok=True)

    def __repr__(self) -> str:
        return (
            f"CheckpointJournal(directory={str(self.directory)!r}, "
            f"chunks={len(self)})"
        )
