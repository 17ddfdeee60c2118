"""Acceptance: a streaming profile killed mid-run resumes identically.

Mirrors the runtime kill/resume chaos test, but through the store-backed
profiling path: a subprocess streams a sharded store through
``Profiler.profile`` under a checkpoint journal, dies partway through the
table slices, and a resumed invocation must complete from the journal to
the bit-identical metric matrix of an uninterrupted run.
"""

from __future__ import annotations

import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

SRC_DIR = str(pathlib.Path(__file__).resolve().parents[2] / "src")


@pytest.mark.slow
class TestKillDuringStreamingProfile:
    def _run(self, store_path, journal_root, kill_at: int, out_path):
        script = textwrap.dedent(
            f"""
            import hashlib, json, os, sys
            sys.path.insert(0, {SRC_DIR!r})
            import repro.telemetry.profiler as profiler_mod
            from repro.obs import get_metrics
            from repro.runtime import SerialExecutor
            from repro.runtime.cache import CheckpointJournal
            from repro.store import open_store

            kill_at = int(sys.argv[1])
            calls = [0]
            original = profiler_mod._CollectTablesTask.__call__
            def counting(self, item):
                calls[0] += 1
                if 0 <= kill_at < calls[0]:
                    os._exit(9)
                return original(self, item)
            profiler_mod._CollectTablesTask.__call__ = counting

            store = open_store({str(store_path)!r})
            journal = CheckpointJournal({str(journal_root)!r}, "profile")
            executor = SerialExecutor(checkpoint=journal)
            profiled = profiler_mod.Profiler().profile(
                store, runtime=executor
            )
            hits = get_metrics().snapshot()["counters"].get(
                "checkpoint_hits_total", 0
            )
            json.dump(
                {{
                    "digest": hashlib.sha256(
                        profiled.matrix.tobytes()
                    ).hexdigest(),
                    "slices_executed": calls[0],
                    "hits": hits,
                }},
                open(sys.argv[2], "w"),
            )
            """
        )
        return subprocess.run(
            [sys.executable, "-c", script, str(kill_at), str(out_path)],
            capture_output=True,
            text=True,
        )

    def test_sigkill_mid_profile_then_resume(self, shared_store, tmp_path):
        # An uninterrupted control run: the total slice count and the
        # reference matrix.
        proc = self._run(
            shared_store.path,
            tmp_path / "fresh",
            -1,
            tmp_path / "control.json",
        )
        assert proc.returncode == 0, proc.stderr
        control = json.loads((tmp_path / "control.json").read_text())
        total = control["slices_executed"]
        assert control["hits"] == 0

        # First run dies partway through the slices.
        kill_at = total // 2
        journal_root = tmp_path / "journal"
        proc = self._run(
            shared_store.path, journal_root, kill_at, tmp_path / "dead.json"
        )
        assert proc.returncode == 9, proc.stderr
        journaled = len(list((journal_root / "profile").glob("chunk-*.pkl")))
        assert 0 < journaled <= kill_at

        # The resumed run re-executes only the slices the dead run lost.
        proc = self._run(
            shared_store.path, journal_root, -1, tmp_path / "resumed.json"
        )
        assert proc.returncode == 0, proc.stderr
        resumed = json.loads((tmp_path / "resumed.json").read_text())
        assert resumed["hits"] == journaled
        assert resumed["slices_executed"] == total - journaled
        assert resumed["digest"] == control["digest"]


class TestResumeOnAnotherWorkerCount:
    """A journal restores every slice whatever worker count resumes it.

    The profiler maps ``2 × max_workers`` slices per executor call, so
    a ``process:2`` run and a ``process:1`` run group the same slices
    into different calls; journal keys must not depend on that.
    """

    def _runtime(self, executor: str, journal_root, *, resume: bool):
        from repro.runtime import RuntimeConfig

        return RuntimeConfig(
            executor=executor,
            chunk_size=8,
            checkpoint_dir=str(journal_root),
            resume=resume,
        )

    def test_process2_journal_resumed_on_process1(
        self, shared_store, tmp_path
    ):
        import hashlib

        from repro.obs import get_metrics
        from repro.telemetry import Profiler

        def digest(profiled) -> str:
            return hashlib.sha256(profiled.matrix.tobytes()).hexdigest()

        def hits() -> float:
            return get_metrics().counter("checkpoint_hits_total")

        control = digest(Profiler().profile(shared_store))
        journal_root = tmp_path / "journal"
        journaled = Profiler().profile(
            shared_store,
            runtime=self._runtime("process:2", journal_root, resume=False),
        )
        assert digest(journaled) == control
        slices = list(journal_root.glob("*/chunk-*.pkl"))
        # 60 rows over 16-row shards in 8-row slices: 2 + 2 + 2 + 2.
        assert len(slices) == 8

        before = hits()
        resumed = Profiler().profile(
            shared_store,
            runtime=self._runtime("process:1", journal_root, resume=True),
        )
        assert hits() - before == len(slices)
        assert len(list(journal_root.glob("*/chunk-*.pkl"))) == len(slices)
        assert digest(resumed) == control
