"""Parallel profiling: one table-slice transport, bit-identical to inline.

Every runtime profile ships columnar table slices by value to one task.
Whatever the source (in-memory dataset, store, compressed store, store
slice, tailing source), executor, chunk size or injected fault, the
metric matrix must equal the inline (no runtime) profile byte for byte.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
import subprocess
import sys
import textwrap

import pytest

from repro.cluster.scenario import ScenarioDataset
from repro.perfmodel.contention import RunningInstance
from repro.runtime import (
    FaultSpec,
    ProcessExecutor,
    ResilienceConfig,
    RetryPolicy,
    RuntimeConfig,
    SerialExecutor,
)
from repro.store import StoreSlice, TailingSource, write_store
from repro.telemetry import Profiler


def _fast_retry(max_retries: int = 3) -> RetryPolicy:
    return RetryPolicy(
        max_retries=max_retries, backoff_base_s=0.0, backoff_jitter=0.0
    )


def _inline(source) -> bytes:
    return Profiler().profile(source).matrix.tobytes()


@pytest.fixture(scope="module")
def compressed_store(store_dataset, tmp_path_factory):
    path = tmp_path_factory.mktemp("compressed-store") / "store"
    return write_store(store_dataset, path, shard_size=16, compression="zlib")


@pytest.fixture(scope="module")
def pool():
    with ProcessExecutor(max_workers=2) as executor:
        yield executor


class TestDispatchEquivalence:
    def test_store_transports_bit_identical(self, shared_store, pool):
        inline = _inline(shared_store)
        with SerialExecutor() as serial:
            assert (
                Profiler().profile(shared_store, runtime=serial).matrix.tobytes()
                == inline
            )
        assert (
            Profiler().profile(shared_store, runtime=pool).matrix.tobytes()
            == inline
        )
        assert (
            Profiler()
            .profile(shared_store, runtime=RuntimeConfig(executor="process:2"))
            .matrix.tobytes()
            == inline
        )

    def test_in_memory_transports_bit_identical(self, store_dataset, pool):
        inline = _inline(store_dataset)
        with SerialExecutor() as serial:
            assert (
                Profiler().profile(store_dataset, runtime=serial).matrix.tobytes()
                == inline
            )
        assert (
            Profiler().profile(store_dataset, runtime=pool).matrix.tobytes()
            == inline
        )

    def test_compressed_store_bit_identical(
        self, compressed_store, shared_store, pool
    ):
        inline = _inline(shared_store)
        assert _inline(compressed_store) == inline
        assert (
            Profiler().profile(compressed_store, runtime=pool).matrix.tobytes()
            == inline
        )

    @pytest.mark.parametrize("start, stop", [(0, 60), (5, 37), (16, 32)])
    def test_store_slice_bit_identical(self, shared_store, pool, start, stop):
        view = StoreSlice(shared_store, start, stop)
        inline = _inline(view)
        assert (
            Profiler().profile(view, runtime=pool).matrix.tobytes() == inline
        )
        with SerialExecutor() as serial:
            assert (
                Profiler()
                .profile(view, runtime=RuntimeConfig(executor=serial, chunk_size=3))
                .matrix.tobytes()
                == inline
            )

    def test_tailing_source_bit_identical(self, shared_store, pool):
        tail = TailingSource(shared_store.path)
        assert (
            Profiler().profile(tail, runtime=pool).matrix.tobytes()
            == _inline(shared_store)
        )

    def test_chunk_size_does_not_change_results(
        self, shared_store, store_dataset, pool
    ):
        for chunk_size in (3, "auto"):
            for source in (shared_store, store_dataset):
                chunked = Profiler().profile(
                    source,
                    runtime=RuntimeConfig(executor=pool, chunk_size=chunk_size),
                )
                assert chunked.matrix.tobytes() == _inline(source)

    def test_batches_stay_shard_aligned(self, shared_store, pool):
        # One batch per shard, however the shards are cut into items:
        # the out-of-core fit accumulates at these boundaries.
        batches = list(
            Profiler().iter_profile(
                shared_store,
                runtime=RuntimeConfig(executor=pool, chunk_size=3),
            )
        )
        assert [b.start_row for b in batches] == [0, 16, 32, 48]
        assert [len(b.dataset) for b in batches] == [16, 16, 16, 12]
        assert list(batches[1].dataset.scenarios) == list(
            shared_store.to_dataset().scenarios[16:32]
        )

    def test_conflicting_signatures_collected_inline(self, store_dataset, pool):
        # One job name, two signatures: such a dataset cannot be
        # interned into tables, so it is collected in the parent.
        first = store_dataset.scenarios[0].instances[0]
        twin = dataclasses.replace(
            first.signature, base_cpi=first.signature.base_cpi * 1.5
        )
        scenario = store_dataset.scenarios[1]
        swapped = dataclasses.replace(
            scenario,
            instances=(RunningInstance(twin, first.load),)
            + scenario.instances[1:],
        )
        dataset = ScenarioDataset(
            shape=store_dataset.shape,
            scenarios=(store_dataset.scenarios[0], swapped)
            + store_dataset.scenarios[2:],
        )
        parallel = Profiler().profile(dataset, runtime=pool).matrix
        assert parallel.tobytes() == _inline(dataset)
        assert parallel.tobytes() != _inline(store_dataset)


class TestSharedMemoryHygiene:
    def test_success_path_unlinks_segments(self, store_dataset, monkeypatch):
        # Table slices travel by value: a parallel in-memory profile
        # must not open a shared-memory segment that could leak.
        from multiprocessing import shared_memory

        opened = []
        real = shared_memory.SharedMemory

        def recording(*args, **kwargs):
            opened.append((args, kwargs))
            return real(*args, **kwargs)

        monkeypatch.setattr(shared_memory, "SharedMemory", recording)
        matrix = Profiler().profile(
            store_dataset, runtime=RuntimeConfig(executor="process:2")
        ).matrix
        assert matrix.tobytes() == _inline(store_dataset)
        assert opened == []


class TestFaults:
    @pytest.mark.parametrize("source", ["shared_store", "store_dataset"])
    def test_equivalent_under_fault_injection(self, request, source):
        source = request.getfixturevalue(source)
        res = ResilienceConfig(
            policy="retry_then_raise",
            retry=_fast_retry(),
            faults=FaultSpec(exception_rate=0.25, seed=13),
        )
        with ProcessExecutor(max_workers=2, resilience=res) as chaotic:
            matrix = Profiler().profile(
                source, runtime=RuntimeConfig(executor=chaotic, chunk_size=3)
            ).matrix
        assert matrix.tobytes() == _inline(source)

    def test_equivalent_across_pool_respawn(self, shared_store):
        res = ResilienceConfig(
            policy="retry_then_raise",
            retry=_fast_retry(),
            faults=FaultSpec(crash_rate=0.10, seed=29),
        )
        with ProcessExecutor(max_workers=2, resilience=res) as chaotic:
            survived = Profiler().profile(shared_store, runtime=chaotic).matrix
        assert survived.tobytes() == _inline(shared_store)

    def test_skipped_slice_is_an_error(self, shared_store):
        # A matrix with missing rows would skew every later stage.
        res = ResilienceConfig(
            policy="retry_then_skip",
            retry=_fast_retry(max_retries=0),
            faults=FaultSpec(exception_rate=1.0, seed=5),
        )
        with SerialExecutor(resilience=res) as skipping:
            with pytest.raises(RuntimeError, match="lost a table slice"):
                Profiler().profile(shared_store, runtime=skipping)

    def test_failure_path_raises(self, store_dataset):
        res = ResilienceConfig(
            policy="fail_fast",
            faults=FaultSpec(exception_rate=1.0, seed=3),
        )
        with ProcessExecutor(max_workers=2, resilience=res) as failing:
            with pytest.raises(Exception):
                Profiler().profile(store_dataset, runtime=failing)


SRC_DIR = str(pathlib.Path(__file__).resolve().parents[2] / "src")


@pytest.mark.slow
class TestParallelResume:
    """A ``process:2`` profile killed mid-run resumes identically.

    Table slices are plain arrays, so a resumed run rebuilds the same
    journal keys and restores the windows the killed run completed.
    """

    def _run(self, store_path, journal_root, kill_after: int, out_path):
        script = textwrap.dedent(
            f"""
            import hashlib, json, os, signal, sys
            sys.path.insert(0, {SRC_DIR!r})
            from repro.obs import get_metrics
            from repro.runtime import ProcessExecutor, RuntimeConfig
            from repro.store import open_store
            from repro.telemetry import Profiler

            kill_after = int(sys.argv[1])
            windows = [0]
            original = ProcessExecutor.map
            def dying(self, fn, items, **kwargs):
                out = original(self, fn, items, **kwargs)
                if kwargs.get("stage") == "profile":
                    windows[0] += 1
                    if 0 <= kill_after <= windows[0]:
                        # Completed chunks are journaled; die like a
                        # preempted job (workers first, no cleanup).
                        self._kill_pool()
                        os.kill(os.getpid(), signal.SIGKILL)
                return out
            ProcessExecutor.map = dying

            store = open_store({str(store_path)!r})
            runtime = RuntimeConfig(
                executor="process:2",
                chunk_size=8,
                checkpoint_dir={str(journal_root)!r},
                resume=bool(int(sys.argv[3])),
            )
            profiled = Profiler().profile(store, runtime=runtime)
            hits = get_metrics().snapshot()["counters"].get(
                "checkpoint_hits_total", 0
            )
            json.dump(
                {{
                    "digest": hashlib.sha256(
                        profiled.matrix.tobytes()
                    ).hexdigest(),
                    "hits": int(hits),
                }},
                open(sys.argv[2], "w"),
            )
            """
        )
        return subprocess.run(
            [
                sys.executable,
                "-c",
                script,
                str(kill_after),
                str(out_path),
                "1" if kill_after < 0 else "0",
            ],
            capture_output=True,
            text=True,
        )

    def test_sigkill_mid_profile_then_resume(self, shared_store, tmp_path):
        control = hashlib.sha256(
            Profiler().profile(shared_store).matrix.tobytes()
        ).hexdigest()
        journal_root = tmp_path / "journal"

        # First run dies after the first dispatch window (4 slices of
        # 8 rows journaled out of 8).
        proc = self._run(
            shared_store.path, journal_root, 1, tmp_path / "dead.json"
        )
        assert proc.returncode == -9, proc.stderr
        journaled = list(journal_root.glob("*/chunk-*.pkl"))
        assert len(journaled) == 4

        # The resumed run restores those slices and completes.
        proc = self._run(
            shared_store.path, journal_root, -1, tmp_path / "resumed.json"
        )
        assert proc.returncode == 0, proc.stderr
        resumed = json.loads((tmp_path / "resumed.json").read_text())
        assert resumed["hits"] == 4
        assert resumed["digest"] == control
