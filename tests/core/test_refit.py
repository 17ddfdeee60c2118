"""Refit-equivalence battery: the fleet mode's safety proof.

Incremental refit (``repro.core.refit``) is only admissible because it
is *provably* equivalent to the from-scratch path it replaces.  This
module is that proof, as tests:

* warm-start on unchanged data is an exact fixed point (bit-identical);
* the refitted state is invariant to how ingestion batched the rows;
* incremental quality tracks the full refit within the paper's bound;
* serial and process-parallel refits agree byte for byte;
* unsound warm starts are refused (``mode="incremental"``) or fall
  back to a full re-fit of the spill (``mode="auto"``);
* a journaled fleet run killed mid-refit resumes to the bit-identical
  published model.

Equality is always on ``fitted_digest`` (or whole serialised files) —
never on approximate metrics — so any silent divergence of the two
paths fails loudly.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys
import textwrap
import time
from types import SimpleNamespace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core import Flare, FlareConfig
from repro.core.analyzer import AnalyzerConfig
from repro.core.refit import (
    RefitUnsoundError,
    refit,
    replay_refit,
)
from repro.io.serialization import fitted_digest, save_model
from repro.obs.monitor import DriftThresholds
from repro.runtime.executor import ProcessExecutor
from repro.store import LiveStore, ShardedScenarioStore
from repro.store.live import StoreSlice
from repro.store.metrics_store import MetricStore
from repro.telemetry.profiler import Profiler

CONFIG = FlareConfig(analyzer=AnalyzerConfig(n_clusters=6))

N0, N1, N2 = 60, 90, 120

#: The reduced 120-scenario simulation shifts per-metric scale between
#: its halves far more than a real fleet's stream would, so the default
#: scaler-drift gate (0.5) would force every refit here to the full
#: path.  Tests that exercise the *incremental* machinery relax the
#: gate; the gate's own policy behaviour is covered by
#: :class:`TestSoundnessGates`.
MAX_DRIFT = 10.0


def _build_store(path, dataset, shard_size: int, marks=(N0, N1, N2)):
    """Write *dataset*'s first rows as committed generations."""
    with LiveStore(path, dataset.shape, shard_size=shard_size) as live:
        start = 0
        for mark in marks:
            live.extend(dataset.scenarios[start:mark])
            live.commit()
            start = mark
    return ShardedScenarioStore.open(path)


@pytest.fixture(scope="module")
def fleet(small_sim, tmp_path_factory):
    """A grown store plus pristine generation-0 and -1 models.

    ``spill0``/``spill1`` are the spills exactly as gen 0 / gen 1 left
    them; refits *mutate* their spill, so tests take copies (via the
    ``spill`` fixture) instead of sharing these.
    """
    root = tmp_path_factory.mktemp("refit-fleet")
    store = _build_store(root / "store", small_sim.dataset, shard_size=16)
    spill0 = root / "spill0"
    gen0 = refit(StoreSlice(store, 0, N0), CONFIG, spill_dir=spill0)
    spill1 = root / "spill1"
    shutil.copytree(spill0, spill1)
    gen1 = refit(
        store,
        prev=gen0,
        spill_dir=spill1,
        trigger="drift:warn",
        max_scaler_drift=MAX_DRIFT,
    )
    assert gen1.lineage[-1].kind == "incremental"
    return SimpleNamespace(
        root=root,
        dataset=small_sim.dataset,
        store=store,
        spill0=spill0,
        gen0=gen0,
        spill1=spill1,
        gen1=gen1,
    )


@pytest.fixture()
def spill(fleet, tmp_path):
    """A private copy of the generation-0 spill, safe to mutate."""
    dst = tmp_path / "spill"
    shutil.copytree(fleet.spill0, dst)
    return dst


class TestWarmStartFixedPoint:
    def test_refit_on_unchanged_data_is_bit_identical(self, fleet, spill):
        again = refit(
            StoreSlice(fleet.store, 0, N0),
            prev=fleet.gen0,
            spill_dir=spill,
        )
        assert fitted_digest(again) == fitted_digest(fleet.gen0)
        entry = again.lineage[-1]
        assert entry.kind == "incremental"
        assert entry.n_new_rows == 0
        assert entry.parent_digest == fitted_digest(fleet.gen0)
        # Nothing was re-profiled: the spill still holds exactly N0 rows.
        assert MetricStore.open(spill).n_rows == N0

    def test_fixed_point_of_the_grown_model_too(self, fleet, tmp_path):
        spill = tmp_path / "spill1"
        shutil.copytree(fleet.spill1, spill)
        again = refit(fleet.store, prev=fleet.gen1, spill_dir=spill)
        assert fitted_digest(again) == fitted_digest(fleet.gen1)


class TestBatchingInvariance:
    """Same previous model + same total data ⇒ same bits, however the
    rows physically arrived (shard boundaries, ingestion batching)."""

    @settings(
        max_examples=3,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(shard_size=st.sampled_from([5, 9, 28]))
    def test_refit_digest_invariant_to_shard_boundaries(
        self, fleet, tmp_path_factory, shard_size
    ):
        root = tmp_path_factory.mktemp(f"shards-{shard_size}")
        store = _build_store(
            root / "store", fleet.dataset, shard_size=shard_size
        )
        spill = root / "spill"
        shutil.copytree(fleet.spill0, spill)
        grown = refit(
            store,
            prev=fleet.gen0,
            spill_dir=spill,
            trigger="drift:warn",
            max_scaler_drift=MAX_DRIFT,
        )
        assert fitted_digest(grown) == fitted_digest(fleet.gen1)

    def test_refit_digest_invariant_to_commit_boundaries(
        self, fleet, tmp_path
    ):
        # One giant commit instead of three generations.
        store = _build_store(
            tmp_path / "store", fleet.dataset, shard_size=16, marks=(N2,)
        )
        spill = tmp_path / "spill"
        shutil.copytree(fleet.spill0, spill)
        grown = refit(
            store,
            prev=fleet.gen0,
            spill_dir=spill,
            watermark=N0,
            trigger="drift:warn",
            max_scaler_drift=MAX_DRIFT,
        )
        assert fitted_digest(grown) == fitted_digest(fleet.gen1)


class TestReplay:
    def test_replay_plan_reproduces_the_refit_bit_for_bit(
        self, fleet, tmp_path
    ):
        plan = fleet.gen1._refit_plan
        assert plan is not None and plan.init is not None
        replayed = replay_refit(
            fleet.store, CONFIG, plan, spill_dir=tmp_path / "replay"
        )
        assert fitted_digest(replayed) == fitted_digest(fleet.gen1)

    def test_json_round_tripped_plan_still_reproduces(self, fleet, tmp_path):
        # The fleet journal carries the plan through JSON; doubles must
        # survive the round trip exactly.
        wire = json.loads(json.dumps(fleet.gen1._refit_plan.to_dict()))
        replayed = replay_refit(
            fleet.store, CONFIG, wire, spill_dir=tmp_path / "replay"
        )
        assert fitted_digest(replayed) == fitted_digest(fleet.gen1)


class TestSerialProcessEquivalence:
    @pytest.mark.slow
    def test_process_refit_is_byte_identical_to_serial(
        self, fleet, spill, tmp_path
    ):
        spill_b = tmp_path / "spill-b"
        shutil.copytree(fleet.spill0, spill_b)
        serial = refit(
            fleet.store,
            prev=fleet.gen0,
            spill_dir=spill,
            max_scaler_drift=MAX_DRIFT,
        )
        with ProcessExecutor(max_workers=2) as pool:
            parallel = refit(
                fleet.store,
                prev=fleet.gen0,
                spill_dir=spill_b,
                runtime=pool,
                max_scaler_drift=MAX_DRIFT,
            )
        a, b = tmp_path / "serial.json", tmp_path / "process.json"
        save_model(serial, a)
        save_model(parallel, b)
        assert a.read_bytes() == b.read_bytes()


class TestEquivalenceBattery:
    def test_incremental_tracks_full_refit_quality(
        self, fleet, tmp_path, monkeypatch
    ):
        profiled_rows = []
        real_iter_profile = Profiler.iter_profile

        def counting_iter_profile(self, *args, **kwargs):
            for batch in real_iter_profile(self, *args, **kwargs):
                profiled_rows[-1] += batch.matrix.shape[0]
                yield batch

        monkeypatch.setattr(Profiler, "iter_profile", counting_iter_profile)

        def timed(run):
            """Best wall time of 3 runs, and the rows each run profiled."""
            walls, rows = [], []
            for attempt in range(3):
                profiled_rows.append(0)
                started = time.perf_counter()
                model = run(attempt)
                walls.append(time.perf_counter() - started)
                rows.append(profiled_rows[-1])
            return model, min(walls), rows

        full, full_wall, full_rows = timed(
            lambda attempt: refit(
                fleet.store, CONFIG, spill_dir=tmp_path / f"full-{attempt}"
            )
        )

        spills = [tmp_path / f"spill-{attempt}" for attempt in range(3)]
        for spill in spills:
            shutil.copytree(fleet.spill0, spill)
        inc, inc_wall, inc_rows = timed(
            lambda attempt: refit(
                fleet.store,
                prev=fleet.gen0,
                spill_dir=spills[attempt],
                max_scaler_drift=MAX_DRIFT,
            )
        )

        assert inc.lineage[-1].kind == "incremental"
        inc_sse = inc.representatives.baseline.sse_per_scenario
        full_sse = full.representatives.baseline.sse_per_scenario
        # The paper's acceptance bound: incremental error within 5%
        # relative of the full refit (the precise cost ratio is measured
        # by benchmarks/bench_refit.py and gated in CI).
        assert abs(inc_sse - full_sse) <= 0.05 * full_sse
        # The work that makes the incremental refit cheaper: it profiles
        # only the rows past the previous model's watermark.
        assert inc_rows == [N2 - N0] * 3
        assert full_rows == [N2] * 3
        # Half the profiling and a single warm Lloyd run instead of a
        # restarted fit must be cheaper in wall time; the best of three
        # runs per side keeps one slow run on a loaded machine from
        # deciding the comparison.
        assert inc_wall < full_wall

    def test_lineage_chain_is_auditable(self, fleet):
        gen0, gen1 = fleet.gen0.lineage[-1], fleet.gen1.lineage[-1]
        assert [e.generation for e in fleet.gen1.lineage] == [0, 1]
        assert gen0.kind == "full" and gen0.trigger == "initial"
        assert gen0.parent_digest is None
        assert gen0.n_scenarios == N0 and gen0.n_new_rows == N0
        assert gen1.trigger == "drift:warn"
        assert gen1.parent_digest == fitted_digest(fleet.gen0)
        assert gen1.source_digest == fleet.store.digest()
        assert gen1.n_scenarios == N2 and gen1.n_new_rows == N2 - N0


class TestSoundnessGates:
    def test_cluster_count_change_refuses_incremental(self, fleet, spill):
        other = FlareConfig(analyzer=AnalyzerConfig(n_clusters=4))
        with pytest.raises(RefitUnsoundError, match="cluster count"):
            refit(
                fleet.store,
                other,
                prev=fleet.gen0,
                spill_dir=spill,
                mode="incremental",
            )

    def test_cluster_count_change_falls_back_to_full(self, fleet, spill):
        other = FlareConfig(analyzer=AnalyzerConfig(n_clusters=4))
        grown = refit(fleet.store, other, prev=fleet.gen0, spill_dir=spill)
        entry = grown.lineage[-1]
        assert entry.kind == "full"
        assert entry.trigger.endswith("+cluster-count")
        assert grown.analysis.n_clusters == 4
        # The fallback re-fits (and re-profiles) from row zero.
        assert entry.n_new_rows == N2

    def test_scaler_drift_refuses_incremental(self, fleet, spill):
        with pytest.raises(RefitUnsoundError, match="drifted"):
            refit(
                fleet.store,
                prev=fleet.gen0,
                spill_dir=spill,
                mode="incremental",
                max_scaler_drift=-1.0,
            )

    def test_scaler_drift_falls_back_without_reprofiling(self, fleet, spill):
        grown = refit(
            fleet.store,
            prev=fleet.gen0,
            spill_dir=spill,
            max_scaler_drift=-1.0,
        )
        entry = grown.lineage[-1]
        assert entry.kind == "full"
        assert entry.trigger.endswith("+scaler-drift")
        # The drift gate fires *after* profiling: only the new rows were
        # profiled even though the clustering restarted from scratch.
        assert entry.n_new_rows == N2 - N0
        assert MetricStore.open(spill).n_rows == N2

    def test_refit_rejects_foreign_spill(self, fleet, tmp_path):
        # A spill holding more rows than the source covers cannot be the
        # previous fit's spill for this source.
        spill = tmp_path / "spill"
        shutil.copytree(fleet.spill1, spill)
        with pytest.raises(ValueError, match="spill"):
            refit(
                StoreSlice(fleet.store, 0, N0),
                prev=fleet.gen0,
                spill_dir=spill,
            )


class TestWatchLoop:
    def _tail(self, fleet, index=0):
        from repro.cli import _SegmentReplay

        return _SegmentReplay(fleet.store, [N0, N1, N2], index)

    def test_healthy_stream_leaves_the_model_alone(self, fleet, spill):
        calm = DriftThresholds(
            psi_warn=1e9,
            psi_alert=1e9,
            novelty_warn=1.1,
            novelty_alert=1.1,
            sse_ratio_warn=1e9,
            sse_ratio_alert=1e9,
        )
        decisions = list(
            fleet.gen0.watch(
                self._tail(fleet), spill_dir=spill, thresholds=calm
            )
        )
        # The loop terminated (healthy rows are not absorbed, but a
        # stream that stopped growing is not re-scored forever).
        assert decisions and all(d.action == "none" for d in decisions)
        assert all(d.status == "healthy" for d in decisions)
        assert decisions[-1].model is fleet.gen0

    def test_drifting_stream_refits_and_converges(self, fleet, spill):
        paranoid = DriftThresholds(psi_warn=-1.0, psi_alert=-1.0)
        decisions = list(
            fleet.gen0.watch(
                self._tail(fleet),
                spill_dir=spill,
                thresholds=paranoid,
                max_scaler_drift=MAX_DRIFT,
            )
        )
        assert [d.cycle for d in decisions] == [1, 2]
        assert [d.watermark for d in decisions] == [N0, N1]
        assert all(d.status == "alert" for d in decisions)
        assert all(d.action.startswith("refit:") for d in decisions)
        final = decisions[-1].model
        assert int(final.analysis.labels.shape[0]) == N2
        assert [e.generation for e in final.lineage] == [0, 1, 2]

    def test_watch_bootstraps_a_missing_spill(self, fleet, tmp_path):
        # A model from plain Flare.fit has no persistent spill; the loop
        # must rebuild one (cycle 0) before incremental refits can run.
        model = Flare(CONFIG).fit(StoreSlice(fleet.store, 0, N0))
        paranoid = DriftThresholds(psi_warn=-1.0, psi_alert=-1.0)
        decisions = list(
            model.watch(
                self._tail(fleet),
                spill_dir=tmp_path / "spill",
                thresholds=paranoid,
                max_scaler_drift=MAX_DRIFT,
            )
        )
        boot = decisions[0]
        assert boot.cycle == 0
        assert boot.status == "bootstrap"
        assert boot.action == "refit:full"
        assert MetricStore.open(tmp_path / "spill").n_rows == N2
        assert all(
            d.action == "refit:incremental" for d in decisions[1:]
        )


@pytest.mark.slow
class TestFleetCrashResume:
    """SIGKILL mid-refit, then ``repro fleet --resume``: the published
    model must be byte-identical to an uninterrupted run and the ledger
    must stay coherent (no duplicated generations or cycles)."""

    ARGS = [
        "--seed",
        "11",
        "--days",
        "1.0",
        "--segment-days",
        "0.25",
        "--scenarios",
        "48",
        "--shard-size",
        "16",
        "--clusters",
        "5",
    ]

    # The gen-0 fit is StreamingKMeans.fit call #1; the first drift (or
    # final) refit is call #2 — killing there always leaves a journaled
    # cycle behind plus a spill extended past the journaled watermark,
    # the exact crash window --resume must absorb.
    DRIVER = textwrap.dedent(
        """
        import os, sys

        kill_at = int(sys.argv[1])
        if kill_at > 0:
            from repro.stats.kmeans import StreamingKMeans

            real = StreamingKMeans.fit
            state = {"calls": 0}

            def fit(self, *args, **kwargs):
                state["calls"] += 1
                if state["calls"] == kill_at:
                    os._exit(9)
                return real(self, *args, **kwargs)

            StreamingKMeans.fit = fit
        from repro.cli import main

        sys.exit(main(sys.argv[2:]))
        """
    )

    def _run(self, tmp_path, tag, *, kill_at=0, resume=False):
        out = tmp_path / f"model-{tag}.json"
        argv = [
            sys.executable,
            str(tmp_path / "driver.py"),
            str(kill_at),
            "fleet",
            # The store rebuild is deterministic, so every run shares
            # one directory — which also keeps the saved models'
            # embedded store reference (path + digest) identical.
            "--store",
            str(tmp_path / "store"),
            "--spill",
            str(tmp_path / f"spill-{tag}"),
            "--out",
            str(out),
            "--checkpoint",
            str(tmp_path / f"ck-{tag}"),
            "--ledger",
            str(tmp_path / f"ledger-{tag}.jsonl"),
            *self.ARGS,
        ]
        if resume:
            argv.append("--resume")
        env = dict(os.environ)
        src = pathlib.Path(__file__).resolve().parents[2] / "src"
        env["PYTHONPATH"] = os.pathsep.join(
            [str(src)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        result = subprocess.run(
            argv, capture_output=True, text=True, cwd=tmp_path, env=env
        )
        return result, out

    def test_killed_run_resumes_to_identical_model(self, tmp_path):
        (tmp_path / "driver.py").write_text(self.DRIVER)

        control, control_out = self._run(tmp_path, "control")
        assert control.returncode == 0, control.stderr

        killed, _ = self._run(tmp_path, "chaos", kill_at=2)
        assert killed.returncode == 9
        journal = tmp_path / "ck-chaos" / "fleet-journal.jsonl"
        assert journal.exists(), "the kill landed before cycle 0 finished"

        resumed, chaos_out = self._run(tmp_path, "chaos", resume=True)
        assert resumed.returncode == 0, resumed.stderr
        assert "resume: restored cycle" in resumed.stdout

        # Byte-for-byte: digest, lineage, replay plan, store reference.
        assert chaos_out.read_bytes() == control_out.read_bytes()

        # Ledger coherence across kill + resume: every refit generation
        # recorded exactly once (the killed cycle recorded nothing; the
        # resume replays it without re-recording).
        records = [
            json.loads(line)
            for line in (tmp_path / "ledger-chaos.jsonl")
            .read_text()
            .splitlines()
            if line.strip()
        ]
        generations = [
            r["labels"]["generation"]
            for r in records
            if r["kind"] == "refit"
        ]
        assert generations == sorted(set(generations), key=int)

        # Journal coherence: cycles strictly increasing, one line each.
        cycles = [
            json.loads(line)["cycle"]
            for line in journal.read_text().splitlines()
            if line.strip()
        ]
        assert cycles == sorted(set(cycles))

        # Idempotent resume: re-running the now-*completed* run
        # republishes the journaled model verbatim instead of stacking
        # another (fixed-point, but lineage-growing) refit on top.
        again, again_out = self._run(tmp_path, "chaos", resume=True)
        assert again.returncode == 0, again.stderr
        assert "previous run completed; republishing" in again.stdout
        assert again_out.read_bytes() == control_out.read_bytes()
        assert journal.read_text().count("\n") == len(cycles)
