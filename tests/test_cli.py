"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture(scope="module")
def dataset_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "dataset.json"
    code = main(
        [
            "simulate",
            "--seed",
            "4",
            "--scenarios",
            "60",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


@pytest.fixture(scope="module")
def model_path(dataset_path, tmp_path_factory):
    path = tmp_path_factory.mktemp("cli-model") / "model.json"
    code = main(
        [
            "fit",
            "--dataset",
            str(dataset_path),
            "--clusters",
            "5",
            "--out",
            str(path),
        ]
    )
    assert code == 0
    return path


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_feature_rejected(self, model_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["evaluate", "--model", str(model_path), "--feature", "nope"]
            )

    def test_runtime_stats_flag_removed(self, dataset_path, tmp_path):
        # --obs-summary is the one spelling; the 1.x alias is gone.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                [
                    "fit",
                    "--dataset",
                    str(dataset_path),
                    "--out",
                    str(tmp_path / "model.json"),
                    "--runtime-stats",
                ]
            )
        assert exc.value.code == 2

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["--version"])
        assert exc.value.code == 0
        assert "repro" in capsys.readouterr().out


class TestSimulate:
    def test_writes_dataset(self, dataset_path, capsys):
        from repro.io import load_dataset

        dataset = load_dataset(dataset_path)
        assert len(dataset) == 60


class TestFitAndEvaluate:
    def test_model_written(self, model_path):
        from repro.io import load_model

        flare = load_model(model_path)
        assert flare.analysis.n_clusters == 5

    def test_evaluate_all_job(self, model_path, capsys):
        code = main(
            [
                "evaluate",
                "--model",
                str(model_path),
                "--feature",
                "feature1",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MIPS reduction" in out
        assert "per-group breakdown" in out

    def test_evaluate_per_job(self, model_path, capsys):
        code = main(
            [
                "evaluate",
                "--model",
                str(model_path),
                "--feature",
                "feature2",
                "--job",
                "WSC",
            ]
        )
        assert code == 0
        assert "impact on WSC" in capsys.readouterr().out

    def test_evaluate_baseline_is_zero(self, model_path, capsys):
        code = main(
            [
                "evaluate",
                "--model",
                str(model_path),
                "--feature",
                "baseline",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "0.00% MIPS reduction" in out


class TestReport:
    def test_report_prints_pcs_and_radar(self, model_path, capsys):
        code = main(["report", "--model", str(model_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "PC0" in out
        assert "Cluster 0" in out


class TestExperiment:
    def test_experiment_fig07(self, capsys):
        code = main(
            ["experiment", "--figure", "fig07", "--scale", "small",
             "--seed", "5"]
        )
        assert code == 0
        assert "Figure 7" in capsys.readouterr().out


class TestObservabilityFlags:
    def test_evaluate_with_trace_and_summary(self, model_path, tmp_path, capsys):
        import json

        trace_path = tmp_path / "trace.json"
        code = main(
            [
                "evaluate",
                "--model",
                str(model_path),
                "--feature",
                "feature1",
                "--trace",
                str(trace_path),
                "--obs-summary",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "MIPS reduction" in out
        assert "flare.evaluate" in out  # span table in the summary
        assert "replays_total" in out  # worker/metric counters in the summary
        assert f"trace written -> {trace_path}" in out
        document = json.loads(trace_path.read_text())
        names = {
            e["name"] for e in document["traceEvents"] if e["ph"] == "X"
        }
        assert "flare.evaluate" in names
        assert any(n.startswith("dispatch:") for n in names)

    def test_trace_jsonl_round_trips(self, model_path, tmp_path):
        from repro.obs import load_jsonl

        trace_path = tmp_path / "trace.jsonl"
        code = main(
            [
                "evaluate",
                "--model",
                str(model_path),
                "--feature",
                "feature1",
                "--trace",
                str(trace_path),
            ]
        )
        assert code == 0
        spans, metrics = load_jsonl(trace_path)
        assert any(s.name == "flare.evaluate" for s in spans)
        assert metrics is not None
        assert metrics.counter("replays_total") > 0

    def test_tracer_disabled_after_observed_run(self, model_path):
        from repro.obs import get_tracer

        main(
            [
                "evaluate",
                "--model",
                str(model_path),
                "--feature",
                "feature1",
                "--obs-summary",
            ]
        )
        assert not get_tracer().enabled


class TestStoreCommands:
    @pytest.fixture(scope="class")
    def store_dir(self, tmp_path_factory):
        path = tmp_path_factory.mktemp("cli-store") / "store"
        code = main(
            [
                "simulate",
                "--seed",
                "4",
                "--scenarios",
                "60",
                "--store",
                str(path),
                "--shard-size",
                "16",
            ]
        )
        assert code == 0
        return path

    def test_simulate_rejects_both_outputs(self, tmp_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                [
                    "simulate",
                    "--out",
                    str(tmp_path / "d.json"),
                    "--store",
                    str(tmp_path / "s"),
                ]
            )

    def test_simulate_into_store(self, store_dir, dataset_path):
        from repro.io import load_dataset
        from repro.store import ShardedScenarioStore

        store = load_dataset(store_dir)
        assert isinstance(store, ShardedScenarioStore)
        assert store.n_shards == 4
        # Same seed/size as the JSON fixture: identical content.
        assert store.digest() == load_dataset(dataset_path).digest()

    def test_inspect_prints_shards(self, store_dir, capsys):
        code = main(
            ["store", "inspect", "--store", str(store_dir), "--verify"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "60 scenarios in 4 shard(s)" in out
        assert "shard-00003" in out
        assert "digests OK" in out

    def test_compact_rewrites_layout(self, store_dir, tmp_path, capsys):
        code = main(
            [
                "store",
                "compact",
                "--store",
                str(store_dir),
                "--out",
                str(tmp_path / "compact"),
                "--shard-size",
                "32",
            ]
        )
        assert code == 0
        assert "4 shard(s) of <= 16 -> 2 shard(s) of <= 32" in (
            capsys.readouterr().out
        )

    def test_fit_accepts_store_directory(self, store_dir, tmp_path, capsys):
        code = main(
            [
                "fit",
                "--dataset",
                str(store_dir),
                "--clusters",
                "5",
                "--out",
                str(tmp_path / "model.json"),
            ]
        )
        assert code == 0
        assert "5 groups" in capsys.readouterr().out


class TestIngestAndDiagnose:
    def test_ingest_from_trace_csv(self, tmp_path, capsys):
        from repro.cluster import TraceEvent, TraceEventType
        from repro.io import load_dataset, write_trace_csv

        trace = tmp_path / "trace.csv"
        write_trace_csv(
            [
                TraceEvent(0.0, 0, "a", TraceEventType.START, "WSC", 0.85),
                TraceEvent(60.0, 0, "b", TraceEventType.START, "GA", 1.0),
                TraceEvent(120.0, 0, "a", TraceEventType.STOP),
                TraceEvent(150.0, 0, "b", TraceEventType.STOP),
            ],
            trace,
        )
        out = tmp_path / "dataset.json"
        code = main(["ingest", "--trace", str(trace), "--out", str(out)])
        assert code == 0
        assert "ingested 3 distinct co-locations" in capsys.readouterr().out
        dataset = load_dataset(out)
        assert len(dataset) == 3

    def test_lenient_ingest_skips_bad_rows(self, tmp_path, capsys):
        from repro.cluster import TraceEvent, TraceEventType
        from repro.io import write_trace_csv

        trace = tmp_path / "trace.csv"
        write_trace_csv(
            [
                TraceEvent(0.0, 0, "a", TraceEventType.START, "WSC", 0.85),
                TraceEvent(1.0, 0, "zz", TraceEventType.STOP),  # orphan
                TraceEvent(50.0, 0, "a", TraceEventType.STOP),
            ],
            trace,
        )
        out = tmp_path / "dataset.json"
        code = main(
            ["ingest", "--trace", str(trace), "--lenient", "--out", str(out)]
        )
        assert code == 0

    def test_diagnose(self, model_path, capsys):
        code = main(["diagnose", "--model", str(model_path)])
        assert code == 0
        out = capsys.readouterr().out
        assert "Representativeness" in out
        assert "loosest group" in out
