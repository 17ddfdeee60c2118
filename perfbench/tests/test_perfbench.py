"""Self-tests of the end-to-end benchmark.

Run from the repository root::

    python3 -m pytest perfbench/tests -q

A tiny-scale run of every workload, untraced and traced, must print every
metric BENCHMARK.json names with its unit and pass its output checks; a
perturbed estimate or truth must fail them.
"""

from __future__ import annotations

import dataclasses
import json
import math
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH_DIR = pathlib.Path(__file__).resolve().parent.parent
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH_DIR)]

import checks  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY_SEED = 3


def _run(workload: str, trace: int, cwd: pathlib.Path = ROOT):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload,
            "--seed", str(TINY_SEED),
            "--seconds", "1",
            "--trace", str(trace),
            "--scale", "tiny",
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run(workload, trace)
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for metric in result["metrics"].values():
        assert math.isfinite(metric["value"])
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_without_library_sources_fails(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    done = _run("paper-cold", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def estimate_and_truth():
    from repro.api import (
        AnalyzerConfig,
        DatacenterConfig,
        FEATURE_1_CACHE,
        Flare,
        FlareConfig,
        evaluate_full_datacenter,
        run_simulation,
    )

    dataset = run_simulation(
        DatacenterConfig(seed=TINY_SEED, target_unique_scenarios=150)
    ).dataset
    flare = Flare(FlareConfig(analyzer=AnalyzerConfig(n_clusters=8))).fit(dataset)
    return (
        flare.evaluate(FEATURE_1_CACHE),
        evaluate_full_datacenter(dataset, FEATURE_1_CACHE),
    )


def test_true_outputs_pass(estimate_and_truth):
    estimate, truth = estimate_and_truth
    assert checks.estimate_problems(estimate) == []
    assert checks.truth_problems(truth) == []
    assert checks.comparison_problems(estimate, truth) == []


def test_perturbed_estimate_fails(estimate_and_truth):
    estimate, truth = estimate_and_truth
    shifted = dataclasses.replace(
        estimate, reduction_pct=estimate.reduction_pct + 2 * checks.MAX_ERROR_PP
    )
    assert checks.comparison_problems(shifted, truth)
    not_finite = dataclasses.replace(estimate, reduction_pct=math.nan)
    assert checks.estimate_problems(not_finite)
    first = estimate.per_cluster[0]
    reweighted = dataclasses.replace(
        estimate,
        per_cluster=(
            dataclasses.replace(first, weight=first.weight * 1.01),
            *estimate.per_cluster[1:],
        ),
    )
    assert checks.estimate_problems(reweighted)


def test_perturbed_truth_fails(estimate_and_truth):
    estimate, truth = estimate_and_truth
    shifted = dataclasses.replace(
        truth, reductions_pct=truth.reductions_pct + 2 * checks.MAX_ERROR_PP
    )
    assert checks.comparison_problems(estimate, shifted)
    broken = dataclasses.replace(truth, per_job={**truth.per_job, "DA": math.inf})
    assert checks.truth_problems(broken)


def test_failed_checks_are_counted():
    counted = checks.Checks()
    counted.record([])
    counted.same("a", "a", "digests")
    assert counted.correct
    counted.same("a", "b", "digests")
    assert (counted.attempted, counted.failed, counted.correct) == (3, 1, False)


def test_wrappers_record_nested_spans_and_uninstall():
    from repro.core.analyzer import Analyzer
    from repro.stats.kmeans import KMeans

    original = Analyzer.__dict__["analyze"], KMeans.__dict__["fit"]
    recorder = spans.SpanRecorder()
    uninstall = spans.install_wrappers(recorder)
    try:
        import numpy as np

        with recorder.span("fit"):
            KMeans(n_clusters=2, n_init=1, seed=np.random.default_rng(0)).fit(
                np.arange(20.0).reshape(10, 2)
            )
    finally:
        uninstall()
    assert (Analyzer.__dict__["analyze"], KMeans.__dict__["fit"]) == original
    assert recorder.outer_count("kmeans") == 1
    assert recorder.spans[1].parent == 0
    fit_span = recorder.spans[0]
    assert fit_span.self_s == pytest.approx(
        fit_span.duration - recorder.spans[1].duration
    )
