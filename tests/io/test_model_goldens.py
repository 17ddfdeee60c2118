"""Saved-model goldens: frozen ``save_model`` artefacts must keep loading.

Four small models are committed under ``golden/``.  The first three
were saved while ``FlareConfig`` still carried a ``solver`` field
(always ``"auto"``):

* ``model_default.json`` — in memory, default config (k-sweep);
* ``model_temporal.json`` — in memory, ``temporal_samples > 0``;
* ``model_store.json`` — fitted on a sharded store, which each test
  rebuilds from the same simulation (its ``dataset_store.path`` names
  the store wherever it was written, so the tests rewrite that one
  field);
* ``model_refit.json`` — a refit-lineage model: a generation-0
  :func:`~repro.core.refit.refit` on the first rows of a live store,
  then an incremental generation-1 refit over the grown store, whose
  replay plan carries warm-start centroids.  Its store is rebuilt the
  same way, generation by generation.

``golden/model_estimates.json`` holds each model's estimates as
``float.hex`` strings: the paper features, all-job and per-job.

The tests check that each golden loads with its fitted digest verified,
that its estimates equal the frozen bits, and that re-saving it gives
the golden's bytes without the retired ``solver`` key.  The refit
golden must also be reproduced by re-running its refit chain.
"""

from __future__ import annotations

import importlib
import json
from pathlib import Path

import pytest

from repro.cluster import PAPER_FEATURES, DatacenterConfig, run_simulation
from repro.core import FlareConfig
from repro.core.analyzer import AnalyzerConfig
from repro.core.refit import refit
from repro.io import config_from_dict, config_to_dict, load_model, save_model
from repro.io import save_dataset
from repro.store import LiveStore, ShardedScenarioStore
from repro.store.live import StoreSlice

GOLDEN_DIR = Path(__file__).parent / "golden"
ESTIMATES_PATH = GOLDEN_DIR / "model_estimates.json"

#: The simulation every golden was fitted on.
SIM_SEED = 5
SIM_SCENARIOS = 60
STORE_SHARD_SIZE = 25
PER_JOB = "WSC"

#: The refit golden's simulation and live-store generations.
REFIT_SIM_SEED = 42
REFIT_MARKS = (60, 90, 120)
REFIT_SHARD_SIZE = 16
#: The reduced simulation's halves differ in scale far more than a real
#: fleet's stream, so the scaler-drift gate is relaxed to keep the
#: generation-1 refit incremental.
REFIT_MAX_DRIFT = 10.0

#: name -> (config, store-backed?)
GOLDEN_MODELS = {
    "default": (FlareConfig(), False),
    "temporal": (
        FlareConfig(
            temporal_samples=3, analyzer=AnalyzerConfig(n_clusters=6)
        ),
        False,
    ),
    "store": (FlareConfig(analyzer=AnalyzerConfig(n_clusters=6)), True),
    "refit": (FlareConfig(analyzer=AnalyzerConfig(n_clusters=6)), True),
}

#: Goldens saved before ``FlareConfig.solver`` was retired.
LEGACY_SOLVER_GOLDENS = ("default", "temporal", "store")


def golden_dataset():
    return run_simulation(
        DatacenterConfig(seed=SIM_SEED, target_unique_scenarios=SIM_SCENARIOS)
    ).dataset


def build_refit_store(path: Path) -> ShardedScenarioStore:
    """The refit golden's store, committed one generation per mark."""
    dataset = run_simulation(
        DatacenterConfig(
            seed=REFIT_SIM_SEED, target_unique_scenarios=REFIT_MARKS[-1]
        )
    ).dataset
    with LiveStore(path, dataset.shape, shard_size=REFIT_SHARD_SIZE) as live:
        start = 0
        for mark in REFIT_MARKS:
            live.extend(dataset.scenarios[start:mark])
            live.commit()
            start = mark
    return ShardedScenarioStore.open(path)


def fit_refit_lineage(store: ShardedScenarioStore, spill_dir: Path):
    """Generation 0 on the first mark, then an incremental generation 1."""
    gen0 = refit(
        StoreSlice(store, 0, REFIT_MARKS[0]),
        GOLDEN_MODELS["refit"][0],
        spill_dir=spill_dir,
    )
    return refit(
        store,
        prev=gen0,
        spill_dir=spill_dir,
        trigger="drift:warn",
        max_scaler_drift=REFIT_MAX_DRIFT,
    )


def model_estimates(flare) -> dict[str, str]:
    """The frozen estimate surface of one fitted model."""
    out = {}
    for feature in PAPER_FEATURES:
        out[f"{feature.name}/all"] = flare.evaluate(feature).reduction_pct.hex()
        out[f"{feature.name}/{PER_JOB}"] = flare.evaluate_job(
            feature, PER_JOB
        ).reduction_pct.hex()
    return out


def _golden_payload(name: str) -> dict:
    return json.loads((GOLDEN_DIR / f"model_{name}.json").read_text())


def _materialise(name: str, tmp_path: Path) -> tuple[Path, dict]:
    """Write golden *name* where load_model can read it.

    Returns the model path and the golden payload, with a store-backed
    golden's ``dataset_store.path`` pointed at a freshly rebuilt store.
    """
    payload = _golden_payload(name)
    if "dataset_store" in payload:
        store_dir = tmp_path / "store"
        if name == "refit":
            build_refit_store(store_dir)
        else:
            save_dataset(
                golden_dataset(), store_dir, shard_size=STORE_SHARD_SIZE
            )
        payload["dataset_store"]["path"] = str(store_dir.resolve())
    model_path = tmp_path / f"model_{name}.json"
    model_path.write_text(json.dumps(payload))
    return model_path, payload


@pytest.fixture(scope="module")
def frozen_estimates() -> dict:
    return json.loads(ESTIMATES_PATH.read_text())


@pytest.mark.parametrize("name", sorted(GOLDEN_MODELS))
def test_golden_loads_with_frozen_estimates(
    name, tmp_path, frozen_estimates
):
    model_path, payload = _materialise(name, tmp_path)
    flare = load_model(model_path, verify=True)
    assert model_estimates(flare) == frozen_estimates[name]

    resaved = tmp_path / "resaved.json"
    save_model(flare, resaved)
    expected = dict(payload)
    expected["config"] = {
        key: value
        for key, value in payload["config"].items()
        if key != "solver"
    }
    assert resaved.read_bytes() == json.dumps(expected).encode()


def test_goldens_carry_the_legacy_solver_field():
    for name in LEGACY_SOLVER_GOLDENS:
        assert _golden_payload(name)["config"]["solver"] == "auto"


def test_refit_golden_is_an_incremental_warm_started_lineage():
    payload = _golden_payload("refit")
    assert [entry["generation"] for entry in payload["lineage"]] == [0, 1]
    assert payload["lineage"][-1]["kind"] == "incremental"
    assert payload["refit_plan"]["init"] is not None


def test_refit_golden_loads_through_replay_refit(tmp_path, monkeypatch):
    # ``repro.core.refit`` the attribute is the function; the module
    # that load_model imports from is looked up by name.
    refit_module = importlib.import_module("repro.core.refit")
    calls = []
    real = refit_module.replay_refit

    def spy(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(refit_module, "replay_refit", spy)
    model_path, payload = _materialise("refit", tmp_path)
    flare = load_model(model_path, verify=True)
    assert len(calls) == 1
    assert [entry.to_dict() for entry in flare.lineage] == payload["lineage"]


def test_refit_chain_reproduces_the_refit_golden(tmp_path):
    model_path, _ = _materialise("refit", tmp_path)
    store = ShardedScenarioStore.open(tmp_path / "store")
    flare = fit_refit_lineage(store, tmp_path / "spill")
    resaved = tmp_path / "refitted.json"
    save_model(flare, resaved)
    assert resaved.read_bytes() == model_path.read_bytes()


@pytest.mark.parametrize("legacy", ["scalar", "batched", "auto"])
def test_config_from_dict_ignores_legacy_solver(legacy):
    data = config_to_dict(FlareConfig())
    data["solver"] = legacy
    assert config_from_dict(data) == FlareConfig()
    assert "solver" not in config_to_dict(config_from_dict(data))
