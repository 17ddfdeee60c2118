"""Saved-model goldens: frozen ``save_model`` artefacts must keep loading.

Three small models were saved while ``FlareConfig`` still carried a
``solver`` field (always ``"auto"``) and are committed under
``golden/``:

* ``model_default.json`` — in memory, default config (k-sweep);
* ``model_temporal.json`` — in memory, ``temporal_samples > 0``;
* ``model_store.json`` — fitted on a sharded store, which each test
  rebuilds from the same simulation (its ``dataset_store.path`` names
  the store wherever it was written, so the tests rewrite that one
  field).

``golden/model_estimates.json`` holds each model's estimates as
``float.hex`` strings: the paper features, all-job and per-job.

The tests check that each golden loads with its fitted digest verified,
that its estimates equal the frozen bits, and that re-saving it gives
the golden's bytes without the retired ``solver`` key.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cluster import PAPER_FEATURES, DatacenterConfig, run_simulation
from repro.core import FlareConfig
from repro.core.analyzer import AnalyzerConfig
from repro.io import config_from_dict, config_to_dict, load_model, save_model
from repro.io import save_dataset

GOLDEN_DIR = Path(__file__).parent / "golden"
ESTIMATES_PATH = GOLDEN_DIR / "model_estimates.json"

#: The simulation every golden was fitted on.
SIM_SEED = 5
SIM_SCENARIOS = 60
STORE_SHARD_SIZE = 25
PER_JOB = "WSC"

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
}


def golden_dataset():
    return run_simulation(
        DatacenterConfig(seed=SIM_SEED, target_unique_scenarios=SIM_SCENARIOS)
    ).dataset


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
        save_dataset(golden_dataset(), store_dir, shard_size=STORE_SHARD_SIZE)
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
    for name in GOLDEN_MODELS:
        assert _golden_payload(name)["config"]["solver"] == "auto"


@pytest.mark.parametrize("legacy", ["scalar", "batched", "auto"])
def test_config_from_dict_ignores_legacy_solver(legacy):
    data = config_to_dict(FlareConfig())
    data["solver"] = legacy
    assert config_from_dict(data) == FlareConfig()
    assert "solver" not in config_to_dict(config_from_dict(data))
