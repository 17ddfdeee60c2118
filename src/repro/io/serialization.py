"""JSON serialisation for datasets, configurations and fitted models.

Lets teams share what the paper's workflow produces: the scenario dataset
collected from a datacenter (step 1's output, the expensive part) and the
pipeline configuration.  A fitted model is persisted as (config, dataset)
and *re-fitted deterministically* on load — every stage of the pipeline is
seeded, so the reload reproduces the exact clustering; a digest of the
fitted state is stored and verified to prove it.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any

import numpy as np

from ..cluster.machine import MachineShape
from ..cluster.scenario import Scenario, ScenarioDataset
from ..core.analyzer import AnalyzerConfig
from ..core.pipeline import Flare, FlareConfig
from ..perfmodel.contention import RunningInstance
from ..perfmodel.machine import MachinePerf
from ..perfmodel.mrc import MissRatioCurve
from ..perfmodel.signatures import JobSignature, Priority
from ..runtime.config import RuntimeConfig

__all__ = [
    "dataset_to_dict",
    "dataset_from_dict",
    "save_dataset",
    "load_dataset",
    "config_to_dict",
    "config_from_dict",
    "save_model",
    "load_model",
    "fitted_digest",
]

_FORMAT_VERSION = 1


# ----------------------------------------------------------------------
# Leaf codecs
def _signature_to_dict(sig: JobSignature) -> dict[str, Any]:
    return {
        "name": sig.name,
        "description": sig.description,
        "priority": sig.priority.value,
        "vcpus": sig.vcpus,
        "dram_gb": sig.dram_gb,
        "base_cpi": sig.base_cpi,
        "frontend_cpi": sig.frontend_cpi,
        "branch_mpki": sig.branch_mpki,
        "l1i_apki": sig.l1i_apki,
        "l1d_apki": sig.l1d_apki,
        "l2_apki": sig.l2_apki,
        "llc_apki": sig.llc_apki,
        "mrc": {
            "half_capacity_mb": sig.mrc.half_capacity_mb,
            "shape": sig.mrc.shape,
            "floor": sig.mrc.floor,
        },
        "mem_blocking_factor": sig.mem_blocking_factor,
        "write_fraction": sig.write_fraction,
        "active_fraction": sig.active_fraction,
        "network_bytes_per_instr": sig.network_bytes_per_instr,
        "disk_bytes_per_instr": sig.disk_bytes_per_instr,
        "spin_fraction": sig.spin_fraction,
    }


def _signature_from_dict(data: dict[str, Any]) -> JobSignature:
    mrc = data["mrc"]
    return JobSignature(
        name=data["name"],
        description=data["description"],
        priority=Priority(data["priority"]),
        vcpus=data["vcpus"],
        dram_gb=data["dram_gb"],
        base_cpi=data["base_cpi"],
        frontend_cpi=data["frontend_cpi"],
        branch_mpki=data["branch_mpki"],
        l1i_apki=data["l1i_apki"],
        l1d_apki=data["l1d_apki"],
        l2_apki=data["l2_apki"],
        llc_apki=data["llc_apki"],
        mrc=MissRatioCurve(
            half_capacity_mb=mrc["half_capacity_mb"],
            shape=mrc["shape"],
            floor=mrc["floor"],
        ),
        mem_blocking_factor=data["mem_blocking_factor"],
        write_fraction=data["write_fraction"],
        active_fraction=data["active_fraction"],
        network_bytes_per_instr=data["network_bytes_per_instr"],
        disk_bytes_per_instr=data["disk_bytes_per_instr"],
        spin_fraction=data["spin_fraction"],
    )


def _perf_to_dict(perf: MachinePerf) -> dict[str, Any]:
    return {
        "physical_cores": perf.physical_cores,
        "governor": perf.governor,
        "smt_enabled": perf.smt_enabled,
        "smt_speedup": perf.smt_speedup,
        "min_freq_ghz": perf.min_freq_ghz,
        "max_freq_ghz": perf.max_freq_ghz,
        "llc_mb": perf.llc_mb,
        "mem_bw_gbps": perf.mem_bw_gbps,
        "mem_latency_ns": perf.mem_latency_ns,
        "l2_hit_cycles": perf.l2_hit_cycles,
        "llc_hit_cycles": perf.llc_hit_cycles,
        "network_gbps": perf.network_gbps,
        "disk_mbps": perf.disk_mbps,
    }


def _shape_to_dict(shape: MachineShape) -> dict[str, Any]:
    return {
        "name": shape.name,
        "vcpus": shape.vcpus,
        "dram_gb": shape.dram_gb,
        "perf": _perf_to_dict(shape.perf),
    }


def _shape_from_dict(data: dict[str, Any]) -> MachineShape:
    return MachineShape(
        name=data["name"],
        vcpus=data["vcpus"],
        dram_gb=data["dram_gb"],
        perf=MachinePerf(**data["perf"]),
    )


# ----------------------------------------------------------------------
# Dataset
def dataset_to_dict(dataset: ScenarioDataset) -> dict[str, Any]:
    """Serialise a scenario dataset (signatures included, so custom jobs
    survive the round trip)."""
    signatures: dict[str, dict[str, Any]] = {}
    scenarios = []
    for scenario in dataset.scenarios:
        instances = []
        for instance in scenario.instances:
            sig = instance.signature
            signatures.setdefault(sig.name, _signature_to_dict(sig))
            instances.append({"job": sig.name, "load": instance.load})
        scenarios.append(
            {
                "scenario_id": scenario.scenario_id,
                "instances": instances,
                "n_occurrences": scenario.n_occurrences,
                "total_duration_s": scenario.total_duration_s,
            }
        )
    return {
        "format_version": _FORMAT_VERSION,
        "shape": _shape_to_dict(dataset.shape),
        "signatures": signatures,
        "scenarios": scenarios,
    }


def dataset_from_dict(data: dict[str, Any]) -> ScenarioDataset:
    """Rebuild a scenario dataset serialised by :func:`dataset_to_dict`."""
    version = data.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported dataset format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    shape = _shape_from_dict(data["shape"])
    signatures = {
        name: _signature_from_dict(raw)
        for name, raw in data["signatures"].items()
    }
    scenarios = []
    for raw in data["scenarios"]:
        instances = tuple(
            RunningInstance(
                signature=signatures[item["job"]], load=item["load"]
            )
            for item in raw["instances"]
        )
        counts: dict[str, int] = {}
        for item in raw["instances"]:
            counts[item["job"]] = counts.get(item["job"], 0) + 1
        scenarios.append(
            Scenario(
                scenario_id=raw["scenario_id"],
                key=tuple(sorted(counts.items())),
                instances=instances,
                n_occurrences=raw["n_occurrences"],
                total_duration_s=raw["total_duration_s"],
            )
        )
    return ScenarioDataset(shape=shape, scenarios=tuple(scenarios))


def save_dataset(source, path, *, shard_size: int | None = None):
    """Write a scenario source to *path*.

    Two on-disk representations share this entry point:

    * **Legacy JSON** (the default): one self-contained file.  Any
      :class:`~repro.cluster.ScenarioSource` is accepted; a non-resident
      source is materialised first.
    * **Sharded store**: chosen when *shard_size* is given or *path* is
      an existing directory.  Streams the source into a
      :class:`~repro.store.ShardedScenarioStore` at *path* (replacing
      any store already there, as the JSON path replaces its file) and
      returns it.

    Both representations carry the same logical content digest, so
    ``load_dataset(path).digest()`` is identical either way.
    """
    path = pathlib.Path(path)
    if shard_size is not None or path.is_dir():
        from ..store import DEFAULT_SHARD_SIZE, write_store

        return write_store(
            source,
            path,
            shard_size=shard_size or DEFAULT_SHARD_SIZE,
            overwrite=True,
        )
    from ..cluster.source import ensure_dataset

    path.write_text(json.dumps(dataset_to_dict(ensure_dataset(source))))
    return None


def load_dataset(path):
    """Read a dataset previously written by :func:`save_dataset`.

    Auto-detects the representation: a directory is opened as a sharded
    scenario store (returning the memory-mapped
    :class:`~repro.store.ShardedScenarioStore`), anything else is
    parsed as the legacy JSON file (returning an in-memory
    :class:`ScenarioDataset`).  Both satisfy
    :class:`~repro.cluster.ScenarioSource`, so downstream code needs no
    branch.
    """
    path = pathlib.Path(path)
    if path.is_dir():
        from ..store import open_store

        return open_store(path)
    return dataset_from_dict(json.loads(path.read_text()))


# ----------------------------------------------------------------------
# Configs
def config_to_dict(config: FlareConfig) -> dict[str, Any]:
    """Serialise a pipeline configuration."""
    analyzer = config.analyzer
    return {
        "refinement_threshold": config.refinement_threshold,
        "noise_sigma": config.noise_sigma,
        "profiler_seed": config.profiler_seed,
        "interpretation_top_n": config.interpretation_top_n,
        "temporal_samples": config.temporal_samples,
        "temporal_jitter": config.temporal_jitter,
        "per_job_metrics": list(config.per_job_metrics),
        "memo": config.memo,
        "runtime": (
            None if config.runtime is None else config.runtime.to_dict()
        ),
        "analyzer": {
            "variance_target": analyzer.variance_target,
            "n_components": analyzer.n_components,
            "cluster_counts": list(analyzer.cluster_counts),
            "n_clusters": analyzer.n_clusters,
            "kmeans_restarts": analyzer.kmeans_restarts,
            "kmeans_max_iter": analyzer.kmeans_max_iter,
            "weight_samples": analyzer.weight_samples,
            "seed": analyzer.seed,
        },
    }


def config_from_dict(data: dict[str, Any]) -> FlareConfig:
    """Rebuild a pipeline configuration.

    Unknown keys are ignored: models saved before the contention solver
    became a single implementation carry a ``"solver"`` field
    (``"scalar"``, ``"batched"`` or ``"auto"``), which cannot change a
    result and is dropped on load.
    """
    raw = data["analyzer"]
    analyzer = AnalyzerConfig(
        variance_target=raw["variance_target"],
        n_components=raw["n_components"],
        cluster_counts=tuple(raw["cluster_counts"]),
        n_clusters=raw["n_clusters"],
        kmeans_restarts=raw["kmeans_restarts"],
        kmeans_max_iter=raw["kmeans_max_iter"],
        weight_samples=raw["weight_samples"],
        seed=raw["seed"],
    )
    return FlareConfig(
        refinement_threshold=data["refinement_threshold"],
        analyzer=analyzer,
        noise_sigma=data["noise_sigma"],
        profiler_seed=data["profiler_seed"],
        interpretation_top_n=data["interpretation_top_n"],
        temporal_samples=data.get("temporal_samples", 0),
        temporal_jitter=data.get("temporal_jitter", 0.15),
        per_job_metrics=tuple(data.get("per_job_metrics", ())),
        memo=data.get("memo", "off"),
        runtime=(
            None
            if data.get("runtime") is None
            else RuntimeConfig.from_dict(data["runtime"])
        ),
    )


# ----------------------------------------------------------------------
# Fitted models
def fitted_digest(flare: Flare) -> str:
    """Stable digest of a fitted model's clustering state.

    Covers labels, cluster weights and representative choices — exactly
    what a deterministic re-fit must reproduce.
    """
    analysis = flare.analysis
    hasher = hashlib.sha256()
    hasher.update(np.ascontiguousarray(analysis.labels).tobytes())
    hasher.update(
        np.round(analysis.cluster_weights, 12).astype(np.float64).tobytes()
    )
    reps = [g.representative_index for g in flare.representatives.groups]
    hasher.update(np.asarray(reps, dtype=np.int64).tobytes())
    return hasher.hexdigest()


def save_model(flare: Flare, path) -> None:
    """Persist a fitted model as (config, dataset, digest).

    An in-memory fit embeds the full dataset.  An out-of-core fit would
    defeat its own memory bound by inlining the population, so the
    payload stores a *reference* to the sharded store (path + content
    digest) instead; :func:`load_model` re-opens the store and verifies
    the digest before re-fitting.
    """
    payload = {
        "format_version": _FORMAT_VERSION,
        "config": config_to_dict(flare.config),
        "fitted_digest": fitted_digest(flare),
    }
    # Refit-path models (repro.core.refit) carry their provenance chain
    # and a deterministic-replay plan: the fixed-block refit pipeline
    # differs from a plain Flare.fit at ~1e-12 (per-shard vs per-block
    # statistics folding) and a warm start is not reproducible from the
    # config alone, so load_model replays the plan instead of re-fitting.
    if flare.lineage:
        payload["lineage"] = [entry.to_dict() for entry in flare.lineage]
        if flare._refit_plan is not None:
            payload["refit_plan"] = flare._refit_plan.to_dict()
    # Fit-time health statistics ride along so the artefact documents
    # what the model looked like when it was trusted; the drift monitor
    # scores later scenario streams against exactly these numbers.
    baseline = flare.representatives.baseline
    if baseline is not None:
        payload["fit_baseline"] = baseline.to_dict()
    if isinstance(flare.dataset, ScenarioDataset):
        payload["dataset"] = dataset_to_dict(
            flare._profiled.dataset
            if flare._profiled is not None
            else flare.dataset
        )
    else:
        source = flare.dataset
        store_path = getattr(source, "path", None)
        if store_path is None:
            raise ValueError(
                "cannot persist a model fitted on a non-resident source "
                "without an on-disk store; write the source with "
                "save_dataset(source, dir, shard_size=...) and refit"
            )
        payload["dataset_store"] = {
            "path": str(pathlib.Path(store_path).resolve()),
            "content_digest": source.digest(),
        }
    pathlib.Path(path).write_text(json.dumps(payload))


def load_model(path, *, verify: bool = True) -> Flare:
    """Reload a fitted model by deterministic re-fit.

    Parameters
    ----------
    verify:
        Check the re-fitted state's digest against the stored one; raises
        ``ValueError`` on mismatch (e.g. the library's algorithms changed
        since the model was saved).
    """
    payload = json.loads(pathlib.Path(path).read_text())
    version = payload.get("format_version")
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported model format version {version!r} "
            f"(expected {_FORMAT_VERSION})"
        )
    config = config_from_dict(payload["config"])
    if "dataset_store" in payload:
        from ..store import open_store

        reference = payload["dataset_store"]
        source = open_store(reference["path"])
        if source.digest() != reference["content_digest"]:
            raise ValueError(
                f"scenario store at {reference['path']} has changed "
                "since the model was saved "
                f"(stored digest {reference['content_digest'][:12]}…)"
            )
    else:
        source = dataset_from_dict(payload["dataset"])
    if "refit_plan" in payload:
        import tempfile

        from ..core.refit import ModelLineage, replay_refit

        plan = payload["refit_plan"]
        with tempfile.TemporaryDirectory(prefix="repro-replay-") as tmp:
            flare = replay_refit(source, config, plan, spill_dir=tmp)
        flare.lineage = tuple(
            ModelLineage.from_dict(entry)
            for entry in payload.get("lineage", [])
        )
    else:
        flare = Flare(config).fit(source)
    if verify:
        digest = fitted_digest(flare)
        if digest != payload["fitted_digest"]:
            raise ValueError(
                "re-fitted model does not reproduce the saved state "
                f"(stored {payload['fitted_digest'][:12]}…, "
                f"got {digest[:12]}…)"
            )
        stored_baseline = payload.get("fit_baseline")
        if stored_baseline is not None:
            from ..core.representatives import FitBaseline

            stored = FitBaseline.from_dict(stored_baseline)
            refit = flare.representatives.baseline
            if refit is None or stored.n_clusters != refit.n_clusters:
                raise ValueError(
                    "re-fitted model's health baseline does not match "
                    "the saved one"
                )
    return flare
