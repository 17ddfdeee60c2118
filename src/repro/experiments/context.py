"""Shared experiment context: one datacenter run + one fitted FLARE model.

Every figure of the evaluation section is derived from the same collected
dataset and fitted pipeline, so experiments share an
:class:`ExperimentContext`.  Contexts are memoised per (scale, seed): the
``"paper"`` scale reproduces the paper's 895-scenario / 18-cluster setup;
the ``"small"`` scale is a fast variant for tests and quick iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from ..baselines.full_datacenter import DatacenterTruth, evaluate_full_datacenter
from ..cluster.features import Feature
from ..cluster.scenario import ScenarioDataset
from ..cluster.simulation import DatacenterConfig, SimulationResult, run_simulation
from ..core.analyzer import AnalyzerConfig
from ..core.pipeline import Flare, FlareConfig
from ..runtime.executor import Executor, resolve_executor

__all__ = ["ExperimentScale", "ExperimentContext", "get_context"]

#: Named experiment scales: (target scenarios, clusters, k-sweep grid).
_SCALES: dict[str, tuple[int, int, tuple[int, ...]]] = {
    "paper": (895, 18, tuple(range(2, 41, 2))),
    "small": (160, 8, tuple(range(2, 17, 2))),
}

ExperimentScale = str


@dataclass
class ExperimentContext:
    """A datacenter run, its fitted FLARE model, and cached truths.

    ``executor`` is the shared execution backend every experiment module
    dispatches its fan-out work (sampling trials, replays) on.  It
    defaults to the environment-selected executor (``REPRO_EXECUTOR``)
    and is a pure performance knob — figures are identical under any
    executor.
    """

    scale: str
    seed: int
    simulation: SimulationResult
    flare: Flare
    executor: Executor = field(default_factory=resolve_executor)

    def __post_init__(self) -> None:
        self._truths: dict[tuple[str, int], DatacenterTruth] = {}

    def use_executor(
        self,
        spec: "Executor | str | None",
        *,
        resilience=None,
        checkpoint=None,
    ) -> "ExperimentContext":
        """Switch the shared executor (accepts specs like ``process:4``).

        ``resilience`` attaches a
        :class:`~repro.runtime.resilience.ResilienceConfig` (timeouts,
        retries, failure policy) and ``checkpoint`` a
        :class:`~repro.runtime.cache.CheckpointJournal` — the resume
        state behind CLI ``--resume`` — to the shared executor, so every
        experiment fan-out in this context runs under the same failure
        model.
        """
        self.executor = resolve_executor(
            spec, resilience=resilience, checkpoint=checkpoint
        )
        return self

    @property
    def dataset(self) -> ScenarioDataset:
        return self.simulation.dataset

    @property
    def n_clusters(self) -> int:
        return self.flare.analysis.n_clusters

    def truth(self, feature: Feature) -> DatacenterTruth:
        """Full-datacenter evaluation of *feature* (memoised)."""
        from ..obs import span

        key = (feature.name, id(self.dataset))
        if key not in self._truths:
            with span(
                "experiment.truth",
                feature=feature.name,
                n_scenarios=len(self.dataset),
            ):
                self._truths[key] = evaluate_full_datacenter(
                    self.dataset, feature
                )
        return self._truths[key]


@lru_cache(maxsize=8)
def get_context(scale: str = "paper", seed: int = 2023) -> ExperimentContext:
    """Build (or fetch) the memoised context for *scale* and *seed*.

    This ``lru_cache`` is the library's one fitted-model memo: figure
    runs sharing a ``(scale, seed)`` pair simulate and fit once per
    process.
    """
    try:
        target, n_clusters, sweep = _SCALES[scale]
    except KeyError:
        raise ValueError(
            f"unknown scale {scale!r}; expected one of {sorted(_SCALES)}"
        ) from None

    from ..obs import span

    with span("experiment.context", scale=scale, seed=seed):
        config = DatacenterConfig(seed=seed, target_unique_scenarios=target)
        with span("experiment.simulate", n_scenarios=target):
            simulation = run_simulation(config)
        flare_config = FlareConfig(
            analyzer=AnalyzerConfig(n_clusters=n_clusters, cluster_counts=sweep)
        )
        flare = Flare(flare_config).fit(simulation.dataset)
    return ExperimentContext(
        scale=scale, seed=seed, simulation=simulation, flare=flare
    )
