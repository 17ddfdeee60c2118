"""Step 4 Replayer: reconstruct scenarios on a testbed (paper §4.5).

The Replayer takes a representative scenario, looks up the job commands
the Profiler recorded, re-launches the co-location on a testbed machine
under baseline and feature-enabled configurations, and measures the
normalised HP performance of each.  Going through the recorded *command
strings* (rather than the in-memory objects) exercises the same
record-and-reconstruct path the paper relies on.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..cluster.features import BASELINE, Feature
from ..cluster.machine import MachineShape
from ..cluster.scenario import Scenario
from ..perfmodel.contention import RunningInstance
from ..perfmodel.memo import validate_memo_spec
from ..perfmodel.signatures import JobSignature
from ..runtime.executor import Executor, SerialExecutor, resolve_executor
from ..runtime.resilience import TaskFailure
from ..telemetry.profiler import format_command, parse_command
from ..workloads import get_job
from .performance import (
    ScenarioPerformance,
    mips_reduction_pct,
    scenario_performance,
    scenario_performance_many,
)

__all__ = ["ReplayMeasurement", "Replayer"]


@dataclass(frozen=True)
class ReplayMeasurement:
    """Outcome of replaying one scenario under one feature.

    Attributes
    ----------
    scenario:
        The replayed scenario.
    feature:
        The feature under evaluation.
    baseline / enabled:
        Normalised HP performance without / with the feature.
    """

    scenario: Scenario
    feature: Feature
    baseline: ScenarioPerformance
    enabled: ScenarioPerformance

    @property
    def reduction_pct(self) -> float:
        """Overall HP MIPS reduction caused by the feature."""
        return mips_reduction_pct(self.baseline.overall, self.enabled.overall)

    def job_reduction_pct(self, job_name: str) -> float:
        """MIPS reduction of one HP job in this scenario.

        Raises ``KeyError`` when the scenario does not host the job.
        """
        if job_name not in self.baseline.per_job:
            raise KeyError(
                f"job {job_name!r} is not in scenario "
                f"{self.scenario.scenario_id}"
            )
        return mips_reduction_pct(
            self.baseline.per_job[job_name], self.enabled.per_job[job_name]
        )


class Replayer:
    """Replays recorded co-locations on a testbed machine shape.

    Parameters
    ----------
    shape:
        Testbed machine shape (normally the datacenter's own shape; the
        testbed must match for the replay to be faithful — see §5.5 for
        why representatives do not transfer across shapes).
    catalogue:
        Job name → signature mapping used to resolve recorded commands.
        Defaults to the built-in Table 3 catalogue; pass an extended
        mapping when the datacenter ran custom jobs.
    metric:
        Performance-metric function with the signature of
        :func:`repro.core.performance.scenario_performance` (the
        default).  Pass e.g.
        :func:`repro.core.latency_metric.latency_scenario_performance`
        to evaluate features on normalised tail latency instead of
        normalised MIPS — the paper's "many alternatives can be
        utilized" hook.
    memo:
        Optional content-addressed solve memo: ``"off"``/``None``
        (default), ``"memory"``, ``"store:<path>"``, or a live
        :class:`~repro.perfmodel.memo.SolveMemo`.  Batched replays
        consult it before solving and record misses back, so repeated
        evaluate runs and feature sweeps skip already-solved work.
        Spec strings travel to executor workers as-is; each worker
        resolves its own per-process instance, and store-backed specs
        make those workers concurrent writers of one shared memo
        directory.  Only the default MIPS metric memoises — a custom
        *metric* evaluates per scenario, unmemoised.
    """

    def __init__(
        self,
        shape: MachineShape,
        *,
        catalogue: dict[str, "JobSignature"] | None = None,
        metric=None,
        memo=None,
    ) -> None:
        self.shape = shape
        self._catalogue = catalogue
        self._metric = metric if metric is not None else scenario_performance
        if isinstance(memo, str):
            validate_memo_spec(memo)  # validate eagerly, resolve lazily
        self.memo = memo

    def _resolve_job(self, name: str):
        if self._catalogue is not None and name in self._catalogue:
            return self._catalogue[name]
        return get_job(name)

    # ------------------------------------------------------------------
    def reconstruct(self, scenario: Scenario) -> tuple[RunningInstance, ...]:
        """Rebuild a scenario's containers from its recorded commands.

        Round-trips through the command-string format the Profiler logs,
        resolving each job name against the workload catalogue — exactly
        what replaying the recorded Docker commands does on the paper's
        testbed.
        """
        commands = [format_command(inst) for inst in scenario.instances]
        rebuilt = []
        for command in commands:
            job_name, load = parse_command(command)
            rebuilt.append(
                RunningInstance(signature=self._resolve_job(job_name), load=load)
            )
        return tuple(rebuilt)

    def _reconstructed_scenario(self, scenario: Scenario) -> Scenario:
        return Scenario(
            scenario_id=scenario.scenario_id,
            key=scenario.key,
            instances=self.reconstruct(scenario),
            n_occurrences=scenario.n_occurrences,
            total_duration_s=scenario.total_duration_s,
        )

    def replay(
        self, scenario: Scenario, feature: Feature
    ) -> ReplayMeasurement:
        """Measure *feature*'s impact on *scenario* on the testbed.

        The default MIPS metric replays through :meth:`replay_batch` as
        a one-scenario batch, so ``memo`` applies here too.
        """
        if self._metric is scenario_performance:
            return self.replay_batch((scenario,), feature)[0]
        from ..obs import inc

        inc("replays_total")
        replay_scenario = self._reconstructed_scenario(scenario)
        baseline_machine = BASELINE(self.shape.perf)
        feature_machine = feature(self.shape.perf)
        baseline = self._metric(baseline_machine, replay_scenario)
        enabled = self._metric(
            feature_machine, replay_scenario, normalize_machine=baseline_machine
        )
        return ReplayMeasurement(
            scenario=replay_scenario,
            feature=feature,
            baseline=baseline,
            enabled=enabled,
        )

    def replay_batch(
        self, scenarios: tuple[Scenario, ...], feature: Feature
    ) -> tuple[ReplayMeasurement, ...]:
        """Replay several scenarios as one contention-solver batch.

        The baseline and feature machines each solve the whole list in
        one vectorised pass; a scenario's measurement does not depend
        on what else is in the batch.  Custom metrics fall back to
        per-scenario evaluation — only the default MIPS metric
        understands batches.
        """
        if self._metric is not scenario_performance:
            return tuple(
                self.replay(scenario, feature) for scenario in scenarios
            )
        from ..obs import inc

        inc("replays_total", len(scenarios))
        replay_scenarios = [
            self._reconstructed_scenario(scenario) for scenario in scenarios
        ]
        baseline_machine = BASELINE(self.shape.perf)
        feature_machine = feature(self.shape.perf)
        baselines = scenario_performance_many(
            baseline_machine, replay_scenarios, memo=self.memo
        )
        enabled = scenario_performance_many(
            feature_machine,
            replay_scenarios,
            normalize_machine=baseline_machine,
            memo=self.memo,
        )
        return tuple(
            ReplayMeasurement(
                scenario=replay_scenario,
                feature=feature,
                baseline=base,
                enabled=enab,
            )
            for replay_scenario, base, enab in zip(
                replay_scenarios, baselines, enabled
            )
        )

    def replay_many(
        self,
        scenarios: tuple[Scenario, ...],
        feature: Feature,
        *,
        executor: "Executor | str | None" = None,
    ) -> tuple[ReplayMeasurement, ...]:
        """Replay several scenarios under *feature*, in scenario order.

        Replays are independent (one testbed machine per scenario in the
        paper), so they dispatch on *executor* in scenario order.  With a
        process pool the replayer itself ships to the workers, which
        requires the catalogue and metric function to be picklable — true
        for everything in the library; pass ``executor=None`` (serial)
        for exotic closures.

        Under an executor with a ``retry_then_skip`` failure policy,
        entries may be :class:`~repro.runtime.resilience.TaskFailure`
        stand-ins (in their scenario's position) instead of
        measurements; the estimation layer drops them and renormalises
        the surviving group weights.

        With the default MIPS metric the executor dispatches scenario
        *groups*, one task each, and every group is solved as one
        vectorised batch by :meth:`replay_batch`.  A plain serial
        executor (no failure policy, no checkpoint journal) gets a
        single group holding every scenario, so one call makes at most
        one baseline and one feature solve.  Any other executor gets
        groups of ``_REPLAY_GROUP_SIZE``, which keeps worker balance,
        failure granularity and per-group journal entries; a skipped
        group expands back into one ``TaskFailure`` per scenario so
        result positions are unchanged.  The solver treats every row on
        its own, so the grouping never changes a result.  A custom
        metric replays one scenario per task.
        """
        from ..obs import span

        if self._metric is scenario_performance:
            pool = resolve_executor(executor)
            size = _replay_group_size(pool, len(scenarios))
            groups = [
                scenarios[start : start + size]
                for start in range(0, len(scenarios), size)
            ]
            task = _ReplayBatchTask(replayer=self, feature=feature)
            with span(
                "replayer.replay_many",
                feature=feature.name,
                n_scenarios=len(scenarios),
                n_groups=len(groups),
            ):
                grouped = pool.map(task, groups, chunk_size=1, stage="replays")
            flat: list[ReplayMeasurement | TaskFailure] = []
            for group, result in zip(groups, grouped):
                if isinstance(result, TaskFailure):
                    flat.extend([result] * len(group))
                else:
                    flat.extend(result)
            return tuple(flat)

        task = _ReplayTask(replayer=self, feature=feature)
        with span(
            "replayer.replay_many",
            feature=feature.name,
            n_scenarios=len(scenarios),
        ):
            return tuple(
                resolve_executor(executor).map(
                    task, scenarios, chunk_size=4, stage="replays"
                )
            )


# Scenarios per batched replay task under a pool, a failure policy or a
# checkpoint journal (a plain serial executor replays one group of all).
# It matches the custom-metric path's chunk size, so worker balance and
# skip granularity are the same on both paths.
_REPLAY_GROUP_SIZE = 4


def _replay_group_size(executor: Executor, n_scenarios: int) -> int:
    """Scenarios per batched replay task on *executor*."""
    if (
        isinstance(executor, SerialExecutor)
        and executor.resilience.is_noop
        and executor.checkpoint is None
    ):
        return max(1, n_scenarios)
    return _REPLAY_GROUP_SIZE


@dataclass(frozen=True)
class _ReplayTask:
    """Picklable single-scenario replay closure for executor dispatch."""

    replayer: Replayer
    feature: Feature

    def __call__(self, scenario: Scenario) -> ReplayMeasurement:
        return self.replayer.replay(scenario, self.feature)


@dataclass(frozen=True)
class _ReplayBatchTask:
    """Picklable scenario-group replay closure for batched dispatch."""

    replayer: Replayer
    feature: Feature

    def __call__(
        self, scenarios: tuple[Scenario, ...]
    ) -> tuple[ReplayMeasurement, ...]:
        return self.replayer.replay_batch(scenarios, self.feature)
