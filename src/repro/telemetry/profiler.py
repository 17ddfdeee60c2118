"""The Profiler: turns scenarios into raw metric vectors (paper §4.2).

The paper deploys a daemon to every server that periodically gathers
system and microarchitectural statistics (perf, topdown, /proc) and logs
them — with the commands of the running jobs — to a relational database.
Here the Profiler derives the same counter surface from the contention
model's solution of each recorded co-location scenario, adds measurement
noise, and (optionally) persists everything to the in-memory database.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cluster.features import BASELINE, Feature
from ..cluster.scenario import Scenario, ScenarioDataset
from ..cluster.source import ScenarioSource, resolve_source_argument
from ..perfmodel.batch import solve_colocation_many
from ..perfmodel.contention import (
    ColocationPerformance,
    InstancePerformance,
    RunningInstance,
)
from ..perfmodel.machine import MachinePerf
from .database import Column, Database, Schema
from .metrics import (
    PER_LEVEL_METRICS,
    TEMPORAL_BASES,
    MetricLevel,
    MetricSpec,
    all_metric_specs,
    temporal_metric_name,
)
from .noise import MeasurementNoise

__all__ = [
    "ProfiledBatch",
    "ProfiledDataset",
    "Profiler",
    "format_command",
    "parse_command",
]


def format_command(instance: RunningInstance) -> str:
    """Render the container launch command the Profiler records.

    Mirrors the paper's practice of logging "the commands and
    configurations of running jobs" so a scenario can be reconstructed
    later by the Replayer.
    """
    return (
        f"docker run --cpus {instance.signature.vcpus} "
        f"--memory {instance.signature.dram_gb:g}g "
        f"--job {instance.signature.name} --load {instance.load:.4f}"
    )


def parse_command(command: str) -> tuple[str, float]:
    """Recover (job name, load) from a recorded launch command."""
    tokens = command.split()
    try:
        job = tokens[tokens.index("--job") + 1]
        load = float(tokens[tokens.index("--load") + 1])
    except (ValueError, IndexError):
        raise ValueError(f"unparseable job command: {command!r}") from None
    return job, load


@dataclass(frozen=True)
class ProfiledDataset:
    """Scenario source + its collected raw-metric matrix.

    Attributes
    ----------
    dataset:
        The scenarios (identity, recorded instances, weights) — any
        :class:`~repro.cluster.ScenarioSource`, in-memory or sharded.
    machine:
        The machine configuration the metrics were collected under.
    specs:
        Registry entries for each matrix column.
    matrix:
        ``(n_scenarios, n_metrics)`` raw counter values.
    """

    dataset: ScenarioSource
    machine: MachinePerf
    specs: tuple[MetricSpec, ...]
    matrix: np.ndarray

    @property
    def metric_names(self) -> tuple[str, ...]:
        return tuple(spec.name for spec in self.specs)

    @property
    def n_scenarios(self) -> int:
        return self.matrix.shape[0]

    @property
    def n_metrics(self) -> int:
        return self.matrix.shape[1]

    def column(self, metric: str) -> np.ndarray:
        """Values of one metric across all scenarios."""
        try:
            idx = self.metric_names.index(metric)
        except ValueError:
            raise KeyError(f"unknown metric {metric!r}") from None
        return self.matrix[:, idx].copy()


class ProfiledBatch:
    """One profiled slice of a streaming source (``Profiler.iter_profile``).

    Attributes
    ----------
    start_row:
        Global row index of the batch's first scenario.
    dataset:
        The decoded scenarios of this batch only.  When a runtime
        profiles a store, the parent never decodes the shard for the
        workers, so this decodes lazily from the shard tables on first
        access — consumers that only need the matrix never pay for it.
    matrix:
        ``(len(dataset), n_metrics)`` raw counter values, noise applied.
    """

    __slots__ = ("start_row", "matrix", "_dataset")

    def __init__(
        self,
        *,
        start_row: int,
        dataset,
        matrix: np.ndarray,
    ) -> None:
        self.start_row = start_row
        self.matrix = matrix
        self._dataset = dataset

    @property
    def dataset(self) -> ScenarioDataset:
        if callable(self._dataset):
            self._dataset = self._dataset()
        return self._dataset


class Profiler:
    """Collects the Figure 6 metric surface for every scenario.

    Parameters
    ----------
    noise_sigma:
        Relative measurement noise (0 disables).
    seed:
        Seed for the noise stream.
    database:
        Optional :class:`Database`; when given, scenario metadata
        (including replayable job commands) and all metric samples are
        persisted into ``scenarios`` and ``samples`` tables.
    temporal_samples:
        When > 0, the Profiler additionally observes each scenario at
        this many jittered user-demand points and appends temporal
        standard-deviation metrics (paper §4.1's "IPC: 1.4±0.5"
        enrichment) for the :data:`TEMPORAL_BASES` counters.
    temporal_jitter:
        Relative magnitude of the demand jitter.
    per_job_metrics:
        Job names to add per-job presence metrics for
        (``InstanceCount-<job>`` and ``VCPUShare-<job>``).  The paper
        notes per-job metrics "would greatly improve the estimation
        accuracy for the job" but inflate the feature space, so they are
        recommended "only when necessary" (§5.3) — hence opt-in.
    memo:
        Optional content-addressed solve memo (``"off"``/``None``,
        ``"memory"``, ``"store:<path>"``, or a live
        :class:`~repro.perfmodel.memo.SolveMemo`).  Every collection
        consults it before solving; spec strings ship to executor
        workers, each resolving its own per-process instance.
    """

    def __init__(
        self,
        *,
        noise_sigma: float = 0.02,
        seed: int = 7,
        database: Database | None = None,
        temporal_samples: int = 0,
        temporal_jitter: float = 0.15,
        per_job_metrics: tuple[str, ...] = (),
        memo=None,
    ) -> None:
        if temporal_samples < 0:
            raise ValueError("temporal_samples must be non-negative")
        if isinstance(memo, str):
            from ..perfmodel.memo import validate_memo_spec

            validate_memo_spec(memo)  # validate eagerly, resolve lazily
        if not 0.0 <= temporal_jitter < 1.0:
            raise ValueError("temporal_jitter must be in [0, 1)")
        if len(set(per_job_metrics)) != len(per_job_metrics):
            raise ValueError("per_job_metrics must not repeat job names")
        self.temporal_samples = temporal_samples
        self.temporal_jitter = temporal_jitter
        self.per_job_metrics = tuple(per_job_metrics)
        specs = list(all_metric_specs(include_temporal=temporal_samples > 0))
        for job in self.per_job_metrics:
            specs.append(
                MetricSpec(
                    name=f"InstanceCount-{job}",
                    base=f"InstanceCount-{job}",
                    level=None,
                    category="per-job",
                    unit="count",
                    description=f"Instances of {job} in the co-location",
                )
            )
            specs.append(
                MetricSpec(
                    name=f"VCPUShare-{job}",
                    base=f"VCPUShare-{job}",
                    level=None,
                    category="per-job",
                    unit="fraction",
                    description=f"{job}'s share of allocated vCPUs",
                )
            )
        self.specs = tuple(specs)
        self.noise_sigma = noise_sigma
        self.seed = seed
        self.memo = memo
        self.database = database
        if database is not None:
            self._ensure_tables(database)

    # ------------------------------------------------------------------
    def profile(
        self,
        source: ScenarioSource | None = None,
        feature: Feature = BASELINE,
        *,
        runtime=None,
        executor=None,
        dataset: ScenarioDataset | None = None,
    ) -> ProfiledDataset:
        """Collect metrics for every scenario under *feature*'s machine.

        Accepts any :class:`~repro.cluster.ScenarioSource` and assembles
        the batches of :meth:`iter_profile` into one matrix.  The noise
        stream is consumed in global row order, so the matrix is
        bit-identical across backings, runtimes and batch sizes.

        ``runtime`` optionally fans the noise-free collection out: it
        accepts a :class:`repro.runtime.RuntimeConfig`, an executor
        instance, a spec string (``"process:4"``), or an
        already-resolved runtime.  ``None`` collects inline (no executor
        machinery, no environment lookup).  The legacy ``executor=`` and
        ``dataset=`` keywords still work with a
        :class:`DeprecationWarning`.
        """
        from .._deprecations import resolve_renamed_kwarg
        from ..obs import span

        runtime = resolve_renamed_kwarg(
            runtime,
            executor,
            owner="Profiler.profile",
            old_name="executor",
            new_name="runtime",
            required=False,
        )
        source = resolve_source_argument(
            source, dataset, owner="Profiler.profile"
        )
        with span(
            "profiler.profile",
            n_scenarios=len(source),
            n_metrics=len(self.specs),
            feature=feature.name,
        ):
            matrix = np.empty((len(source), len(self.specs)))
            for batch in self.iter_profile(source, feature, runtime=runtime):
                stop = batch.start_row + batch.matrix.shape[0]
                matrix[batch.start_row : stop] = batch.matrix
        return ProfiledDataset(
            dataset=source,
            machine=feature(source.shape.perf),
            specs=self.specs,
            matrix=matrix,
        )

    def iter_profile(
        self,
        source: ScenarioSource | None = None,
        feature: Feature = BASELINE,
        *,
        runtime=None,
        executor=None,
        window: int | None = None,
        noise_offset: int = 0,
        dataset: ScenarioDataset | None = None,
    ):
        """Profile a source batch-by-batch, yielding :class:`ProfiledBatch`.

        ``noise_offset`` advances the noise stream past that many rows
        before the first batch: profiling rows ``[w, n)`` of a source
        with ``noise_offset=w`` gives each row exactly the noise a full
        profile of all ``n`` rows would — the incremental-refit hook.

        This is the streaming producer behind the out-of-core fit: one
        batch per source batch (per shard for a store), so peak memory
        is bounded by batch size rather than dataset size.  With a
        *runtime*, every batch becomes columnar table slices
        (``(scenario_table, instance_table)`` in the store's shard
        layout, see :mod:`repro.store.format`) of ``chunk_size`` rows
        (cost-aware when ``"auto"``); the slices travel by value to
        the workers, *window* of them per executor map, and each
        worker decodes its slice and collects it.  A store's slices
        come from its verified shard tables without decoding; other
        sources are packed per batch.  Slices are plain arrays, so a
        :class:`~repro.runtime.CheckpointJournal` keys every chunk by
        its content.  A batch whose job names map to conflicting
        signatures cannot be interned into tables and is collected
        inline in the parent.

        Measurement noise is applied in the parent, in global row
        order, from the single seeded stream — yielded matrices are
        bit-identical to the inline path's rows under any runtime,
        worker count or batch size.  The legacy ``executor=`` and
        ``dataset=`` keywords still work with a
        :class:`DeprecationWarning`.
        """
        from .._deprecations import resolve_renamed_kwarg

        runtime = resolve_renamed_kwarg(
            runtime,
            executor,
            owner="Profiler.iter_profile",
            old_name="executor",
            new_name="runtime",
            required=False,
        )
        source = resolve_source_argument(
            source, dataset, owner="Profiler.iter_profile"
        )
        machine = feature(source.shape.perf)
        noise = MeasurementNoise(
            self.noise_sigma, np.random.default_rng(self.seed)
        )
        if noise_offset < 0:
            raise ValueError("noise_offset must be non-negative")
        noise.skip(noise_offset, len(self.specs))
        if runtime is None:
            collected = (
                (batch, self._collect_matrix(batch, machine))
                for batch in source.iter_batches()
            )
            yield from self._finish(collected, noise, feature)
            return

        from ..runtime.config import resolve_runtime

        resolved = resolve_runtime(runtime)
        try:
            yield from self._finish(
                self._collect_slices(source, machine, resolved, window),
                noise,
                feature,
            )
        finally:
            if resolved is not runtime:
                resolved.close()

    def _finish(self, collected, noise: MeasurementNoise, feature: Feature):
        """Noise (in row order), persistence and a batch per collected pair.

        *collected* yields ``(dataset, clean)`` in row order; *dataset*
        may be a callable that decodes the batch, which only runs when
        persistence or a consumer needs the scenarios.
        """
        from ..obs import inc, span

        start_row = 0
        for dataset, clean in collected:
            with span(
                "profiler.profile_batch",
                n_scenarios=clean.shape[0],
                start_row=start_row,
                feature=feature.name,
            ):
                matrix = np.empty_like(clean)
                for row in range(clean.shape[0]):
                    matrix[row] = noise.apply(clean[row], self.specs)
                batch = ProfiledBatch(
                    start_row=start_row, dataset=dataset, matrix=matrix
                )
                if self.database is not None:
                    for scenario, values in zip(
                        batch.dataset.scenarios, matrix
                    ):
                        self._persist(scenario, values)
            inc("scenarios_profiled", clean.shape[0])
            yield batch
            start_row += clean.shape[0]

    def _collect_slices(self, source, machine: MachinePerf, resolved, window):
        """Collect *source* on a resolved runtime, one table slice per item.

        Yields ``(dataset, clean)`` per source batch in row order.
        Items never span a batch; each carries only its own rows'
        instances (``inst_offset`` rebased to 0) as plain array copies.
        The dispatched profiler copy drops the database handle: it is
        not picklable, and persistence stays in the parent.  A slice
        degraded to a ``TaskFailure`` by ``retry_then_skip`` is a hard
        error — a metric matrix with missing rows would silently skew
        everything downstream.
        """
        import copy
        import time

        from ..runtime.config import cost_aware_block, record_stage_cost
        from ..runtime.resilience import TaskFailure

        pool = resolved.executor
        if window is None:
            window = 2 * getattr(pool, "max_workers", 2)
        rows = resolved.config.chunk_size
        if not isinstance(rows, int):
            rows = cost_aware_block(
                len(source), getattr(pool, "max_workers", 1), "profile"
            )
        worker = copy.copy(self)
        worker.database = None
        job_index: dict[str, int] = {}
        signatures: dict = {}
        batches: list[list] = []  # [dataset, expected items, cleans]
        items: list[tuple[list, tuple]] = []

        def run():
            task = _CollectTablesTask(
                profiler=worker,
                machine=machine,
                job_names=tuple(job_index),
                signatures=dict(signatures),
                shape=source.shape,
            )
            begin = time.perf_counter()
            cleans = pool.map(
                task,
                [item for _, item in items],
                chunk_size=1,
                stage="profile",
            )
            record_stage_cost(
                "profile",
                time.perf_counter() - begin,
                sum(len(item[0]) for _, item in items),
            )
            for (batch, _), clean in zip(items, cleans):
                if isinstance(clean, TaskFailure):
                    raise RuntimeError(
                        f"profiling lost a table slice ({clean.error}); a "
                        "partial metric matrix would skew every downstream "
                        "stage — rerun with a non-skipping failure policy"
                    )
                batch[2].append(clean)
            items.clear()

        def done():
            while batches and len(batches[0][2]) == batches[0][1]:
                dataset, _, cleans = batches.pop(0)
                yield dataset, (
                    np.concatenate(cleans)
                    if cleans
                    else np.empty((0, len(self.specs)))
                )

        for tables, dataset in _table_batches(source, job_index, signatures):
            if tables is None:
                clean = self._collect_matrix(dataset, machine)
                batches.append([dataset, 1, [clean]])
            else:
                slices = list(_table_slices(*tables, rows))
                batch = [dataset, len(slices), []]
                batches.append(batch)
                for item in slices:
                    items.append((batch, item))
                    if len(items) >= window:
                        run()
                        yield from done()
            yield from done()
        if items:
            run()
        yield from done()

    def collect(
        self,
        scenario: Scenario,
        dataset: ScenarioDataset,
        machine: MachinePerf,
    ) -> np.ndarray:
        """Noise-free metric vector for one scenario (registry order)."""
        return self.collect_many((scenario,), dataset, machine)[0]

    def collect_many(
        self,
        scenarios,
        dataset: ScenarioDataset,
        machine: MachinePerf,
        *,
        block_rows: int = 4096,
    ) -> list[np.ndarray]:
        """Noise-free metric vectors for many scenarios, batch-solved.

        Each block of *block_rows* scenarios is one contention batch
        (through ``self.memo`` when set), which keeps the batch working
        set bounded; a row's vector does not depend on the blocking.
        """
        vectors: list[np.ndarray] = []
        for start in range(0, len(scenarios), block_rows):
            block = scenarios[start : start + block_rows]
            solutions = solve_colocation_many(
                machine,
                [list(scenario.instances) for scenario in block],
                memo=self.memo,
            )
            vectors.extend(
                self._vector_from_solution(scenario, dataset, machine, solution)
                for scenario, solution in zip(block, solutions)
            )
        return vectors

    def collect_tables(
        self,
        scenario_table: np.ndarray,
        instance_table: np.ndarray,
        *,
        job_names,
        signatures: dict,
        shape,
        machine: MachinePerf,
    ) -> np.ndarray:
        """Noise-free metric matrix for a columnar table slice.

        The worker-side entry point of parallel profiling: the slice is
        decoded (:func:`~repro.store.format.decode_shard`) and collected
        by :meth:`collect_many`, so the result is bit-identical to
        collecting the scenarios it was packed from.
        """
        from ..store.format import decode_shard

        dataset = decode_shard(
            scenario_table, instance_table, list(job_names), signatures, shape
        )
        return self._collect_matrix(dataset, machine)

    def _collect_matrix(
        self, dataset: ScenarioDataset, machine: MachinePerf
    ) -> np.ndarray:
        """:meth:`collect_many` over *dataset*, as one metric matrix."""
        clean = np.empty((len(dataset), len(self.specs)))
        for row, vector in enumerate(
            self.collect_many(dataset.scenarios, dataset, machine)
        ):
            clean[row] = vector
        return clean

    def _vector_from_solution(
        self,
        scenario: Scenario,
        dataset: ScenarioDataset,
        machine: MachinePerf,
        solution: ColocationPerformance,
    ) -> np.ndarray:
        """Derive the registry-ordered metric vector from a solved scenario."""
        shape = dataset.shape
        values: dict[str, float] = {}

        pairs = list(zip(scenario.instances, solution.instances))
        for level, selector in (
            (MetricLevel.MACHINE, lambda _: True),
            (MetricLevel.HP, lambda perf: perf.is_high_priority),
        ):
            subset = [(ri, pi) for ri, pi in pairs if selector(pi)]
            level_values = _level_metrics(subset, shape.vcpus, shape.dram_gb, machine)
            for base, value in level_values.items():
                values[f"{base}-{level.value}"] = value

        values.update(
            _machine_only_metrics(pairs, shape.vcpus, shape.dram_gb, solution)
        )
        if self.temporal_samples > 0:
            values.update(self._temporal_metrics(scenario, machine, values))
        for job in self.per_job_metrics:
            count = scenario.count_of(job)
            allocated = scenario.total_vcpus
            values[f"InstanceCount-{job}"] = float(count)
            values[f"VCPUShare-{job}"] = (
                count * 4.0 / allocated if allocated else 0.0
            )

        vector = np.array([values[spec.name] for spec in self.specs])
        return vector

    def _temporal_metrics(
        self,
        scenario: Scenario,
        machine: MachinePerf,
        base_values: dict[str, float],
    ) -> dict[str, float]:
        """Std-dev of key counters over jittered user-demand samples.

        Deterministic per (profiler seed, scenario id): load jitter uses a
        dedicated stream so temporal metrics never perturb the main noise
        sequence.

        Vectorised across samples: the jitter draw is one array call
        (``Generator.uniform(size=(S, n))`` consumes doubles in C order,
        i.e. sample-major instance-minor — the same stream as the
        historical nested scalar loop), the solves are one batch, and the
        four :data:`TEMPORAL_BASES` reduce over (sample × instance)
        counter matrices instead of building ~50 metrics per sample.
        Bit-identical to the historical per-sample loop over
        :func:`_level_metrics` (kept as a test oracle): row reductions
        of a C-contiguous matrix apply the same pairwise summation as the
        per-subset 1-D arrays, and the instruction-weighted LLC-MPKI keeps
        the same 1-D BLAS dot call per row.  High-priority membership is
        a signature property, so the HP column subset is fixed across
        samples.
        """
        rng = np.random.default_rng((self.seed, scenario.scenario_id))
        n_samples = self.temporal_samples
        instances = scenario.instances
        n_inst = len(instances)

        factors = 1.0 + rng.uniform(
            -self.temporal_jitter,
            self.temporal_jitter,
            size=(n_samples, n_inst),
        )
        base_loads = np.array([inst.load for inst in instances])
        loads = np.clip(base_loads * factors, 0.05, 1.0)
        jittered_samples = [
            [
                RunningInstance(signature=inst.signature, load=float(load))
                for inst, load in zip(instances, row)
            ]
            for row in loads
        ]
        solutions = solve_colocation_many(
            machine, jittered_samples, memo=self.memo
        )

        # One extraction pass over the solved samples.
        mips = np.empty((n_samples, n_inst))
        busy = np.empty((n_samples, n_inst))
        freq = np.empty((n_samples, n_inst))
        llc_mpki = np.empty((n_samples, n_inst))
        dram_gbps = np.empty((n_samples, n_inst))
        for row, solution in enumerate(solutions):
            perf = solution.instances
            mips[row] = [p.mips for p in perf]
            busy[row] = [p.busy_threads for p in perf]
            freq[row] = [p.frequency_ghz for p in perf]
            llc_mpki[row] = [p.llc_mpki for p in perf]
            dram_gbps[row] = [p.dram_gbps for p in perf]

        def level_series(columns: np.ndarray | None) -> dict[str, np.ndarray]:
            if columns is not None and columns.size == 0:
                zeros = np.zeros(n_samples)
                return {base: zeros for base in TEMPORAL_BASES}
            if columns is None:
                m, b, f = mips, busy, freq
                llc, dram = llc_mpki, dram_gbps
            else:
                m = np.ascontiguousarray(mips[:, columns])
                b = np.ascontiguousarray(busy[:, columns])
                f = np.ascontiguousarray(freq[:, columns])
                llc = np.ascontiguousarray(llc_mpki[:, columns])
                dram = np.ascontiguousarray(dram_gbps[:, columns])
            instr_rate = m * 1e6
            total_instr = instr_rate.sum(axis=1)
            cycles = b * f * 1e9
            total_cycles = cycles.sum(axis=1)
            ipc = np.divide(
                total_instr,
                total_cycles,
                out=np.zeros(n_samples),
                where=total_cycles > 0,
            )
            weighted_mpki = np.empty(n_samples)
            for row in range(n_samples):
                w_instr = (
                    instr_rate[row] / total_instr[row]
                    if total_instr[row] > 0
                    else instr_rate[row]
                )
                weighted_mpki[row] = llc[row] @ w_instr
            return {
                "MIPS": m.sum(axis=1),
                "IPC": ipc,
                "LLC-MPKI": weighted_mpki,
                "MemTotalGBps": dram.sum(axis=1),
            }

        hp_columns = np.flatnonzero(
            [inst.signature.is_high_priority for inst in instances]
        )
        per_level = {
            MetricLevel.MACHINE: level_series(None),
            MetricLevel.HP: level_series(hp_columns),
        }
        out = {}
        series = np.empty(n_samples + 1)
        for level, values in per_level.items():
            for base in TEMPORAL_BASES:
                series[0] = base_values[f"{base}-{level.value}"]
                series[1:] = values[base]
                out[temporal_metric_name(base, level)] = float(
                    series.std(ddof=0)
                )
        return out

    # ------------------------------------------------------------------
    def _ensure_tables(self, database: Database) -> None:
        if "scenarios" not in database.table_names:
            database.create_table(
                "scenarios",
                Schema(
                    columns=(
                        Column("scenario_id", int),
                        Column("key_text", str),
                        Column("n_containers", int),
                        Column("n_occurrences", int),
                        Column("total_duration_s", float),
                        Column("commands", str),
                    ),
                    primary_key="scenario_id",
                ),
            )
        if "samples" not in database.table_names:
            database.create_table(
                "samples",
                Schema(
                    columns=(
                        Column("scenario_id", int),
                        Column("metric", str),
                        Column("value", float),
                    )
                ),
            )

    def _persist(self, scenario: Scenario, values: np.ndarray) -> None:
        assert self.database is not None
        scenarios = self.database.table("scenarios")
        try:
            scenarios.get(scenario.scenario_id)
        except KeyError:
            scenarios.insert(
                {
                    "scenario_id": scenario.scenario_id,
                    "key_text": ",".join(
                        f"{name}x{count}" for name, count in scenario.key
                    ),
                    "n_containers": len(scenario.instances),
                    "n_occurrences": scenario.n_occurrences,
                    "total_duration_s": scenario.total_duration_s,
                    "commands": ";".join(
                        format_command(inst) for inst in scenario.instances
                    ),
                }
            )
        samples = self.database.table("samples")
        samples.insert_many(
            {
                "scenario_id": scenario.scenario_id,
                "metric": spec.name,
                "value": float(value),
            }
            for spec, value in zip(self.specs, values)
        )


# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _CollectTablesTask:
    """Picklable profiling task: the item is a table slice, by value.

    The item is a ``(scenario_table, instance_table)`` pair whose
    ``job`` column indexes *job_names*; the worker returns its noise-free
    metric matrix via :meth:`Profiler.collect_tables`.
    """

    profiler: "Profiler"
    machine: MachinePerf
    job_names: tuple
    signatures: dict
    shape: object

    def __call__(self, item: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        scenario_table, instance_table = item
        return self.profiler.collect_tables(
            scenario_table,
            instance_table,
            job_names=self.job_names,
            signatures=self.signatures,
            shape=self.shape,
            machine=self.machine,
        )


def _table_batches(source, job_index: dict, signatures: dict):
    """Yield ``(tables, dataset)`` per batch of *source*, in row order.

    *tables* is the batch's ``(scenario_table, instance_table)`` with
    ``job`` indexing *job_index* (name → index, filled in place along
    with *signatures*), or ``None`` when the batch's job names map to
    conflicting signatures.  *dataset* is the batch's scenarios, or a
    callable decoding them from *tables*.

    A store (or a slice or tail of one: anything with ``iter_tables``)
    hands over its verified shard tables and its own job catalogue;
    any other source is packed per batch with ``encode_shard``.
    """
    from ..store.format import decode_shard, encode_shard

    if hasattr(source, "iter_tables"):
        store = getattr(source, "store", source)
        job_index.update((name, i) for i, name in enumerate(store.job_names))
        signatures.update(store.signatures)
        names = list(store.job_names)
        for tables in source.iter_tables():
            yield tables, (
                lambda t=tables: decode_shard(
                    *t, names, store.signatures, store.shape
                )
            )
        return
    for batch in source.iter_batches():
        if _merge_signatures(batch.scenarios, signatures):
            yield encode_shard(batch.scenarios, job_index), batch
        else:
            yield None, batch


def _merge_signatures(scenarios, signatures: dict) -> bool:
    """Add *scenarios*' job signatures to *signatures* (name → signature).

    Returns False, leaving *signatures* unchanged, when a job name maps
    to two different signatures.
    """
    found: dict = {}
    for scenario in scenarios:
        for instance in scenario.instances:
            sig = instance.signature
            known = found.setdefault(sig.name, signatures.get(sig.name, sig))
            if known is not sig and known != sig:
                return False
    signatures.update(found)
    return True


def _table_slices(scenario_table, instance_table, rows: int):
    """Split one batch's tables into items of about *rows* scenarios.

    The batch is cut into the number of even pieces closest to
    ``len / rows`` (so a target near the batch size keeps it whole
    rather than shaving off a tiny remainder).  Each item is a plain
    array copy holding only its rows' instances, ``inst_offset``
    rebased to 0.
    """
    n = len(scenario_table)
    if not n:
        return
    step = -(-n // max(1, round(n / rows)))
    for start in range(0, n, step):
        scenarios = np.array(scenario_table[start : start + step])
        lo = int(scenarios["inst_offset"][0])
        hi = int(scenarios["inst_offset"][-1] + scenarios["inst_count"][-1])
        scenarios["inst_offset"] -= lo
        yield scenarios, np.array(instance_table[lo:hi])


# ----------------------------------------------------------------------
def _level_metrics(
    subset: list[tuple[RunningInstance, InstancePerformance]],
    shape_vcpus: int,
    shape_dram_gb: float,
    machine: MachinePerf,
) -> dict[str, float]:
    """Aggregate one scope's counters over the selected instances."""
    if not subset:
        return {base: 0.0 for base, *_ in PER_LEVEL_METRICS}

    perf = [pi for _, pi in subset]
    sigs = [ri.signature for ri, _ in subset]

    mips = np.array([p.mips for p in perf])
    instr_rate = mips * 1e6
    total_instr = float(instr_rate.sum())
    busy = np.array([p.busy_threads for p in perf])
    cycles = busy * np.array([p.frequency_ghz for p in perf]) * 1e9
    total_cycles = float(cycles.sum())
    w_instr = instr_rate / total_instr if total_instr > 0 else instr_rate
    w_cycles = cycles / total_cycles if total_cycles > 0 else cycles

    def instrw(values) -> float:
        return float(np.asarray(values, dtype=np.float64) @ w_instr)

    def cyclew(values) -> float:
        return float(np.asarray(values, dtype=np.float64) @ w_cycles)

    allocated = float(sum(s.vcpus for s in sigs))
    dram_used = float(sum(s.dram_gb for s in sigs))
    total_mips = float(mips.sum())
    ipc = total_instr / total_cycles if total_cycles > 0 else 0.0

    llc_apki = np.array([s.llc_apki for s in sigs])
    llc_mpki = np.array([p.llc_mpki for p in perf])
    access_rate = instr_rate * llc_apki / 1000.0
    miss_rate = instr_rate * llc_mpki / 1000.0
    total_access = float(access_rate.sum())
    miss_ratio = float(miss_rate.sum()) / total_access if total_access > 0 else 0.0

    write_frac = np.array([s.write_fraction for s in sigs])
    dram_gbps = np.array([p.dram_gbps for p in perf])
    read_gbps = float((dram_gbps / (1.0 + write_frac)).sum())
    total_gbps = float(dram_gbps.sum())
    write_gbps = total_gbps - read_gbps

    network = float(sum(p.network_gbps for p in perf))
    disk = float(sum(p.disk_mbps for p in perf))

    stacks = [p.cpi_stack for p in perf]
    topdowns = [s.topdown() for s in stacks]

    return {
        "MIPS": total_mips,
        "IPC": ipc,
        "CPI": 1.0 / ipc if ipc > 0 else 0.0,
        "MIPSPerThread": total_mips / float(busy.sum()) if busy.sum() > 0 else 0.0,
        "MIPSPerVCPU": total_mips / allocated if allocated > 0 else 0.0,
        "SpinPct": instrw([s.spin_fraction for s in sigs]),
        "BusyThreads": float(busy.sum()),
        "CPUUtil": min(float(busy.sum()) / machine.hardware_threads, 1.0),
        "AllocatedVCPUs": allocated,
        "VCPUUtil": allocated / shape_vcpus,
        "ContainerCount": float(len(subset)),
        "DRAMUsedGB": dram_used,
        "DRAMUtil": dram_used / shape_dram_gb,
        "L1I-APKI": instrw([s.l1i_apki for s in sigs]),
        "L1D-APKI": instrw([s.l1d_apki for s in sigs]),
        "L1D-MPKI": instrw([s.l2_apki for s in sigs]),
        "L2-APKI": instrw([s.l2_apki for s in sigs]),
        "L2-MPKI": instrw(llc_apki),
        "LLC-APKI": instrw(llc_apki),
        "LLC-MPKI": instrw(llc_mpki),
        "LLC-MissRatio": miss_ratio,
        "LLC-HitRatio": 1.0 - miss_ratio if total_access > 0 else 0.0,
        "LLC-MissesPerSec": float(miss_rate.sum()) * 1000.0,
        "CacheOccupancyMB": float(sum(p.cache_share_mb for p in perf)),
        "Branch-MPKI": instrw([s.branch_mpki for s in sigs]),
        "Topdown-Retiring": cyclew([t.retiring for t in topdowns]),
        "Topdown-FrontendBound": cyclew([t.frontend_bound for t in topdowns]),
        "Topdown-BadSpeculation": cyclew([t.bad_speculation for t in topdowns]),
        "Topdown-BackendBound": cyclew([t.backend_bound for t in topdowns]),
        "Topdown-MemoryBound": cyclew([t.memory_bound for t in topdowns]),
        "Topdown-CoreBound": cyclew([t.core_bound for t in topdowns]),
        "CPIStack-Base": instrw([s.base for s in stacks]),
        "CPIStack-Frontend": instrw([s.frontend for s in stacks]),
        "CPIStack-Branch": instrw([s.branch for s in stacks]),
        "CPIStack-L2": instrw([s.l2 for s in stacks]),
        "CPIStack-LLCHit": instrw([s.llc_hit for s in stacks]),
        "CPIStack-DRAM": instrw([s.dram for s in stacks]),
        "CPIStack-SMT": instrw([s.smt for s in stacks]),
        "MemReadGBps": read_gbps,
        "MemWriteGBps": write_gbps,
        "MemTotalGBps": total_gbps,
        "MemTotalBytesPerSec": total_gbps * 1e9,
        "MemBWUtil": min(total_gbps / machine.mem_bw_gbps, 1.0),
        "NetworkGbps": network,
        "NetworkUtil": min(network / machine.network_gbps, 1.0),
        "DiskMBps": disk,
        "DiskUtil": min(disk / machine.disk_mbps, 1.0),
    }


def _machine_only_metrics(
    pairs: list[tuple[RunningInstance, InstancePerformance]],
    shape_vcpus: int,
    shape_dram_gb: float,
    solution: ColocationPerformance,
) -> dict[str, float]:
    """Environment/OS-level counters that exist only at machine scope."""
    allocated = sum(ri.signature.vcpus for ri, _ in pairs)
    hp_allocated = sum(
        ri.signature.vcpus for ri, pi in pairs if pi.is_high_priority
    )
    dram_used = sum(ri.signature.dram_gb for ri, _ in pairs)
    busy = sum(pi.busy_threads for _, pi in pairs)
    containers = len(pairs)
    dram_gbps = sum(pi.dram_gbps for _, pi in pairs)
    return {
        "MemLatencyNs": solution.mem_latency_ns,
        "MemFreeGB": shape_dram_gb - dram_used,
        "FreeVCPUs": float(shape_vcpus - allocated),
        "HPVCPUShare": hp_allocated / allocated if allocated else 0.0,
        "LoadAverage": busy,
        # Synthetic OS counters: plausible functions of machine activity,
        # giving refinement realistic near-duplicates to find.
        "ContextSwitchesPerSec": 120.0 * busy + 40.0 * containers,
        "PageFaultsPerSec": 900.0 * dram_gbps + 30.0 * containers,
        "ProcessCount": 60.0 + 12.0 * containers,
    }

