"""The end-to-end FLARE pipeline (paper Figure 4).

``Flare`` wires the four steps together:

1. **Profiler** — collect 100+ raw metrics per scenario and refine away
   correlated duplicates;
2. **Analyzer (metrics)** — standardise + PCA into ~20 interpretable
   high-level metrics;
3. **Analyzer (grouping)** — whiten, cluster, and extract one
   representative scenario per group;
4. **Replayer** — measure a feature on the representatives only and
   weight by group size.

Typical use::

    flare = Flare().fit(simulation_result.dataset)
    estimate = flare.evaluate(FEATURE_1_CACHE)
    print(estimate.reduction_pct)
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .._deprecations import resolve_renamed_kwarg
from ..cluster.features import Feature
from ..cluster.scenario import ScenarioDataset, ScenarioKey
from ..cluster.source import ScenarioSource, resolve_source_argument
from ..obs import span as obs_span
from ..runtime.config import RuntimeConfig, resolve_runtime
from ..runtime.executor import Executor
from ..stats.correlation import PruneReport
from ..telemetry.database import Database
from ..telemetry.profiler import ProfiledDataset, Profiler
from .analyzer import AnalysisResult, Analyzer, AnalyzerConfig
from .estimation import (
    FeatureImpactEstimate,
    estimate_all_job_impact,
    estimate_per_job_impact,
)
from .interpretation import ComponentInterpretation, interpret_components
from .refinement import RefinedDataset, refine
from .replayer import Replayer
from .representatives import RepresentativeSet, extract_representatives
from .streaming_fit import StreamingFit

__all__ = ["FlareConfig", "Flare"]


@dataclass(frozen=True)
class FlareConfig:
    """Configuration of the whole pipeline.

    Attributes
    ----------
    refinement_threshold:
        Correlation-pruning threshold (step 1).
    analyzer:
        PCA / clustering knobs (steps 2–3).
    noise_sigma / profiler_seed:
        Measurement-noise model of the Profiler.
    interpretation_top_n:
        Raw metrics listed per PC in the Figure 8 style report.
    temporal_samples / temporal_jitter:
        Enable the Profiler's temporal extension (§4.1): collect std-dev
        companions of key counters over jittered demand samples.
    per_job_metrics:
        Jobs to add per-job presence metrics for (§5.3's accuracy-vs-
        dimensionality trade-off; off by default as the paper recommends).
    memo:
        Content-addressed solve memo spec for the Profiler and
        Replayer: ``"off"`` (default), ``"memory"`` (in-process LRU
        keyed by canonical content digest), or ``"store:<path>"``
        (persistent digest-verified segment directory shared across
        processes and runs).  Memoisation cannot change results —
        hits are bit-identical to fresh solves — so it is persisted
        with saved models as pure speed configuration.
        See the memo section of ``docs/perfmodel.md``.
    runtime:
        Default :class:`~repro.runtime.RuntimeConfig` for this model's
        fan-out stages (fitting, evaluation).  ``None`` keeps every
        call serial-inline unless a ``runtime=`` argument is passed
        explicitly; a per-call ``runtime=`` always wins over this
        default.  Persisted with saved models (like ``memo``), and —
        like every runtime knob — unable to change results, only speed
        and failure behaviour.
    """

    refinement_threshold: float = 0.98
    analyzer: AnalyzerConfig = field(default_factory=AnalyzerConfig)
    noise_sigma: float = 0.02
    profiler_seed: int = 7
    interpretation_top_n: int = 6
    temporal_samples: int = 0
    temporal_jitter: float = 0.15
    per_job_metrics: tuple[str, ...] = ()
    memo: str = "off"
    runtime: RuntimeConfig | None = None

    def __post_init__(self) -> None:
        from ..perfmodel.memo import validate_memo_spec

        validate_memo_spec(self.memo)
        if self.runtime is not None and not isinstance(
            self.runtime, RuntimeConfig
        ):
            raise TypeError(
                "FlareConfig.runtime must be a RuntimeConfig or None, "
                f"got {self.runtime!r}"
            )

    def make_profiler(self, *, database: Database | None = None) -> Profiler:
        """Build the Profiler this configuration describes.

        The single construction point for Profilers: every collection
        path (fitting, out-of-sample classification, cache warm-up) uses
        the same knobs, so none can silently drop one.  ``database`` is
        per-call because only fitting persists samples.
        """
        return Profiler(
            noise_sigma=self.noise_sigma,
            seed=self.profiler_seed,
            database=database,
            temporal_samples=self.temporal_samples,
            temporal_jitter=self.temporal_jitter,
            per_job_metrics=self.per_job_metrics,
            memo=self.memo if self.memo != "off" else None,
        )


class Flare:
    """Facade over Profiler → Analyzer → representative extraction →
    Replayer."""

    def __init__(
        self,
        config: FlareConfig | None = None,
        *,
        database: Database | None = None,
    ) -> None:
        self.config = config if config is not None else FlareConfig()
        self.database = database
        self._profiled: ProfiledDataset | None = None
        self._refined: RefinedDataset | None = None
        self._analysis: AnalysisResult | None = None
        self._representatives: RepresentativeSet | None = None
        self._interpretations: tuple[ComponentInterpretation, ...] | None = None
        self._replayer: Replayer | None = None
        #: Which raw metrics survived refinement, on either fit path
        #: (out-of-core fits have no RefinedDataset to carry it).
        self._prune_report: PruneReport | None = None
        #: Provenance chain of refit-path models (see repro.core.refit);
        #: empty for models fitted directly.
        self.lineage: tuple = ()
        #: The repro.core.refit.RefitPlan of a refit-path model: what
        #: load_model needs to reproduce a warm-started fit exactly.
        self._refit_plan = None

    # ------------------------------------------------------------------
    def fit(
        self,
        source: "ScenarioSource | None" = None,
        *,
        runtime: "RuntimeConfig | Executor | str | None" = None,
        executor: "Executor | str | None" = None,
        dataset: ScenarioDataset | None = None,
    ) -> "Flare":
        """Run steps 1–3 on a scenario source; returns self.

        Accepts any :class:`~repro.cluster.ScenarioSource`.  An
        in-memory :class:`ScenarioDataset` takes the classic path
        (full matrices resident); any other source — a sharded
        :class:`~repro.store.ShardedScenarioStore` in particular — is
        fitted out-of-core via :func:`~repro.core.streaming_fit`,
        with peak memory bounded by the shard size.

        ``runtime`` parallelises the profiling fan-out (the dominant
        cost of fitting): a :class:`~repro.runtime.RuntimeConfig`, an
        executor instance, or a spec string like ``"process:4"``.
        When omitted, ``config.runtime`` applies (serial-inline when
        that is ``None`` too).  Results are bit-identical to serial
        fitting under any runtime, chunk size or worker count,
        including with fault injection enabled — see
        :mod:`repro.runtime.resilience`.  The legacy ``executor=`` and
        ``dataset=`` keywords still work with a
        ``DeprecationWarning``.
        """
        runtime = resolve_renamed_kwarg(
            runtime,
            executor,
            owner="Flare.fit",
            old_name="executor",
            new_name="runtime",
            required=False,
        )
        if runtime is None:
            runtime = self.config.runtime
        source = resolve_source_argument(source, dataset, owner="Flare.fit")
        if len(source) < 2:
            raise ValueError("FLARE needs at least 2 scenarios to fit")
        streaming = not isinstance(source, ScenarioDataset)
        span_attrs = {"streaming": True} if streaming else {}
        with obs_span(
            "flare.fit", n_scenarios=len(source), **span_attrs
        ) as fit_span:
            if streaming:
                from .streaming_fit import streaming_fit

                fit = streaming_fit(
                    source, self.config, database=self.database, runtime=runtime
                )
                self._adopt(source, fit, span=fit_span)
            else:
                profiler = self.config.make_profiler(database=self.database)
                with obs_span("flare.profile"):
                    profiled = profiler.profile(source, runtime=runtime)
                with obs_span("flare.refine"):
                    refined = refine(
                        profiled, threshold=self.config.refinement_threshold
                    )
                with obs_span("flare.analyze"):
                    analysis = Analyzer(self.config.analyzer).analyze(refined)
                with obs_span("flare.representatives"):
                    representatives = extract_representatives(
                        analysis, source
                    )
                fit = StreamingFit(
                    analysis=analysis,
                    report=refined.report,
                    specs=refined.specs,
                    representatives=representatives,
                    n_scenarios=len(source),
                )
                self._adopt(
                    source, fit, profiled=profiled, refined=refined, span=fit_span
                )
        self._ledger_record(
            "fit",
            runtime=runtime,
            metrics={
                "n_scenarios": float(len(source)),
                "n_clusters": float(self._analysis.n_clusters),
                "n_components": float(self._analysis.n_components),
                "sse_per_scenario": (
                    self.representatives.baseline.sse_per_scenario
                ),
            },
            labels={"streaming": True} if streaming else None,
        )
        return self

    def _adopt(
        self,
        source: "ScenarioSource",
        fit: "StreamingFit",
        *,
        profiled: ProfiledDataset | None = None,
        refined: RefinedDataset | None = None,
        span=None,
    ) -> "Flare":
        """Install one fit's results on this model; returns self.

        Every fit path (in memory, out-of-core, refit, replay) ends here.
        Only an in-memory fit has *profiled* and *refined* matrices.
        """
        self._profiled = profiled
        self._refined = refined
        self._prune_report = fit.report
        self._analysis = fit.analysis
        self._representatives = fit.representatives
        with obs_span("flare.interpret"):
            self._interpretations = interpret_components(
                fit.analysis.pca,
                fit.specs,
                n_components=fit.analysis.n_components,
                top_n=self.config.interpretation_top_n,
            )
        self._replayer = Replayer(
            source.shape,
            catalogue=_catalogue_from(source),
            memo=self.config.memo if self.config.memo != "off" else None,
        )
        if span is not None:
            span.attrs["n_clusters"] = fit.analysis.n_clusters
            span.attrs["n_components"] = fit.analysis.n_components
        return self

    # ------------------------------------------------------------------
    def refit(
        self,
        source: "ScenarioSource | None" = None,
        *,
        spill_dir,
        mode: str = "auto",
        watermark: int | None = None,
        trigger: str = "manual",
        runtime: "RuntimeConfig | Executor | str | None" = None,
        max_scaler_drift: float | None = None,
    ) -> "Flare":
        """Refit this model over a grown *source*, reusing its spill.

        Returns a **new** fitted :class:`Flare` whose ``lineage``
        extends this model's by one entry; ``self`` is untouched.  The
        metric spill at *spill_dir* must be the one this model was
        fitted from (see :func:`repro.core.refit.refit`): only the
        rows past ``watermark`` are re-profiled, and the previous
        centroids warm-start a single clustering run unless a
        soundness gate (cluster-count change, scaler drift) forces a
        full re-fit of the spill.
        """
        from .refit import refit as _refit

        if source is None:
            source = self.dataset
        if runtime is None:
            runtime = self.config.runtime
        return _refit(
            source,
            self.config,
            spill_dir=spill_dir,
            prev=self,
            mode=mode,
            watermark=watermark,
            trigger=trigger,
            database=self.database,
            runtime=runtime,
            max_scaler_drift=max_scaler_drift,
        )

    def watch(
        self,
        source: "ScenarioSource",
        *,
        spill_dir,
        thresholds=None,
        runtime: "RuntimeConfig | Executor | str | None" = None,
        max_scaler_drift: float | None = None,
        max_cycles: int | None = None,
        idle=None,
    ):
        """Drive the fleet control loop: ingest → monitor → refit.

        A generator of :class:`repro.core.refit.WatchDecision`, one per
        cycle; see :func:`repro.core.refit.watch` for the loop contract
        and the ``repro fleet`` CLI for the end-to-end harness.
        """
        from .refit import watch as _watch

        if runtime is None:
            runtime = self.config.runtime
        return _watch(
            self,
            source,
            spill_dir=spill_dir,
            thresholds=thresholds,
            runtime=runtime,
            max_scaler_drift=max_scaler_drift,
            max_cycles=max_cycles,
            idle=idle,
        )

    # ------------------------------------------------------------------
    def evaluate(
        self,
        feature: Feature,
        *,
        runtime: "RuntimeConfig | Executor | str | None" = None,
        executor: "Executor | str | None" = None,
    ) -> FeatureImpactEstimate:
        """All-job impact estimate of *feature* (step 4).

        Per-representative replays dispatch on *runtime*
        (``config.runtime`` when omitted, serial when that is ``None``
        too); the estimate is identical for every runtime.  The legacy
        ``executor=`` keyword still works with a
        ``DeprecationWarning``.
        """
        runtime = self._evaluation_runtime(runtime, executor, "Flare.evaluate")
        with obs_span("flare.evaluate", feature=feature.name):
            estimate = self._with_runtime_executor(
                runtime,
                lambda pool: estimate_all_job_impact(
                    self.representatives, self.replayer, feature, executor=pool
                ),
            )
        self._ledger_record(
            "evaluate",
            runtime=runtime,
            metrics={"reduction_pct": float(estimate.reduction_pct)},
            labels={"feature": feature.name},
        )
        return estimate

    def evaluate_job(
        self,
        feature: Feature,
        job_name: str,
        *,
        runtime: "RuntimeConfig | Executor | str | None" = None,
        executor: "Executor | str | None" = None,
    ) -> FeatureImpactEstimate:
        """Per-job impact estimate of *feature* on *job_name*."""
        runtime = self._evaluation_runtime(
            runtime, executor, "Flare.evaluate_job"
        )
        with obs_span(
            "flare.evaluate_job", feature=feature.name, job=job_name
        ):
            estimate = self._with_runtime_executor(
                runtime,
                lambda pool: estimate_per_job_impact(
                    self.representatives,
                    self.replayer,
                    feature,
                    job_name,
                    executor=pool,
                ),
            )
        self._ledger_record(
            "evaluate",
            runtime=runtime,
            metrics={"reduction_pct": float(estimate.reduction_pct)},
            labels={"feature": feature.name, "job": job_name},
        )
        return estimate

    def _ledger_record(
        self,
        kind: str,
        *,
        runtime=None,
        metrics: dict | None = None,
        labels: dict | None = None,
    ) -> None:
        """Append a run record when a ledger is active (no-op otherwise).

        The guard keeps the un-observed hot path free of record
        assembly: without an active ledger this is one global read.
        """
        from ..obs.ledger import get_ledger, record_run

        if get_ledger() is None:
            return
        config: dict = {}
        if self.config.memo != "off":
            config["memo"] = self.config.memo
        runtime_config = getattr(runtime, "config", runtime)
        if isinstance(runtime_config, RuntimeConfig):
            config["runtime"] = runtime_config.to_dict()
        elif runtime_config is not None:
            config["runtime"] = str(runtime_config)
        elif self.config.runtime is not None:
            config["runtime"] = self.config.runtime.to_dict()
        record_run(kind, config=config, metrics=metrics, labels=labels)

    def health(
        self,
        source: "ScenarioSource | None" = None,
        *,
        runtime: "RuntimeConfig | Executor | str | None" = None,
        thresholds=None,
    ) -> "object":
        """Drift report of *source* against this model's fit baseline.

        The fleet-health entry point (ROADMAP item 3's monitoring
        half): streams *source* — or, by default, the model's own
        dataset as a self-check — through the fitted pipeline and
        scores cluster-occupancy shift (PSI), SSE deltas and novelty
        rate against the :class:`~repro.core.representatives.FitBaseline`
        recorded at fit time.  See :class:`repro.obs.DriftMonitor`.
        """
        from ..obs.monitor import DriftMonitor

        monitor = DriftMonitor(self, thresholds)
        if source is None:
            source = self.dataset
        report = monitor.observe(source, runtime=runtime)
        self._ledger_record(
            "monitor",
            runtime=runtime,
            metrics={
                "psi_total": report.psi_total,
                "novelty_rate": report.novelty_rate,
                "sse_ratio": report.sse_ratio,
                "n_scenarios": float(report.n_scenarios),
            },
            labels={"status": report.status},
        )
        return report

    def _evaluation_runtime(self, runtime, executor, owner: str):
        """Merge the new/legacy/config spellings of the runtime argument."""
        runtime = resolve_renamed_kwarg(
            runtime,
            executor,
            owner=owner,
            old_name="executor",
            new_name="runtime",
            required=False,
        )
        return runtime if runtime is not None else self.config.runtime

    @staticmethod
    def _with_runtime_executor(runtime, call):
        """Run *call* with the runtime's executor, closing it if owned.

        ``runtime=None`` preserves the historical contract: the callee
        resolves its own executor (environment fallback included).
        """
        if runtime is None:
            return call(None)
        resolved = resolve_runtime(runtime)
        try:
            return call(resolved.executor)
        finally:
            if resolved is not runtime:
                resolved.close()

    def reweight(
        self, durations: dict[ScenarioKey, float]
    ) -> "Flare":
        """Re-derive representatives under new scenario observation times.

        Implements the §5.6 scheduler-change flow: a new scheduler changes
        how often each co-location occurs, not which behaviours exist, so
        FLARE restarts from step 3 — the collected metrics, PCA space and
        cluster structure are all reused; only group weights (and thus the
        impact weighting) change.  Returns a new fitted ``Flare``.
        """
        with obs_span("flare.reweight", n_durations=len(durations)):
            reweighted_dataset = self.dataset.with_weights_from(durations)
            cluster_weights = self.analysis.kmeans.cluster_weights(
                sample_weight=reweighted_dataset.weights()
            )
            return self._clone_with(
                cluster_weights=cluster_weights, dataset=reweighted_dataset
            )

    def classify_dataset(self, new_dataset: ScenarioDataset) -> "np.ndarray":
        """Assign each scenario of *new_dataset* to a fitted cluster.

        Profiles the new scenarios with the same Profiler settings,
        restricts them to the surviving (refined) metric columns, and
        projects them through the fitted standardise → PCA → whiten →
        nearest-centroid path.

        The new dataset must come from the same machine shape: metric
        values are not comparable across shapes (§5.5), so cross-shape
        classification is rejected rather than silently mis-assigned.
        """
        if new_dataset.shape != self.dataset.shape:
            raise ValueError(
                f"cannot classify scenarios from shape "
                f"{new_dataset.shape.name!r} with a model fitted on "
                f"{self.dataset.shape.name!r}; derive a new representative "
                "set per machine shape (paper §5.5)"
            )
        profiled = self.config.make_profiler().profile(new_dataset)
        refined_matrix = profiled.matrix[:, list(self.prune_report.kept)]
        return self.analysis.classify(refined_matrix)

    def reweight_by_classification(
        self, new_dataset: ScenarioDataset
    ) -> "Flare":
        """Re-derive group weights from a *new* scenario population.

        The robust §5.6 path: instead of requiring the new scheduler's
        co-locations to match profiled ones exactly, each new scenario is
        classified into the behaviour group it belongs to, and group
        weights become the new population's observation-time shares.
        Representatives (and everything else) are reused unchanged.
        """
        labels = self.classify_dataset(new_dataset)
        new_weights = np.zeros(self.analysis.n_clusters)
        scenario_weights = new_dataset.weights()
        for label, weight in zip(labels, scenario_weights):
            new_weights[int(label)] += float(weight)
        total = new_weights.sum()
        if total <= 0.0:
            raise ValueError("new dataset carries no observation weight")
        new_weights /= total
        return self._clone_with(cluster_weights=new_weights)

    def _clone_with(
        self,
        *,
        cluster_weights: "np.ndarray",
        dataset: ScenarioDataset | None = None,
    ) -> "Flare":
        """New fitted ``Flare`` sharing steps 1–2, with new group weights.

        The single cloning path behind every reweighting flow: collected
        metrics, refinement, PCA space, interpretations and the replayer
        are shared with ``self``; only the cluster weights (and therefore
        the representatives' weighting over *dataset*) are re-derived.
        """
        new = Flare(self.config, database=self.database)
        new._profiled = self._profiled
        new._refined = self._refined
        new._prune_report = self._prune_report
        new._interpretations = self._interpretations
        new._replayer = self._replayer
        new._analysis = replace(self.analysis, cluster_weights=cluster_weights)
        # Membership and centroid distances are invariant under a weight
        # change, so the ranked groups are carried over rather than
        # re-derived from the score matrix (which out-of-core fits never
        # materialise, and which costs O(n·k) to re-rank for nothing).
        new._representatives = self.representatives.with_cluster_weights(
            cluster_weights,
            dataset if dataset is not None else self.dataset,
        )
        return new

    # ------------------------------------------------------------------
    @property
    def dataset(self) -> "ScenarioSource":
        """The scenario source the model currently represents.

        After :meth:`reweight` this reflects the new observation times,
        while :attr:`profiled` keeps the original collection provenance.
        For out-of-core fits this is the sharded store itself.
        """
        return self.representatives.dataset

    @property
    def profiled(self) -> ProfiledDataset:
        return self._require("_profiled")

    @property
    def refined(self) -> RefinedDataset:
        return self._require("_refined")

    @property
    def prune_report(self) -> PruneReport:
        """Which raw metrics survived refinement, on either fit path."""
        return self._require("_prune_report")

    @property
    def analysis(self) -> AnalysisResult:
        return self._require("_analysis")

    @property
    def representatives(self) -> RepresentativeSet:
        return self._require("_representatives")

    @property
    def interpretations(self) -> tuple[ComponentInterpretation, ...]:
        return self._require("_interpretations")

    @property
    def replayer(self) -> Replayer:
        return self._require("_replayer")

    def _require(self, attr: str):
        value = getattr(self, attr)
        if value is None:
            # A fitted model without these matrices was fitted out-of-core.
            if self._analysis is not None and attr in (
                "_profiled",
                "_refined",
            ):
                raise RuntimeError(
                    f"this Flare was fitted out-of-core and the full "
                    f"{attr.lstrip('_')} matrix was never materialised; "
                    "refit in memory (e.g. Flare().fit(store.to_dataset())) "
                    "to access it"
                )
            raise RuntimeError("Flare.fit() must be called first")
        return value


def _catalogue_from(source: "ScenarioSource") -> dict:
    """Job name -> signature map built from the source's own instances.

    Lets the Replayer reconstruct scenarios that include jobs outside the
    built-in Table 3 catalogue (custom workloads).  Both the in-memory
    dataset and the sharded store expose their signature map directly;
    anything else is walked batch-by-batch.
    """
    signatures = getattr(source, "signatures", None)
    if signatures is not None:
        return dict(signatures)
    catalogue = {}
    for batch in source.iter_batches():
        for scenario in batch.scenarios:
            for instance in scenario.instances:
                catalogue.setdefault(
                    instance.signature.name, instance.signature
                )
    return catalogue
