"""Incremental model refit over a growing scenario store.

A fleet in continuous operation keeps appending scenarios (see
:mod:`repro.store.live`); re-fitting FLARE from scratch on every drift
alert would re-profile the whole population — the expensive step the
paper's whole design avoids.  This module refits *incrementally*:

* **Profile only the new rows.**  The metric spill
  (:class:`~repro.store.MetricStore`) written by the previous fit is
  reopened in append mode and extended with the fresh rows' metrics
  only.  The profiler's noise stream is advanced past the already
  profiled rows (``noise_offset``), so the spill is bit-identical to
  what a from-scratch profile of the full population would produce.
* **Recompute statistics over fixed-size blocks.**  Moments, PCA and
  score statistics fold per batch, so their results depend on batch
  boundaries (at ~1e-12 relative).  Re-slicing the spill into blocks
  of :data:`REFIT_BLOCK_ROWS` rows makes every refit of the same total
  data bit-identical regardless of how the rows arrived — one batch or
  twenty generations.
* **Warm-start the clustering.**  The previous model's centroids seed
  a single Lloyd run (no sweep, no restarts).  When the feature space
  is unchanged the centroids pass through untouched; when it moved,
  they are mapped back to raw metric space through the previous
  transform and forward through the new one.

Soundness gates: incremental refit keeps the previous cluster count and
assumes the standardisation basis is still roughly valid.  A requested
cluster-count change, or per-metric scaler drift beyond
``max_scaler_drift``, makes the warm start meaningless — the refit then
falls back to a full re-fit of the spill (sweep + seeded restarts),
which needs no re-profiling because the spill already covers every row.

The statistics passes are the ones :mod:`repro.core.streaming_fit`
runs for ``Flare.fit`` on a store (one implementation,
``_fit_out_of_core``), fed fixed-size blocks instead of per-shard ones,
with the previous model's k and centroids as the warm start and the
scaler-drift gate between the scaler and the PCA.

Every refit records a :class:`ModelLineage` entry (generation, kind,
trigger, parent digest) on the returned model and a ``"refit"`` run in
the ledger, so the provenance chain of a long-lived fleet model stays
auditable.
"""

from __future__ import annotations

import functools
import pathlib
import time
from dataclasses import asdict, dataclass
from typing import Any, Iterator

import numpy as np

from ..cluster.source import ScenarioSource
from ..stats.preprocessing import StandardScaler
from .pipeline import Flare
from .streaming_fit import (
    DEFAULT_SAMPLE_CAPACITY,
    _fit_out_of_core,
    _rows_after,
)

__all__ = [
    "DEFAULT_MAX_SCALER_DRIFT",
    "REFIT_BLOCK_ROWS",
    "ModelLineage",
    "RefitUnsoundError",
    "WatchDecision",
    "refit",
    "replay_refit",
    "watch",
]

#: Fixed row-block size for the statistics passes.  Every refit of the
#: same total data folds its moments/PCA in exactly these blocks, so
#: results are bit-identical no matter how ingestion batched the rows.
REFIT_BLOCK_ROWS = 1024

#: Standardisation drift (per-metric standardised mean shift, or
#: |log scale ratio|) beyond which a warm start is declared unsound and
#: an ``auto`` refit falls back to a full re-fit.
DEFAULT_MAX_SCALER_DRIFT = 0.5


class RefitUnsoundError(ValueError):
    """An explicitly requested incremental refit cannot be done soundly.

    Raised only under ``mode="incremental"``; ``mode="auto"`` (the
    default) falls back to a full refit instead.
    """


@dataclass(frozen=True)
class ModelLineage:
    """One link of a model's provenance chain.

    Attributes
    ----------
    generation:
        0 for the initial fit, +1 per refit.
    kind:
        ``"full"`` (sweep + seeded restarts over all rows) or
        ``"incremental"`` (warm-started single run).
    trigger:
        Why the refit ran — ``"initial"``, ``"manual"``,
        ``"drift:warn"``, ``"drift:alert"``; a forced fallback appends
        ``"+scaler-drift"`` or ``"+cluster-count"``.
    parent_digest:
        ``fitted_digest`` of the model this one was refitted from
        (``None`` at generation 0).
    source_digest:
        Content digest of the scenario source the model covers.
    n_scenarios:
        Rows covered by this model.
    n_new_rows:
        Rows profiled by this refit (== ``n_scenarios`` for full fits
        of a fresh spill).
    """

    generation: int
    kind: str
    trigger: str
    parent_digest: str | None
    source_digest: str
    n_scenarios: int
    n_new_rows: int

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "ModelLineage":
        return cls(
            generation=int(payload["generation"]),
            kind=str(payload["kind"]),
            trigger=str(payload["trigger"]),
            parent_digest=payload.get("parent_digest"),
            source_digest=str(payload["source_digest"]),
            n_scenarios=int(payload["n_scenarios"]),
            n_new_rows=int(payload["n_new_rows"]),
        )


@dataclass(frozen=True, eq=False)
class RefitPlan:
    """What a deterministic replay of one refit needs (see load_model).

    The chosen k, the mapped warm-start centroids (``None`` when cold),
    and the blocking and reservoir size of the passes.  :meth:`to_dict`
    is the encoding saved models and the ``repro fleet`` journal carry;
    JSON round-trips the doubles of ``init`` exactly.
    """

    k: int
    init: np.ndarray | None
    block_rows: int
    sample_capacity: int

    def to_dict(self) -> dict[str, Any]:
        init = None if self.init is None else self.init.tolist()
        return {**vars(self), "init": init}

    @classmethod
    def from_dict(cls, payload: dict[str, Any]) -> "RefitPlan":
        init = payload["init"]
        return cls(
            k=int(payload["k"]),
            init=None if init is None else np.asarray(init, dtype=np.float64),
            block_rows=int(payload["block_rows"]),
            sample_capacity=int(payload["sample_capacity"]),
        )


def _iter_fixed_blocks(
    metric_store, block_rows: int
) -> Iterator[np.ndarray]:
    """Yield the spill re-sliced into *block_rows*-row blocks.

    Blocks are independent of the spill's shard boundaries (the last
    one may be short), which is what makes the folded statistics
    invariant to how ingestion batched the rows.
    """
    pieces: list[np.ndarray] = []
    held = 0

    def block() -> np.ndarray:
        return pieces[0] if len(pieces) == 1 else np.concatenate(pieces)

    for matrix in metric_store.iter_matrices():
        pos = 0
        rows = matrix.shape[0]
        while pos < rows:
            take = min(block_rows - held, rows - pos)
            pieces.append(np.asarray(matrix[pos : pos + take]))
            held += take
            pos += take
            if held == block_rows:
                yield block()
                pieces, held = [], 0
    if held:
        yield block()


def _scaler_drift(prev, kept: list[int], scaler: StandardScaler) -> float:
    """Max per-metric drift of the new scaler vs the previous model's.

    Measured over metrics kept by both prunings, as the larger of the
    standardised mean shift and the absolute log scale ratio — both
    dimensionless, so one bound covers metrics of any unit.
    """
    prev_kept = list(prev.prune_report.kept)
    prev_scaler = prev.analysis.scaler
    prev_pos = {col: i for i, col in enumerate(prev_kept)}
    drift = 0.0
    for i, col in enumerate(kept):
        j = prev_pos.get(col)
        if j is None:
            continue
        mean_shift = abs(scaler.mean_[i] - prev_scaler.mean_[j]) / float(
            prev_scaler.scale_[j]
        )
        scale_shift = abs(
            float(np.log(scaler.scale_[i] / prev_scaler.scale_[j]))
        )
        drift = max(drift, mean_shift, scale_shift)
    return float(drift)


def _warm_start_init(
    prev,
    kept: list[int],
    scaler: StandardScaler,
    components: np.ndarray,
    score_mean: np.ndarray,
    score_std: np.ndarray,
    full_mean: np.ndarray,
) -> np.ndarray:
    """Previous centroids expressed in the new whitened score space.

    When the new transform chain is bitwise identical to the previous
    one (the unchanged-data case) the centroids pass through untouched,
    which makes a warm-started refit on unchanged data an exact fixed
    point: one stable Lloyd iteration reproduces the model bit for bit.

    Otherwise each centroid is mapped back to raw metric space through
    the previous chain (unwhiten → un-project → un-standardise; dead
    components sit at their fit-time mean, metrics the previous pruning
    dropped at the new population mean) and forward through the new
    chain.
    """
    prev_analysis = prev.analysis
    prev_kept = list(prev.prune_report.kept)
    prev_components = prev_analysis.pca.components[
        : prev_analysis.n_components
    ]
    centroids = prev_analysis.kmeans.centroids
    if (
        prev_kept == kept
        and prev_components.shape == components.shape
        and np.array_equal(prev_analysis.scaler.mean_, scaler.mean_)
        and np.array_equal(prev_analysis.scaler.scale_, scaler.scale_)
        and np.array_equal(prev_components, components)
        and np.array_equal(prev_analysis.score_mean, score_mean)
        and np.array_equal(prev_analysis.score_std, score_std)
    ):
        return centroids.copy()

    prev_live = prev_analysis.score_std > 1e-12 * np.maximum(
        1.0, np.abs(prev_analysis.score_mean)
    )
    raw_prev = (
        np.where(prev_live, centroids * prev_analysis.score_std, 0.0)
        + prev_analysis.score_mean
    )
    standardised_prev = raw_prev @ prev_components
    metric_prev = prev_analysis.scaler.inverse_transform(standardised_prev)
    metric_full = np.tile(full_mean, (centroids.shape[0], 1))
    metric_full[:, prev_kept] = metric_prev
    raw_new = scaler.transform(metric_full[:, kept]) @ components.T
    centred = raw_new - score_mean
    live = score_std > 1e-12 * np.maximum(1.0, np.abs(score_mean))
    out = np.zeros_like(centred)
    out[:, live] = centred[:, live] / score_std[live]
    return out


def refit(
    source: ScenarioSource,
    config=None,
    *,
    spill_dir,
    prev=None,
    mode: str = "auto",
    watermark: int | None = None,
    trigger: str | None = None,
    database=None,
    runtime=None,
    sample_capacity: int = DEFAULT_SAMPLE_CAPACITY,
    max_scaler_drift: float | None = None,
    block_rows: int = REFIT_BLOCK_ROWS,
):
    """(Re)fit a FLARE model over *source*, reusing the metric spill.

    Parameters
    ----------
    source:
        The scenario source the new model should cover — typically a
        grown :class:`~repro.store.ShardedScenarioStore` or
        :class:`~repro.store.TailingSource`.
    config:
        Pipeline configuration; defaults to ``prev.config`` when
        refitting, and must equal it for an incremental refit.
    spill_dir:
        Directory of the persistent metric spill.  A full fit
        (``prev=None``) writes it from scratch; a refit reopens it in
        append mode and profiles only the rows past *watermark*.
    prev:
        The previous fitted model (a :class:`~repro.core.Flare`); its
        centroids warm-start the clustering.
    mode:
        ``"auto"`` (incremental when sound, else full), ``"full"``, or
        ``"incremental"`` (raise :class:`RefitUnsoundError` instead of
        falling back).
    watermark:
        Rows of *source* already covered by *prev* and by the spill
        (defaults to ``prev``'s fitted row count).  The spill must hold
        exactly this many rows.
    trigger:
        Recorded in the lineage entry (defaults to ``"initial"`` /
        ``"manual"``).
    max_scaler_drift:
        Bound of the scaler-drift gate (``None``:
        :data:`DEFAULT_MAX_SCALER_DRIFT`).

    Returns the new fitted :class:`~repro.core.Flare`, whose
    ``lineage`` extends ``prev.lineage`` by one entry.
    """
    if mode not in ("auto", "full", "incremental"):
        raise ValueError(f"unknown refit mode {mode!r}")
    if prev is None and mode == "incremental":
        raise ValueError("incremental refit needs a previous model (prev=)")
    if config is None:
        if prev is None:
            raise ValueError("an initial fit needs an explicit config")
        config = prev.config
    if max_scaler_drift is None:
        max_scaler_drift = DEFAULT_MAX_SCALER_DRIFT
    cfg = config.analyzer
    n_total = len(source)

    incremental = prev is not None and mode != "full"
    if trigger is None:
        trigger = "initial" if prev is None else "manual"
    if incremental and cfg.n_clusters is not None:
        prev_k = prev.analysis.n_clusters
        if cfg.n_clusters != prev_k:
            if mode == "incremental":
                raise RefitUnsoundError(
                    f"cluster count changed ({prev_k} -> "
                    f"{cfg.n_clusters}); a warm start cannot change k — "
                    "use mode='full'"
                )
            incremental = False
            trigger = f"{trigger}+cluster-count"

    if incremental:
        if watermark is None:
            watermark = int(prev.analysis.labels.shape[0])
        if not 0 <= watermark <= n_total:
            raise ValueError(
                f"watermark {watermark} outside [0, {n_total}]"
            )
    else:
        watermark = 0

    # The scaler-drift gate runs between the scaler and the PCA: past
    # the bound the warm start is unsound, and the refit re-fits the
    # spill from scratch (sweep + seeded restarts, no re-profiling).
    drift = None

    def scaler_gate(kept: list[int], scaler: StandardScaler) -> bool:
        nonlocal drift, trigger
        drift = _scaler_drift(prev, kept, scaler)
        if drift <= max_scaler_drift:
            return True
        if mode == "incremental":
            raise RefitUnsoundError(
                f"standardisation drifted {drift:.3f} > "
                f"{max_scaler_drift} since the previous fit; the "
                "warm start is unsound — use mode='full'"
            )
        trigger = f"{trigger}+scaler-drift"
        return False

    started = time.perf_counter()
    fit, init = _fit_out_of_core(
        source,
        config,
        pathlib.Path(spill_dir),
        blocks=functools.partial(_iter_fixed_blocks, block_rows=block_rows),
        k=prev.analysis.n_clusters if incremental else cfg.n_clusters,
        warm_start=(
            functools.partial(_warm_start_init, prev) if incremental else None
        ),
        scaler_gate=scaler_gate if incremental else None,
        watermark=watermark,
        database=database,
        runtime=runtime,
        sample_capacity=sample_capacity,
        span_prefix="flare.refit",
    )
    wall_s = time.perf_counter() - started
    from ..io.serialization import fitted_digest

    incremental = init is not None
    n_new = n_total - watermark
    flare = Flare(config, database=database)._adopt(source, fit)
    entry = ModelLineage(
        generation=(
            0
            if prev is None
            else prev.lineage[-1].generation + 1 if prev.lineage else 1
        ),
        kind="incremental" if incremental else "full",
        trigger=trigger,
        parent_digest=None if prev is None else fitted_digest(prev),
        source_digest=source.digest(),
        n_scenarios=n_total,
        n_new_rows=n_new,
    )
    flare.lineage = (() if prev is None else prev.lineage) + (entry,)
    flare._refit_plan = RefitPlan(
        k=int(fit.analysis.n_clusters),
        init=init,
        block_rows=int(block_rows),
        sample_capacity=int(sample_capacity),
    )
    metrics = {
        "n_scenarios": float(n_total),
        "n_new_rows": float(n_new),
        "n_clusters": float(fit.analysis.n_clusters),
        "n_components": float(fit.analysis.n_components),
        "sse_per_scenario": float(
            fit.representatives.baseline.sse_per_scenario
        ),
        "wall_s": float(wall_s),
    }
    if drift is not None:
        metrics["scaler_drift"] = float(drift)
    flare._ledger_record(
        "refit",
        runtime=runtime,
        metrics=metrics,
        labels={
            "kind": entry.kind,
            "trigger": entry.trigger,
            "generation": str(entry.generation),
        },
    )
    return flare


def replay_refit(
    source: ScenarioSource,
    config,
    plan: "RefitPlan | dict[str, Any]",
    *,
    spill_dir,
    database=None,
    runtime=None,
):
    """Reproduce a refit-path model from its :class:`RefitPlan`.

    *plan* may also be the plan's ``to_dict`` form.  Used by :func:`~repro.io.serialization.load_model` for
    models whose lineage says they came through the refit pipeline: a
    plain ``Flare.fit`` folds statistics per shard, not per fixed
    block, so it differs from the refit at ~1e-12 and cannot verify the
    digest.  Replaying profiles everything into a fresh spill
    (bit-identical to the original by noise-stream construction) and
    re-runs the fixed-block passes with the recorded cluster count and
    warm-start centroids.  The sweep is skipped — it never touches the
    final clustering's RNG stream, so fitting the recorded k directly
    reproduces the model bit for bit.
    """
    if not isinstance(plan, RefitPlan):
        plan = RefitPlan.from_dict(plan)
    init = plan.init
    fit, _ = _fit_out_of_core(
        source,
        config,
        pathlib.Path(spill_dir),
        blocks=functools.partial(
            _iter_fixed_blocks, block_rows=plan.block_rows
        ),
        k=plan.k,
        warm_start=None if init is None else (lambda *_: init),
        database=database,
        runtime=runtime,
        sample_capacity=plan.sample_capacity,
        span_prefix="flare.refit",
    )
    flare = Flare(config, database=database)._adopt(source, fit)
    # The replayed model keeps its own plan so it round-trips through
    # save_model / the fleet journal exactly like the original.
    flare._refit_plan = plan
    return flare


@dataclass(frozen=True)
class WatchDecision:
    """One cycle of the fleet control loop (see :func:`watch`).

    Attributes
    ----------
    cycle:
        1-based loop cycle index (0 for the bootstrap refit that
        rebuilds a missing spill).
    watermark:
        Rows the acting model covered when the cycle started.
    n_new:
        Fresh rows the cycle scored.
    status:
        Drift verdict on the fresh rows — ``"healthy"``, ``"warn"``,
        ``"alert"``, or ``"bootstrap"``.
    action:
        ``"none"``, ``"refit:incremental"``, or ``"refit:full"``.
    model:
        The model in force after the cycle (a new Flare when a refit
        ran, the incoming one otherwise).
    report:
        The :class:`~repro.obs.monitor.DriftReport` (``None`` for the
        bootstrap cycle).
    """

    cycle: int
    watermark: int
    n_new: int
    status: str
    action: str
    model: Any
    report: Any


def watch(
    model,
    source: ScenarioSource,
    *,
    spill_dir,
    thresholds=None,
    runtime=None,
    max_scaler_drift: float | None = None,
    max_cycles: int | None = None,
    idle=None,
):
    """The fleet control loop: ingest → monitor → on drift, refit.

    A generator over a *growing* source (typically a
    :class:`~repro.store.TailingSource`).  Each cycle refreshes the
    source, scores the rows past the acting model's watermark with the
    drift monitor, and — on ``warn`` or ``alert`` — refits the model
    over the full source (incrementally when sound).  Healthy rows are
    left unabsorbed: they are re-scored next cycle together with
    whatever else arrived, so the model only moves when the stream
    actually drifts.  Every decision is ledger-recorded (kind
    ``"fleet"``; refits additionally record their own ``"refit"``
    entry) and yielded as a :class:`WatchDecision`.

    The loop ends when the source stops growing (unless *idle* — an
    ``idle(cycle) -> bool`` callback, the natural place to sleep or
    ingest more — returns True to keep polling) or after *max_cycles*.

    If the spill at *spill_dir* does not hold exactly the rows the
    incoming model covers (e.g. the model came from ``Flare.fit``,
    whose temporary spill is discarded), a cycle-0 full refit rebuilds
    it first — after that every refit is incremental-capable.
    """
    from ..store.metrics_store import MetricStore
    from ..store.store import StoreError

    spill_path = pathlib.Path(spill_dir)
    covered = int(model.analysis.labels.shape[0])
    try:
        spill_rows = MetricStore.open(spill_path).n_rows
    except (FileNotFoundError, StoreError):
        spill_rows = None
    if spill_rows != covered:
        model = refit(
            source,
            model.config,
            spill_dir=spill_path,
            prev=model,
            mode="full",
            trigger="bootstrap",
            database=model.database,
            runtime=runtime,
            max_scaler_drift=max_scaler_drift,
        )
        yield WatchDecision(
            cycle=0,
            watermark=covered,
            n_new=len(source) - covered,
            status="bootstrap",
            action="refit:full",
            model=model,
            report=None,
        )

    cycle = 0
    last_scored: tuple[int, int] | None = None
    while max_cycles is None or cycle < max_cycles:
        cycle += 1
        refresh = getattr(source, "refresh", None)
        gained = refresh() if refresh is not None else 0
        covered = int(model.analysis.labels.shape[0])
        n_new = len(source) - covered
        # Stop when the source stopped growing and there is nothing new
        # to say: either no unscored rows, or the same healthy tail we
        # already scored last cycle (healthy rows are not absorbed, so
        # they would otherwise be re-scored forever).
        if n_new <= 0 or (
            not gained and (covered, len(source)) == last_scored
        ):
            if idle is not None and idle(cycle):
                continue
            return
        from ..obs.monitor import DriftMonitor

        fresh = _rows_after(source, covered)
        report = DriftMonitor(model, thresholds).observe(
            fresh, runtime=runtime
        )
        action = "none"
        if report.status in ("warn", "alert"):
            model = refit(
                source,
                model.config,
                spill_dir=spill_path,
                prev=model,
                mode="auto",
                watermark=covered,
                trigger=f"drift:{report.status}",
                database=model.database,
                runtime=runtime,
                max_scaler_drift=max_scaler_drift,
            )
            action = f"refit:{model.lineage[-1].kind}"
        model._ledger_record(
            "fleet",
            runtime=runtime,
            metrics={
                "cycle": float(cycle),
                "watermark": float(covered),
                "n_new": float(n_new),
                "psi_total": float(report.psi_total),
                "novelty_rate": float(report.novelty_rate),
                "sse_ratio": float(report.sse_ratio),
            },
            labels={"status": report.status, "action": action},
        )
        last_scored = (
            int(model.analysis.labels.shape[0]),
            len(source),
        )
        yield WatchDecision(
            cycle=cycle,
            watermark=covered,
            n_new=n_new,
            status=report.status,
            action=action,
            model=model,
            report=report,
        )

