"""The three benchmark workloads and the measurements they take.

Each workload has a set-up, which makes several datacenters ("worlds")
from the seed, and a measured iteration over one world, repeated over
the worlds in turn until the run's time is used up.  Every library call
the measured iterations make is timed here with ``perf_counter`` and
wrapped in a recorder span, which is a no-op in the untraced run.  The
process-global solve caches (``solve_colocation_cached`` and
``inherent_mips``) are cleared before every iteration, and every
iteration starts from a model without first-use caches, so revisiting a
world repeats its work.
"""

from __future__ import annotations

import copy
import functools
import gc
import hashlib
import time
from dataclasses import dataclass, field

from repro.api import (
    HP_JOB_NAMES,
    PAPER_FEATURES,
    AnalyzerConfig,
    DatacenterConfig,
    FEATURE_1_CACHE,
    Feature,
    Flare,
    FlareConfig,
    evaluate_full_datacenter,
    open_store,
    run_simulation,
    write_store,
)
from repro.core.performance import inherent_mips
from repro.perfmodel.contention import solve_colocation_cached

from checks import Checks

#: Per-job evaluations per what-if grid point (jobs taken in rotation).
JOBS_PER_POINT = 4


@dataclass(frozen=True)
class Scale:
    """Input sizes; ``full`` is the benchmark, ``tiny`` its self-test."""

    paper_scenarios: int
    fleet_scenarios: int
    fleet_max_days: float
    k: int
    llc_mb: tuple[float, ...]
    max_freq_ghz: tuple[float, ...]


SCALES = {
    "full": Scale(895, 8950, 2000.0, 18, (27.0, 21.0, 15.0, 9.0), (2.6, 2.2, 1.8)),
    "tiny": Scale(150, 400, 45.0, 8, (21.0, 9.0), (2.2, 1.8)),
}


@dataclass
class Measurements:
    """Everything one run measured, before it is reduced to metrics."""

    simulate_s: list[float] = field(default_factory=list)
    scenarios: int = 0
    write_s: list[float] = field(default_factory=list)
    store_mb: float = 0.0
    prepare_s: list[float] = field(default_factory=list)
    fit_s: list[float] = field(default_factory=list)
    first_evaluate_s: list[float] = field(default_factory=list)
    evaluate_s: list[float] = field(default_factory=list)
    truth_s: list[float] = field(default_factory=list)
    truth_scenarios: int = 0
    iteration_s: list[float] = field(default_factory=list)
    errors_pp: list[float] = field(default_factory=list)
    cost_reductions_x: list[float] = field(default_factory=list)
    #: Digest of the estimates and truths of each world's first visit,
    #: by world index; -1 is the work done after the iterations.
    digests: dict[int, str] = field(default_factory=dict)


# ----------------------------------------------------------------------
# What-if grid: features built from MachinePerf's with_* copies.
def _grid_apply(machine, *, llc_mb: float, max_freq_ghz: float, smt: bool):
    return (
        machine.with_llc_mb(llc_mb).with_max_freq_ghz(max_freq_ghz).with_smt(smt)
    )


def whatif_grid(scale: Scale) -> tuple[Feature, ...]:
    """LLC size x DVFS ceiling x SMT, one Feature per point."""
    return tuple(
        Feature(
            name=f"llc{llc:g}-f{freq:g}-smt{int(smt)}",
            description=f"{llc:g} MB LLC/socket, {freq:g} GHz ceiling, SMT {'on' if smt else 'off'}",
            apply=functools.partial(
                _grid_apply, llc_mb=llc, max_freq_ghz=freq, smt=smt
            ),
        )
        for llc in scale.llc_mb
        for freq in scale.max_freq_ghz
        for smt in (True, False)
    )


# ----------------------------------------------------------------------
class Workload:
    """Shared timing, checking and fingerprinting of library calls.

    The set-up makes ``n_worlds`` datacenters, each from its own seed
    derived from the run's seed, and the measured iterations visit them
    in turn: a run's medians then average over several worlds rather
    than depending on the quirks of one.
    """

    #: Worlds made by the set-up; also the least number of iterations.
    n_worlds: int

    def __init__(self, seed: int, scale: Scale, work_dir, recorder, checks: Checks):
        self.seed = seed
        self.scale = scale
        self.work_dir = work_dir
        self.rec = recorder
        self.checks = checks
        self.m = Measurements()
        self.worlds: list = []
        self._digest = hashlib.sha256()

    def world_seed(self, index: int) -> int:
        return (self.seed * self.n_worlds + index) % 2**32

    # -- set-up ---------------------------------------------------------
    def simulate(self, seed: int, **config):
        start = time.perf_counter()
        dataset = run_simulation(DatacenterConfig(seed=seed, **config)).dataset
        self.m.simulate_s.append(time.perf_counter() - start)
        self.m.scenarios = len(dataset)
        return dataset

    def setup(self) -> None:
        for index in range(self.n_worlds):
            start = time.perf_counter()
            self.worlds.append(self.prepare(index))
            self.m.prepare_s.append(time.perf_counter() - start)
            # Keep the worlds made so far out of later garbage
            # collections: a user's process holds one world, and a gen-2
            # collection scans every live object.
            gc.collect()
            gc.freeze()

    def prepare(self, index: int):
        """Make world *index*'s inputs."""
        raise NotImplementedError

    def inputs(self, index: int):
        """World *index*'s inputs for one iteration (not timed)."""
        return self.worlds[index]

    def iteration(self, index: int, inputs) -> None:
        """Run the user path once on world *index*."""
        raise NotImplementedError

    def finish(self) -> None:
        """Work done once after the timed iterations."""

    # -- timed library calls ---------------------------------------------
    def fit(self, source, config: FlareConfig, **kwargs) -> Flare:
        start = time.perf_counter()
        with self.rec.span("fit"):
            flare = Flare(config).fit(source, **kwargs)
        self.m.fit_s.append(time.perf_counter() - start)
        self.rec.count("rows_profiled", len(source))
        return flare

    def evaluate(self, flare: Flare, feature: Feature, job: str | None = None):
        start = time.perf_counter()
        with self.rec.span("evaluate"):
            if job is None:
                estimate = flare.evaluate(feature)
            else:
                estimate = flare.evaluate_job(feature, job)
        self.m.evaluate_s.append(time.perf_counter() - start)
        self.checks.estimate(estimate)
        self._digest.update(_estimate_token(estimate))
        return estimate

    def truth(self, source, feature: Feature):
        start = time.perf_counter()
        with self.rec.span("truth"):
            truth = evaluate_full_datacenter(source, feature)
        self.m.truth_s.append(time.perf_counter() - start)
        self.m.truth_scenarios += truth.evaluation_cost
        self.checks.truth(truth)
        self._digest.update(_truth_token(truth))
        return truth

    def compare(self, estimate, truth) -> None:
        error_pp, cost_x = self.checks.compare(estimate, truth)
        self.m.errors_pp.append(error_pp)
        self.m.cost_reductions_x.append(cost_x)

    # -- the measured loop -------------------------------------------------
    def measure(self, seconds: float) -> None:
        """Iterate over the worlds until every one was visited and
        *seconds* have passed; then run :meth:`finish`."""
        start = time.perf_counter()
        visits = 0
        while visits < self.n_worlds or time.perf_counter() - start < seconds:
            index = visits % self.n_worlds
            solve_colocation_cached.cache_clear()
            inherent_mips.cache_clear()
            self._digest = hashlib.sha256()
            evaluations = len(self.m.evaluate_s)
            inputs = self.inputs(index)
            began = time.perf_counter()
            self.iteration(index, inputs)
            self.m.iteration_s.append(time.perf_counter() - began)
            self.m.first_evaluate_s.append(self.m.evaluate_s[evaluations])
            digest = self._digest.hexdigest()
            if index in self.m.digests:
                # A revisited world must reproduce its first estimates.
                self.checks.same(digest, self.m.digests[index], "repeated estimates")
            else:
                self.m.digests[index] = digest
            visits += 1
        solve_colocation_cached.cache_clear()
        inherent_mips.cache_clear()
        self._digest = hashlib.sha256()
        self.finish()
        self.m.digests[-1] = self._digest.hexdigest()


class PaperCold(Workload):
    """Paper scale, default config with the k-sweep, in memory, serial."""

    n_worlds = 3

    def prepare(self, index: int):
        return self.simulate(
            self.world_seed(index),
            target_unique_scenarios=self.scale.paper_scenarios,
        )

    def iteration(self, index: int, dataset) -> None:
        flare = self.fit(dataset, FlareConfig())
        estimates = []
        for feature in PAPER_FEATURES:
            estimates.append(self.evaluate(flare, feature))
            for job in HP_JOB_NAMES:
                self.evaluate(flare, feature, job)
        for feature, estimate in zip(PAPER_FEATURES, estimates):
            self.compare(estimate, self.truth(dataset, feature))


class FleetStore(Workload):
    """10x scenarios in a sharded store; out-of-core fit on two workers."""

    n_worlds = 2

    def prepare(self, index: int):
        dataset = self.simulate(
            self.world_seed(index),
            max_days=self.scale.fleet_max_days,
            target_unique_scenarios=self.scale.fleet_scenarios,
        )
        path = self.work_dir / f"store{index}"
        start = time.perf_counter()
        store = write_store(dataset, path, overwrite=True)
        self.m.write_s.append(time.perf_counter() - start)
        self.m.store_mb = store.bytes_total / 1e6
        return path

    def iteration(self, index: int, path) -> None:
        store = open_store(path)
        config = FlareConfig(analyzer=AnalyzerConfig(n_clusters=self.scale.k))
        flare = self.fit(store, config, runtime="process:2")
        estimates = [self.evaluate(flare, feature) for feature in PAPER_FEATURES]
        self.compare(estimates[0], self.truth(store, FEATURE_1_CACHE))


class WhatIfSweep(Workload):
    """Fitted paper-scale models answering a grid of what-if features."""

    n_worlds = 6

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.config = FlareConfig(analyzer=AnalyzerConfig(n_clusters=self.scale.k))
        #: First all-job estimate of each (world index, feature name):
        #: :meth:`finish` checks some of them against truth.
        self.estimates: dict[tuple[int, str], object] = {}

    def prepare(self, index: int):
        dataset = self.simulate(
            self.world_seed(index),
            target_unique_scenarios=self.scale.paper_scenarios,
        )
        return dataset, self.fit(dataset, self.config)

    def setup(self) -> None:
        super().setup()
        # Fit every world once more, later in the run: fit_s is the
        # median of twice as many fits, from two stretches of time.
        for dataset, _ in self.worlds:
            self.fit(dataset, self.config)

    def inputs(self, index: int):
        # A fitted model builds per-job columns on first use and keeps
        # them, so each visit gets a fresh copy of the set-up's model
        # (sharing its dataset) and pays that first use again.
        dataset, flare = self.worlds[index]
        return copy.deepcopy(flare, {id(dataset): dataset})

    def iteration(self, index: int, flare) -> None:
        for point, feature in enumerate(whatif_grid(self.scale)):
            estimate = self.evaluate(flare, feature)
            self.estimates.setdefault((index, feature.name), estimate)
            for j in range(JOBS_PER_POINT):
                job = HP_JOB_NAMES[(point * JOBS_PER_POINT + j) % len(HP_JOB_NAMES)]
                self.evaluate(flare, feature, job)

    def finish(self) -> None:
        # Truth for the mildest and the harshest grid point, in turn, on
        # every world, each call starting from empty solve caches.
        grid = whatif_grid(self.scale)
        for index, (dataset, _) in enumerate(self.worlds):
            solve_colocation_cached.cache_clear()
            inherent_mips.cache_clear()
            feature = (grid[0], grid[-1])[index % 2]
            truth = self.truth(dataset, feature)
            self.compare(self.estimates[index, feature.name], truth)


WORKLOAD_CLASSES = {
    "paper-cold": PaperCold,
    "fleet-10x-store": FleetStore,
    "whatif-sweep": WhatIfSweep,
}


# ----------------------------------------------------------------------
def _estimate_token(estimate) -> bytes:
    return repr(
        (
            estimate.feature.name,
            estimate.job_name,
            float(estimate.reduction_pct).hex(),
            estimate.evaluation_cost,
            tuple(
                (
                    c.cluster_id,
                    c.scenario_id,
                    float(c.weight).hex(),
                    float(c.reduction_pct).hex(),
                )
                for c in estimate.per_cluster
            ),
        )
    ).encode()


def _truth_token(truth) -> bytes:
    return repr(
        (
            truth.feature.name,
            truth.evaluation_cost,
            truth.reductions_pct.tobytes().hex(),
            truth.weights.tobytes().hex(),
            tuple(sorted((job, float(v).hex()) for job, v in truth.per_job.items())),
        )
    ).encode()
