"""Performance/interference model substrate.

Replaces the paper's physical testbed: job signatures, hyperbolic
miss-ratio curves, machine hardware descriptions and the fixed-point
contention solver that turns "these containers share this machine" into
per-job MIPS, CPI stacks and resource counters.
"""

from .batch import ScenarioBatch, solve_colocation_batch, solve_colocation_many
from .contention import (
    ColocationPerformance,
    InstancePerformance,
    RunningInstance,
    inherent_performance,
    solve_colocation,
    solve_colocation_cached,
)
from .calibration import CPIComponents, MRCFit, calibrate_cpi_components, fit_mrc
from .cpistack import CPIStack, TopdownBreakdown
from .latency import DEFAULT_SERVICE_TIME_MS, LatencyEstimate, instance_latency
from .machine import MachinePerf
from .memo import (
    MEMO_MODES,
    SolveMemo,
    resolve_memo,
    solve_key,
    validate_memo_spec,
)
from .mrc import MissRatioCurve
from .signatures import JobSignature, Priority

__all__ = [
    "MissRatioCurve",
    "JobSignature",
    "Priority",
    "MachinePerf",
    "CPIStack",
    "TopdownBreakdown",
    "RunningInstance",
    "InstancePerformance",
    "ColocationPerformance",
    "solve_colocation",
    "solve_colocation_cached",
    "inherent_performance",
    "ScenarioBatch",
    "solve_colocation_batch",
    "solve_colocation_many",
    "MEMO_MODES",
    "SolveMemo",
    "resolve_memo",
    "solve_key",
    "validate_memo_spec",
    "LatencyEstimate",
    "instance_latency",
    "DEFAULT_SERVICE_TIME_MS",
    "fit_mrc",
    "MRCFit",
    "calibrate_cpi_components",
    "CPIComponents",
]
