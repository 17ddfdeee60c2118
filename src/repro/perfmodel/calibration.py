"""Calibrating model parameters from measurements.

A team adopting FLARE on a real datacenter does not hand-write job
signatures — it measures.  This module fits the model's two main
ingredients from data a performance engineer can actually collect:

* :func:`fit_mrc` — a miss-ratio curve from (cache allocation, miss
  ratio) points, e.g. from an Intel-CAT way-masking sweep;
* :func:`calibrate_cpi_components` — the signature's CPI components from
  a solo run's IPC and topdown fractions (the standard perf/toplev
  output).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cpistack import TopdownBreakdown
from .mrc import MissRatioCurve

__all__ = ["fit_mrc", "MRCFit", "calibrate_cpi_components", "CPIComponents"]


@dataclass(frozen=True)
class MRCFit:
    """A fitted miss-ratio curve plus its fit quality."""

    mrc: MissRatioCurve
    rmse: float
    n_points: int


def fit_mrc(
    cache_mb,
    miss_ratios,
    *,
    floor_bounds: tuple[float, float] = (0.0, 0.95),
    shape_bounds: tuple[float, float] = (0.2, 4.0),
) -> MRCFit:
    """Least-squares fit of a hyperbolic MRC to measured points.

    Parameters
    ----------
    cache_mb / miss_ratios:
        Paired observations: miss ratio measured at each cache
        allocation.  At least 3 points (the model has 3 parameters).

    Returns
    -------
    MRCFit
        The fitted curve and its root-mean-square error on the inputs.
    """
    sizes = np.asarray(cache_mb, dtype=np.float64)
    ratios = np.asarray(miss_ratios, dtype=np.float64)
    if sizes.ndim != 1 or sizes.shape != ratios.shape:
        raise ValueError("cache_mb and miss_ratios must be matching 1-D arrays")
    if sizes.size < 3:
        raise ValueError("need at least 3 measurement points")
    if not (np.isfinite(sizes).all() and np.isfinite(ratios).all()):
        raise ValueError("cache_mb and miss_ratios must be finite")
    if (sizes < 0).any():
        raise ValueError("cache sizes must be non-negative")
    if (ratios < 0).any() or (ratios > 1).any():
        raise ValueError("miss ratios must be in [0, 1]")

    half_guess = max(float(np.median(sizes)), 0.1)
    p0 = (half_guess, 1.0, max(float(ratios.min()) * 0.8, 1e-3))
    lower = (_HALF_BOUNDS[0], shape_bounds[0], floor_bounds[0])
    upper = (_HALF_BOUNDS[1], shape_bounds[1], floor_bounds[1])
    if not all(lo < hi for lo, hi in zip(lower, upper)):
        raise ValueError("each lower bound must be below its upper bound")
    half, shape, floor = _fit_hyperbolic(sizes, ratios, p0, lower, upper)
    mrc = MissRatioCurve(half_capacity_mb=half, shape=shape, floor=floor)
    predicted = np.array([mrc.miss_ratio(c) for c in sizes])
    rmse = float(np.sqrt(np.mean((predicted - ratios) ** 2)))
    return MRCFit(mrc=mrc, rmse=rmse, n_points=int(sizes.size))


#: Bounds on ``half_capacity_mb`` (MB) for every fit.
_HALF_BOUNDS = (0.01, 1e4)
#: Coarse start grid over ``(log half, shape)``: the reduced problem is
#: two-dimensional, so a thousand cheap evaluations locate its basins
#: before the local refinement.
_GRID_HALVES = 49
_GRID_SHAPES = 21
_GRID_STARTS = 4
#: Well-posed fits converge in tens of steps; nearly flat curves and
#: optima on a bound crawl along narrow valleys for hundreds.
_MAX_ITERATIONS = 2000


def _fit_hyperbolic(sizes, ratios, p0, lower, upper):
    """Bounded least squares for ``floor + (1 - floor)/(1 + c/half)^shape``.

    Variable projection: the model is linear in ``floor``, so for fixed
    ``(half, shape)`` the best floor has a closed form, clipped to its
    bounds (exact, since the cost is a convex quadratic in it).  What
    is left is a two-parameter problem over ``(log half, shape)``,
    solved by projected Levenberg-Marquardt from ``p0`` and from the
    local minima of a coarse grid; the lowest-cost end point wins.
    Returns ``(half, shape, floor)`` as Python floats.
    """
    box_lo = np.array([math.log(lower[0]), lower[1]])
    box_hi = np.array([math.log(upper[0]), upper[1]])
    floor_bounds = (lower[2], upper[2])
    default_floor = min(max(p0[2], lower[2]), upper[2])

    def residuals(theta):
        q = 1.0 + sizes * math.exp(-theta[0])
        reducible = q ** -theta[1]
        slope = 1.0 - reducible  # d model / d floor
        floor = _project_floor(
            slope, ratios - reducible, floor_bounds, default_floor
        )
        return reducible + floor * slope - ratios, floor, q, reducible, slope

    log_halves = np.linspace(box_lo[0], box_hi[0], _GRID_HALVES)
    shapes = np.linspace(box_lo[1], box_hi[1], _GRID_SHAPES)
    grid_costs = _grid_costs(sizes, ratios, log_halves, shapes, floor_bounds)
    starts = [np.clip([math.log(p0[0]), p0[1]], box_lo, box_hi)]
    for i, j in _grid_minima(grid_costs):
        starts.append(np.array([log_halves[i], shapes[j]]))
    theta, _ = min(
        (
            _levenberg_marquardt(residuals, start, box_lo, box_hi, floor_bounds)
            for start in starts
        ),
        key=lambda end: end[1],
    )
    floor = residuals(theta)[1]
    half = min(max(math.exp(theta[0]), lower[0]), upper[0])
    return half, float(theta[1]), floor


def _project_floor(slope, target, bounds, default):
    """The least-squares ``floor`` for ``slope * floor ≈ target``, clipped."""
    denom = float(slope @ slope)
    if denom == 0.0:
        return default  # every point at c = 0: floor is unidentified
    return min(max(float(slope @ target) / denom, bounds[0]), bounds[1])


def _grid_costs(sizes, ratios, log_halves, shapes, floor_bounds):
    """Projected-floor cost at every ``(log half, shape)`` grid node."""
    q = 1.0 + sizes[None, :] * np.exp(-log_halves)[:, None]
    reducible = q[:, None, :] ** -shapes[None, :, None]
    slope = 1.0 - reducible
    target = ratios - reducible
    denom = np.einsum("hsn,hsn->hs", slope, slope)
    # Where denom is 0 the slope is too, so any floor gives the same cost.
    floor = np.clip(
        np.einsum("hsn,hsn->hs", slope, target) / np.where(denom > 0, denom, 1),
        *floor_bounds,
    )
    residual = target - floor[..., None] * slope
    return np.einsum("hsn,hsn->hs", residual, residual)


def _grid_minima(costs):
    """Indices of the lowest local minima of a 2-D cost grid.

    A node is a local minimum when no neighbour (diagonals included) is
    lower.  The reduced problem can have a basin along each box face, so
    every basin the grid resolves gets its own start, up to
    ``_GRID_STARTS`` of them, lowest first.
    """
    rows, cols = costs.shape
    padded = np.pad(costs, 1, constant_values=np.inf)
    is_min = np.ones(costs.shape, dtype=bool)
    for di in (0, 1, 2):
        for dj in (0, 1, 2):
            if (di, dj) != (1, 1):
                is_min &= costs <= padded[di : di + rows, dj : dj + cols]
    flat = np.flatnonzero(is_min)
    flat = flat[np.argsort(costs.ravel()[flat], kind="stable")][:_GRID_STARTS]
    return [np.unravel_index(k, costs.shape) for k in flat]


def _levenberg_marquardt(residuals, theta, box_lo, box_hi, floor_bounds):
    """Projected LM on the reduced ``(log half, shape)`` problem.

    Uses Kaufman's variable-projection Jacobian: with ``floor`` free,
    the ``floor`` column is projected out of the ``(log half, shape)``
    columns; with ``floor`` clipped it is a constant.  A parameter at a
    box face whose gradient points out of the box is held there for the
    step.  Stops when no damped step lowers the cost.
    """
    res, floor, q, reducible, slope = residuals(theta)
    cost = float(res @ res)
    damping = 1e-3
    for _ in range(_MAX_ITERATIONS):
        jac = (1.0 - floor) * np.column_stack(
            (theta[1] * reducible * (q - 1.0) / q, -reducible * np.log(q))
        )
        denom = float(slope @ slope)
        if denom > 0.0 and floor_bounds[0] < floor < floor_bounds[1]:
            jac -= np.outer(slope, slope @ jac) / denom
        grad = jac.T @ res
        free = ~(
            ((theta <= box_lo) & (grad > 0.0))
            | ((theta >= box_hi) & (grad < 0.0))
        )
        if not free.any() or not grad[free].any():
            break
        jf = jac[:, free]
        normal = jf.T @ jf
        scale = np.maximum(np.diag(normal), 1e-12 * np.diag(normal).max())
        improved = False
        while damping < 1e16:
            step = np.linalg.solve(
                normal + damping * np.diag(scale), -grad[free]
            )
            trial = theta.copy()
            trial[free] += step
            trial = np.clip(trial, box_lo, box_hi)
            trial_out = residuals(trial)
            trial_cost = float(trial_out[0] @ trial_out[0])
            if trial_cost < cost:
                theta, cost = trial, trial_cost
                res, floor, q, reducible, slope = trial_out
                damping = max(damping * 0.1, 1e-12)
                improved = True
                break
            damping *= 10.0
        if not improved:
            break
    return theta, cost


@dataclass(frozen=True)
class CPIComponents:
    """CPI components recovered from a solo-run measurement."""

    base_cpi: float
    frontend_cpi: float
    bad_speculation_cpi: float
    backend_cpi: float

    @property
    def total(self) -> float:
        return (
            self.base_cpi
            + self.frontend_cpi
            + self.bad_speculation_cpi
            + self.backend_cpi
        )


def calibrate_cpi_components(
    ipc: float, topdown: TopdownBreakdown
) -> CPIComponents:
    """Split a measured CPI into signature components via topdown slots.

    Given the IPC of a job running alone and its level-1 topdown
    breakdown (retiring / frontend-bound / bad-speculation /
    backend-bound), attribute total CPI proportionally — the standard
    interpretation of topdown slot fractions.  The results seed a
    :class:`~repro.perfmodel.signatures.JobSignature`'s ``base_cpi``
    (retiring) and ``frontend_cpi``; backend CPI is what the cache/memory
    parameters must reproduce.
    """
    if ipc <= 0.0:
        raise ValueError("ipc must be positive")
    total_cpi = 1.0 / ipc
    return CPIComponents(
        base_cpi=total_cpi * topdown.retiring,
        frontend_cpi=total_cpi * topdown.frontend_bound,
        bad_speculation_cpi=total_cpi * topdown.bad_speculation,
        backend_cpi=total_cpi * topdown.backend_bound,
    )
