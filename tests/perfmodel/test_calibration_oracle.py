"""``fit_mrc`` against the ``scipy.optimize.curve_fit`` fit it replaced.

The runtime fit is a numpy variable-projection least squares; scipy is
only a test oracle here (``dev`` extra).  The oracle below is the
previous implementation verbatim: same model, bounds, ``p0`` and
``maxfev``.  The new fit must never end with a worse RMSE, and on
noiseless, well-conditioned curves both must land on the same
parameters.  That comparison runs ``curve_fit`` to convergence: at its
default ``xtol=1e-8`` it stops up to ~2e-6 (relative) short of the
exact parameters on some of these curves, which the new fit recovers
to ~1e-14.
"""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.perfmodel import MissRatioCurve
from repro.perfmodel.calibration import fit_mrc

optimize = pytest.importorskip("scipy.optimize")


def curve_fit_mrc(sizes, ratios, **tolerances):
    """The scipy ``curve_fit`` fit that ``fit_mrc`` used to run."""

    def model(c, half, shape, floor):
        return floor + (1.0 - floor) / (1.0 + c / half) ** shape

    half_guess = max(float(np.median(sizes)), 0.1)
    p0 = (half_guess, 1.0, max(float(ratios.min()) * 0.8, 1e-3))
    bounds = ((0.01, 0.2, 0.0), (1e4, 4.0, 0.95))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", optimize.OptimizeWarning)
        params, _ = optimize.curve_fit(
            model, sizes, ratios, p0=p0, bounds=bounds, maxfev=20_000,
            **tolerances,
        )
    half, shape, floor = (float(p) for p in params)
    mrc = MissRatioCurve(half_capacity_mb=half, shape=shape, floor=floor)
    predicted = np.array([mrc.miss_ratio(c) for c in sizes])
    return mrc, float(np.sqrt(np.mean((predicted - ratios) ** 2)))


def _curve(half, shape, floor, sizes):
    return floor + (1.0 - floor) / (1.0 + sizes / half) ** shape


# Truth ranges run past every bound (half 0.01..1e4, shape 0.2..4,
# floor 0..0.95), so optima that hug a bound are drawn often.
@settings(max_examples=120, deadline=None)
@given(
    log_half=st.floats(min_value=np.log(0.002), max_value=np.log(5e4)),
    shape=st.floats(min_value=0.1, max_value=5.0),
    floor=st.floats(min_value=-0.1, max_value=0.99),
    n_points=st.integers(min_value=3, max_value=40),
    log_top=st.floats(min_value=np.log(0.5), max_value=np.log(500.0)),
    layout=st.sampled_from(["linear", "geometric", "random", "with-zero"]),
    noise=st.sampled_from([0.0, 1e-6, 1e-4, 0.01, 0.05, 0.2]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_rmse_never_worse_than_curve_fit(
    log_half, shape, floor, n_points, log_top, layout, noise, seed
):
    rng = np.random.default_rng(seed)
    top = float(np.exp(log_top))
    if layout == "linear":
        sizes = np.linspace(top / n_points, top, n_points)
    elif layout == "geometric":
        sizes = np.geomspace(top / 100.0, top, n_points)
    else:
        sizes = np.sort(rng.uniform(0.0, top, n_points))
        if layout == "with-zero":
            sizes[0] = 0.0
    clean = _curve(np.exp(log_half), shape, min(max(floor, 0.0), 0.99), sizes)
    ratios = np.clip(clean + rng.normal(0.0, noise, n_points), 0.0, 1.0)

    fit = fit_mrc(sizes, ratios)
    _, oracle_rmse = curve_fit_mrc(sizes, ratios)
    assert fit.rmse <= oracle_rmse * (1 + 1e-6) + 1e-12
    assert 0.01 <= fit.mrc.half_capacity_mb <= 1e4
    assert 0.2 <= fit.mrc.shape <= 4.0
    assert 0.0 <= fit.mrc.floor <= 0.95


@settings(max_examples=60, deadline=None)
@given(
    half=st.floats(min_value=1.0, max_value=50.0),
    shape=st.floats(min_value=0.5, max_value=2.5),
    floor=st.floats(min_value=0.02, max_value=0.5),
    n_points=st.integers(min_value=8, max_value=30),
)
def test_noiseless_parameters_match_curve_fit(half, shape, floor, n_points):
    # Well-conditioned: the points span 1/20 to 10x the half capacity.
    sizes = np.geomspace(half / 20.0, half * 10.0, n_points)
    ratios = _curve(half, shape, floor, sizes)

    fit = fit_mrc(sizes, ratios).mrc
    oracle, _ = curve_fit_mrc(sizes, ratios, xtol=1e-15, ftol=1e-15, gtol=1e-15)
    got = (fit.half_capacity_mb, fit.shape, fit.floor)
    want = (oracle.half_capacity_mb, oracle.shape, oracle.floor)
    assert got == pytest.approx(want, rel=1e-6)
    assert got == pytest.approx((half, shape, floor), rel=1e-9)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_points_are_rejected_like_curve_fit(bad):
    sizes = np.array([1.0, 2.0, 4.0, 8.0])
    ratios = np.array([0.9, 0.7, 0.5, 0.4])
    for args in ((np.append(sizes, bad), np.append(ratios, 0.3)),
                 (np.append(sizes, 16.0), np.append(ratios, bad))):
        with pytest.raises(ValueError):
            curve_fit_mrc(*args)
        with pytest.raises(ValueError, match="finite"):
            fit_mrc(*args)
