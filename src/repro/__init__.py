"""FLARE: fast, light-weight, accurate datacenter performance evaluation.

Reproduction of *Fast, Light-weight, and Accurate Performance Evaluation
using Representative Datacenter Behaviors* (Middleware '23).  The library
simulates a multi-tenant datacenter, profiles every job co-location
scenario it exhibits, extracts a small set of representative scenarios via
PCA + clustering, and evaluates shape-preserving features (cache sizing,
DVFS, SMT, software changes) on just those representatives.

Quickstart::

    from repro.api import (
        DatacenterConfig, run_simulation, Flare, FEATURE_1_CACHE,
    )

    result = run_simulation(DatacenterConfig(seed=1))
    flare = Flare().fit(result.dataset)
    estimate = flare.evaluate(FEATURE_1_CACHE)
    print(f"estimated MIPS reduction: {estimate.reduction_pct:.1f}%")

:mod:`repro.api` is the single supported entry-point surface.  The
historical top-level re-exports (``from repro import Flare``) were
deprecated in 1.1 and removed in 1.2; importing a class from ``repro``
directly now raises :class:`AttributeError` naming the ``repro.api``
replacement.
"""

from __future__ import annotations

import importlib

__version__ = "2.0.0"

_SUBMODULES = frozenset(
    {
        "api",
        "baselines",
        "cli",
        "cluster",
        "core",
        "experiments",
        "io",
        "obs",
        "perfmodel",
        "reporting",
        "runtime",
        "stats",
        "telemetry",
        "workloads",
    }
)

__all__ = ["__version__"]


def __getattr__(name: str):
    if name in _SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    from . import api

    if name in getattr(api, "__all__", ()):
        raise AttributeError(
            f"'repro.{name}' was removed in 1.2; import it from the "
            f"stable facade instead: 'from repro.api import {name}'"
        )
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(__all__) | _SUBMODULES)
