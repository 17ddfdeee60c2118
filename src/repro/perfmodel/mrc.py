"""Miss-ratio curves for shared last-level-cache modelling.

Each job's LLC behaviour is summarised by a hyperbolic miss-ratio curve
(MRC): the fraction of LLC accesses that miss as a function of the cache
capacity the job effectively receives.  Hyperbolic MRCs are the standard
first-order model for datacenter workloads (cf. Qureshi & Patt utility
curves) and give FLARE's Feature 1 (cache sizing, 30 MB → 12 MB) a
realistic, job-dependent response.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MissRatioCurve", "hyperbolic_miss_ratio"]


def hyperbolic_miss_ratio(cache_mb, half_capacity_mb, shape, floor):
    """Vectorised hyperbolic MRC evaluation.

    The one place the miss-ratio formula is written down for array
    inputs: the contention solver (:mod:`repro.perfmodel.batch`) and
    its scalar test oracle evaluate their miss ratios through this
    function, so the two are bit-identical by construction — ``pow`` is
    the only transcendental in the contention model, and numpy's array
    ``**`` is not bit-identical to Python's scalar ``**``.
    All four arguments broadcast against each other.
    """
    reducible = 1.0 / (1.0 + cache_mb / half_capacity_mb) ** shape
    return floor + (1.0 - floor) * reducible


@dataclass(frozen=True)
class MissRatioCurve:
    """Hyperbolic miss-ratio curve.

    ``miss_ratio(c) = floor + (1 - floor) / (1 + (c / half_capacity_mb)) ** shape``

    Attributes
    ----------
    half_capacity_mb:
        Capacity at which the reducible miss ratio halves for ``shape=1`` —
        a proxy for the hot working-set size.
    shape:
        Steepness of the curve.  Streaming jobs (no reuse) use small shapes;
        cache-friendly jobs use larger ones.
    floor:
        Compulsory/coherence miss ratio that no amount of cache removes.
    """

    half_capacity_mb: float
    shape: float = 1.0
    floor: float = 0.02

    def __post_init__(self) -> None:
        if self.half_capacity_mb <= 0.0:
            raise ValueError("half_capacity_mb must be positive")
        if self.shape <= 0.0:
            raise ValueError("shape must be positive")
        if not 0.0 <= self.floor < 1.0:
            raise ValueError("floor must be in [0, 1)")

    def miss_ratio(self, cache_mb: float) -> float:
        """Miss ratio when the job receives *cache_mb* of LLC."""
        if cache_mb < 0.0:
            raise ValueError("cache_mb must be non-negative")
        reducible = 1.0 / (1.0 + cache_mb / self.half_capacity_mb) ** self.shape
        return self.floor + (1.0 - self.floor) * reducible

    def marginal_utility(self, cache_mb: float, delta_mb: float = 0.25) -> float:
        """Miss-ratio reduction per MB around *cache_mb* (for partitioning)."""
        if delta_mb <= 0.0:
            raise ValueError("delta_mb must be positive")
        lo = self.miss_ratio(cache_mb)
        hi = self.miss_ratio(cache_mb + delta_mb)
        return (lo - hi) / delta_mb
