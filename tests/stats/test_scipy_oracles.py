"""``adjusted_rand_index`` and ``expected_max_error`` against scipy.

Both once called scipy (``special.comb``, ``stats.norm.ppf``); the
runtime now uses float64 arithmetic and :class:`statistics.NormalDist`.
scipy stays a test oracle only (``dev`` extra).
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import adjusted_rand_index, expected_max_error
from repro.stats.validation import as_vector

special = pytest.importorskip("scipy.special")
stats = pytest.importorskip("scipy.stats")


def comb_ari(labels_a, labels_b):
    """The previous ``adjusted_rand_index`` body, on ``scipy.special.comb``."""
    a = np.asarray(labels_a)
    b = np.asarray(labels_b)
    n = a.shape[0]
    a_ids, a_inv = np.unique(a, return_inverse=True)
    b_ids, b_inv = np.unique(b, return_inverse=True)
    table = np.zeros((a_ids.size, b_ids.size), dtype=np.int64)
    np.add.at(table, (a_inv, b_inv), 1)
    sum_comb_cells = special.comb(table, 2).sum()
    sum_comb_a = special.comb(table.sum(axis=1), 2).sum()
    sum_comb_b = special.comb(table.sum(axis=0), 2).sum()
    total_pairs = special.comb(n, 2)
    expected = sum_comb_a * sum_comb_b / total_pairs
    maximum = 0.5 * (sum_comb_a + sum_comb_b)
    if maximum == expected:
        return 1.0 if sum_comb_cells == maximum else 0.0
    return float((sum_comb_cells - expected) / (maximum - expected))


@settings(max_examples=200, deadline=None)
@given(
    n=st.integers(min_value=2, max_value=3000),
    k_a=st.integers(min_value=1, max_value=40),
    k_b=st.integers(min_value=1, max_value=40),
    agreement=st.floats(min_value=0.0, max_value=1.0),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_ari_equals_scipy_comb_version(n, k_a, k_b, agreement, seed):
    rng = np.random.default_rng(seed)
    a = rng.integers(0, k_a, size=n)
    b = np.where(rng.random(n) < agreement, a % k_b, rng.integers(0, k_b, size=n))
    assert adjusted_rand_index(a, b) == comb_ari(a, b)


@settings(max_examples=200, deadline=None)
@given(
    confidence=st.floats(
        min_value=0.5, max_value=0.999, exclude_min=True, exclude_max=True
    ),
    sample_size=st.integers(min_value=1, max_value=50),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_expected_max_error_matches_norm_ppf(confidence, sample_size, seed):
    population = np.random.default_rng(seed).normal(10.0, 3.0, size=50)
    values = as_vector(population, name="population")
    fpc = np.sqrt((values.size - sample_size) / (values.size - 1))
    stderr = values.std(ddof=1) / np.sqrt(sample_size) * fpc
    oracle = float(stats.norm.ppf(0.5 + confidence / 2.0) * stderr)
    got = expected_max_error(
        population, sample_size=sample_size, confidence=confidence
    )
    assert got == pytest.approx(oracle, rel=1e-12, abs=0.0)
