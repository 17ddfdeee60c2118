"""The count-grouped ``_row_sums`` against the per-row loop it replaced.

The solver sums each row's first ``counts[i]`` lanes by grouping rows
of equal count into one ``(rows, count)`` array and reducing its rows.
The claim is exact: each grouped row keeps the pairwise-summation tree
of a fresh ``count``-long array, so the result equals the historical
one-``ndarray.sum``-per-row loop (:func:`tests.perfmodel.scalar_oracle.row_sums`)
bit for bit — counts past numpy's 8-way unroll, mixed magnitudes,
``-0.0`` and infinities included.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.perfmodel import batch
from tests.perfmodel.scalar_oracle import row_sums as oracle_row_sums

values = st.one_of(
    st.floats(min_value=-1e300, max_value=1e300),
    st.floats(min_value=-1e-300, max_value=1e-300),
    st.floats(min_value=-1e3, max_value=1e3),
    st.sampled_from([0.0, -0.0, np.inf, -np.inf, 1e16, 1.0, -1.0]),
)


@st.composite
def ragged(draw, max_rows=12, max_count=40):
    counts = draw(
        st.lists(st.integers(0, max_count), min_size=0, max_size=max_rows)
    )
    width = max(counts, default=0) + draw(st.integers(0, 3))
    matrix = draw(arrays(np.float64, (len(counts), width), elements=values))
    return matrix, np.asarray(counts, dtype=np.intp)


def assert_bit_identical(matrix, counts):
    looped = oracle_row_sums(matrix, counts.tolist()).tobytes()
    assert batch._row_sums(matrix, counts).tobytes() == looped


@settings(max_examples=300, deadline=None)
@given(ragged())
def test_matches_per_row_loop(case):
    with np.errstate(invalid="ignore", over="ignore"):
        assert_bit_identical(*case)


@settings(max_examples=50, deadline=None)
@given(ragged(max_rows=1))
def test_one_row_batches(case):
    with np.errstate(invalid="ignore", over="ignore"):
        assert_bit_identical(*case)


def test_every_count_to_forty_at_once():
    # Every count 0..40 in one batch, twice, in shuffled row order, with
    # values spread over thirty orders of magnitude.
    rng = np.random.default_rng(7)
    counts = rng.permutation(np.repeat(np.arange(41), 2)).astype(np.intp)
    matrix = rng.standard_normal((len(counts), 44)) * 10.0 ** rng.integers(
        -15, 15, size=(len(counts), 44)
    )
    assert_bit_identical(matrix, counts)


def test_signed_zero_and_infinity():
    matrix = np.array(
        [
            [-0.0, -0.0, 5.0],
            [-0.0, 0.0, 5.0],
            [np.inf, 1.0, 2.0],
            [np.inf, -np.inf, 0.0],
            [-0.0, 7.0, 7.0],
        ]
    )
    counts = np.array([2, 2, 3, 2, 1], dtype=np.intp)
    with np.errstate(invalid="ignore"):  # inf + -inf
        assert_bit_identical(matrix, counts)
        sums = batch._row_sums(matrix, counts)
    assert sums[2] == np.inf and np.isnan(sums[3])


def test_empty_batch_and_zero_counts():
    empty = np.zeros(0, dtype=np.intp)
    assert batch._row_sums(np.zeros((0, 0)), empty).shape == (0,)
    matrix = np.ones((3, 4))
    counts = np.zeros(3, dtype=np.intp)
    assert_bit_identical(matrix, counts)
    assert (batch._row_sums(matrix, counts) == 0.0).all()
