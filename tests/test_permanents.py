"""Tests for the matrix permanent routines.

The permutation-sum evaluator is the reference oracle up to n = 9. The one
Glynn kernel, ``permanent_table``, must reproduce it entry by entry to near
machine precision, for whole tables and, through ``permanent_ryser``, for
single matrices; property tests check the permanent's identities, and a
permuted block-diagonal matrix, whose permanent is the product of its blocks'
permanents, checks n = 16 against the reference.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passv import permanents
from passv.errors import SizeLimitError, ValidationError
from passv.permanents import (
    NAIVE_LIMIT,
    RYSER_LIMIT,
    permanent_naive,
    permanent_ryser,
    permanent_table,
)

RANDOM_TRIALS = 25
RELATIVE_TOL = 1e-12


@pytest.mark.parametrize("evaluator", [permanent_naive, permanent_ryser])
def test_empty_matrix_permanent_is_one(evaluator):
    assert evaluator(np.zeros((0, 0))) == 1.0


@pytest.mark.parametrize("evaluator", [permanent_naive, permanent_ryser])
def test_single_entry(evaluator):
    assert evaluator(np.array([[3.5 + 1j]])) == pytest.approx(3.5 + 1j)


@pytest.mark.parametrize("evaluator", [permanent_naive, permanent_ryser])
def test_two_by_two_closed_form(evaluator):
    a = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert evaluator(a) == pytest.approx(1.0 * 4.0 + 2.0 * 3.0)


@pytest.mark.parametrize("evaluator", [permanent_naive, permanent_ryser])
def test_identity_and_all_ones(evaluator):
    assert evaluator(np.eye(4)) == pytest.approx(1.0)
    assert evaluator(np.ones((4, 4))) == pytest.approx(24.0)


def test_all_ones_is_factorial():
    for n in range(1, 8):
        assert permanent_ryser(np.ones((n, n))) == pytest.approx(float(math.factorial(n)))


@pytest.mark.parametrize("n", range(1, 8))
def test_ryser_matches_naive_on_random_complex(n):
    rng = np.random.default_rng(1000 + n)
    for _ in range(RANDOM_TRIALS):
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        expected = permanent_naive(a)
        got = permanent_ryser(a)
        assert abs(got - expected) <= RELATIVE_TOL * max(1.0, abs(expected))


def test_permanent_is_transpose_invariant():
    rng = np.random.default_rng(7)
    a = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    assert permanent_ryser(a.T) == pytest.approx(permanent_ryser(a), rel=1e-11)


def test_permanent_is_permutation_invariant():
    rng = np.random.default_rng(8)
    a = rng.standard_normal((6, 6))
    rows = rng.permutation(6)
    cols = rng.permutation(6)
    assert permanent_ryser(a[np.ix_(rows, cols)]) == pytest.approx(
        permanent_ryser(a), rel=1e-11
    )


def test_permanent_scales_linearly_per_row():
    rng = np.random.default_rng(9)
    a = rng.standard_normal((5, 5))
    scaled = a.copy()
    scaled[2] *= 3.0
    assert permanent_ryser(scaled) == pytest.approx(3.0 * permanent_ryser(a), rel=1e-11)


def _random_complex(seed, n):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))


def _close(got, expected, a):
    # Rounding in the signed sum scales with prod_i sum_j |a_ij|, a bound on |Per(a)|.
    scale = float(np.prod(np.abs(a).sum(axis=1)))
    return abs(got - expected) <= RELATIVE_TOL * max(1.0, scale)


SEEDS = st.integers(0, 2**32 - 1)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), seed=SEEDS, row=st.integers(0, 9),
       factor=st.complex_numbers(min_magnitude=0.1, max_magnitude=10.0))
def test_scaling_a_row_scales_the_permanent(n, seed, row, factor):
    a = _random_complex(seed, n)
    scaled = a.copy()
    scaled[row % n] *= factor
    assert _close(permanent_ryser(scaled), factor * permanent_ryser(a), scaled)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), seed=SEEDS)
def test_permuting_rows_and_columns_keeps_the_permanent(n, seed):
    a = _random_complex(seed, n)
    rng = np.random.default_rng(seed)
    moved = a[np.ix_(rng.permutation(n), rng.permutation(n))]
    assert _close(permanent_ryser(moved), permanent_ryser(a), a)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(1, 10), seed=SEEDS)
def test_transposing_keeps_the_permanent(n, seed):
    a = _random_complex(seed, n)
    assert _close(permanent_ryser(a.T), permanent_ryser(a), a)


@settings(max_examples=20, deadline=None)
@given(n=st.integers(1, 14))
def test_all_ones_permanent_is_n_factorial(n):
    assert permanent_ryser(np.ones((n, n))) == pytest.approx(math.factorial(n), rel=1e-14)


@pytest.mark.parametrize("seed", range(1, 6))
def test_permuted_block_diagonal_matches_the_product_of_its_blocks(seed):
    # Per of [[A, 0], [0, B]], rows and columns shuffled, is Per(A) Per(B),
    # and the permutation sum gives the 8 x 8 factors.
    rng = np.random.default_rng(seed)
    a, b = (rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)) for _ in range(2))
    matrix = np.zeros((16, 16), dtype=complex)
    matrix[:8, :8], matrix[8:, 8:] = a, b
    matrix = matrix[np.ix_(rng.permutation(16), rng.permutation(16))]
    expected = permanent_naive(a) * permanent_naive(b)
    assert abs(permanent_ryser(matrix) - expected) <= 1e-12 * abs(expected)


def test_naive_size_guard():
    with pytest.raises(SizeLimitError):
        permanent_naive(np.eye(NAIVE_LIMIT + 1))


def test_ryser_size_guard():
    with pytest.raises(SizeLimitError):
        permanent_ryser(np.eye(RYSER_LIMIT + 1))


@pytest.mark.parametrize("evaluator", [permanent_naive, permanent_ryser])
def test_rejects_non_square(evaluator):
    with pytest.raises(ValidationError):
        evaluator(np.ones((2, 3)))


@pytest.mark.parametrize("evaluator", [permanent_naive, permanent_ryser])
def test_rejects_non_finite(evaluator):
    bad = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValidationError):
        evaluator(bad)


# ------------------------------------------------------------- table kernel


def _random_table(rng, m, n, outcomes, real=False):
    columns = rng.standard_normal((m, n))
    if not real:
        columns = columns + 1j * rng.standard_normal((m, n))
    rows = np.sort(rng.integers(0, m, size=(outcomes, n)), axis=1)
    return columns, rows


@pytest.mark.parametrize("m,n", [(1, 1), (3, 2), (5, 4), (4, 6), (9, 7)])
@pytest.mark.parametrize("real", [False, True])
def test_table_matches_ryser_per_outcome(m, n, real):
    # Rows repeat, as they do for bunched outcomes.
    columns, rows = _random_table(np.random.default_rng(2000 + 10 * m + n), m, n, 40, real)
    table = permanent_table(columns, rows)
    # permanent_ryser is a one-row table itself, so the reference is the permutation sum.
    for k in range(len(rows)):
        expected = permanent_naive(columns[rows[k], :])
        assert abs(table[k] - expected) <= RELATIVE_TOL * max(1.0, abs(expected))


def test_table_of_real_matrix_is_real():
    columns, rows = _random_table(np.random.default_rng(31), 6, 4, 50, real=True)
    table = permanent_table(columns, rows)
    assert np.isrealobj(table)


def test_table_with_no_columns_is_all_ones():
    table = permanent_table(np.zeros((3, 0)), np.zeros((4, 0), dtype=int))
    assert table.tolist() == [1.0, 1.0, 1.0, 1.0]
    assert permanent_table(np.ones((3, 2)), np.zeros((0, 2), dtype=int)).shape == (0,)


def test_table_all_ones_rows_give_factorials():
    for n in range(1, 7):
        table = permanent_table(np.ones((3, n)), np.zeros((2, n), dtype=int))
        assert table.tolist() == [float(math.factorial(n))] * 2


def test_table_entries_do_not_depend_on_blocking(monkeypatch):
    # Each entry gets the same arithmetic wherever it sits in the table, so a
    # sub-table of outcomes reproduces the full table's entries exactly.
    columns, rows = _random_table(np.random.default_rng(32), 7, 5, 300)
    whole = permanent_table(columns, rows)
    monkeypatch.setattr(permanents, "TABLE_BLOCK", 7)
    assert np.array_equal(permanent_table(columns, rows), whole)
    assert np.array_equal(permanent_table(columns, rows[101:150]), whole[101:150])


def test_table_validation():
    with pytest.raises(ValidationError):
        permanent_table(np.ones(3), np.zeros((1, 1), dtype=int))
    with pytest.raises(ValidationError):
        permanent_table(np.ones((3, 2)), np.zeros((1, 3), dtype=int))
    with pytest.raises(ValidationError):
        permanent_table(np.ones((3, 2)), np.zeros((1, 2)))
    with pytest.raises(ValidationError):
        permanent_table(np.ones((3, 2)), np.array([[0, 3]]))
    with pytest.raises(ValidationError):
        permanent_table(np.ones((3, 2)), np.array([[-1, 0]]))
    with pytest.raises(ValidationError):
        permanent_table(np.array([[1.0, np.inf]]), np.zeros((1, 2), dtype=int))


def test_table_size_guard_fires_before_allocation():
    columns = np.ones((RYSER_LIMIT + 1, RYSER_LIMIT + 1))
    rows = np.zeros((1, RYSER_LIMIT + 1), dtype=int)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            permanent_table(columns, rows)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 100_000
