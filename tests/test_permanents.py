"""Tests for the matrix permanent routines.

The permutation-sum evaluator is the reference oracle; the Gray-code
inclusion-exclusion evaluator must reproduce it to near machine precision
on every random instance. The table kernel is checked entry by entry against
the single-matrix Ryser kernel.
"""

import math
import tracemalloc

import numpy as np
import pytest

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
    for k in range(len(rows)):
        expected = permanent_ryser(columns[rows[k], :])
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
