"""Exact matrix permanents: a permutation-sum reference kernel and Ryser's method.

The permutation sum is the trusted oracle at factorial cost. ``permanent_ryser``
uses Gray-code subset iteration with running row sums for O(2^n * n) work on a
single matrix (single transition amplitudes).
``permanent_table`` runs the same Gray-code pass once for a whole table of
outcomes that share their n input columns, vectorized across the outcomes; the
output distributions and the parity predictions are built from it.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import SizeLimitError, ValidationError

NAIVE_LIMIT = 9
RYSER_LIMIT = 30
TABLE_BLOCK = 1 << 14  # outcomes per block of permanent_table; bounds its temporaries


def _as_square(matrix) -> np.ndarray:
    arr = np.asarray(matrix)
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise ValidationError(f"permanent needs a square matrix, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise ValidationError("matrix entries must be finite")
    return arr


def permanent_naive(matrix) -> complex:
    """Permanent by direct permutation sum. Guarded to n <= 9."""
    arr = _as_square(matrix)
    n = arr.shape[0]
    if n > NAIVE_LIMIT:
        raise SizeLimitError(
            f"permanent_naive is limited to n <= {NAIVE_LIMIT}; use permanent_ryser"
        )
    if n == 0:
        return complex(1.0)
    rows = [[complex(x) for x in row] for row in arr]
    total = 0j
    for sigma in permutations(range(n)):
        prod = complex(1.0)
        for i, j in enumerate(sigma):
            prod *= rows[i][j]
        total += prod
    return total


def permanent_ryser(matrix) -> complex:
    """Permanent via Ryser's inclusion-exclusion formula.

    Iterates column subsets in Gray-code order so each step updates the running
    row sums by a single column, giving O(2^n * n) arithmetic. Guarded to
    n <= 30; cost doubles per additional row.
    """
    arr = _as_square(matrix)
    n = arr.shape[0]
    if n > RYSER_LIMIT:
        raise SizeLimitError(f"permanent_ryser is limited to n <= {RYSER_LIMIT}")
    if n == 0:
        return complex(1.0)
    cols = [[complex(arr[i, j]) for i in range(n)] for j in range(n)]
    sums = [0j] * n
    total = 0j
    gray = 0
    subset_sign = 1  # (-1)^{|S|} for the current Gray-code subset S
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        bit = 1 << j
        gray ^= bit
        col = cols[j]
        if gray & bit:
            for i in range(n):
                sums[i] += col[i]
        else:
            for i in range(n):
                sums[i] -= col[i]
        subset_sign = -subset_sign
        prod = complex(1.0)
        for s in sums:
            prod *= s
        total += subset_sign * prod
    if n % 2:
        total = -total
    return total


def permanent_table(columns, rows) -> np.ndarray:
    """Permanents Per(columns[rows[k], :]) for every k, from one Ryser pass.

    ``columns`` is an m x n matrix (the input columns, repeated per input
    photon) and ``rows`` a K x n integer array (each outcome's output rows,
    repeated per output photon). For each Gray-code column subset S the m
    running row sums serve every outcome at once: an outcome's product over
    its rows is n gathers from them. Outcomes are processed in blocks of
    TABLE_BLOCK, so the temporaries do not grow with K. A real matrix gives a
    real result; n = 0 gives ones.
    """
    cols = np.asarray(columns)
    if cols.ndim != 2:
        raise ValidationError(f"permanent_table needs an m x n matrix, got shape {cols.shape}")
    m, n = cols.shape
    if n > RYSER_LIMIT:
        raise SizeLimitError(f"permanent_table is limited to n <= {RYSER_LIMIT}")
    if cols.size and not np.all(np.isfinite(cols)):
        raise ValidationError("matrix entries must be finite")
    idx = np.asarray(rows)
    if idx.ndim != 2 or idx.shape[1] != n:
        raise ValidationError(f"rows must be a K x {n} array, got shape {idx.shape}")
    if idx.size and (not np.issubdtype(idx.dtype, np.integer)
                     or idx.min() < 0 or idx.max() >= m):
        raise ValidationError(f"rows must hold integer indices in [0, {m})")
    dtype = np.result_type(cols.dtype, np.float64)
    out = np.ones(idx.shape[0], dtype=dtype)
    if n == 0:
        return out
    cols = cols.astype(dtype)
    for start in range(0, len(out), TABLE_BLOCK):
        block = np.ascontiguousarray(idx[start:start + TABLE_BLOCK].T, dtype=np.intp)
        out[start:start + block.shape[1]] = _ryser_rows(cols, block)
    return out


def _ryser_rows(cols: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Ryser's formula for the n x b row selections ``block`` of ``cols``."""
    n = cols.shape[1]
    sums = np.zeros(cols.shape[0], dtype=cols.dtype)
    total = np.zeros(block.shape[1], dtype=cols.dtype)
    gray = 0
    for k in range(1, 1 << n):
        j = (k & -k).bit_length() - 1
        gray ^= 1 << j
        if gray >> j & 1:
            sums += cols[:, j]
        else:
            sums -= cols[:, j]
        prod = sums.take(block[0])
        for row in block[1:]:
            prod *= sums.take(row)
        # |S| is odd exactly when k is: each Gray-code step flips one column.
        if k & 1:
            total -= prod
        else:
            total += prod
    if n % 2:
        total = -total
    return total
