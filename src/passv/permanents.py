"""Exact matrix permanents: a permutation-sum reference and one Glynn kernel.

``permanent_naive`` sums over permutations at factorial cost; it is the
trusted reference up to n = 9. Every other permanent comes from
``permanent_table``, which evaluates Glynn's formula (Glynn, Eur. J. Combin.
31, 1887 (2010)) over the 2^(n-1) sign vectors d with d_0 = +1,

    Per(A) = 2^(1-n) * sum_d (prod_k d_k) * prod_i (A d)_i,

for a whole table of outcomes that share their n input columns, vectorized
across the outcomes and across blocks of sign vectors. The output
distributions, the parity predictions and single transition amplitudes are
all built from it; ``permanent_ryser`` is its one-row table.
"""

from __future__ import annotations

from itertools import permutations

import numpy as np

from .errors import SizeLimitError, ValidationError

NAIVE_LIMIT = 9
RYSER_LIMIT = 30
# Outcomes x sign vectors per block of permanent_table; bounds its temporaries.
# Against 2^13, in alternating runs on a 2-vCPU Xeon (numpy 2.4.6), the median
# permanent_table time fell 5% at n = 5 (the 4,368 outcomes over 12 modes),
# 2% at n = 8, 8% at n = 10 and 7% at n = 14.
TABLE_BLOCK = 1 << 14


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
    """Permanent of a square matrix: the one-row ``permanent_table``.

    The name predates the Glynn kernel. Guarded to n <= 30; cost doubles per
    additional row.
    """
    arr = _as_square(matrix)
    return complex(permanent_table(arr, np.arange(arr.shape[0])[None, :])[0])


def permanent_table(columns, rows) -> np.ndarray:
    """Permanents Per(columns[rows[k], :]) for every k, from one Glynn pass.

    ``columns`` is an m x n matrix (the input columns, repeated per input
    photon) and ``rows`` a K x n integer array (each outcome's output rows,
    repeated per output photon). The sign bits of columns 1..n // 2 span one
    m x 2^(n // 2) table of row sums, built by doubling with the sign vectors
    of product +1 first; the remaining bits add a running column sum in
    Gray-code order. At each of those steps an outcome's products are n row
    gathers from the table, so the m row sums serve every outcome at once.
    Outcomes are processed in blocks of about TABLE_BLOCK / 2^(n // 2), so
    the temporaries do not grow with K, and each entry's arithmetic does not
    depend on its block. A real matrix gives a real result; n = 0 gives ones.
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
    # Row sums c_0 +- c_1 ... +- c_low, split by the sign product of d_1..d_low.
    low = n // 2
    even, odd = cols[:, :1], cols[:, :0]
    for j in range(1, low + 1):
        c = cols[:, j:j + 1]
        even, odd = (np.concatenate((even + c, odd - c), axis=1),
                     np.concatenate((odd + c, even - c), axis=1))
    table = np.concatenate((even, odd), axis=1)
    width, half = table.shape[1], even.shape[1]
    high = cols[:, low + 1:]
    per_block = max(1, TABLE_BLOCK // width)
    current = np.empty_like(table)
    prod = np.empty((min(per_block, len(out)), width), dtype=dtype)
    factor = np.empty_like(prod)
    for start in range(0, len(out), per_block):
        block = np.ascontiguousarray(idx[start:start + per_block].T, dtype=np.intp)
        p, f = prod[:block.shape[1]], factor[:block.shape[1]]
        total = out[start:start + block.shape[1]]
        total[:] = 0
        sums = high.sum(axis=1)  # every high sign +1
        gray = 0
        for k in range(1 << high.shape[1]):
            if k:
                j = (k & -k).bit_length() - 1
                gray ^= 1 << j
                sums += -2 * high[:, j] if gray >> j & 1 else 2 * high[:, j]
            np.add(table, sums[:, None], out=current)
            # The indices are checked above; mode="clip" spares take a buffered copy.
            current.take(block[0], axis=0, out=p, mode="clip")
            for row in block[1:]:
                current.take(row, axis=0, out=f, mode="clip")
                p *= f
            p[:, :width - half] -= p[:, half:]  # even minus odd; n = 1 has no odd half
            w = half
            while w > 1:  # a pairwise sum in place: no entry depends on its block
                w //= 2
                p[:, :w] += p[:, w:2 * w]
            # Each Gray-code step flips one high sign, so their product is (-1)^k.
            if k & 1:
                total -= p[:, 0]
            else:
                total += p[:, 0]
    out /= 2.0 ** (n - 1)
    return out
