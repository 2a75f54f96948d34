"""``repr`` of many non-negative floats at once, as NUL-padded rows of bytes.

``float_reprs`` writes the text Python's ``repr`` gives each value: the
shortest decimal that reads back to the same double and, among the shortest,
the one nearest to it, ties to an even last digit. Values in (0, 1) take
their digits from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020), run in fixed-width integer arithmetic over a whole block of
values:

- A double is c * 2^q. With k = floor(log10 2^q), or floor(log10 (3/4) 2^q)
  when its lower neighbour is nearer (``closer``), the rounding interval's
  centre and ends, scaled by 4 * 10^-k, are round-to-odd products of
  (4c, 4c - 2 + closer, 4c + 2) << h with g, 10^-k as a 128-bit integer
  rounded up. The products are built from 32-bit limbs in uint64.
- The digits are s = floor of the centre, one digit fewer (10 floor(s / 10)
  or that plus 10) when exactly one of those two lies in the interval, or
  else s or s + 1, whichever lies in it, the nearer when both do. Java
  tries one digit fewer only from s >= 100, since its text keeps two
  digits; ``repr`` keeps one (5e-324).

A row is the value's repr once its NULs are dropped: each byte has a fixed
place, and a byte the value does not use is NUL. The digits are laid out as
``repr`` prints a value below 1: ``0.``, up to three zeros and the digits
when the decimal exponent is -4 or more, and ``d.ddde-XX`` otherwise, with
the trailing zeros of the digits dropped. 0.0 is ``0.0``; a value of 1 or
more takes ``repr`` itself.
"""

from __future__ import annotations

import functools

import numpy as np

WIDTH = 27  # bytes per value, in fixed places; the longest repr of a non-negative double has 23
BLOCK = 1 << 14  # values per block; bounds the temporaries

_M32 = np.uint64(0xFFFFFFFF)
_POW10 = 10 ** np.arange(18, dtype=np.int64)
_DIGITS = 17  # the most a double in (0, 1) needs
_BYTE_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64).view(np.int64)


def float_reprs(values, out: np.ndarray | None = None) -> np.ndarray:
    """The bytes of ``repr(float(v))`` for each of ``values``, one NUL-padded row of WIDTH each.

    ``values`` is a 1-d float64 array; ``out``, if given, a (len(values),
    WIDTH) uint8 array, which may be a view of wider rows. Rows are written
    BLOCK values at a time. Negative (-0.0 too) and non-finite values raise
    ValueError.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 1:
        raise ValueError(f"float_reprs expects a 1-d array, got shape {values.shape}")
    if not np.isfinite(values).all() or np.signbit(values).any():
        raise ValueError("float_reprs formats finite non-negative values only")
    if out is None:
        out = np.empty((len(values), WIDTH), dtype=np.uint8)
    elif out.shape != (len(values), WIDTH) or out.dtype != np.uint8:
        raise ValueError(f"out must be a ({len(values)}, {WIDTH}) uint8 array")
    for start in range(0, len(values), BLOCK):
        _write_block(values[start:start + BLOCK], out[start:start + BLOCK])
    return out


def _write_block(values: np.ndarray, out: np.ndarray) -> None:
    """Write the rows of one block: values in (0, 1) from their digits, the others by ``repr``."""
    inside = (values > 0.0) & (values < 1.0)
    all_inside = inside.all()
    digits, exponent = _shortest(values if all_inside else np.where(inside, values, 0.5))
    out[...] = _text_words(digits, -exponent).view(np.uint8)[:, 2:2 + WIDTH]
    if not all_inside:  # the rows of 0.5 in place of 0 or of 1 and more
        out[values == 0.0] = _text(0.0)
        for i in np.flatnonzero(values >= 1.0):
            out[i] = _text(float(values[i]))


def _shortest(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Shortest round-trip digits of values in (0, 1): the 17 digits, left-aligned, and the exponent.

    The exponent is that of the first digit, as ``repr``'s scientific form
    prints it: v = d.ddd... * 10^exponent.
    """
    bits = values.view(np.uint64)
    biased = (bits >> np.uint64(52)).astype(np.int64)
    fraction = bits & np.uint64((1 << 52) - 1)
    c = np.where(biased > 0, fraction | np.uint64(1 << 52), fraction)
    q = np.maximum(biased, 1) - 1075
    closer = (fraction == 0) & (biased > 1)
    # floor(q log10 2), or floor(q log10 2 + log10 3/4) when closer; exact for |q| < 2^16.
    k = (q * 661_971_961_083 - closer * 274_743_187_321) >> 41
    limbs, log2 = _powers_of_ten(-k)
    h = (q + log2 + 1).astype(np.uint64)
    centre = c << np.uint64(2)
    ends = np.stack((centre, centre - np.uint64(2) + closer, centre + np.uint64(2))) << h
    vb, lower, upper = _round_to_odd_high(ends, limbs).view(np.int64)
    # The scaled ends are never integers: their numerators have at most one
    # factor 2, and 2^(q + 1) 10^-k is not an integer for q <= -53. So lower
    # and upper are odd, never a multiple of 4, and whether the interval is
    # open (odd c) never decides.
    s = vb >> 2
    # One digit fewer: u = 10 floor(s / 10) and w = u + 10, when one alone is inside.
    u = s // 10 * 10
    u_in, w_in = lower <= u << 2, (u + 10) << 2 <= upper
    shorter = (s >= 10) & (u_in != w_in)
    # Else s or s + 1: the one inside, or the nearer, ties to even.
    s_in, t_in = lower <= s << 2, (s + 1) << 2 <= upper
    nearer = vb - (s << 2) - 2
    d = s + (t_in & (~s_in | (nearer > 0) | ((nearer == 0) & ((s & 1) == 1))))
    d = np.where(shorter, u + 10 * w_in, d)
    length = np.searchsorted(_POW10, d, side="right")
    return d * _POW10[_DIGITS - length], k + length - 1


def _round_to_odd_high(x: np.ndarray, limbs: np.ndarray) -> np.ndarray:
    """floor(x g / 2^128), with its low bit set when the remainder is not 0.

    ``x`` is uint64 below 2^59; g is given as four 32-bit ``limbs``, least
    significant first, each an array broadcast against ``x``. Column j sums
    the limb products of weight 2^(32 j) and the carry from column j - 1;
    x's high limb is below 2^27, so its products need no split.
    """
    x0, x1 = x & _M32, x >> np.uint64(32)
    g0, g1, g2, g3 = limbs
    sticky = x0 * g0
    carry = sticky >> np.uint64(32)
    # Worked in place: a fresh (3, K) temporary per step made the formatter about 40% slower.
    product, column = np.empty_like(x), np.empty_like(x)
    for low, high in ((g1, g0), (g2, g1), (g3, g2)):
        np.multiply(x0, low, out=product)
        np.multiply(x1, high, out=column)
        column += carry
        np.bitwise_and(product, _M32, out=carry)
        column += carry
        sticky |= column
        np.right_shift(column, np.uint64(32), out=carry)
        product >>= np.uint64(32)
        carry += product
    np.multiply(x1, g3, out=column)
    column += carry
    column |= (sticky & _M32) != 0
    return column


def _powers_of_ten(p: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """For each exponent p: 10^p's four 32-bit limbs, as a (4, len(p)) array, and floor(log2 10^p)."""
    table = np.zeros((5, p.max() + 1), dtype=np.uint64)
    for e in np.flatnonzero(np.bincount(p)):
        table[:, e] = _power_of_ten(int(e))
    limbs = table.take(p, axis=1)
    return limbs[:4], limbs[4].view(np.int64)


@functools.cache
def _power_of_ten(p: int) -> tuple[int, ...]:
    """10^p as g * 2^(log2 - 127), 2^127 <= g < 2^128, g rounded up: g's limbs and log2."""
    power = 10 ** p
    log2 = power.bit_length() - 1
    g = power << (127 - log2) if log2 <= 127 else -(-power >> (log2 - 127))
    return (*((g >> shift) & 0xFFFFFFFF for shift in (0, 32, 64, 96)), log2)


def _text_words(digits: np.ndarray, scale: np.ndarray) -> np.ndarray:
    """The text of d.ddd * 10^-scale as four little-endian words of bytes, NUL where nothing is written.

    ``digits`` holds the 17 digits d, left-aligned. Bytes 2 to 28 hold, for
    0 < scale <= 4, ``0.`` and scale - 1 zeros, the first digit and the rest;
    otherwise the first digit, a point, the rest and ``e-XX``. The point goes
    when the rest is all zeros, and so do the rest's trailing zeros.
    """
    lead, rest = np.divmod(digits, 10 ** 16)
    (high, low), (high_rest, low_rest) = np.divmod(np.divmod(rest, 10 ** 8), 10 ** 4)
    chunks = np.stack((high, high_rest, low, low_rest), axis=1)
    halves = _four_digits().take(chunks).view("<i8")  # digits 2-9 and 10-17
    # Bytes up to the last nonzero one; each holds a digit, so float rounding
    # never reaches the next byte.
    kept = np.maximum((halves.astype(np.float64).view(np.int64) >> 52) - 1015, 0) >> 3
    kept[:, 0] = np.where(kept[:, 1] > 0, 8, kept[:, 0])
    halves += 0x3030303030303030
    halves &= _BYTE_MASKS.take(kept)
    head, shift, tail = _scale_words()
    words = np.empty((len(digits), 4), dtype="<i8")
    words[:, 0] = (head.take(scale) | (lead + ord("0")) << shift.take(scale)
                   | (kept[:, 0] > 0) * (ord(".") << 24))
    words[:, 1:3] = halves
    words[:, 3] = tail.take(scale)
    return words


@functools.cache
def _four_digits() -> np.ndarray:
    """The four decimal digits of each of 0 to 9999, one per byte of a little-endian uint32."""
    values = np.arange(10 ** 4)
    digits = sum(values // 10 ** (3 - i) % 10 << 8 * i for i in range(4))
    return digits.astype("<u4")


@functools.cache
def _scale_words() -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per scale 0 to 324: the first word's fixed bytes, the first digit's shift, the last word."""
    scales = range(325)
    head = [int.from_bytes(b"\0\0" + b"0." + b"0" * (e - 1), "little") if e <= 4 else 0
            for e in scales]
    shift = [56 if e <= 4 else 16 for e in scales]
    tail = [int.from_bytes(b"e-%02d" % e, "little") if e > 4 else 0 for e in scales]
    return tuple(np.array(column, dtype=np.int64) for column in (head, shift, tail))


def _text(value: float) -> np.ndarray:
    """``repr(value)`` as a NUL-padded row of WIDTH bytes."""
    return np.frombuffer(repr(value).encode("ascii").ljust(WIDTH, b"\0"), dtype=np.uint8)
