"""Tests for ``floatrepr.float_reprs``: each row, its NULs dropped, is ``repr(float(v))``."""

import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passv import cli
from passv.configurations import occupation_fields
from passv.distributions import OutputDistribution
from passv.floatrepr import BLOCK, WIDTH, float_reprs


def _texts(values) -> list[str]:
    rows = float_reprs(np.asarray(values, dtype=np.float64))
    assert rows.shape == (len(values), WIDTH) and rows.dtype == np.uint8
    return [row.tobytes().replace(b"\0", b"").decode("ascii") for row in rows]


def _reprs(values) -> list[str]:
    return [repr(v) for v in np.asarray(values, dtype=np.float64).tolist()]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(min_value=0.0, allow_nan=False, allow_infinity=False),
                min_size=1, max_size=40))
def test_rows_are_repr(values):
    assert _texts(values) == _reprs(values)


def _with_neighbours(values) -> np.ndarray:
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate((np.nextafter(values, 0.0), values, np.nextafter(values, 2.0)))


VALUE_SETS = {
    "the first 2^16 subnormals": np.arange(1 << 16, dtype=np.uint64).view(np.float64),
    "powers of 2 from 2^-1074 to 1": _with_neighbours(np.ldexp(1.0, np.arange(-1074, 1))),
    "powers of 10 from 1e-323 to 1": _with_neighbours([float(f"1e{e}") for e in range(-323, 1)]),
    # The switch from 0.000ddd to d.ddde-05, and the last two-digit exponent.
    "the 1e-4 and 1e-5 edges": _with_neighbours([1e-4, 9.9999e-5, 9.99999999999999e-5,
                                                 1e-5, 1.5e-5, 1.0000000000000001e-4,
                                                 1e-99, 1e-100]),
    "the extremes": np.array([0.0, 5e-324, 1.0, np.nextafter(1.0, 2.0)]),
    # Decimals of 1 to 17 digits, and values with the fewest and most digits.
    "decimals": np.array([float(f"{d}e{e}") for d in (1, 12, 123456789, 12345678901234567,
                                                      99999999999999999)
                          for e in (-1, -2, -17, -100, -300)]),
}


@pytest.mark.parametrize("name", VALUE_SETS)
def test_value_sets_are_repr(name):
    values = VALUE_SETS[name]
    texts, expected = _texts(values), _reprs(values)
    mismatches = [(v, t, e) for v, t, e in zip(values.tolist(), texts, expected) if t != e]
    assert not mismatches, mismatches[:5]


def test_random_bits_below_one_are_repr():
    bits = np.random.default_rng(7).integers(0, 0x3FF0000000000000, 1 << 16, dtype=np.int64)
    values = bits.view(np.float64)
    assert _texts(values) == _reprs(values)


def test_out_is_filled_in_place_through_a_view_of_wider_rows():
    values = np.array([0.25, 0.0, 3.5, 1e-300])
    matrix = np.full((4, WIDTH + 6), ord("|"), dtype=np.uint8)
    view = matrix[:, 3:3 + WIDTH]
    assert float_reprs(values, out=view) is view
    assert matrix[:, :3].tobytes() == matrix[:, -3:].tobytes() == b"|" * 12
    assert [row[3:-3].tobytes().replace(b"\0", b"").decode() for row in matrix] == _reprs(values)


@pytest.mark.parametrize("bad", [[-1.0], [0.5, -1e-300], [-0.0], [float("nan")],
                                 [float("inf")], [0.5, float("-inf")]])
def test_negative_or_non_finite_values_raise(bad):
    with pytest.raises(ValueError):
        float_reprs(np.array(bad))


def test_a_2d_input_or_a_misshapen_out_raises():
    with pytest.raises(ValueError, match="1-d"):
        float_reprs(np.full((2, 2), 0.5))
    for out in (np.empty((2, WIDTH), dtype=np.uint8), np.empty((3, WIDTH + 1), dtype=np.uint8),
                np.empty((3, WIDTH), dtype=np.int8)):
        with pytest.raises(ValueError, match="out must be"):
            float_reprs(np.full(3, 0.5), out=out)


def test_a_table_across_a_block_boundary_matches_a_repr_built_reference():
    k = BLOCK + 3
    rng = np.random.default_rng(3)
    probabilities = rng.random(k) ** 9 / k
    probabilities[[0, BLOCK - 1, BLOCK, BLOCK + 2]] = [0.0, 1.0, 5e-324, 0.1]
    dist = OutputDistribution(np.arange(k)[:, None], probabilities)
    fields = occupation_fields(dist.occupations)
    config = {"subcommand": "sample-fock", "n": 1}

    buf = io.StringIO()
    buf.write(cli._config_comment(config) + "\nkey,probability\n")
    csv.writer(buf, lineterminator="\n").writerows(
        [key.serialize(), repr(p)] for key, p in dist.items())
    record = {"config": config, "normalization_defect": dist.normalization_defect,
              "distribution": [[key.serialize(), p] for key, p in dist.items()]}
    for fmt, expected in (("csv", buf.getvalue()),
                          ("json", json.dumps(record, sort_keys=True, indent=2) + "\n")):
        chunks = cli.TABLE_WRITERS[fmt](fields, dist, config)
        text = b"".join(c.encode() if isinstance(c, str) else c.tobytes() for c in chunks)
        assert text.decode() == expected, fmt
