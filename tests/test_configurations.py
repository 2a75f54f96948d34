"""Tests for mode-occupation configurations and parity patterns."""

import csv
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passv.configurations import (
    ModeConfiguration,
    ParityPattern,
    bounded_occupations,
    collision_free_array,
    collision_free_configurations,
    configuration_array,
    configuration_count,
    configurations_from_array,
    enumerate_configurations,
    occupation_count,
    occupation_fields,
    parity_array,
    parity_pattern_of,
    patterns_from_array,
)
from passv.errors import ValidationError


def test_enumerate_two_photons_two_modes():
    configs = enumerate_configurations(2, 2)
    assert [c.occupations for c in configs] == [(2, 0), (1, 1), (0, 2)]


def test_enumerate_counts_match_formula():
    for n in range(5):
        for m in range(1, 5):
            configs = enumerate_configurations(n, m)
            assert len(configs) == configuration_count(n, m)
            assert len(set(configs)) == len(configs)


# (n, m) pairs for the array builders: no photons, one mode, and two-digit occupations.
ARRAY_GRID = [(0, 1), (0, 4), (1, 1), (7, 1), (12, 1), (3, 3), (4, 4), (2, 6), (10, 3), (12, 2)]


@pytest.mark.parametrize("n,m", ARRAY_GRID)
def test_configuration_array_matches_an_itertools_reference(n, m):
    reference = sorted(
        (c for c in itertools.product(range(n + 1), repeat=m) if sum(c) == n), reverse=True
    )
    table = configuration_array(n, m)
    assert table.dtype == np.intp and table.flags.c_contiguous
    assert table.ravel().base is table  # a view: the permanent table reads it without a copy
    assert table.shape == (configuration_count(n, m), m)
    assert [tuple(row) for row in table.tolist()] == reference
    configs = enumerate_configurations(n, m)
    assert configs == [ModeConfiguration(c) for c in reference]
    assert [hash(c) for c in configs] == [hash(ModeConfiguration(c)) for c in reference]


@pytest.mark.parametrize("n,m", ARRAY_GRID)
def test_bounded_occupations_match_an_itertools_reference(n, m):
    for parity in (None, 0, 1):
        reference = [c for c in itertools.product(range(n + 1), repeat=m)
                     if sum(c) <= n and parity in (None, sum(c) % 2)]
        table = bounded_occupations(m, n, parity)
        assert table.dtype == np.min_scalar_type(n)
        assert table.shape == (m, occupation_count(m, n, parity))
        assert [tuple(col) for col in table.T.tolist()] == reference
    assert table.shape[1] + bounded_occupations(m, n, 0).shape[1] == math.comb(n + m, m)


def test_configuration_array_peaks_near_its_result():
    # 134,044 rows over 92 modes, 98.7 MB of intp; each row of the bounded
    # table below it is written once, so the builder holds no growing copy.
    tracemalloc.start()
    try:
        table = configuration_array(3, 92)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.shape == (configuration_count(3, 92), 92)
    assert peak <= 1.2 * table.nbytes


def _decoded(fields: np.ndarray) -> list[str]:
    """The keys of a NUL-padded byte matrix of fields: each row with its NULs dropped."""
    return [bytes(row[row != 0]).decode("ascii") for row in fields]


@pytest.mark.parametrize("n,m", ARRAY_GRID)
def test_serialized_rows_match_configuration_serialize(n, m):
    keys = _decoded(occupation_fields(configuration_array(n, m)))
    assert keys == [c.serialize() for c in enumerate_configurations(n, m)]
    if n >= 10:
        assert f"{n}" + ",0" * (m - 1) == keys[0]


def _csv_field(text: str) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="").writerow([text])
    return buf.getvalue()


# Rows of one to six modes with occupations of one to three digits, so that
# fields of one matrix differ in width.
OCCUPATION_ROWS = st.integers(1, 6).flatmap(lambda m: st.tuples(
    st.just(m), st.lists(st.lists(st.integers(0, 120), min_size=m, max_size=m), max_size=50)))


@settings(max_examples=80, deadline=None)
@given(shape_rows=OCCUPATION_ROWS)
def test_occupation_fields_decode_to_csv_writer_fields(shape_rows):
    m, rows = shape_rows
    occupations = np.array(rows, dtype=np.intp).reshape(len(rows), m)
    keys = [ModeConfiguration(tuple(row)).serialize() for row in rows]
    fields = occupation_fields(occupations)
    assert fields.dtype == np.uint8 and fields.shape[0] == len(rows)
    assert _decoded(fields) == keys
    # csv.writer quotes every key of the matrix or none: those of m > 1 modes,
    # which hold commas. The CSV writers of the CLI quote by the same rule.
    assert [_csv_field(key) for key in keys] == [f'"{key}"' if m > 1 else key for key in keys]


def test_occupation_fields_pad_only_where_widths_differ():
    fields = occupation_fields(np.array([[10, 0], [9, 1], [0, 120]]))
    assert fields.shape == (3, 7)
    assert bytes(fields[0]) == b'\x0010,\x00\x000'
    assert occupation_fields(np.array([[3, 0], [2, 1]])).all()


def test_serialize_rows_of_an_empty_table():
    fields = occupation_fields(np.zeros((0, 3), dtype=np.intp))
    assert fields.shape == (0, 5) and _decoded(fields) == []


def test_configuration_count_closed_form():
    assert configuration_count(1, 3) == 3
    assert configuration_count(3, 4) == 20
    assert configuration_count(0, 5) == 1
    for n in range(7):
        for m in range(1, 7):
            assert configuration_count(n, m) == math.comb(n + m - 1, m - 1)


def test_enumeration_order_is_first_mode_descending():
    configs = enumerate_configurations(3, 3)
    firsts = [c.occupations[0] for c in configs]
    assert firsts == sorted(firsts, reverse=True)
    assert configs[0].occupations == (3, 0, 0)
    assert configs[-1].occupations == (0, 0, 3)


def test_enumerate_zero_photons():
    configs = enumerate_configurations(0, 3)
    assert len(configs) == 1
    assert configs[0].occupations == (0, 0, 0)


def test_enumerate_invalid_dimensions():
    with pytest.raises(ValidationError):
        enumerate_configurations(2, 0)
    with pytest.raises(ValidationError):
        enumerate_configurations(-1, 3)


def test_each_configuration_has_right_total():
    for config in enumerate_configurations(4, 3):
        assert config.total == 4
        assert config.modes == 3


def test_collision_free_two_in_three():
    configs = collision_free_configurations(2, 3)
    assert [c.occupations for c in configs] == [(1, 1, 0), (1, 0, 1), (0, 1, 1)]


def test_collision_free_count_is_binomial():
    for n in range(5):
        for m in range(max(n, 1), 7):
            assert len(collision_free_configurations(n, m)) == math.comb(m, n)


def test_collision_free_is_subset_of_full_enumeration():
    full = set(enumerate_configurations(3, 5))
    for config in collision_free_configurations(3, 5):
        assert config in full
        assert config.is_collision_free


def test_collision_free_rejects_too_many_photons():
    with pytest.raises(ValidationError):
        collision_free_configurations(4, 3)


def test_configuration_validation():
    with pytest.raises(ValidationError):
        ModeConfiguration((1, -1))
    with pytest.raises(ValidationError):
        ModeConfiguration(())


def test_configuration_container_protocol():
    config = ModeConfiguration((1, 0, 2))
    assert len(config) == 3
    assert list(config) == [1, 0, 2]
    assert config[2] == 2
    assert config.total == 3
    assert not config.is_collision_free
    assert ModeConfiguration((0, 1, 0)).is_collision_free


def test_configuration_serialization_round_trip():
    config = ModeConfiguration((1, 0, 2))
    assert config.serialize() == "1,0,2"
    assert ModeConfiguration.parse("1,0,2") == config
    with pytest.raises(ValidationError):
        ModeConfiguration.parse("1,x,2")
    with pytest.raises(ValidationError):
        ModeConfiguration.parse("")


def test_parity_pattern_of_occupations():
    assert parity_pattern_of(ModeConfiguration((1, 0, 2))).outcomes == (-1, 1, 1)
    assert parity_pattern_of((0, 0)).outcomes == (1, 1)
    assert parity_pattern_of((3, 1)).outcomes == (-1, -1)


def test_parity_rows_are_the_occupations_modulo_two():
    rows = configuration_array(3, 4)
    expected = [parity_pattern_of(c) for c in enumerate_configurations(3, 4)]
    assert patterns_from_array(rows % 2) == expected


def test_parity_array_rows_are_the_bits_of_their_index():
    for m in range(1, 6):
        rows = parity_array(m)
        assert rows.shape == (2 ** m, m)
        assert rows.tolist() == [list(bits) for bits in itertools.product((0, 1), repeat=m)]
        assert (rows @ (1 << np.arange(m - 1, -1, -1))).tolist() == list(range(2 ** m))


def test_collision_free_rows_are_their_own_parity_rows():
    rows = collision_free_array(2, 4)
    assert configurations_from_array(rows) == collision_free_configurations(2, 4)
    assert patterns_from_array(rows) == [parity_pattern_of(c)
                                         for c in collision_free_configurations(2, 4)]


def test_parity_unchanged_by_photon_pairs():
    base = ModeConfiguration((1, 2, 0))
    bumped = ModeConfiguration((3, 2, 2))
    assert parity_pattern_of(base) == parity_pattern_of(bumped)


def test_parity_pattern_serialization_round_trip():
    pattern = ParityPattern((-1, 1, 1))
    assert pattern.serialize() == "-++"
    assert ParityPattern.parse("-++") == pattern
    assert pattern.odd_count == 1
    with pytest.raises(ValidationError):
        ParityPattern.parse("+0-")
    with pytest.raises(ValidationError):
        ParityPattern((1, 0, -1))


def test_patterns_are_hashable_and_ordered_consistently():
    patterns = {ParityPattern((1, -1)), ParityPattern((1, -1)), ParityPattern((-1, 1))}
    assert len(patterns) == 2
