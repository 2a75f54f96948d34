"""Tests for mode-occupation configurations and parity patterns."""

import itertools
import math

import numpy as np
import pytest

from passv.configurations import (
    ModeConfiguration,
    ParityPattern,
    bounded_occupations,
    collision_free_configurations,
    configuration_array,
    configuration_count,
    enumerate_configurations,
    parity_pattern_of,
    serialize_rows,
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
    assert np.issubdtype(table.dtype, np.integer)
    assert table.shape == (configuration_count(n, m), m)
    assert [tuple(row) for row in table.tolist()] == reference
    configs = enumerate_configurations(n, m)
    assert configs == [ModeConfiguration(c) for c in reference]
    assert [hash(c) for c in configs] == [hash(ModeConfiguration(c)) for c in reference]


@pytest.mark.parametrize("n,m", ARRAY_GRID)
def test_bounded_occupations_match_an_itertools_reference(n, m):
    reference = [c for c in itertools.product(range(n + 1), repeat=m) if sum(c) <= n]
    table = bounded_occupations(m, n)
    assert table.shape == (m, math.comb(n + m, m))
    assert [tuple(col) for col in table.T.tolist()] == reference


@pytest.mark.parametrize("n,m", ARRAY_GRID)
def test_serialized_rows_match_configuration_serialize(n, m):
    keys = serialize_rows(configuration_array(n, m))
    assert keys == [c.serialize() for c in enumerate_configurations(n, m)]
    if n >= 10:
        assert f"{n}" + ",0" * (m - 1) == keys[0]


def test_serialize_rows_of_an_empty_table():
    assert serialize_rows(np.zeros((0, 3), dtype=np.intp)) == []


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
