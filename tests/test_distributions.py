"""Tests for probability tables, sampling, and distance computation."""

import numpy as np
import pytest

from passv.configurations import ModeConfiguration, ParityPattern, enumerate_configurations
from passv.distributions import (
    OutputDistribution,
    draw_samples,
    total_variation_distance,
)
from passv.errors import ValidationError

A = ModeConfiguration((1, 0))
B = ModeConfiguration((0, 1))


def _coin(p: float) -> OutputDistribution:
    return OutputDistribution([(A, p), (B, 1.0 - p)])


def test_defect_is_computed_when_not_supplied():
    dist = OutputDistribution([(A, 0.25), (B, 0.25)])
    assert dist.normalization_defect == pytest.approx(0.5)
    assert dist.total() == pytest.approx(0.5)


def test_declared_defect_is_kept():
    dist = OutputDistribution([(A, 0.25)], normalization_defect=0.75)
    assert dist.normalization_defect == 0.75


def test_duplicate_keys_rejected():
    with pytest.raises(ValidationError):
        OutputDistribution([(A, 0.5), (A, 0.5)])
    with pytest.raises(ValidationError, match=r"duplicate .*\(0, 1\)"):
        OutputDistribution([(B, 0.2), (A, 0.3), (B, 0.1), (A, 0.4)])


def test_negative_probability_rejected_but_noise_clipped():
    with pytest.raises(ValidationError):
        OutputDistribution([(A, -0.1)])
    with pytest.raises(ValidationError, match=r"-0.25 for key .*\(0, 1\)"):
        OutputDistribution([(A, 0.5), (B, -0.25)])
    dist = OutputDistribution([(A, -1e-15), (B, 1.0)])
    assert dist.probability(A) == 0.0
    assert dist.probabilities.tolist() == [0.0, 1.0]
    assert dist.normalization_defect == 0.0


def test_lazy_index_answers_lookups_like_a_dict():
    keys = enumerate_configurations(3, 4)
    probs = np.random.default_rng(3).random(len(keys))
    dist = OutputDistribution(zip(keys, probs.tolist()))
    assert dist._index is None  # built on the first lookup, not by the constructor
    reference = dict(zip(keys, probs.tolist()))
    for key in keys:
        assert key in dist
        assert dist.probability(key) == reference[key]
    for absent in (ModeConfiguration((4, 0, 0, 0, 0)), ModeConfiguration((1, 0)), "3,0,0,0"):
        assert absent not in dist
        assert dist.probability(absent, default=-1.0) == -1.0


def test_lookup_and_container_protocol():
    dist = _coin(0.75)
    assert dist.probability(A) == 0.75
    assert dist.probability(ModeConfiguration((2, 0))) == 0.0
    assert dist.probability(ModeConfiguration((2, 0)), default=-1.0) == -1.0
    assert A in dist
    assert ModeConfiguration((2, 0)) not in dist
    assert len(dist) == 2
    assert dist.keys == [A, B]
    assert list(dist.items()) == [(A, 0.75), (B, 0.25)]


def test_zero_probabilities_are_retained():
    dist = OutputDistribution([(A, 0.0), (B, 1.0)])
    assert len(dist) == 2
    assert dist.support[0] == (A, 0.0)


def test_normalized_rescales_to_unit_mass():
    dist = OutputDistribution([(A, 0.2), (B, 0.6)]).normalized()
    assert dist.probability(A) == pytest.approx(0.25)
    assert dist.probability(B) == pytest.approx(0.75)
    assert dist.normalization_defect == 0.0
    with pytest.raises(ValidationError):
        OutputDistribution([(A, 0.0)]).normalized()


def test_restrict_filters_and_recomputes_defect():
    dist = _coin(0.75).restrict(lambda k: k == A)
    assert dist.keys == [A]
    assert dist.normalization_defect == pytest.approx(0.25)


def test_draw_samples_deterministic_per_seed():
    dist = _coin(0.5)
    first = draw_samples(dist, 42, 100)
    second = draw_samples(dist, 42, 100)
    assert first == second
    assert draw_samples(dist, 43, 100) != first
    assert draw_samples(dist, 42, 0) == []


def test_draw_samples_frequencies_near_probabilities():
    shots = 40000
    samples = draw_samples(_coin(0.5), 77, shots)
    freq = sum(1 for k in samples if k == A) / shots
    # five binomial standard errors at p = 1/2
    assert abs(freq - 0.5) < 5.0 * 0.5 / np.sqrt(shots)


def test_draw_samples_point_mass():
    dist = OutputDistribution([(A, 1.0), (B, 0.0)])
    assert set(draw_samples(dist, 5, 50)) == {A}


def test_draw_samples_refuses_subnormalized_tables():
    with pytest.raises(ValidationError):
        draw_samples(OutputDistribution([(A, 0.7)]), 1, 10)
    with pytest.raises(ValidationError):
        draw_samples(_coin(0.5), -3, 10)
    with pytest.raises(ValidationError):
        draw_samples(_coin(0.5), 1, -1)


def test_tvd_identical_distributions():
    assert total_variation_distance(_coin(0.3), _coin(0.3)) == 0.0


def test_tvd_known_value():
    assert total_variation_distance(_coin(0.6), _coin(0.4)) == pytest.approx(0.2)


def test_tvd_disjoint_supports():
    p = OutputDistribution([(A, 1.0)])
    q = OutputDistribution([(B, 1.0)])
    assert total_variation_distance(p, q) == pytest.approx(1.0)


def test_tvd_is_symmetric():
    p = _coin(0.9)
    q = _coin(0.1)
    assert total_variation_distance(p, q) == total_variation_distance(q, p)


def test_tvd_rejects_mixed_key_domains():
    p = OutputDistribution([(A, 1.0)])
    q = OutputDistribution([(ParityPattern((-1, 1)), 1.0)])
    with pytest.raises(ValidationError):
        total_variation_distance(p, q)
