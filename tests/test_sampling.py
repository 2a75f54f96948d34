"""Tests for permanent-based transition amplitudes and output distributions.

These exercise the photon-counting side: amplitudes from scattering
submatrix permanents, full distributions over all occupation outcomes, and
their invariances under mode relabeling.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passv.configurations import (
    ModeConfiguration,
    collision_free_configurations,
    configuration_array,
    enumerate_configurations,
)
from passv.errors import SizeLimitError, ValidationError
from passv.networks import (
    ORTHOGONAL,
    LinearNetwork,
    haar_special_orthogonal,
    haar_unitary,
    scattering_submatrix,
)
from passv.permanents import permanent_naive
from passv.sampling import (
    AMPLITUDE_PHOTON_LIMIT,
    outcome_probabilities,
    output_distribution,
    transition_amplitude,
    uniform_input,
)

HOM = LinearNetwork(
    np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), ORTHOGONAL,
    allow_reflection=True,
)

COMPLETENESS_TOL = 1e-9


def test_uniform_input_layout():
    assert uniform_input(2, 4).occupations == (1, 1, 0, 0)
    assert uniform_input(0, 3).occupations == (0, 0, 0)
    with pytest.raises(ValidationError):
        uniform_input(4, 3)
    with pytest.raises(ValidationError):
        uniform_input(-1, 3)


def test_balanced_splitter_pair_amplitudes():
    # Two photons entering opposite ports of a balanced splitter never exit
    # one per port; they bunch with equal weight.
    assert transition_amplitude(HOM, (1, 1), (1, 1)) == pytest.approx(0.0, abs=1e-12)
    assert transition_amplitude(HOM, (1, 1), (2, 0)) == pytest.approx(
        1.0 / math.sqrt(2.0), abs=1e-12
    )
    assert transition_amplitude(HOM, (1, 1), (0, 2)) == pytest.approx(
        -1.0 / math.sqrt(2.0), abs=1e-12
    )


def test_single_photon_amplitudes_are_matrix_columns():
    net = haar_unitary(4, 19)
    for j in range(4):
        s_in = tuple(1 if k == j else 0 for k in range(4))
        for i in range(4):
            s_out = tuple(1 if k == i else 0 for k in range(4))
            got = transition_amplitude(net, s_in, s_out)
            assert got == pytest.approx(net.entries[i, j], abs=1e-14)


def test_identity_network_is_a_point_mass():
    net = LinearNetwork(np.eye(3), ORTHOGONAL)
    dist = output_distribution(net, (2, 1, 0))
    assert dist.probability(ModeConfiguration((2, 1, 0))) == pytest.approx(1.0)
    assert dist.normalization_defect < 1e-12
    for key, p in dist.items():
        if key != ModeConfiguration((2, 1, 0)):
            assert p == pytest.approx(0.0, abs=1e-24)


def test_distribution_keys_follow_canonical_enumeration():
    net = haar_unitary(3, 40)
    dist = output_distribution(net, uniform_input(2, 3))
    assert dist.keys == enumerate_configurations(2, 3)
    assert len(dist) == len(enumerate_configurations(2, 3))


@pytest.mark.parametrize("maker", [haar_unitary, haar_special_orthogonal])
@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (3, 4), (2, 5)])
def test_distribution_completeness(maker, n, m):
    net = maker(m, 500 + 10 * n + m)
    dist = output_distribution(net, uniform_input(n, m))
    assert abs(dist.total() - 1.0) < COMPLETENESS_TOL
    assert dist.normalization_defect < COMPLETENESS_TOL


def test_completeness_with_bunched_input():
    net = haar_unitary(3, 41)
    dist = output_distribution(net, (2, 1, 0))
    assert abs(dist.total() - 1.0) < COMPLETENESS_TOL


def test_rotation_networks_give_real_amplitudes():
    net = haar_special_orthogonal(4, 23)
    for config in enumerate_configurations(2, 4):
        amp = transition_amplitude(net, uniform_input(2, 4), config)
        assert amp.imag == 0.0


def test_distribution_covariance_under_mode_relabeling():
    # Conjugating the network by a permutation matrix must permute outcome
    # probabilities, with the input relabeled the same way.
    net = haar_unitary(4, 71)
    perm = [2, 0, 3, 1]
    p = np.zeros((4, 4))
    for new, old in enumerate(perm):
        p[new, old] = 1.0
    relabeled = LinearNetwork(p @ net.entries @ p.T, net.kind)
    s_in = (1, 0, 1, 0)
    s_in_relabeled = tuple(s_in[perm[k]] for k in range(4))
    base = output_distribution(net, s_in)
    moved = output_distribution(relabeled, s_in_relabeled)
    for config in enumerate_configurations(2, 4):
        image = ModeConfiguration(tuple(config.occupations[perm[k]] for k in range(4)))
        assert moved.probability(image) == pytest.approx(
            base.probability(config), abs=1e-12
        )


def test_collision_free_mass_matches_submatrix_permanents():
    net = haar_special_orthogonal(4, 33)
    dist = output_distribution(net, uniform_input(2, 4))
    for config in collision_free_configurations(2, 4):
        amp = transition_amplitude(net, uniform_input(2, 4), config)
        assert dist.probability(config) == pytest.approx(abs(amp) ** 2, abs=1e-14)


def test_amplitude_validation_and_limits():
    net = haar_unitary(3, 1)
    with pytest.raises(ValidationError):
        transition_amplitude(net, (1, 0), (0, 1))
    with pytest.raises(ValidationError):
        transition_amplitude(net, (1, 0, 0), (1, 1, 0))
    with pytest.raises(SizeLimitError):
        transition_amplitude(haar_unitary(25, 2), (1,) * 25, (1,) * 25)


def test_distribution_support_size_guard():
    # C(44, 6) ~ 7 million outcome configurations exceeds the enumeration cap.
    with pytest.raises(SizeLimitError):
        output_distribution(haar_unitary(39, 3), uniform_input(6, 39))


# ------------------------------------------------- the batched output table

TABLE_TOL = 1e-13


def _check_table_entries(net, input_config):
    dist = output_distribution(net, input_config)
    t = ModeConfiguration(tuple(input_config))
    for config, p in dist.items():
        amp = transition_amplitude(net, t, config)
        assert abs(p - abs(amp) ** 2) <= TABLE_TOL
        weight = math.prod(math.factorial(k) for k in t.occupations + config.occupations)
        naive = abs(permanent_naive(scattering_submatrix(net, t, config))) ** 2 / weight
        assert abs(p - naive) <= TABLE_TOL


@pytest.mark.parametrize("maker", [haar_unitary, haar_special_orthogonal])
@pytest.mark.parametrize("n,m", [(1, 2), (2, 3), (3, 4), (2, 5)])
def test_table_entries_match_single_amplitudes(maker, n, m):
    _check_table_entries(maker(m, 600 + 10 * n + m), uniform_input(n, m))


@pytest.mark.parametrize("maker", [haar_unitary, haar_special_orthogonal])
@pytest.mark.parametrize("input_config", [(2, 1, 0), (3, 0, 0, 1, 0)])
def test_table_entries_match_single_amplitudes_for_bunched_inputs(maker, input_config):
    _check_table_entries(maker(len(input_config), 77), input_config)


def test_zero_photon_table_is_a_point_mass():
    dist = output_distribution(haar_unitary(3, 5), uniform_input(0, 3))
    assert list(dist.items()) == [(ModeConfiguration((0, 0, 0)), 1.0)]


def test_outcome_probabilities_validation():
    net = haar_unitary(3, 6)
    with pytest.raises(ValidationError):
        outcome_probabilities(net, (1, 1), [(1, 1, 0)])
    with pytest.raises(ValidationError):
        outcome_probabilities(net, (1, 1, 0), [(1, 1)])
    with pytest.raises(ValidationError):
        outcome_probabilities(net, (1, 1, 0), [(1, 1, 1)])
    assert outcome_probabilities(net, (1, 1, 0), []).shape == (0,)
    # The same checks on an occupation array, which skips the per-outcome objects.
    for bad in (np.array([1, 1, 0]), np.array([[1, 1]]), np.array([[1, 1, 1]]),
                np.array([[1.0, 1.0, 0.0]]), np.array([[3, -1, 0]])):
        with pytest.raises(ValidationError):
            outcome_probabilities(net, (1, 1, 0), bad)
    assert outcome_probabilities(net, (1, 1, 0), np.zeros((0, 3), dtype=int)).shape == (0,)


@pytest.mark.parametrize("input_config", [(1, 1, 0, 0), (2, 0, 1, 0), (0, 0, 0, 0)])
def test_outcome_array_and_configurations_give_identical_probabilities(input_config):
    net = haar_unitary(4, 21)
    n = sum(input_config)
    from_array = outcome_probabilities(net, input_config, configuration_array(n, 4))
    from_objects = outcome_probabilities(net, input_config, enumerate_configurations(n, 4))
    assert from_array.tolist() == from_objects.tolist()
    assert output_distribution(net, input_config).probabilities.tolist() == from_array.tolist()


def test_table_guards_fire_before_allocation():
    net = haar_unitary(39, 3)
    tracemalloc.start()
    try:
        # C(44, 6), about 7 million outcomes, exceeds the support limit.
        with pytest.raises(SizeLimitError):
            output_distribution(net, uniform_input(6, 39))
        # More photons than AMPLITUDE_PHOTON_LIMIT allows.
        with pytest.raises(SizeLimitError):
            output_distribution(haar_unitary(2, 4), (AMPLITUDE_PHOTON_LIMIT + 1, 0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


@settings(max_examples=25, deadline=None)
@given(m=st.integers(2, 5), n=st.integers(1, 3), seed=st.integers(0, 10_000),
       perm_seed=st.integers(0, 10_000))
def test_table_is_complete_and_covariant_under_relabeling(m, n, seed, perm_seed):
    n = min(n, m)
    net = haar_unitary(m, seed)
    t = uniform_input(n, m)
    base = output_distribution(net, t)
    assert abs(base.total() - 1.0) <= 1e-12
    perm = np.random.default_rng(perm_seed).permutation(m)
    p = np.eye(m)[perm]  # p @ x relabels mode perm[k] as mode k
    moved = output_distribution(LinearNetwork(p @ net.entries @ p.T, net.kind),
                                tuple(t[perm[k]] for k in range(m)))
    for config, prob in base.items():
        image = ModeConfiguration(tuple(config[perm[k]] for k in range(m)))
        assert abs(moved.probability(image) - prob) <= 1e-12
