"""Tests for truncated Fock-state evolution.

The beamsplitter is cross-checked against an independent oracle: the matrix
exponential of the full two-mode generator built from dense Kronecker
products of ladder matrices, which is exact whenever no amplitude crosses
the cutoff. The sector rotations, which the mixer builds from a cached
eigenbasis, are checked against scipy's ``expm`` of each sector generator,
and so is the mixer itself when sectors overflow the cutoff.
"""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies
from scipy.linalg import expm

from passv import evolution
from passv.configurations import ModeConfiguration, ParityPattern
from passv.errors import SizeLimitError, ValidationError
from passv.evolution import (
    ADDED,
    SUBTRACTED,
    Squeezing,
    TruncatedFockState,
    apply_beamsplitter,
    apply_ladder,
    apply_network,
    as_squeezing,
    build_passv_input,
    build_squeezed_product,
    number_distribution,
    parity_distribution,
    required_cutoff,
    squeezed_vacuum_vector,
    state_overlap,
    _sector_generator,
    _sector_rotation,
)
from passv.networks import TwoModeElement, haar_special_orthogonal, haar_unitary, reck_decompose

# Frozen one-mode squeezed-vacuum amplitudes at r = 0.5 (from the closed
# form (-1)^k sqrt((2k)!) tanh(r)^k / (2^k k! sqrt(cosh r))).
C0_HALF = 0.9417106158316757
C2_HALF = -0.30771917645837044
TAIL_HALF_D6 = 6.249349011447913e-4


def _lowering_matrix(d: int) -> np.ndarray:
    a = np.zeros((d + 1, d + 1))
    for p in range(1, d + 1):
        a[p - 1, p] = math.sqrt(p)
    return a


# ---------------------------------------------------------------- squeezing


def test_squeezing_validation():
    assert Squeezing(0.0).xi == 0.0
    assert Squeezing(0.5).theta == 0.0
    with pytest.raises(ValidationError):
        Squeezing(-0.1)
    with pytest.raises(ValidationError):
        Squeezing(float("nan"))


def test_as_squeezing_coercion():
    assert as_squeezing(Squeezing(0.3, 1.0)) == Squeezing(0.3, 1.0)
    assert as_squeezing(0.4) == Squeezing(0.4)
    polar = as_squeezing(0.3j)
    assert polar.r == pytest.approx(0.3)
    assert polar.theta == pytest.approx(math.pi / 2.0)
    assert as_squeezing(complex(-0.2)).theta == pytest.approx(math.pi)


def test_squeezing_xi_round_trip():
    sq = Squeezing(0.7, -0.9)
    assert as_squeezing(sq.xi).r == pytest.approx(0.7)
    assert as_squeezing(sq.xi).theta == pytest.approx(-0.9)


# ------------------------------------------------------- squeezed amplitudes


def test_squeezed_vector_frozen_values():
    vec, tail = squeezed_vacuum_vector(0.5, 30)
    assert vec[0].real == pytest.approx(C0_HALF, abs=1e-14)
    assert vec[2].real == pytest.approx(C2_HALF, abs=1e-14)
    assert tail < 1e-10


def test_squeezed_vector_tail_frozen_value():
    _, tail = squeezed_vacuum_vector(0.5, 6)
    assert tail == pytest.approx(TAIL_HALF_D6, rel=1e-10)


def test_squeezed_vector_matches_factorial_formula():
    r = 0.65
    vec, _ = squeezed_vacuum_vector(r, 20)
    for k in range(8):
        expected = (
            (-1) ** k
            * math.sqrt(math.factorial(2 * k))
            / (2**k * math.factorial(k))
            * math.tanh(r) ** k
            / math.sqrt(math.cosh(r))
        )
        assert vec[2 * k].real == pytest.approx(expected, rel=1e-12)


def test_squeezed_vector_odd_entries_vanish():
    vec, _ = squeezed_vacuum_vector(0.8, 21)
    assert np.all(vec[1::2] == 0.0)


def test_squeezed_vector_norm_plus_tail_is_one():
    for r in [0.1, 0.5, 0.9]:
        for d in [4, 10, 24]:
            vec, tail = squeezed_vacuum_vector(r, d)
            assert float(np.sum(np.abs(vec) ** 2)) + tail == pytest.approx(1.0, abs=1e-12)


def test_squeezed_vector_zero_squeezing_is_vacuum():
    vec, tail = squeezed_vacuum_vector(0.0, 8)
    assert vec[0] == 1.0
    assert np.all(vec[1:] == 0.0)
    assert tail == 0.0


def test_squeezed_vector_phase_advances_per_pair():
    theta = 1.2
    vec, _ = squeezed_vacuum_vector(Squeezing(0.5, theta), 12)
    base, _ = squeezed_vacuum_vector(0.5, 12)
    for k in range(1, 6):
        rotated = base[2 * k] * np.exp(1j * k * theta)
        assert vec[2 * k] == pytest.approx(rotated, abs=1e-14)


def test_vacuum_number_probabilities_at_half():
    # P(0) = 1/cosh(r) and P(2) = tanh(r)^2 / (2 cosh r) for squeezed vacuum.
    vec, _ = squeezed_vacuum_vector(0.5, 30)
    assert abs(vec[0]) ** 2 == pytest.approx(1.0 / math.cosh(0.5), abs=1e-13)
    assert abs(vec[2]) ** 2 == pytest.approx(
        math.tanh(0.5) ** 2 / (2.0 * math.cosh(0.5)), abs=1e-13
    )


def test_required_cutoff_known_values():
    assert required_cutoff(0.5, 1e-8) == 20
    assert required_cutoff(0.6, 1e-8) == 26
    assert required_cutoff(0.4, 1e-8) == 16


def test_required_cutoff_is_minimal_and_even():
    for r in [0.2, 0.5, 0.8]:
        d = required_cutoff(r, 1e-8)
        assert d % 2 == 0
        _, tail = squeezed_vacuum_vector(r, d)
        assert tail <= 1e-8
        _, tail_below = squeezed_vacuum_vector(r, d - 2)
        assert tail_below > 1e-8


def test_required_cutoff_headroom_and_degenerate_cases():
    assert required_cutoff(0.0) == 0
    assert required_cutoff(0.0, headroom=3) == 3
    assert required_cutoff(0.5, 1e-8, headroom=2) == 22
    with pytest.raises(ValidationError):
        required_cutoff(0.5, 0.0)
    with pytest.raises(ValidationError):
        required_cutoff(0.5, -1e-3)


# ----------------------------------------------------------------- the state


def test_default_state_is_vacuum():
    st = TruncatedFockState(2, 3)
    assert st.amplitude((0, 0)) == 1.0
    assert st.squared_norm() == pytest.approx(1.0)
    assert st.truncation_loss == 0.0


def test_state_shape_validation():
    with pytest.raises(ValidationError):
        TruncatedFockState(2, 2, np.zeros((3, 4), dtype=complex))
    with pytest.raises(ValidationError):
        TruncatedFockState(0, 2)
    with pytest.raises(ValidationError):
        TruncatedFockState(2, -1)


def test_state_size_guard():
    with pytest.raises(SizeLimitError):
        TruncatedFockState(8, 11)


def test_product_size_guard_fires_before_allocation(monkeypatch):
    monkeypatch.setattr(evolution, "STATE_SIZE_LIMIT", 1_000_000)
    vectors = [np.ones(101)] * 3  # 101^3 amplitudes, 16.5 MB if built
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError):
            TruncatedFockState.from_product(vectors)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_from_product_does_not_alias_the_mode_vectors():
    for modes in (1, 3):
        vectors = [np.array([1.0, 0.5, 0.25], dtype=np.complex128) for _ in range(modes)]
        st = TruncatedFockState.from_product(vectors)
        st.amplitudes[(0,) * modes] = 7.0
        assert all(v.tolist() == [1.0, 0.5, 0.25] for v in vectors)
        vectors[0][1] = -3.0
        assert st.amplitude((1,) + (0,) * (modes - 1)) == 0.5


def test_passv_input_preparation_holds_one_state():
    # 41^3 amplitudes, 1.1 MB: the product and both ladders reuse one tensor.
    state_bytes = 41 ** 3 * 16
    tracemalloc.start()
    try:
        build_passv_input(2, 3, 0.5, ADDED, 40)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * state_bytes


def test_state_copy_is_independent():
    st = TruncatedFockState(1, 2)
    clone = st.copy()
    apply_ladder(st, 0, "raise")
    assert clone.amplitude((0,)) == 1.0
    assert st.amplitude((0,)) == 0.0


def test_snapshot_dict_drops_negligible_entries():
    st = TruncatedFockState(1, 4)
    st.amplitudes[2] = 1e-16
    snap = st.snapshot_dict()
    assert snap["m"] == 1 and snap["d"] == 4
    recorded = {tuple(entry[0]) for entry in snap["amps"]}
    assert (0,) in recorded and (2,) not in recorded


# ------------------------------------------------------------------- ladders


def test_raise_on_vacuum_gives_one_photon():
    st = TruncatedFockState(2, 3)
    apply_ladder(st, 1, "raise")
    assert st.amplitude((0, 1)) == 1.0
    assert st.squared_norm() == pytest.approx(1.0)


def test_ladder_matrix_elements():
    d = 6
    st = TruncatedFockState(1, d)
    st.amplitudes[:] = 0.0
    st.amplitudes[3] = 1.0
    apply_ladder(st, 0, "raise")
    assert st.amplitude((4,)) == pytest.approx(math.sqrt(4.0))
    st.amplitudes[:] = 0.0
    st.amplitudes[3] = 1.0
    apply_ladder(st, 0, "lower")
    assert st.amplitude((2,)) == pytest.approx(math.sqrt(3.0))


def test_lower_on_vacuum_is_zero_state():
    st = TruncatedFockState(1, 3)
    apply_ladder(st, 0, "lower")
    assert st.squared_norm() == 0.0


def test_raise_at_cutoff_records_loss():
    d = 3
    st = TruncatedFockState(1, d)
    st.amplitudes[:] = 0.0
    st.amplitudes[d] = 1.0
    apply_ladder(st, 0, "raise")
    assert st.squared_norm() == 0.0
    assert st.truncation_loss == pytest.approx(d + 1.0)


def test_ladder_validation():
    st = TruncatedFockState(2, 2)
    with pytest.raises(ValidationError):
        apply_ladder(st, 2, "raise")
    with pytest.raises(ValidationError):
        apply_ladder(st, -1, "raise")
    with pytest.raises(ValidationError):
        apply_ladder(st, 0, "up")


def test_ladder_norms_on_squeezed_vacuum():
    # ||a_dag |xi>||^2 = cosh(r)^2 and ||a |xi>||^2 = sinh(r)^2.
    r = 0.4
    st = build_squeezed_product(1, r, 40)
    raised = apply_ladder(st.copy(), 0, "raise")
    assert raised.squared_norm() == pytest.approx(math.cosh(r) ** 2, abs=1e-10)
    lowered = apply_ladder(st.copy(), 0, "lower")
    assert lowered.squared_norm() == pytest.approx(math.sinh(r) ** 2, abs=1e-10)


# -------------------------------------------------------------- beamsplitter


def test_splitter_quarter_turn_routes_single_photon():
    st = TruncatedFockState(2, 2)
    st.amplitudes[:] = 0.0
    st.amplitudes[1, 0] = 1.0
    apply_beamsplitter(st, 0, 1, math.pi / 2.0)
    assert st.amplitude((0, 1)) == pytest.approx(-1.0, abs=1e-14)
    assert st.amplitude((1, 0)) == pytest.approx(0.0, abs=1e-14)


def test_splitter_half_turn_bunches_photon_pair():
    st = TruncatedFockState(2, 2)
    st.amplitudes[:] = 0.0
    st.amplitudes[1, 1] = 1.0
    apply_beamsplitter(st, 0, 1, math.pi / 4.0)
    root_half = 1.0 / math.sqrt(2.0)
    assert st.amplitude((2, 0)) == pytest.approx(root_half, abs=1e-12)
    assert st.amplitude((0, 2)) == pytest.approx(-root_half, abs=1e-12)
    assert st.amplitude((1, 1)) == pytest.approx(0.0, abs=1e-12)


def test_splitter_matches_dense_generator_oracle():
    d = 6
    rng = np.random.default_rng(314)
    amp = rng.standard_normal((d + 1, d + 1)) + 1j * rng.standard_normal((d + 1, d + 1))
    for p in range(d + 1):
        for q in range(d + 1):
            if p + q > d:  # keep every sector exactly representable
                amp[p, q] = 0.0
    amp /= np.linalg.norm(amp)
    theta = 0.7343
    st = TruncatedFockState(2, d, amp.copy())
    apply_beamsplitter(st, 0, 1, theta)
    a = _lowering_matrix(d)
    generator = theta * (np.kron(a.T, a) - np.kron(a, a.T))
    expected = expm(generator) @ amp.reshape(-1)
    assert np.max(np.abs(st.amplitudes.reshape(-1) - expected)) < 1e-12
    assert st.truncation_loss == 0.0


ROTATION_ANGLES = (-math.pi, -1.3, 0.3, math.pi / 4.0, math.pi / 2.0, 2.9)


def test_sector_rotation_matches_expm_oracle():
    for total in range(1, 65):
        generator = _sector_generator(total)
        for theta in ROTATION_ANGLES:
            expected = expm(theta * generator)
            assert np.max(np.abs(_sector_rotation(total, theta) - expected)) < 1e-12


def test_sector_rotation_is_orthogonal():
    for total in range(1, 65):
        for theta in ROTATION_ANGLES:
            r = _sector_rotation(total, theta)
            assert r.dtype == np.float64
            assert np.max(np.abs(r @ r.T - np.eye(total + 1))) < 1e-13


def test_sector_rotations_compose():
    for total in (1, 7, 30, 64):
        for a, b in ((0.3, -1.3), (math.pi / 4.0, 2.9), (-math.pi, math.pi / 2.0)):
            product = _sector_rotation(total, a) @ _sector_rotation(total, b)
            assert np.max(np.abs(product - _sector_rotation(total, a + b))) < 1e-12


def test_splitter_overflowing_cutoff_matches_sliced_expm_oracle():
    d = 20
    rng = np.random.default_rng(2718)
    amp = rng.standard_normal((d + 1, d + 1)) + 1j * rng.standard_normal((d + 1, d + 1))
    amp /= np.linalg.norm(amp)  # every sector populated, totals up to 2d
    theta = 1.1
    expected = np.zeros_like(amp)
    expected_loss = 0.0
    for total in range(2 * d + 1):
        ps = np.arange(max(0, total - d), min(d, total) + 1)
        routed = expm(theta * _sector_generator(total))[:, ps] @ amp[ps, total - ps]
        expected[ps, total - ps] = routed[ps]
        # the loss is the mass routed to occupations past the cutoff
        expected_loss += np.sum(np.abs(np.delete(routed, ps)) ** 2)
    st = TruncatedFockState(2, d, amp)
    apply_beamsplitter(st, 0, 1, theta)
    assert np.max(np.abs(st.amplitudes - expected)) < 1e-12
    assert expected_loss > 0.1
    assert st.truncation_loss == pytest.approx(expected_loss, abs=1e-14)


def test_splitter_conserves_photon_number_sectors():
    d = 5
    st = TruncatedFockState(2, d)
    st.amplitudes[:] = 0.0
    st.amplitudes[2, 1] = 1.0
    apply_beamsplitter(st, 0, 1, 0.3)
    for (p, q), value in np.ndenumerate(st.amplitudes):
        if p + q != 3:
            assert value == 0.0
    assert st.squared_norm() == pytest.approx(1.0, abs=1e-13)


def test_splitter_acts_on_named_pair_only():
    st = TruncatedFockState(3, 2)
    st.amplitudes[:] = 0.0
    st.amplitudes[0, 1, 0] = 1.0
    apply_beamsplitter(st, 1, 2, math.pi / 2.0)
    assert st.amplitude((0, 0, 1)) == pytest.approx(-1.0, abs=1e-14)


def test_splitter_truncation_loss_balances_norm():
    st = build_squeezed_product(2, 0.6, 8)
    start = st.squared_norm() + st.truncation_loss
    apply_beamsplitter(st, 0, 1, 0.9)
    assert st.squared_norm() + st.truncation_loss == pytest.approx(start, abs=1e-10)
    assert st.truncation_loss > 0.0


@settings(max_examples=40, deadline=None)
@given(m=strategies.integers(3, 4), d=strategies.integers(1, 6),
       order=strategies.permutations(range(4)), seed=strategies.integers(0, 10_000),
       theta=strategies.floats(-math.pi, math.pi))
def test_splitter_on_any_pair_is_the_front_pair_mixer_relabeled(m, d, order, seed, theta):
    # Any pair, in either order and not necessarily adjacent, is mixed in place
    # through a strided view; the reference moves the pair to the front of a
    # contiguous copy and mixes modes (0, 1) there.
    i, j = [k for k in order if k < m][:2]
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((d + 1,) * m) + 1j * rng.standard_normal((d + 1,) * m)
    state = TruncatedFockState(m, d, amps / np.linalg.norm(amps), truncation_loss=0.25)
    before = state.squared_norm() + state.truncation_loss
    reference = TruncatedFockState(m, d, np.moveaxis(state.amplitudes, (i, j), (0, 1)),
                                   truncation_loss=0.25)
    array = state.amplitudes
    apply_beamsplitter(state, i, j, theta)
    apply_beamsplitter(reference, 0, 1, theta)
    assert state.amplitudes is array
    assert abs(state.squared_norm() + state.truncation_loss - before) <= 1e-12
    expected = np.moveaxis(reference.amplitudes, (0, 1), (i, j))
    assert np.max(np.abs(state.amplitudes - expected)) <= 1e-14
    assert abs(state.truncation_loss - reference.truncation_loss) <= 1e-14


def test_splitter_validation():
    st = TruncatedFockState(2, 2)
    with pytest.raises(ValidationError):
        apply_beamsplitter(st, 0, 0, 0.5)
    with pytest.raises(ValidationError):
        apply_beamsplitter(st, 0, 2, 0.5)


# ------------------------------------------------------------ whole networks


@pytest.mark.parametrize("maker", [haar_unitary, haar_special_orthogonal])
def test_network_on_single_photon_reproduces_columns(maker):
    m = 4
    net = maker(m, 83)
    dec = reck_decompose(net)
    for j in range(m):
        st = TruncatedFockState(m, 1)
        st.amplitudes[:] = 0.0
        st.amplitudes[(0,) * j + (1,) + (0,) * (m - 1 - j)] = 1.0
        apply_network(st, dec)
        for i in range(m):
            idx = tuple(1 if k == i else 0 for k in range(m))
            assert st.amplitude(idx) == pytest.approx(net.entries[i, j], abs=1e-10)


def test_network_accepts_bare_element_lists():
    elements = [TwoModeElement(0, 1, 0.4), TwoModeElement(1, 2, 1.1)]
    from passv.networks import reconstruct

    net = reconstruct(elements, m=3)
    st = TruncatedFockState(3, 1)
    st.amplitudes[:] = 0.0
    st.amplitudes[1, 0, 0] = 1.0
    apply_network(st, elements)
    for i in range(3):
        idx = tuple(1 if k == i else 0 for k in range(3))
        assert st.amplitude(idx) == pytest.approx(net.entries[i, 0], abs=1e-12)


def test_network_dimension_mismatch():
    st = TruncatedFockState(2, 1)
    with pytest.raises(ValidationError):
        apply_network(st, [TwoModeElement(1, 2, 0.5)])


# ----------------------------------------------------------- prepared states


def test_squeezed_product_amplitudes_factorize():
    st = build_squeezed_product(2, 0.5, 10)
    vec, _ = squeezed_vacuum_vector(0.5, 10)
    assert st.amplitude((0, 0)) == pytest.approx(vec[0] ** 2, abs=1e-14)
    assert st.amplitude((2, 4)) == pytest.approx(vec[2] * vec[4], abs=1e-14)
    assert st.amplitude((1, 0)) == 0.0


def test_squeezed_product_loss_accounting():
    st = build_squeezed_product(3, 0.5, 6)
    assert st.squared_norm() + st.truncation_loss == pytest.approx(1.0, abs=1e-12)
    assert st.truncation_loss == pytest.approx(3.0 * TAIL_HALF_D6, rel=0.01)


def test_passv_input_at_zero_squeezing_is_fock_state():
    st = build_passv_input(2, 3, 0.0, ADDED, 2)
    expected = np.zeros((3, 3, 3), dtype=complex)
    expected[1, 1, 0] = 1.0
    np.testing.assert_allclose(st.amplitudes, expected, atol=1e-14)
    assert st.truncation_loss == 0.0


def test_passv_input_is_normalized():
    for variant in (ADDED, SUBTRACTED):
        st = build_passv_input(2, 3, 0.5, variant, 24)
        assert st.squared_norm() == pytest.approx(1.0, abs=1e-7)


def test_passv_added_parity_is_odd_on_modified_modes():
    st = build_passv_input(2, 3, 0.5, ADDED, 20)
    dist = parity_distribution(st)
    target = ParityPattern((-1, -1, 1))
    assert dist.probability(target) == pytest.approx(1.0, abs=1e-10)


def test_passv_subtracted_needs_light():
    with pytest.raises(ValidationError):
        build_passv_input(1, 2, 0.0, SUBTRACTED, 4)


def test_passv_input_validation():
    with pytest.raises(ValidationError):
        build_passv_input(0, 2, 0.5, ADDED, 10)
    with pytest.raises(ValidationError):
        build_passv_input(3, 2, 0.5, ADDED, 10)
    with pytest.raises(ValidationError):
        build_passv_input(1, 2, 0.5, "doubled", 10)


# ------------------------------------------------------------- measurements


def test_parity_distribution_covers_all_patterns():
    st = build_squeezed_product(2, 0.5, 8)
    dist = parity_distribution(st)
    assert len(dist) == 4
    assert dist.total() == pytest.approx(1.0, abs=1e-12)
    assert dist.keys[0] == ParityPattern((1, 1))


def test_parity_of_squeezed_vacuum_is_all_even():
    dist = parity_distribution(build_squeezed_product(2, 0.7, 16))
    assert dist.probability(ParityPattern((1, 1))) == pytest.approx(1.0, abs=1e-12)


def test_parity_rejects_zero_states():
    st = TruncatedFockState(1, 2)
    st.amplitudes[:] = 0.0
    with pytest.raises(ValidationError):
        parity_distribution(st)


def test_number_distribution_point_mass_at_zero_squeezing():
    st = build_passv_input(1, 2, 0.0, ADDED, 3)
    dist = number_distribution(st)
    assert dist.probability(ModeConfiguration((1, 0))) == pytest.approx(1.0)
    assert dist.total() == pytest.approx(1.0, abs=1e-12)


def test_number_distribution_added_one_mode():
    # Adding one photon to squeezed vacuum leaves P(2k+1) = (2k+1)|c_2k|^2 / cosh(r)^2.
    dist = number_distribution(build_passv_input(1, 1, 0.5, ADDED, 40))
    cosh2 = math.cosh(0.5) ** 2
    assert dist.probability(ModeConfiguration((1,))) == pytest.approx(
        C0_HALF**2 / cosh2, abs=1e-12
    )
    assert dist.probability(ModeConfiguration((3,))) == pytest.approx(
        3.0 * C2_HALF**2 / cosh2, abs=1e-12
    )
    assert dist.probability(ModeConfiguration((0,))) == 0.0


def test_overlap_of_prepared_states():
    vac = TruncatedFockState(1, 40)
    sq = build_squeezed_product(1, 0.5, 40)
    assert state_overlap(vac, sq) == pytest.approx(C0_HALF, abs=1e-12)
    assert state_overlap(sq, sq).real == pytest.approx(1.0, abs=1e-12)


def test_overlap_requires_matching_shapes():
    with pytest.raises(ValidationError):
        state_overlap(TruncatedFockState(1, 2), TruncatedFockState(1, 3))
    with pytest.raises(ValidationError):
        state_overlap(TruncatedFockState(1, 2), TruncatedFockState(2, 2))
