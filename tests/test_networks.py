"""Tests for transfer matrices, Haar sampling, factorization, and embedding."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies

from passv import errors, networks
from passv.errors import MEMORY_LIMIT, SizeLimitError, ValidationError
from passv.networks import (
    ORTHOGONAL,
    UNITARY,
    LinearNetwork,
    ReckDecomposition,
    TwoModeElement,
    embed_unitary_as_orthogonal,
    haar_special_orthogonal,
    haar_unitary,
    reck_decompose,
    reconstruct,
    scattering_submatrix,
)

SEEDS = [0, 1, 2, 17, 255]
HOM = np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0)


# ---------------------------------------------------------------- sampling


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", SEEDS)
def test_haar_unitary_is_unitary(m, seed):
    net = haar_unitary(m, seed)
    assert net.kind == UNITARY
    assert net.dimension == m
    assert net.unitarity_defect() < 1e-12


@pytest.mark.parametrize("m", [1, 2, 3, 5])
@pytest.mark.parametrize("seed", SEEDS)
def test_haar_rotation_is_special_orthogonal(m, seed):
    net = haar_special_orthogonal(m, seed)
    assert net.kind == ORTHOGONAL
    assert net.entries.dtype == np.float64
    assert net.unitarity_defect() < 1e-12
    assert np.linalg.det(net.entries) == pytest.approx(1.0, abs=1e-12)


def test_haar_sampling_is_deterministic():
    a = haar_unitary(4, 123).entries
    b = haar_unitary(4, 123).entries
    assert np.array_equal(a, b)
    c = haar_unitary(4, 124).entries
    assert not np.array_equal(a, c)


def test_full_orthogonal_group_hits_both_det_signs():
    dets = {
        round(np.linalg.det(haar_special_orthogonal(3, s, special=False).entries))
        for s in range(20)
    }
    assert dets == {-1, 1}


def test_haar_seed_validation():
    with pytest.raises(ValidationError):
        haar_unitary(3, -1)
    with pytest.raises(ValidationError):
        haar_special_orthogonal(3, None)
    with pytest.raises(ValidationError):
        haar_unitary(0, 5)


@pytest.mark.parametrize("draw, arrays, itemsize", [
    (haar_unitary, 8, 16), (haar_special_orthogonal, 7, 8),
], ids=["unitary", "orthogonal"])
def test_haar_draw_counts_its_arrays_and_is_refused_over_the_limit(monkeypatch, draw, arrays,
                                                                  itemsize):
    # The traced peak, a few m-long vectors aside, is every counted array but
    # the QR step's working copy, which numpy allocates out of tracemalloc's
    # sight. A first, small draw loads what numpy loads on first use.
    m = 400
    draw(2, 1)
    tracemalloc.start()
    try:
        draw(m, 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (arrays - 1) * itemsize * m * m <= peak <= 1.01 * (arrays - 1) * itemsize * m * m

    def unreachable(*args, **kwargs):
        raise AssertionError("drawn past the guard")

    monkeypatch.setattr(errors, "MEMORY_LIMIT", arrays * itemsize * m * m)
    assert draw(m, 1).dimension == m
    monkeypatch.setattr(networks.np.random, "default_rng", unreachable)
    with pytest.raises(SizeLimitError):
        draw(m + 1, 1)
    # The state guard's budget; a 50,000-mode draw would need hundreds of GB.
    monkeypatch.setattr(errors, "MEMORY_LIMIT", MEMORY_LIMIT)
    with pytest.raises(SizeLimitError, match=f"over the {MEMORY_LIMIT} byte limit"):
        draw(50_000, 1)


def test_haar_first_entry_second_moment():
    # E |M[0,0]|^2 = 1/m for Haar; 2000 draws at m=4 keeps the sample mean
    # within three standard errors (~0.013) of 0.25.
    vals = [abs(haar_unitary(4, s).entries[0, 0]) ** 2 for s in range(2000)]
    assert abs(float(np.mean(vals)) - 0.25) < 0.013


# ---------------------------------------------------------------- validation


def test_network_rejects_non_unitary():
    with pytest.raises(ValidationError):
        LinearNetwork(np.array([[1.0, 0.0], [0.0, 2.0]]), UNITARY)


def test_network_rejects_complex_entries_for_orthogonal_kind():
    with pytest.raises(ValidationError):
        LinearNetwork(haar_unitary(3, 3).entries, ORTHOGONAL)


def test_network_rejects_reflection_unless_allowed():
    reflection = np.diag([1.0, -1.0])
    with pytest.raises(ValidationError):
        LinearNetwork(reflection, ORTHOGONAL)
    net = LinearNetwork(reflection, ORTHOGONAL, allow_reflection=True)
    assert net.kind == ORTHOGONAL


def test_network_rejects_bad_shapes_and_values():
    with pytest.raises(ValidationError):
        LinearNetwork(np.ones((2, 3)), UNITARY)
    with pytest.raises(ValidationError):
        LinearNetwork(np.array([[np.inf]]), UNITARY)
    with pytest.raises(ValidationError):
        LinearNetwork(np.eye(2), "hermitian")


def test_network_entries_are_read_only():
    net = haar_unitary(3, 9)
    with pytest.raises(ValueError):
        net.entries[0, 0] = 0.0


@pytest.mark.parametrize("maker", [haar_unitary, haar_special_orthogonal])
def test_network_json_round_trip(maker):
    net = maker(4, 77)
    data = net.to_json_dict()
    if net.kind == ORTHOGONAL:
        assert "im" not in data
    back = LinearNetwork.from_json_dict(data)
    assert back.kind == net.kind
    np.testing.assert_allclose(back.entries, net.entries, atol=1e-15)


def test_network_json_malformed():
    eye = [[1.0, 0.0], [0.0, 1.0]]
    for record in (
        {"kind": UNITARY, "re": [[1.0]]},
        {"m": 2, "kind": UNITARY, "re": [[1.0]]},
        {"m": 2, "kind": UNITARY, "re": eye, "im": "x"},
        {"m": 2, "kind": UNITARY, "re": eye, "im": [[0.0, 0.0], [0.0]]},
        {"m": 2, "kind": UNITARY, "re": eye, "im": [[0.0, "x"], [0.0, 0.0]]},
        {"m": 2, "kind": UNITARY, "re": eye, "im": [[0.0]]},
    ):
        with pytest.raises(ValidationError):
            LinearNetwork.from_json_dict(record)


# ---------------------------------------------------------------- elements


def test_element_block_quarter_turn():
    el = TwoModeElement(0, 1, math.pi / 2.0)
    np.testing.assert_allclose(el.block(), [[0.0, 1.0], [-1.0, 0.0]], atol=1e-15)


def test_element_block_with_phase():
    el = TwoModeElement(0, 1, 0.0, math.pi)
    np.testing.assert_allclose(el.block(), [[-1.0, 0.0], [0.0, 1.0]], atol=1e-15)
    assert not el.is_real
    assert TwoModeElement(0, 1, 0.3).is_real


def test_element_embedded_placement():
    el = TwoModeElement(1, 2, 0.7)
    full = el.embedded(4)
    c, s = math.cos(0.7), math.sin(0.7)
    expected = np.eye(4, dtype=complex)
    expected[1:3, 1:3] = [[c, s], [-s, c]]
    np.testing.assert_allclose(full, expected, atol=1e-15)


def test_element_validation():
    with pytest.raises(ValidationError):
        TwoModeElement(2, 1, 0.5)
    with pytest.raises(ValidationError):
        TwoModeElement(-1, 0, 0.5)
    with pytest.raises(ValidationError):
        TwoModeElement(0, 3, 0.5).embedded(3)


def test_element_json_round_trip():
    el = TwoModeElement(0, 2, 0.4, -1.1)
    assert TwoModeElement.from_json_dict(el.to_json_dict()) == el
    assert TwoModeElement.from_json_dict({"i": 0, "j": 1, "theta": 0.2}).phi == 0.0
    with pytest.raises(ValidationError):
        TwoModeElement.from_json_dict({"i": 0, "theta": 0.2})


# ---------------------------------------------------------------- decompose


def _decomposition(elements, m):
    return ReckDecomposition(tuple(elements), np.ones(m, dtype=np.complex128))


def test_reconstruct_uses_list_order_as_factor_order():
    ea = TwoModeElement(0, 1, 0.3)
    eb = TwoModeElement(1, 2, 0.9)
    residual = np.array([1.0, -1.0, 1.0], dtype=np.complex128)
    net = reconstruct(ReckDecomposition((ea, eb), residual))
    expected = ea.embedded(3) @ eb.embedded(3) @ np.diag(residual)
    np.testing.assert_allclose(net.entries, expected.real, atol=1e-14)
    # Phased elements on non-adjacent pairs, in six modes, with a phase residual.
    elements = (TwoModeElement(2, 5, 0.4, 1.3), TwoModeElement(0, 4, -1.1, -0.6),
                TwoModeElement(1, 2, 0.8), TwoModeElement(3, 5, 2.2, 0.9))
    residual = np.exp(1j * np.linspace(0.0, 2.5, 6))
    net = reconstruct(ReckDecomposition(elements, residual))
    expected = np.diag(residual)
    for el in reversed(elements):
        expected = el.embedded(6) @ expected
    assert net.kind == UNITARY
    np.testing.assert_allclose(net.entries, expected, atol=1e-14)


def test_reconstruct_refuses_an_element_outside_the_modes():
    with pytest.raises(ValidationError, match="exceeds m=3"):
        reconstruct(_decomposition([TwoModeElement(1, 3, 0.5)], 3))


def test_reconstruct_empty_is_identity():
    net = reconstruct(_decomposition([], 3))
    np.testing.assert_allclose(net.entries, np.eye(3), atol=1e-15)
    assert net.kind == ORTHOGONAL


def test_reconstruct_refuses_bare_element_lists():
    for network in ([TwoModeElement(0, 1, 0.5)], (), haar_special_orthogonal(2, 1)):
        with pytest.raises(ValidationError, match="ReckDecomposition"):
            reconstruct(network)


def test_reconstruct_kind_follows_entries():
    assert reconstruct(_decomposition([TwoModeElement(0, 1, 0.5)], 2)).kind == ORTHOGONAL
    assert reconstruct(_decomposition([TwoModeElement(0, 1, 0.5, 0.25)], 2)).kind == UNITARY


def test_decompose_two_by_two_rotation():
    theta = 0.37
    net = LinearNetwork(TwoModeElement(0, 1, theta).embedded(2).real, ORTHOGONAL)
    dec = reck_decompose(net)
    assert len(dec.elements) == 1
    assert dec.elements[0].theta == pytest.approx(theta, abs=1e-12)
    assert dec.is_real
    np.testing.assert_allclose(dec.residual, np.ones(2), atol=1e-12)


def test_decompose_identity_needs_no_elements():
    dec = reck_decompose(LinearNetwork(np.eye(4), ORTHOGONAL))
    assert dec.elements == ()
    np.testing.assert_allclose(dec.residual, np.ones(4), atol=1e-15)


@pytest.mark.parametrize("m", [2, 3, 4, 6, 8])
@pytest.mark.parametrize("maker", [haar_unitary, haar_special_orthogonal])
def test_decompose_round_trip(m, maker):
    net = maker(m, 31 + m)
    dec = reck_decompose(net)
    assert len(dec.elements) <= m * (m - 1) // 2
    rebuilt = reconstruct(dec)
    assert rebuilt.kind == net.kind
    assert np.max(np.abs(rebuilt.entries - net.entries)) < 1e-9


def test_decompose_orthogonal_gives_identity_residual():
    # Network 7 at m = 4 eliminates to 1 + 4.4e-16 on its second mode before
    # the residual is snapped to its sign.
    for m, seed in ((5, 42), (4, 7)):
        dec = reck_decompose(haar_special_orthogonal(m, seed))
        assert dec.is_real
        np.testing.assert_array_equal(dec.residual, np.ones(m))
        assert all(el.phi == 0.0 for el in dec.elements)


ROUND_TRIP_MAKERS = {
    "special-orthogonal": haar_special_orthogonal,
    "orthogonal": lambda m, seed: haar_special_orthogonal(m, seed, special=False),
    "unitary": haar_unitary,
}


@settings(max_examples=60, deadline=None)
@given(m=strategies.integers(1, 8), seed=strategies.integers(0, 2**32 - 1),
       kind=strategies.sampled_from(sorted(ROUND_TRIP_MAKERS)))
def test_decompose_reconstruct_round_trip(m, seed, kind):
    net = ROUND_TRIP_MAKERS[kind](m, seed)
    dec = reck_decompose(net)
    assert len(dec.elements) <= m * (m - 1) // 2
    rebuilt = reconstruct(dec)
    assert rebuilt.kind == net.kind
    assert np.max(np.abs(rebuilt.entries - net.entries)) <= 1e-14
    if net.kind == ORTHOGONAL:
        # Exactly +-1: every elimination step leaves a positive pivot, so only
        # the last entry can be -1, the determinant's sign.
        det_sign = float(np.sign(np.linalg.det(net.entries)))
        assert dec.residual.tolist() == [1.0] * (m - 1) + [det_sign]


def test_decompose_unitary_residual_has_unit_phases():
    dec = reck_decompose(haar_unitary(5, 42))
    np.testing.assert_allclose(np.abs(dec.residual), np.ones(5), atol=1e-10)


def test_decompose_elements_pair_adjacent_modes():
    dec = reck_decompose(haar_unitary(6, 8))
    assert all(el.j == el.i + 1 for el in dec.elements)


def test_decompose_rejects_raw_arrays():
    with pytest.raises(ValidationError):
        reck_decompose(np.eye(3))


def test_decomposition_json_dict_shape():
    dec = reck_decompose(haar_unitary(3, 5))
    data = dec.to_json_dict()
    assert data["m"] == 3
    assert len(data["residual_re"]) == 3
    assert len(data["elements"]) == len(dec.elements)
    rebuilt_elements = [TwoModeElement.from_json_dict(e) for e in data["elements"]]
    residual = np.asarray(data["residual_re"]) + 1j * np.asarray(data["residual_im"])
    rebuilt = reconstruct(ReckDecomposition(tuple(rebuilt_elements), residual))
    np.testing.assert_allclose(rebuilt.entries, haar_unitary(3, 5).entries, atol=1e-9)


# ---------------------------------------------------------------- embedding


def test_embed_scalar_phase():
    net = embed_unitary_as_orthogonal(np.array([[1j]]))
    np.testing.assert_allclose(net.entries, [[0.0, -1.0], [1.0, 0.0]], atol=1e-15)


def test_embed_identity():
    net = embed_unitary_as_orthogonal(np.eye(3, dtype=complex))
    np.testing.assert_allclose(net.entries, np.eye(6), atol=1e-15)


@pytest.mark.parametrize("m", [1, 2, 4])
def test_embed_output_is_rotation(m):
    net = embed_unitary_as_orthogonal(haar_unitary(m, 60 + m))
    assert net.kind == ORTHOGONAL
    assert net.dimension == 2 * m
    assert net.unitarity_defect() < 1e-12
    assert np.linalg.det(net.entries) == pytest.approx(1.0, abs=1e-9)


def test_embed_counts_its_doubled_arrays_before_building_them(monkeypatch):
    # Five real 2m x 2m arrays: the traced peak, with the m x m complex input
    # held beside it, stays within them.
    m = 200
    u = haar_unitary(m, 3)
    embed_unitary_as_orthogonal(haar_unitary(2, 3))  # loads what a first call loads
    tracemalloc.start()
    try:
        embed_unitary_as_orthogonal(u)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    counted = 5 * 8 * (2 * m) ** 2
    assert peak + u.entries.nbytes <= counted
    monkeypatch.setattr(errors, "MEMORY_LIMIT", counted)
    assert embed_unitary_as_orthogonal(u).dimension == 2 * m
    with pytest.raises(SizeLimitError):
        embed_unitary_as_orthogonal(np.eye(m + 1, dtype=np.complex128))


def test_embed_is_refused_at_the_first_m_over_the_limit():
    # 160 bytes per m^2 admit m = 1,581 under the 400 MB limit; at 1,582 not
    # one array of m^2 bytes is made.
    m = 1_582
    assert 160 * (m - 1) ** 2 <= MEMORY_LIMIT < 160 * m ** 2
    identity = np.eye(m, dtype=np.complex128)
    tracemalloc.start()
    try:
        with pytest.raises(SizeLimitError, match=f"over the {MEMORY_LIMIT} byte limit"):
            embed_unitary_as_orthogonal(identity)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < m * m


def test_embed_is_a_homomorphism():
    u = haar_unitary(3, 11).entries
    v = haar_unitary(3, 12).entries
    lhs = embed_unitary_as_orthogonal(u @ v).entries
    rhs = embed_unitary_as_orthogonal(u).entries @ embed_unitary_as_orthogonal(v).entries
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_embed_respects_adjoint():
    u = haar_unitary(4, 13).entries
    lhs = embed_unitary_as_orthogonal(u.conj().T).entries
    rhs = embed_unitary_as_orthogonal(u).entries.T
    assert np.max(np.abs(lhs - rhs)) < 1e-14


def test_embed_rejects_non_unitary():
    with pytest.raises(ValidationError):
        embed_unitary_as_orthogonal(np.array([[1.0, 0.0], [0.0, 2.0]]))
    with pytest.raises(ValidationError):
        embed_unitary_as_orthogonal(np.ones((2, 3)))


# ---------------------------------------------------------------- submatrix


def test_submatrix_rows_follow_output_columns_follow_input():
    net = LinearNetwork(HOM, ORTHOGONAL, allow_reflection=True)
    sub = scattering_submatrix(net, (1, 1), (2, 0))
    np.testing.assert_allclose(sub, np.full((2, 2), 1.0 / math.sqrt(2.0)), atol=1e-15)
    sub = scattering_submatrix(net, (1, 1), (1, 1))
    np.testing.assert_allclose(sub, HOM, atol=1e-15)
    sub = scattering_submatrix(net, (2, 0), (1, 1))
    np.testing.assert_allclose(sub, np.full((2, 2), 1.0 / math.sqrt(2.0)), atol=1e-15)


def test_submatrix_entry_rule():
    net = haar_unitary(4, 90)
    s_in = (2, 0, 1, 0)
    s_out = (0, 1, 0, 2)
    sub = scattering_submatrix(net, s_in, s_out)
    rows = [1, 3, 3]
    cols = [0, 0, 2]
    for k, r in enumerate(rows):
        for l, c in enumerate(cols):
            assert sub[k, l] == net.entries[r, c]


def test_submatrix_validation():
    net = haar_unitary(3, 91)
    with pytest.raises(ValidationError):
        scattering_submatrix(net, (1, 0, 0), (1, 1, 0))
    with pytest.raises(ValidationError):
        scattering_submatrix(net, (1, 0), (0, 1, 0))
