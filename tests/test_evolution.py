"""Tests for truncated Fock-state evolution.

The beamsplitter is cross-checked against an independent oracle: the matrix
exponential of the full two-mode generator built from dense Kronecker
products of ladder matrices. States keep every occupation tuple up to a total
photon number, so no mixer sector ever crosses the cutoff and that oracle is
exact. Mixing in pair-sorted order is checked bit for bit against a kept copy
of the mixer it replaced, which gathers each sector's block out of canonical
order and scatters it back. The sector rotations, which a network builds
from the eigenbases held with its layout, are checked against scipy's
``expm`` of each sector generator, and the closed-form eigenbases against
numpy's ``eigh``. Cutoffs and truncation losses, 1 - ||psi||^2 of the
prepared input, are checked against the tail of the input's total photon
number, from its closed-form negative-binomial distribution.
"""

import functools
import itertools
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies
from scipy.linalg import expm

try:
    from numpy.exceptions import ComplexWarning
except ImportError:  # numpy < 1.25
    from numpy import ComplexWarning

from passv import distributions, errors, evolution
from passv.configurations import ModeConfiguration, ParityPattern
from passv.errors import SizeLimitError, ValidationError
from passv.evolution import (
    ADDED,
    SUBTRACTED,
    Squeezing,
    TruncatedFockState,
    apply_beamsplitter,
    apply_network,
    as_squeezing,
    build_passv_input,
    mode_ladder,
    number_distribution,
    parity_distribution,
    parity_sectors,
    required_cutoff,
    sector_weights,
    squeezed_vacuum_vector,
    state_overlap,
    _index_tables,
    _sector_rotations,
)
from passv.networks import (
    ORTHOGONAL,
    LinearNetwork,
    ReckDecomposition,
    TwoModeElement,
    haar_special_orthogonal,
    haar_unitary,
    reck_decompose,
)

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


def _fock(modes_occupations, cutoff: int) -> TruncatedFockState:
    """The Fock state with the given occupations, as a product of unit mode vectors."""
    return TruncatedFockState.from_product(
        [np.eye(cutoff + 1)[k] for k in modes_occupations]
    )


def _squeezed(modes: int, xi, cutoff: int) -> TruncatedFockState:
    """Identically squeezed vacuum in every mode, up to total ``cutoff``."""
    return TruncatedFockState.from_product([squeezed_vacuum_vector(xi, cutoff)[0]] * modes)


def _input_tail(total_photons, modes, r, cutoff) -> float:
    """Mass of the prepared input above total ``cutoff``, in closed form.

    Both variants put (2k+1) C(2k, k) (t/2)^(2k) (1 - t^2)^(3/2) on 2k + 1
    photons of a laddered mode and a squeezed vacuum C(2k, k) (t/2)^(2k)
    (1 - t^2)^(1/2) on 2k, t = tanh r, so the total is n + 2k with k
    negative binomial: P(k) = C(k + a - 1, k) (1 - t^2)^a t^(2k) with
    a = m/2 + n, evaluated here through log-gamma. The tail is the sum of the
    terms above the cutoff, which keeps its precision where 1 minus the kept
    terms would not.
    """
    t2 = math.tanh(r) ** 2
    first = max(0, (cutoff - total_photons) // 2 + 1)
    if t2 == 0.0:
        return 1.0 if first == 0 else 0.0
    a = modes / 2.0 + total_photons
    return math.fsum(
        math.exp(math.lgamma(k + a) - math.lgamma(a) - math.lgamma(k + 1)
                 + a * math.log1p(-t2) + k * math.log(t2))
        for k in range(first, first + 2000)
    )


# ---------------------------------------------------------------- squeezing


def test_squeezing_validation():
    assert Squeezing(0.0).xi == 0.0
    assert Squeezing(0.5).theta == 0.0
    with pytest.raises(ValidationError):
        Squeezing(-0.1)
    with pytest.raises(ValidationError):
        Squeezing(float("nan"))
    # cosh r is finite up to asinh(max float), about 710.48, and overflows past it.
    largest = math.asinh(sys.float_info.max)
    assert math.isfinite(math.cosh(Squeezing(largest).r))
    with pytest.raises(ValidationError):
        Squeezing(math.nextafter(largest, math.inf))
    for refused in (lambda: Squeezing(711.0), lambda: as_squeezing(711.0j),
                    lambda: build_passv_input(1, 2, 800.0, ADDED, 4),
                    lambda: required_cutoff(800.0),
                    lambda: squeezed_vacuum_vector(711.0, 4)):
        with pytest.raises(ValidationError, match="overflows"):
            refused()


@pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
def test_a_non_finite_squeezing_phase_is_refused(theta):
    # A NaN phase once gave NaN amplitudes with a tail of 0.0 and a PASSV
    # input of NaN norm, which passed the vanished-state check; an infinite
    # one raised a bare ValueError from math.cos.
    for refused in (lambda: Squeezing(0.5, theta),
                    lambda: squeezed_vacuum_vector(Squeezing(0.5, theta), 4),
                    lambda: build_passv_input(1, 2, Squeezing(0.5, theta), ADDED, 4)):
        with pytest.raises(ValidationError, match="phase must be finite"):
            refused()


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


def test_squeezed_vector_tail_is_summed_from_the_terms_above():
    # |c_2k|^2 = C(2k, k) (t/2)^(2k) / cosh r, summed above the cutoff through
    # log-gamma. 1 minus the kept mass cannot resolve these: it gives 0.0 at
    # D = 50 and 1.110e-15 at D = 40.
    r = 0.5
    t2 = math.tanh(r) ** 2
    for d, expected in ((50, 4.56e-19), (40, 1.140e-15)):
        exact = math.fsum(
            math.exp(math.lgamma(2 * k + 1) - 2 * math.lgamma(k + 1) + k * math.log(t2 / 4.0))
            / math.cosh(r) for k in range(d // 2 + 1, d // 2 + 400))
        _, tail = squeezed_vacuum_vector(r, d)
        assert exact == pytest.approx(expected, rel=2e-3)
        assert tail == pytest.approx(exact, rel=1e-12)


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
    # The n ladder photons are headroom: without squeezing the input is the
    # n-photon Fock state, total n.
    assert required_cutoff(0.0, modes=3, photons=3) == 3
    assert required_cutoff(0.5, 1e-8, modes=1, photons=0) == required_cutoff(0.5, 1e-8)
    with pytest.raises(ValidationError):
        required_cutoff(0.5, 0.0)
    with pytest.raises(ValidationError):
        required_cutoff(0.5, -1e-3)
    for non_finite in (float("nan"), float("inf")):
        with pytest.raises(ValidationError, match="finite"):
            required_cutoff(0.5, non_finite)
    with pytest.raises(ValidationError):
        required_cutoff(0.5, 1e-8, modes=0)
    with pytest.raises(ValidationError):
        required_cutoff(0.5, 1e-8, photons=-1)


@pytest.mark.parametrize("n, m, r, variant", [
    (1, 1, 0.5, ADDED), (2, 3, 0.4, ADDED), (2, 4, 0.6, ADDED), (3, 4, 0.8, ADDED),
    (1, 1, 0.3, SUBTRACTED), (1, 2, 0.3, SUBTRACTED), (2, 3, 0.5, SUBTRACTED),
    (3, 5, 0.3, SUBTRACTED),
])
def test_required_cutoff_is_the_smallest_total_whose_input_tail_fits(n, m, r, variant):
    budget = m * 1e-8
    d = required_cutoff(r, budget, modes=m, photons=n)
    assert d % 2 == n % 2  # every input total has the parity of n
    tail = _input_tail(n, m, r, d)
    assert tail <= budget < _input_tail(n, m, r, d - 2)
    # The prepared state falls short of norm 1 by exactly that tail.
    state = build_passv_input(n, m, r, variant, d)
    assert 1.0 - state.squared_norm() == pytest.approx(tail, abs=1e-14)


@pytest.mark.parametrize("epsilon", [1e-15, 1e-16, 1e-17])
def test_required_cutoff_sums_the_tail_from_the_terms_above(epsilon):
    # 1 minus the kept mass cannot resolve a tail under about 1e-16: taken
    # that way, all three budgets gave cutoff 56, whose tail is 3.8e-16.
    n, m, r = 2, 4, 0.5
    d = required_cutoff(r, epsilon, modes=m, photons=n)
    assert _input_tail(n, m, r, d) <= epsilon < _input_tail(n, m, r, d - 2)
    weights, tail = sector_weights(r, epsilon, modes=m, photons=n)
    assert d == n + 2 * (len(weights) - 1)
    assert tail == pytest.approx(_input_tail(n, m, r, d), rel=1e-12)


def test_sector_weights_bisects_for_the_tail_that_fits(monkeypatch):
    # K = 2,522 at r = 3.0, with terms made well past it: a scan that summed
    # the suffix above every j up to K took 2,526 sums over 13.2 million terms.
    sums = []
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda values: sums.append(len(values)) or fsum(values))
    weights, tail = sector_weights(3.0, 4e-8, modes=4, photons=2)
    assert len(weights) - 1 == 2_522 and tail <= 4e-8
    assert len(sums) <= 20 and sum(sums) <= 100_000


def test_sector_weights_are_the_negative_binomial_and_its_tail():
    for n, m, r in ((1, 1, 0.5), (2, 4, 0.6), (3, 5, 1.0)):
        weights, tail = sector_weights(r, 1e-8 * m, modes=m, photons=n)
        t2, a = math.tanh(r) ** 2, m / 2.0 + n
        expected = [math.exp(math.lgamma(k + a) - math.lgamma(a) - math.lgamma(k + 1))
                    * (1.0 - t2) ** a * t2 ** k for k in range(len(weights))]
        np.testing.assert_allclose(weights, expected, rtol=1e-12, atol=0.0)
        assert math.fsum(weights) + tail == pytest.approx(1.0, abs=1e-15)
    weights, tail = sector_weights(0.0, 1e-8, modes=3, photons=2)
    assert weights.tolist() == [1.0] and tail == 0.0
    # Kept from the recurrence: a distribution too wide for 100,000 terms,
    # or one whose first term underflows, is refused rather than cut short.
    for r, modes in ((12.0, 1), (18.0, 100)):
        with pytest.raises(SizeLimitError, match="does not reach"):
            required_cutoff(r, 1e-8, modes=modes)


@pytest.mark.parametrize("theta", [0.0, 0.7])
def test_passv_input_weights_each_total_by_the_closed_form(theta):
    # Both variants put w_k(r) on total n + 2k and nothing on any other, for
    # any squeezing phase, and the subtracted input is the added one times
    # (-exp(i theta))^n, amplitude by amplitude.
    n, m, r = 2, 3, 0.6
    weights, _ = sector_weights(r, 1e-8, modes=m, photons=n)
    d = n + 2 * (len(weights) - 1)
    totals = _index_tables(m, d, n % 2)[0].sum(axis=0, dtype=np.intp)
    states = {}
    for variant in (ADDED, SUBTRACTED):
        states[variant] = build_passv_input(n, m, Squeezing(r, theta), variant, d)
        mass = np.bincount(totals, weights=np.abs(states[variant].amplitudes) ** 2,
                           minlength=d + 1)
        assert np.max(np.abs(mass[n::2] - weights)) <= 1e-14
        assert not np.any(mass[:n]) and not np.any(mass[n + 1::2])
    phase = (-complex(math.cos(theta), math.sin(theta))) ** n
    difference = states[SUBTRACTED].amplitudes - phase * states[ADDED].amplitudes
    assert np.max(np.abs(difference)) <= 1e-15


# ----------------------------------------------------------------- the state


def test_default_state_is_vacuum():
    st = TruncatedFockState(2, 3)
    assert st.amplitude((0, 0)) == 1.0
    assert st.squared_norm() == pytest.approx(1.0)


def test_state_shape_validation():
    with pytest.raises(ValidationError):
        TruncatedFockState(2, 2, np.zeros((3, 4), dtype=complex))
    with pytest.raises(ValidationError):
        TruncatedFockState(0, 2)
    with pytest.raises(ValidationError):
        TruncatedFockState(2, -1)


def test_state_size_guard():
    # C(125, 5) = 2.3e8 amplitudes over 5 modes, 18 GB with the index tables.
    with pytest.raises(SizeLimitError, match="reduce the squeezing or raise epsilon_tail"):
        TruncatedFockState(5, 120)


def test_product_size_guard_fires_before_allocation(monkeypatch):
    monkeypatch.setattr(errors, "MEMORY_LIMIT", 1_000_000)
    vectors = [np.ones(101)] * 3  # C(103, 3) amplitudes, 8.3 MB with the index tables
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
        st.amplitudes[0] = 7.0  # the vacuum
        assert all(v.tolist() == [1.0, 0.5, 0.25] for v in vectors)
        vectors[0][1] = -3.0
        assert st.amplitude((1,) + (0,) * (modes - 1)) == 0.5


def test_passv_input_preparation_holds_one_state():
    # The 153,171 amplitudes of even total up to 120, 2.5 MB at 16 bytes: the
    # ladders act on mode vectors and the product is formed a block at a time
    # into the state's own array. The occupation table is the held layout's,
    # so it is built first.
    state_bytes = _index_tables(3, 120, 0)[0].shape[1] * 16
    tracemalloc.start()
    try:
        build_passv_input(2, 3, 0.5, ADDED, 120)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * state_bytes


def test_state_copy_is_independent():
    st = TruncatedFockState(1, 2)
    clone = st.copy()
    st.amplitudes[:] = mode_ladder(st.amplitudes, "raise")
    assert clone.amplitude((0,)) == 1.0
    assert st.amplitude((0,)) == 0.0


def test_occupation_table_is_lexicographic_and_looked_up():
    for m, d in ((1, 4), (2, 3), (3, 5), (4, 2)):
        occupations = _index_tables(m, d)[0]
        columns = [tuple(c) for c in occupations.T.tolist()]
        expected = [t for t in itertools.product(range(d + 1), repeat=m) if sum(t) <= d]
        assert columns == expected  # itertools.product is lexicographic
        st = TruncatedFockState(m, d, np.arange(len(expected)))
        assert [st.amplitude(t) for t in expected] == list(range(len(expected)))
        assert st.amplitude((d + 1,) + (0,) * (m - 1)) == 0.0  # past the cutoff


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_a_reck_network_holds_2m_minus_3_moves_of_the_counted_bytes(monkeypatch, m):
    # A Reck network makes 2m - 3 moves, counting the gather from canonical
    # order, which also scatters the state back; a longer walk over other
    # pairs holds no more. The size guard counts exactly their bytes.
    d = 6
    st = _squeezed(m, 0.5, d)
    apply_network(st, reck_decompose(haar_special_orthogonal(m, 3)))
    occupations, _, moves = _index_tables(m, d, st.parity)
    assert st.parity == 0 and evolution._slot.key == (m, d, 0)
    assert len(moves) == 2 * m - 3
    assert all(move.dtype == np.int32 and move.shape == occupations.shape[1:]
               for move, _ in moves.values())
    held = sum(move.nbytes for move, _ in moves.values())
    for i, j in itertools.permutations(range(m), 2):
        apply_beamsplitter(st, i, j, 0.3)
    assert 1 <= len(moves) <= 2 * m - 3
    counted = evolution._state_bytes(m, d, 0)
    monkeypatch.setattr(evolution, "_held_moves", lambda modes: 0)
    assert counted - evolution._state_bytes(m, d, 0) == held
    assert held == 4 * (2 * m - 3) * len(st.amplitudes)


def test_a_walk_past_the_held_moves_keeps_them_and_builds_only_the_rest(monkeypatch):
    # Zeroing entry (3, 0) skips the first elimination step, so the network
    # ends on pair (1, 2) and needs 2m - 2 = 6 moves, one more than are held.
    # Dropping the oldest move for the newest once rebuilt all six on every
    # application.
    entries = haar_special_orthogonal(4, 5).entries.copy()
    c, s = entries[2:, 0] / math.hypot(*entries[2:, 0])
    entries[2:] = np.array([[c, s], [-s, c]]) @ entries[2:]
    entries[3, 0] = 0.0
    decomposition = reck_decompose(LinearNetwork(entries, ORTHOGONAL))
    assert len(decomposition.elements) == 5 and decomposition.elements[0].j == 2
    built = []
    move = evolution._move
    monkeypatch.setattr(evolution, "_move", lambda *args: built.append(args[2]) or move(*args))
    state = build_passv_input(2, 4, 0.3, ADDED, 12)
    first = apply_network(state.copy(), decomposition)
    assert len(built) == 6 and len(_index_tables(4, 12, 0)[2]) == 5
    del built[:]
    again = apply_network(state.copy(), decomposition)
    assert built == [(None, (1, 2))]
    np.testing.assert_array_equal(again.amplitudes, first.amplitudes)


# ------------------------------------------------------------------- ladders


def test_raise_on_vacuum_gives_one_photon():
    vacuum = np.eye(4)[0]
    st = TruncatedFockState.from_product([vacuum, mode_ladder(vacuum, "raise")])
    assert st.amplitude((0, 1)) == 1.0
    assert st.squared_norm() == pytest.approx(1.0)


def test_ladder_matrix_elements():
    d = 6
    three = np.eye(d + 1)[3]
    raised = mode_ladder(three, "raise")
    assert raised[4] == pytest.approx(math.sqrt(4.0))
    assert np.count_nonzero(raised) == 1
    lowered = mode_ladder(three, "lower")
    assert lowered[2] == pytest.approx(math.sqrt(3.0))
    assert np.count_nonzero(lowered) == 1
    assert three[3] == 1.0  # the input vector is left alone


def test_lower_on_vacuum_is_zero_state():
    assert not np.any(mode_ladder(np.eye(4)[0], "lower"))


def test_raise_at_cutoff_records_loss():
    d = 3
    # The top occupation has no level to go to.
    assert not np.any(mode_ladder(np.eye(d + 1)[d], "raise"))
    # In a prepared input that mass is the loss: one added photon on squeezed
    # vacuum keeps 1 and 3 photons below d = 3, with weights
    # (2k+1)|c_2k|^2 / cosh(r)^2.
    st = build_passv_input(1, 1, 0.5, ADDED, d)
    kept = (C0_HALF**2 + 3.0 * C2_HALF**2) / math.cosh(0.5) ** 2
    assert 1.0 - st.squared_norm() == pytest.approx(1.0 - kept, abs=1e-14)


def test_ladder_validation():
    with pytest.raises(ValidationError):
        mode_ladder(np.eye(3)[0], "up")


def test_ladder_norms_on_squeezed_vacuum():
    # ||a_dag |xi>||^2 = cosh(r)^2 and ||a |xi>||^2 = sinh(r)^2.
    r = 0.4
    vec, _ = squeezed_vacuum_vector(r, 40)
    raised = mode_ladder(vec, "raise")
    assert np.vdot(raised, raised).real == pytest.approx(math.cosh(r) ** 2, abs=1e-10)
    lowered = mode_ladder(vec, "lower")
    assert np.vdot(lowered, lowered).real == pytest.approx(math.sinh(r) ** 2, abs=1e-10)


# -------------------------------------------------------------- beamsplitter


def test_splitter_quarter_turn_routes_single_photon():
    st = _fock((1, 0), 2)
    apply_beamsplitter(st, 0, 1, math.pi / 2.0)
    assert st.amplitude((0, 1)) == pytest.approx(-1.0, abs=1e-14)
    assert st.amplitude((1, 0)) == pytest.approx(0.0, abs=1e-14)


def test_splitter_half_turn_bunches_photon_pair():
    st = _fock((1, 1), 2)
    apply_beamsplitter(st, 0, 1, math.pi / 4.0)
    root_half = 1.0 / math.sqrt(2.0)
    assert st.amplitude((2, 0)) == pytest.approx(root_half, abs=1e-12)
    assert st.amplitude((0, 2)) == pytest.approx(-root_half, abs=1e-12)
    assert st.amplitude((1, 1)) == pytest.approx(0.0, abs=1e-12)


def test_splitter_matches_dense_generator_oracle():
    d = 6
    rng = np.random.default_rng(314)
    complex_amp = rng.standard_normal((d + 1, d + 1)) + 1j * rng.standard_normal((d + 1, d + 1))
    theta = 0.7343
    a = _lowering_matrix(d)
    mixer = expm(theta * (np.kron(a.T, a) - np.kron(a, a.T)))
    kept = tuple(_index_tables(2, d)[0])  # the (p, q) with p + q <= d, in state order
    # A complex state is mixed as interleaved real and imaginary parts, a
    # real one as itself; both keep their dtype.
    for amp, dtype in ((complex_amp, np.complex128), (complex_amp.real.copy(), np.float64)):
        for p in range(d + 1):
            for q in range(d + 1):
                if p + q > d:  # keep every sector exactly representable
                    amp[p, q] = 0.0
        amp /= np.linalg.norm(amp)
        st = TruncatedFockState(2, d, amp[kept])
        apply_beamsplitter(st, 0, 1, theta)
        assert st.amplitudes.dtype == dtype
        expected = (mixer @ amp.reshape(-1)).reshape(d + 1, d + 1)
        assert np.max(np.abs(st.amplitudes - expected[kept])) < 1e-12
        assert np.sum(np.abs(expected) ** 2) == pytest.approx(st.squared_norm(), abs=1e-13)


ROTATION_ANGLES = (-math.pi, -1.3, 0.3, math.pi / 4.0, math.pi / 2.0, 2.9)


def _sector_generator(total: int) -> np.ndarray:
    """Antisymmetric generator of a two-mode mixer restricted to a photon total."""
    w = np.sqrt(np.arange(1, total + 1) * np.arange(total, 0, -1.0))  # sqrt((p+1)(N-p))
    return np.diag(w, -1) - np.diag(w, 1)


def test_sector_rotation_matches_expm_oracle():
    stacks = _sector_rotations(ROTATION_ANGLES, 64)
    for total in range(1, 65):
        generator = _sector_generator(total)
        for theta, rotation in zip(ROTATION_ANGLES, stacks[total]):
            assert np.max(np.abs(rotation - expm(theta * generator))) < 1e-12


def test_sector_rotation_is_orthogonal():
    stacks = _sector_rotations(ROTATION_ANGLES, 64)
    for total in range(1, 65):
        for r in stacks[total]:
            assert r.dtype == np.float64
            assert np.max(np.abs(r @ r.T - np.eye(total + 1))) < 1e-13


def test_sector_rotations_compose():
    for a, b in ((0.3, -1.3), (math.pi / 4.0, 2.9), (-math.pi, math.pi / 2.0)):
        stacks = _sector_rotations([a, b, a + b], 64)
        for total in (1, 7, 30, 64):
            first, second, composed = stacks[total]
            assert np.max(np.abs(first @ second - composed)) < 1e-12


def test_held_eigenbases_match_eigh_projector_by_projector(monkeypatch):
    # eigh's eigenvector phases are arbitrary, so each eigenvalue's projector
    # is compared. Each total holds one real array, the columns w >= 0 of its
    # 50:50 mixer; with rows phased by i^r they are the eigenvectors, the null
    # vector of an even total unscaled.
    monkeypatch.setattr(evolution, "_slot", evolution._Slot())
    _index_tables(2, 200)  # a layout up to 200 keeps the eigenbases held
    _sector_rotations([0.3], 200)
    eigenbases = evolution._slot.eigenbases
    assert len(eigenbases) == 201
    for total, columns in enumerate(eigenbases):
        assert columns.dtype == np.float64 and columns.shape == (total + 1, total // 2 + 1)
        assert columns.flags.c_contiguous and columns.base is None
        held = columns * 1j ** (np.arange(total + 1)[:, None] % 4)
        w, vectors = np.linalg.eigh(1j * _sector_generator(total))
        for k, eigenvalue in enumerate(range(total % 2, total + 1, 2)):
            v = vectors[:, np.argmin(np.abs(w - eigenvalue))]
            assert np.max(np.abs(np.outer(held[:, k], held[:, k].conj())
                                 - np.outer(v, v.conj()))) <= 1e-13, (total, eigenvalue)


def test_sector_rotations_stay_orthogonal_at_the_largest_mixed_cutoff(monkeypatch):
    # D = 446, the n = 2 edge of the byte guard at m = 2, is the largest cutoff
    # any mixer runs at, and the far end of the eigenbasis recursion.
    monkeypatch.setattr(evolution, "_slot", evolution._Slot())
    stacks = _sector_rotations([0.3], 446)
    for total, (rotation,) in enumerate(stacks):
        assert np.max(np.abs(rotation @ rotation.T - np.eye(total + 1))) < 1e-14, total


def test_splitter_conserves_photon_number_sectors():
    d = 5
    st = _fock((2, 1), d)
    apply_beamsplitter(st, 0, 1, 0.3)
    for (p, q), value in zip(_index_tables(2, d, st.parity)[0].T.tolist(), st.amplitudes):
        if p + q != 3:
            assert value == 0.0
    assert st.squared_norm() == pytest.approx(1.0, abs=1e-13)


def test_splitter_acts_on_named_pair_only():
    st = _fock((0, 1, 0), 2)
    apply_beamsplitter(st, 1, 2, math.pi / 2.0)
    assert st.amplitude((0, 0, 1)) == pytest.approx(-1.0, abs=1e-14)


def test_splitter_truncation_loss_balances_norm():
    st = _squeezed(2, 0.6, 8)
    loss = 1.0 - st.squared_norm()
    apply_beamsplitter(st, 0, 1, 0.9)
    assert 1.0 - st.squared_norm() == pytest.approx(loss, abs=1e-10)
    assert loss > 0.0


@settings(max_examples=40, deadline=None)
@given(m=strategies.integers(3, 4), d=strategies.integers(1, 6),
       order=strategies.permutations(range(4)), seed=strategies.integers(0, 10_000),
       theta=strategies.floats(-math.pi, math.pi))
def test_splitter_on_any_pair_is_the_front_pair_mixer_relabeled(m, d, order, seed, theta):
    # Any pair, in either order and not necessarily adjacent, is mixed in place
    # through its own gather order; the reference relabels the modes so that
    # the pair comes first and mixes modes (0, 1) there.
    i, j = [k for k in order if k < m][:2]
    front = [i, j] + [k for k in range(m) if k not in (i, j)]  # new mode -> old mode
    rng = np.random.default_rng(seed)
    size = math.comb(d + m, m)
    amps = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    state = TruncatedFockState(m, d, amps / np.linalg.norm(amps))
    before = state.squared_norm()
    columns = [tuple(c) for c in _index_tables(m, d)[0].T.tolist()]
    position = {c: k for k, c in enumerate(columns)}
    old_of = [position[tuple(c[front.index(k)] for k in range(m))] for c in columns]
    reference = TruncatedFockState(m, d, state.amplitudes[old_of])
    array = state.amplitudes
    apply_beamsplitter(state, i, j, theta)
    apply_beamsplitter(reference, 0, 1, theta)
    assert state.amplitudes is array
    assert abs(state.squared_norm() - before) <= 1e-12
    assert np.max(np.abs(state.amplitudes[old_of] - reference.amplitudes)) <= 1e-14


def _random_state(m, d, parity, rng) -> TruncatedFockState:
    """A random real or complex state: every total, or a product of the totals of ``parity``."""
    def draw(size):
        values = rng.standard_normal(size)
        return values + 1j * rng.standard_normal(size) if rng.integers(2) else values
    if parity is None:
        return TruncatedFockState(m, d, draw(math.comb(d + m, m)))
    vectors = []
    for mode in range(m):
        vector = np.zeros(d + 1, dtype=complex)
        first = parity if mode == 0 else 0
        vector[first::2] = draw(len(vector[first::2]))
        vectors.append(vector)
    state = TruncatedFockState.from_product(vectors)
    assert state.parity == parity
    return state


def _reference_mix(state, i, j, rotations):
    """The mixer before pair-sorted order: each sector's block is fancy-indexed
    out of canonical order, rotated and scattered back."""
    occupations = _index_tables(state.modes, state.cutoff, state.parity)[0]
    subtotal = occupations[i] + occupations[j]
    order = np.lexsort((occupations[i], subtotal))
    bounds = [0, *np.cumsum(np.bincount(subtotal, minlength=state.cutoff + 1)).tolist()]
    a = state.amplitudes
    for total in range(1, state.cutoff + 1):
        index = order[bounds[total]:bounds[total + 1]].reshape(total + 1, -1)
        a[index] = (rotations[total] @ a[index].view(np.float64)).view(a.dtype)


def _reference_mode_factors(state, mode, factors):
    factors = evolution._real_or_complex(factors)
    if factors.dtype == np.complex128 and state.amplitudes.dtype == np.float64:
        state.amplitudes = state.amplitudes.astype(np.complex128)
    state.amplitudes *= factors[_index_tables(state.modes, state.cutoff, state.parity)[0][mode]]


def _reference_network(state, decomposition):
    levels = np.arange(state.cutoff + 1)
    for mode, z in enumerate(decomposition.residual):
        if complex(z) != 1.0:
            _reference_mode_factors(state, mode, complex(z) ** levels)
    elements = decomposition.elements[::-1]
    stacks = _sector_rotations([el.theta for el in elements], state.cutoff) if elements else []
    for e, el in enumerate(elements):
        _reference_mix(state, el.i, el.j, [stack[e] for stack in stacks])
        if el.phi:
            _reference_mode_factors(state, el.i, np.exp(1j * el.phi * levels))
    return state


def _walk(m, rng) -> ReckDecomposition:
    """Random pairs, not adjacent ones only, some repeated back to back: more
    moves than are held, so some are dropped and built again on the way."""
    pairs = list(itertools.combinations(range(m), 2))
    picks = np.repeat(rng.integers(len(pairs), size=3 * m), rng.integers(1, 3, size=3 * m))
    angles = rng.uniform(-math.pi, math.pi, (len(picks), 2))
    elements = tuple(TwoModeElement(*pairs[k], theta, phi * rng.integers(2))
                     for k, (theta, phi) in zip(picks, angles))
    return ReckDecomposition(elements, np.exp(1j * rng.uniform(-math.pi, math.pi, m)))


@settings(max_examples=80, deadline=None)
@given(m=strategies.integers(2, 4), d=strategies.integers(0, 12),
       parity=strategies.sampled_from([None, 0, 1]),
       kind=strategies.sampled_from(["rotation", "reflection", "unitary", "walk"]),
       seed=strategies.integers(0, 10_000))
def test_pair_sorted_mixing_equals_the_per_sector_gather_bit_for_bit(m, d, parity, kind, seed):
    assume(parity != 1 or d > 0)
    rng = np.random.default_rng(seed)
    state = _random_state(m, d, parity, rng)
    if kind == "walk":
        decomposition = _walk(m, rng)
    elif kind == "reflection":
        entries = haar_special_orthogonal(m, seed).entries.copy()
        entries[:, -1] *= -1.0
        decomposition = reck_decompose(LinearNetwork(entries, ORTHOGONAL, allow_reflection=True))
        assert decomposition.residual[-1] == -1.0
    else:
        maker = haar_special_orthogonal if kind == "rotation" else haar_unitary
        decomposition = reck_decompose(maker(m, seed))
    expected = _reference_network(state.copy(), decomposition)
    evolved = apply_network(state.copy(), decomposition)
    assert evolved.amplitudes.dtype == expected.amplitudes.dtype
    assert np.array_equal(evolved.amplitudes, expected.amplitudes)
    assert len(_index_tables(m, d, parity)[2]) <= 2 * m - 3


@settings(max_examples=60, deadline=None)
@given(m=strategies.integers(2, 4), d=strategies.integers(0, 12),
       parity=strategies.sampled_from([None, 0, 1]), order=strategies.permutations(range(4)),
       theta=strategies.floats(-math.pi, math.pi), seed=strategies.integers(0, 10_000))
def test_a_lone_mixer_equals_the_per_sector_gather_bit_for_bit(m, d, parity, order, theta, seed):
    # Either order of any pair: (j, i) is its own layout, rotated by row j.
    assume(parity != 1 or d > 0)
    i, j = [k for k in order if k < m][:2]
    state = _random_state(m, d, parity, np.random.default_rng(seed))
    expected = state.copy()
    _reference_mix(expected, i, j, [stack[0] for stack in _sector_rotations([theta], d)])
    array = state.amplitudes
    apply_beamsplitter(state, i, j, theta)
    assert state.amplitudes is array
    assert np.array_equal(state.amplitudes, expected.amplitudes)


def test_splitter_validation():
    st = TruncatedFockState(2, 2)
    with pytest.raises(ValidationError):
        apply_beamsplitter(st, 0, 0, 0.5)
    with pytest.raises(ValidationError):
        apply_beamsplitter(st, 0, 2, 0.5)


# ------------------------------------------------------------ whole networks


@pytest.mark.parametrize("maker, seed, dtype", [
    pytest.param(haar_unitary, 83, np.complex128, id="haar_unitary"),
    pytest.param(haar_special_orthogonal, 83, np.float64, id="haar_special_orthogonal"),
    # Network 0 of O(4) is a reflection: its residual holds -1, applied as
    # the real factors (-1)^k on the last mode.
    pytest.param(functools.partial(haar_special_orthogonal, special=False), 0, np.float64,
                 id="reflection"),
])
def test_network_on_single_photon_reproduces_columns(maker, seed, dtype):
    m = 4
    net = maker(m, seed)
    dec = reck_decompose(net)
    assert (dec.residual[-1] == -1.0) == (np.linalg.det(net.entries.real) < 0.0)
    for j in range(m):
        st = _fock((0,) * j + (1,) + (0,) * (m - 1 - j), 1)
        apply_network(st, dec)
        assert st.amplitudes.dtype == dtype
        for i in range(m):
            idx = tuple(1 if k == i else 0 for k in range(m))
            assert st.amplitude(idx) == pytest.approx(net.entries[i, j], abs=1e-10)


def test_network_refuses_bare_element_lists():
    elements = [TwoModeElement(0, 1, 0.4), TwoModeElement(1, 2, 1.1)]
    st = _fock((1, 0, 0), 1)
    before = st.amplitudes.copy()
    for network in (elements, tuple(elements), haar_special_orthogonal(3, 1)):
        with pytest.raises(ValidationError, match="ReckDecomposition"):
            apply_network(st, network)
    np.testing.assert_array_equal(st.amplitudes, before)


@pytest.mark.parametrize("variant, seed", [(ADDED, 7), (SUBTRACTED, 12)])
def test_network_keeps_the_norm_of_every_photon_total(variant, seed):
    n, m, d = 2, 4, 24
    st = build_passv_input(n, m, 0.6, variant, d)
    loss = 1.0 - st.squared_norm()
    assert loss == pytest.approx(_input_tail(n, m, 0.6, d), abs=1e-14)
    totals = _index_tables(m, d, st.parity)[0].sum(axis=0, dtype=np.intp)
    before = np.bincount(totals, weights=np.abs(st.amplitudes) ** 2, minlength=d + 1)
    apply_network(st, reck_decompose(haar_special_orthogonal(m, seed)))
    after = np.bincount(totals, weights=np.abs(st.amplitudes) ** 2, minlength=d + 1)
    assert np.count_nonzero(before > 1e-6) >= 5  # several sectors carry weight
    assert np.max(np.abs(after - before)) <= 1e-14
    assert 1.0 - st.squared_norm() == pytest.approx(loss, abs=1e-14)


def test_network_dimension_mismatch():
    st = TruncatedFockState(2, 1)
    with pytest.raises(ValidationError, match="does not match"):
        apply_network(st, reck_decompose(haar_special_orthogonal(3, 1)))
    # An element past the state's modes, in a decomposition of the right size.
    outside = ReckDecomposition((TwoModeElement(1, 2, 0.5),), np.ones(2, dtype=complex))
    with pytest.raises(ValidationError, match="out of range"):
        apply_network(st, outside)


# ------------------------------------------------------ real and complex states


@pytest.mark.parametrize("variant", [ADDED, SUBTRACTED])
@pytest.mark.parametrize("special", [True, False])
def test_real_inputs_stay_real_through_orthogonal_networks(variant, special):
    st = build_passv_input(2, 4, 0.5, variant, 10)
    assert st.amplitudes.dtype == np.float64
    apply_network(st, reck_decompose(haar_special_orthogonal(4, 0, special=special)))
    assert st.amplitudes.dtype == np.float64


def test_complex_squeezing_and_unitary_networks_give_complex_states():
    st = build_passv_input(2, 3, Squeezing(0.5, theta=0.7), ADDED, 8)
    assert st.amplitudes.dtype == np.complex128
    st = build_passv_input(2, 3, 0.5, ADDED, 8)
    reference = st.amplitudes.astype(np.complex128)
    dec = reck_decompose(haar_unitary(3, 4))
    apply_network(st, dec)  # the first element phase promotes the state
    assert st.amplitudes.dtype == np.complex128
    # The same evolution of a state that starts complex: one small imaginary
    # amplitude keeps it complex128 from the start.
    reference[-1] += 1e-300j
    started_complex = build_passv_input(2, 3, 0.5, ADDED, 8)
    started_complex.amplitudes = reference
    assert started_complex.amplitudes.dtype == np.complex128
    apply_network(started_complex, dec)
    assert np.max(np.abs(st.amplitudes - started_complex.amplitudes)) <= 1e-14


def test_product_dtype_follows_the_mode_vectors():
    real = np.array([1.0, 0.5, 0.25], dtype=np.complex128)  # zero imaginary parts
    assert TruncatedFockState.from_product([real, real]).amplitudes.dtype == np.float64
    phased = real * np.exp(0.3j * np.arange(3))
    st = TruncatedFockState.from_product([real, phased])
    assert st.amplitudes.dtype == np.complex128
    assert st.amplitude((1, 1)) == pytest.approx(0.5 * phased[1], abs=1e-15)
    assert TruncatedFockState(2, 1).amplitudes.dtype == np.float64


@settings(max_examples=40, deadline=None)
@given(m=strategies.integers(2, 4), d=strategies.integers(1, 6),
       seed=strategies.integers(0, 10_000), special=strategies.booleans())
def test_evolution_is_real_linear(m, d, seed, special):
    # evolve(a + ib) = evolve(a) + i evolve(b): the complex state is mixed as
    # interleaved real and imaginary parts, each real state on its own.
    rng = np.random.default_rng(seed)
    size = math.comb(d + m, m)
    a, b = (v / np.linalg.norm(v) for v in rng.standard_normal((2, size)))
    dec = reck_decompose(haar_special_orthogonal(m, seed, special=special))
    evolved = {}
    for name, amplitudes in (("a", a), ("b", b), ("ab", a + 1j * b)):
        state = TruncatedFockState(m, d, amplitudes)
        apply_network(state, dec)
        evolved[name] = state.amplitudes
    assert evolved["a"].dtype == evolved["b"].dtype == np.float64
    assert evolved["ab"].dtype == np.complex128
    assert np.max(np.abs(evolved["ab"] - (evolved["a"] + 1j * evolved["b"]))) <= 1e-14


def test_complex_values_written_into_a_real_state_fail_loudly():
    st = TruncatedFockState(1, 2)
    with pytest.raises(ComplexWarning):
        st.amplitudes[:] = np.array([1.0, 0.5j, 0.0])


# ----------------------------------------------------------- prepared states


def test_squeezed_product_amplitudes_factorize():
    st = _squeezed(2, 0.5, 10)
    vec, _ = squeezed_vacuum_vector(0.5, 10)
    assert st.amplitude((0, 0)) == pytest.approx(vec[0] ** 2, abs=1e-14)
    assert st.amplitude((2, 4)) == pytest.approx(vec[2] * vec[4], abs=1e-14)
    assert st.amplitude((1, 0)) == 0.0


def test_squeezed_product_loss_accounting():
    st = _squeezed(3, 0.5, 6)
    loss = 1.0 - st.squared_norm()
    # The loss is the mass above total 6, so more than the three one-mode tails.
    vec, _ = squeezed_vacuum_vector(0.5, 6)
    kept = np.convolve(np.convolve(np.abs(vec) ** 2, np.abs(vec) ** 2), np.abs(vec) ** 2)
    assert loss == pytest.approx(1.0 - math.fsum(kept[:7]), abs=1e-14)
    assert loss > 3.0 * TAIL_HALF_D6


def test_passv_input_at_zero_squeezing_is_fock_state():
    st = build_passv_input(2, 3, 0.0, ADDED, 2)
    assert st.parity == 0  # totals 0 and 2: C(2, 2) + C(4, 2) amplitudes
    expected = np.zeros(math.comb(2, 2) + math.comb(4, 2), dtype=complex)
    expected[_index_tables(3, 2, 0)[0].T.tolist().index([1, 1, 0])] = 1.0
    np.testing.assert_allclose(st.amplitudes, expected, atol=1e-14)
    assert st.squared_norm() == 1.0


def test_passv_input_is_normalized():
    cutoff = required_cutoff(0.5, 1e-8, modes=3, photons=2)
    for variant in (ADDED, SUBTRACTED):
        st = build_passv_input(2, 3, 0.5, variant, cutoff)
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
    st = _squeezed(2, 0.5, 8)
    dist = parity_distribution(st)
    assert len(dist) == 4
    assert dist.total() == pytest.approx(1.0, abs=1e-12)
    assert dist.keys[0] == ParityPattern((1, 1))


def test_parity_distribution_matches_a_loop_over_the_occupations():
    m, d = 3, 7
    rng = np.random.default_rng(5)
    size = math.comb(d + m, m)
    st = TruncatedFockState(m, d, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    st.amplitudes /= 1.5 * np.linalg.norm(st.amplitudes)  # squared norm 4/9
    reference = {}
    for config, a in zip(_index_tables(m, d)[0].T.tolist(), st.amplitudes):
        pattern = ParityPattern(tuple(-1 if k % 2 else 1 for k in config))
        reference[pattern] = reference.get(pattern, 0.0) + abs(a) ** 2 / st.squared_norm()
    dist = parity_distribution(st)
    assert len(dist) == len(reference) == 2 ** m
    for pattern, p in reference.items():
        assert dist.probability(pattern) == pytest.approx(p, abs=1e-15)


def test_parity_sectors_split_the_distribution_by_photon_total():
    m, d = 3, 6
    rng = np.random.default_rng(8)
    size = math.comb(d + m, m)
    st = TruncatedFockState(m, d, rng.standard_normal(size) + 1j * rng.standard_normal(size))
    st.amplitudes /= 2.0 * np.linalg.norm(st.amplitudes)
    occupations, bins, _ = _index_tables(m, d)
    assert bins.dtype == np.min_scalar_type((d + 1) * 2 ** m - 1)
    table = parity_sectors(st)
    assert table.shape == (d + 1, 2 ** m)
    reference = np.zeros_like(table)
    for config, a in zip(occupations.T.tolist(), st.amplitudes):
        column = int("".join(str(k % 2) for k in config), 2)
        reference[sum(config), column] += abs(a) ** 2
    np.testing.assert_allclose(table, reference, rtol=1e-13, atol=0.0)
    dist = parity_distribution(st)
    assert dist.keys == evolution._parity_keys(m)
    np.testing.assert_allclose(dist.probabilities, table.sum(axis=0) / st.squared_norm(),
                               rtol=1e-15, atol=0.0)


def test_parity_of_squeezed_vacuum_is_all_even():
    dist = parity_distribution(_squeezed(2, 0.7, 16))
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


def test_number_distribution_refuses_states_over_the_support_limit(monkeypatch):
    st = build_passv_input(1, 2, 0.3, ADDED, 3)  # odd totals 1 and 3: 2 + 4 amplitudes
    monkeypatch.setattr(evolution, "SUPPORT_SIZE_LIMIT", 6)
    assert len(number_distribution(st)) == 6

    def no_keys(_):
        raise AssertionError("keys built before the size guard")

    monkeypatch.setattr(evolution, "SUPPORT_SIZE_LIMIT", 5)
    monkeypatch.setattr(distributions, "configurations_from_array", no_keys)
    with pytest.raises(SizeLimitError):
        number_distribution(st)


def test_number_distribution_builds_no_keys_for_length_and_probabilities(monkeypatch):
    st = build_passv_input(1, 2, 0.3, ADDED, 3)
    reference = number_distribution(st)
    keys = [list(k.occupations) for k in reference.keys]

    def no_keys(_):
        raise AssertionError("keys built for a length or probability read")

    monkeypatch.setattr(distributions, "configurations_from_array", no_keys)
    dist = number_distribution(st)
    assert len(dist) == 6
    assert dist.probabilities.tolist() == reference.probabilities.tolist()
    assert dist.total() == reference.total()
    assert dist.occupations.tolist() == keys


def test_expm_is_looked_up_lazily():
    assert evolution.expm is expm
    with pytest.raises(AttributeError):
        evolution.no_such_name  # noqa: B018


def test_overlap_of_prepared_states():
    vac = _fock((0,), 40)
    sq = _squeezed(1, 0.5, 40)
    assert state_overlap(vac, sq) == pytest.approx(C0_HALF, abs=1e-12)
    assert state_overlap(sq, sq).real == pytest.approx(1.0, abs=1e-12)


def test_overlap_of_different_layouts_is_refused_and_keeps_the_held_layout(monkeypatch):
    # An all-totals, an even and an odd state of one (m, D) do not meet. The
    # refusal looks nothing up, so the moves and eigenbases held for the
    # evolved state stay, and its next op sorts no order again.
    monkeypatch.setattr(evolution, "_slot", evolution._Slot())
    m, d = 3, 60
    odd, every = _fock((2, 1, 0), d), TruncatedFockState(m, d)
    even = apply_network(_squeezed(m, 0.5, d), reck_decompose(haar_special_orthogonal(m, 3)))
    assert (odd.parity, even.parity, every.parity) == (1, 0, None)
    slot = evolution._slot
    key, moves, eigenbases = slot.key, dict(slot.tables[2]), list(slot.eigenbases)
    assert key == (m, d, 0) and len(moves) == 3 and len(eigenbases) == d + 1
    for a, b in ((every, even), (even, every), (odd, even), (every, odd)):
        with pytest.raises(ValidationError, match="parity"):
            state_overlap(a, b)
    assert slot.key == key and slot.tables[2].keys() == moves.keys()
    assert all(slot.tables[2][step] is held for step, held in moves.items())
    assert all(x is y for x, y in zip(slot.eigenbases, eigenbases, strict=True))
    assert state_overlap(even, even) == pytest.approx(even.squared_norm(), abs=1e-15)


def test_overlap_requires_matching_shapes():
    with pytest.raises(ValidationError):
        state_overlap(TruncatedFockState(1, 2), TruncatedFockState(1, 3))
    with pytest.raises(ValidationError):
        state_overlap(TruncatedFockState(1, 2), TruncatedFockState(2, 2))


# --------------------------------------------------------- one-parity states


def _all_totals(state: TruncatedFockState) -> TruncatedFockState:
    """The amplitudes of a one-parity state, held in a state of every total."""
    totals = _index_tables(state.modes, state.cutoff)[1] >> state.modes
    full = np.zeros(math.comb(state.cutoff + state.modes, state.modes), state.amplitudes.dtype)
    full[totals % 2 == state.parity] = state.amplitudes
    return TruncatedFockState(state.modes, state.cutoff, full)


def test_one_parity_table_is_the_full_table_of_that_parity():
    for m, d in ((1, 5), (2, 4), (3, 7), (5, 6)):
        full = _index_tables(m, d)[0]
        for parity in (0, 1):
            table, bins, _ = _index_tables(m, d, parity)
            kept = full.sum(axis=0) % 2 == parity
            np.testing.assert_array_equal(table, full[:, kept])
            np.testing.assert_array_equal(bins, _index_tables(m, d)[1][kept])
            assert len(table[0]) == evolution._amplitude_count(m, d, parity)


def test_from_product_infers_the_parity_of_its_totals():
    assert _squeezed(3, 0.5, 10).parity == 0
    for n, m, variant in ((1, 3, ADDED), (2, 4, SUBTRACTED), (3, 5, ADDED)):
        assert build_passv_input(n, m, 0.4, variant, n + 6).parity == n % 2
    assert _fock((2, 1, 1), 5).parity == 0 and _fock((0, 3), 5).parity == 1
    vec, _ = squeezed_vacuum_vector(0.5, 6)
    mixed = vec + 0.1 * np.eye(7)[1]
    for vectors in ([mixed, vec], [np.ones(4)] * 2):
        state = TruncatedFockState.from_product(vectors)
        assert state.parity is None
        assert len(state.amplitudes) == math.comb(len(vectors[0]) + 1, 2)
    assert TruncatedFockState(2, 3).parity is None


@pytest.mark.parametrize("n, m, r", [(2, 4, 0.6), (3, 5, 0.5), (1, 3, 0.8)])
@pytest.mark.parametrize("variant", [ADDED, SUBTRACTED])
def test_one_parity_states_evolve_like_their_all_totals_copies(n, m, r, variant):
    d = required_cutoff(r, m * 1e-8, modes=m, photons=n)
    one = build_passv_input(n, m, r, variant, d)
    decompositions = [reck_decompose(haar_special_orthogonal(m, seed)) for seed in (7, 12, 33)]
    # The states of one layout are evolved together: one layout is held at a time.
    evolved = [apply_network(one.copy(), dec) for dec in decompositions]
    sectors = [parity_sectors(state) for state in evolved]
    full = _all_totals(one)
    kept = (_index_tables(m, d)[1] >> m) % 2 == n % 2
    for dec, state, state_sectors in zip(decompositions, evolved, sectors):
        held = apply_network(full.copy(), dec)
        assert np.max(np.abs(held.amplitudes[kept] - state.amplitudes)) <= 1e-15
        assert not np.any(held.amplitudes[~kept])
        assert np.max(np.abs(parity_sectors(held) - state_sectors)) <= 1e-15


@pytest.mark.parametrize("count, cutoff", [(6, 38), (10, 21)])
def test_network_rotation_stacks_equal_the_single_rotations_bit_for_bit(count, cutoff):
    # A lone apply_beamsplitter builds the one-element stacks of its angle.
    thetas = np.random.default_rng(count).uniform(-math.pi, math.pi, count)
    stacks = _sector_rotations(thetas, cutoff)
    singles = [_sector_rotations([theta], cutoff) for theta in thetas]
    assert len(stacks) == cutoff + 1
    for total, stack in enumerate(stacks):
        assert stack.shape == (count, total + 1, total + 1)
        assert stack.dtype == np.float64 and stack.flags.c_contiguous
        for rotation, single in zip(stack, singles):
            np.testing.assert_array_equal(rotation, single[total][0])


def test_size_guard_counts_the_stored_parity_and_the_rotations():
    m, d = 4, 38
    rotations = 6 * sum((s + 1) ** 2 for s in range(d + 1)) * 8
    # The real 50:50 columns of the s // 2 + 1 eigenvalues w >= 0.
    eigenbases = sum(8 * (s + 1) * (s // 2 + 1) + 1024 for s in range(d + 1))
    # The recursion's five (d+1)^2 buffers, then the phase table and
    # u exp(-1j theta w) of 6 angles, and the complex u with its row phases.
    top_total = 40 * (d + 1) ** 2 + (6 + 1) * 16 * (d + 1) * ((d // 2 + 1) + 1)
    first_op = 12 * 2 ** 20  # the modules and library code a first op maps
    per_amplitude = 32 + m + 2 + 4 * (2 * m - 3)  # 2m - 3 held moves
    for parity, amplitudes in ((None, math.comb(d + m, m)), (0, 58_730), (1, 53_200)):
        assert evolution._amplitude_count(m, d, parity) == amplitudes
        assert evolution._state_bytes(m, d, parity) == (
            amplitudes * per_amplitude + rotations + eigenbases + top_total + first_op)


@pytest.mark.parametrize("d", [0, 38, 413, 1_001])
def test_size_guard_counts_amplitudes_alone_for_one_mode(d):
    # One mode has no mixer, so nothing is held per photon total.
    amplitudes = evolution._amplitude_count(1, d, 1)
    assert amplitudes == (d + 1) // 2
    levels, bins = np.min_scalar_type(d).itemsize, np.min_scalar_type(2 * d + 1).itemsize
    assert evolution._state_bytes(1, d, 1) == amplitudes * (32 + levels + bins)


@pytest.mark.parametrize("m, d, network", [
    (2, 200, haar_special_orthogonal(2, 3)),
    (3, 60, haar_special_orthogonal(3, 3)),
    (4, 38, haar_special_orthogonal(4, 3)),
    (5, 30, haar_unitary(5, 4)),
], ids=["2-200", "3-60", "4-38", "5-30-unitary"])
def test_cold_evolution_peaks_within_the_counted_bytes(monkeypatch, m, d, network):
    # From cold, no layout or eigenbasis held: both states of the check, the
    # layout, every eigenbasis up to d and the network's rotations fit the
    # count. Uncounted eigenbases once took 87 MB at (2, 200), of 111 MB in all,
    # where 22 MB were counted. A unitary network promotes the evolved state to
    # complex beside the real original, so neither its phases nor a gather-order
    # sort may add a state-sized temporary as well.
    monkeypatch.setattr(evolution, "_slot", evolution._Slot())
    limit = evolution._state_bytes(m, d, 0)
    monkeypatch.setattr(errors, "MEMORY_LIMIT", limit)
    tracemalloc.start()
    try:
        original = _squeezed(m, 0.5, d)
        evolved = apply_network(original.copy(), reck_decompose(network))
        assert abs(state_overlap(original, evolved)) <= 1.0
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit


def test_one_layout_is_held_and_a_new_one_drops_it():
    first = build_passv_input(2, 4, 0.5, ADDED, 38)
    apply_network(first, reck_decompose(haar_special_orthogonal(4, 7)))
    slot = evolution._slot
    assert slot.key == (4, 38, 0) and len(slot.eigenbases) == 39
    dropped = [weakref.ref(slot.tables[0]), weakref.ref(slot.eigenbases[38])]
    second = build_passv_input(1, 3, 0.5, ADDED, 20)
    apply_network(second, reck_decompose(haar_special_orthogonal(3, 7)))
    assert slot.key == (3, 20, 1) and len(slot.eigenbases) == 21
    table, bins, moves = slot.tables
    assert table.shape == (3, evolution._amplitude_count(3, 20, 1)) and len(moves) == 3
    assert all(move.shape == bins.shape for move, _ in moves.values())
    assert [ref() for ref in dropped] == [None, None]


def test_a_one_mode_layout_drops_every_eigenbasis(monkeypatch):
    # A one-mode state is counted by its amplitudes alone, so eigenbases
    # left by a two-mode op (about 120 MB at D = 446) may not stay held.
    monkeypatch.setattr(evolution, "_slot", evolution._Slot())
    state = build_passv_input(1, 2, 0.5, ADDED, 41)
    apply_network(state, reck_decompose(haar_special_orthogonal(2, 7)))
    assert len(evolution._slot.eigenbases) == 42
    build_passv_input(1, 1, 0.5, ADDED, 61)
    assert evolution._slot.key == (1, 61, 1) and evolution._slot.eigenbases == []


def test_a_network_without_elements_builds_no_rotations(monkeypatch):
    # A one-mode network has no mixer, so nothing reads a sector eigenbasis:
    # at D = 413 building them took about 8 s and 404 MB max RSS for nothing.
    monkeypatch.setattr(evolution, "_slot", evolution._Slot())
    state = build_passv_input(1, 1, 1.0, ADDED, 101)
    before = state.amplitudes.copy()
    decomposition = reck_decompose(haar_special_orthogonal(1, 7))
    assert decomposition.elements == ()
    apply_network(state, decomposition)
    assert evolution._slot.eigenbases == []
    np.testing.assert_array_equal(state.amplitudes, before)
