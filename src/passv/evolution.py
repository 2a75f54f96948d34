"""Brute-force evolution of truncated multimode Fock states.

A state over m modes holds one amplitude for every occupation tuple whose
total photon number is at most the cutoff D: C(D+m, m) amplitudes in one
flat vector, in lexicographic order with the first mode most significant.
Passive networks never move amplitude between photon totals, so nothing is
lost while a network is applied. A two-mode mixer gathers, for each subtotal
s of its pair, the (s+1) x G block of the pair's splits of s against the G
occupations of the other modes that fit under D - s, rotates it with
exp(theta K_s) and scatters it back. Each sector rotation is assembled from
an eigenbasis of the generator K_s that is computed once per s and cached.
The only truncation is the input's: its mass above total D, recorded in
``truncation_loss`` when the state is prepared.

Element lists follow the matrix-factor order used by the decomposition
module: the first element of a list is the last operation applied to a state,
and a residual diagonal acts first of all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .configurations import (
    ParityPattern,
    _as_configuration,
    bounded_occupations,
)
from .distributions import OutputDistribution
from .errors import SizeLimitError, ValidationError
from .networks import ReckDecomposition, TwoModeElement
from .sampling import SUPPORT_SIZE_LIMIT

ADDED = "added"
SUBTRACTED = "subtracted"

STATE_SIZE_LIMIT = 400_000_000  # bytes per state, as counted by _state_bytes
AMPLITUDE_BLOCK = 16_384  # amplitudes at a time in from_product and parity_distribution


def __getattr__(name):
    # perfbench/tracing.py looks up and wraps ``expm`` in this module, though no
    # code here calls it; importing scipy only on that lookup keeps it off the
    # import path. This goes when ROADMAP item 1 re-points the tracer.
    if name == "expm":
        from scipy.linalg import expm

        return expm
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class Squeezing:
    """Single-mode squeezing parameter xi = r * exp(i * theta), r >= 0."""

    r: float
    theta: float = 0.0

    def __post_init__(self):
        if not math.isfinite(self.r) or self.r < 0.0:
            raise ValidationError(f"squeezing magnitude must be finite and >= 0, got {self.r}")

    @property
    def xi(self) -> complex:
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))


def as_squeezing(value) -> Squeezing:
    if isinstance(value, Squeezing):
        return value
    if isinstance(value, complex):
        return Squeezing(abs(value), math.atan2(value.imag, value.real))
    return Squeezing(float(value))


def _state_bytes(modes: int, cutoff: int) -> int:
    """Bytes of every array a state over ``modes`` up to ``cutoff`` photons needs.

    Per amplitude: the amplitude and one amplitude-sized workspace (a copy of
    the state, or a mixer's gathered and rotated sectors), 16 bytes each; one
    cached occupation per mode; one cached 4-byte gather index for each of
    at most m - 1 mode pairs, as many as a Reck network mixes
    (``_pair_gather`` holds no more). Products and parity reductions go
    AMPLITUDE_BLOCK amplitudes at a time.
    """
    per_amplitude = 32 + modes * np.min_scalar_type(cutoff).itemsize + 4 * (modes - 1)
    return math.comb(cutoff + modes, modes) * per_amplitude


def _check_state_size(modes: int, cutoff: int) -> None:
    """Refuse a state whose arrays would exceed STATE_SIZE_LIMIT, before any is built."""
    needed = _state_bytes(modes, cutoff)
    if needed > STATE_SIZE_LIMIT:
        raise SizeLimitError(
            f"a {modes}-mode state up to {cutoff} photons "
            f"({math.comb(cutoff + modes, modes)} amplitudes) needs {needed} bytes, "
            f"over the {STATE_SIZE_LIMIT} byte limit; reduce the squeezing or epsilon_tail"
        )


_index_cache: dict[tuple[int, int], tuple[np.ndarray, dict]] = {}


def _cached_bytes(entry: tuple[np.ndarray, dict]) -> int:
    table, gathers = entry
    return table.nbytes + sum(order.nbytes for order, _ in gathers.values())


def _index_tables(modes: int, cutoff: int) -> tuple[np.ndarray, dict]:
    """Occupation table of (modes, cutoff) and a dict of its pairs' gather orders.

    The table is ``bounded_occupations(modes, cutoff)``, column k for
    amplitude k; ``_pair_gather`` fills the dict on first use. Entries are
    cached, least recently used first out, and the other entries are evicted
    until they fit STATE_SIZE_LIMIT together with everything this
    (modes, cutoff) state needs.
    """
    key = (modes, cutoff)
    entry = _index_cache.pop(key, None)
    room = STATE_SIZE_LIMIT - _state_bytes(modes, cutoff)
    while _index_cache and sum(map(_cached_bytes, _index_cache.values())) > room:
        del _index_cache[next(iter(_index_cache))]
    if entry is None:
        table = bounded_occupations(modes, cutoff)
        table.flags.writeable = False
        entry = table, {}
    _index_cache[key] = entry
    return entry


def _pair_gather(modes: int, cutoff: int, i: int, j: int) -> tuple[np.ndarray, list[int]]:
    """Gather order and sector bounds of a mixer on modes (i, j).

    A stable sort by the pair's subtotal s, then by mode i's occupation, lays
    sector s out as s + 1 equal runs, one per occupation p of mode i. Within
    a run the other modes keep their lexicographic order, which is the same
    in every run, so ``order[bounds[s]:bounds[s + 1]].reshape(s + 1, -1)``
    indexes the block that the sector rotation acts on, row p. At most
    m - 1 pairs are kept, the oldest first out.
    """
    occupations, gathers = _index_tables(modes, cutoff)
    if (i, j) not in gathers:
        if len(gathers) >= modes - 1:
            del gathers[next(iter(gathers))]
        subtotal = occupations[i] + occupations[j]
        order = np.lexsort((occupations[i], subtotal)).astype(np.int32)
        order.flags.writeable = False
        sizes = np.bincount(subtotal, minlength=cutoff + 1)
        gathers[i, j] = order, [0, *np.cumsum(sizes).tolist()]
    return gathers[i, j]


class TruncatedFockState:
    """Amplitudes of the occupation tuples over ``modes`` with total <= ``cutoff``.

    ``amplitudes`` is flat, ordered like the columns of the occupation table
    of ``_index_tables``; the vacuum comes first. Mutated in place by the
    apply_* operations; callers that need the original should ``copy()``
    first.
    """

    def __init__(self, modes: int, cutoff: int, amplitudes: np.ndarray | None = None,
                 truncation_loss: float = 0.0):
        if modes < 1:
            raise ValidationError(f"mode count must be positive, got {modes}")
        if cutoff < 0:
            raise ValidationError(f"cutoff must be non-negative, got {cutoff}")
        _check_state_size(modes, cutoff)
        shape = (math.comb(cutoff + modes, modes),)
        if amplitudes is None:
            amplitudes = np.zeros(shape, dtype=np.complex128)
            amplitudes[0] = 1.0
        else:
            amplitudes = np.array(amplitudes, dtype=np.complex128)
            if amplitudes.shape != shape:
                raise ValidationError(
                    f"amplitude vector shape {amplitudes.shape} does not match {shape}"
                )
        self.modes, self.cutoff, self.amplitudes = modes, cutoff, amplitudes
        self.truncation_loss = float(truncation_loss)

    @classmethod
    def from_product(cls, vectors, truncation_loss: float = 0.0) -> "TruncatedFockState":
        """The product of one amplitude vector per mode (occupations 0..D), up to total D.

        Formed AMPLITUDE_BLOCK amplitudes at a time into one fresh array, which
        the state takes over without __init__'s copy.
        """
        vectors = [np.asarray(v, dtype=np.complex128) for v in vectors]
        if not vectors:
            raise ValidationError("product state needs at least one mode vector")
        lengths = {v.shape for v in vectors}
        if len(lengths) != 1 or vectors[0].ndim != 1:
            raise ValidationError("mode vectors must be 1-D and equally long")
        modes, cutoff = len(vectors), vectors[0].shape[0] - 1
        _check_state_size(modes, cutoff)
        occupations = _index_tables(modes, cutoff)[0]
        amplitudes = np.empty(occupations.shape[1], dtype=np.complex128)
        for start in range(0, len(amplitudes), AMPLITUDE_BLOCK):
            columns = occupations[:, start:start + AMPLITUDE_BLOCK]
            block = vectors[0][columns[0]]
            for vector, levels in zip(vectors[1:], columns[1:]):
                block *= vector[levels]
            amplitudes[start:start + AMPLITUDE_BLOCK] = block
        state = cls.__new__(cls)
        state.modes, state.cutoff, state.amplitudes = modes, cutoff, amplitudes
        state.truncation_loss = float(truncation_loss)
        return state

    def copy(self) -> "TruncatedFockState":
        return TruncatedFockState(self.modes, self.cutoff, self.amplitudes, self.truncation_loss)

    def squared_norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def amplitude(self, configuration) -> complex:
        config = _as_configuration(configuration)
        if config.modes != self.modes:
            raise ValidationError(
                f"configuration over {config.modes} modes does not match {self.modes}"
            )
        if config.total > self.cutoff:
            return 0.0 + 0.0j
        table = _index_tables(self.modes, self.cutoff)[0]
        (k,) = np.flatnonzero((table.T == config.occupations).all(axis=1))
        return complex(self.amplitudes[k])


def squeezed_vacuum_vector(xi, cutoff: int) -> tuple[np.ndarray, float]:
    """Single-mode squeezed vacuum amplitudes up to ``cutoff``, plus tail mass.

    Only even occupations are populated:
    c_{2k} = (-1)^k sqrt((2k)!) / (2^k k!) * exp(i k theta) tanh^k(r) / sqrt(cosh r),
    evaluated by a stable term-ratio recurrence. The returned tail is the exact
    squared mass of the discarded occupations above the cutoff.
    """
    sq = as_squeezing(xi)
    if cutoff < 0:
        raise ValidationError(f"cutoff must be non-negative, got {cutoff}")
    vec = np.zeros(cutoff + 1, dtype=np.complex128)
    r, theta = sq.r, sq.theta
    c = complex(1.0 / math.sqrt(math.cosh(r)))
    retained = 0.0
    t = math.tanh(r)
    phase = complex(math.cos(theta), math.sin(theta))
    k = 0
    while 2 * k <= cutoff:
        vec[2 * k] = c
        retained += abs(c) ** 2
        c = c * (-phase * t) * math.sqrt((2 * k + 1) * (2 * k + 2)) / (2.0 * (k + 1))
        k += 1
        if c == 0.0:
            break
    tail = max(0.0, 1.0 - retained)
    return vec, tail


def required_cutoff(xi, epsilon_tail: float = 1e-8, modes: int = 1, photons: int = 0) -> int:
    """Smallest total photon cutoff whose input tail mass is <= epsilon_tail.

    The input is ``modes`` identically squeezed vacua with a ladder operator
    on each of the first ``photons``, as in ``build_passv_input``; the defaults
    give one squeezed vacuum. With t = tanh r, a squeezed vacuum's pair count
    has generating function ((1 - t^2) / (1 - t^2 z))^(1/2); a raised or a
    lowered one alike puts (2k+1) C(2k, k) (t/2)^(2k) (1 - t^2)^(3/2) on 2k + 1
    photons, exponent 3/2. So the total is photons + 2k with k negative
    binomial, P(k) = C(k + a - 1, k) (1 - t^2)^a t^(2k), a = modes/2 + photons.
    """
    sq = as_squeezing(xi)
    if epsilon_tail <= 0.0:
        raise ValidationError(f"epsilon_tail must be positive, got {epsilon_tail}")
    if modes < 1 or photons < 0:
        raise ValidationError(f"need modes >= 1 and photons >= 0, got {modes}, {photons}")
    t2 = math.tanh(sq.r) ** 2
    a = modes / 2.0 + photons
    p = math.cosh(sq.r) ** (-2.0 * a)
    retained = p
    k = 0
    while 1.0 - retained > epsilon_tail:
        p *= t2 * (k + a) / (k + 1.0)
        k += 1
        retained += p
        if k > 100_000:
            raise SizeLimitError("squeezed tail does not reach the requested epsilon")
    return photons + 2 * k


def mode_ladder(vector, direction: str) -> np.ndarray:
    """A creation ("raise") or annihilation ("lower") operator on one mode's amplitudes.

    Raising maps occupation k to k+1 with weight sqrt(k+1) and drops the top
    occupation; lowering leaves the top level empty, since its source is not
    held. Returns a new vector, generally unnormalized.
    """
    if direction not in ("raise", "lower"):
        raise ValidationError(f"ladder direction must be 'raise' or 'lower', got {direction!r}")
    vector = np.asarray(vector, dtype=np.complex128)
    out = np.zeros_like(vector)
    weights = np.sqrt(np.arange(1, len(vector)))
    if direction == "raise":
        out[1:] = vector[:-1] * weights
    else:
        out[:-1] = vector[1:] * weights
    return out


def _apply_mode_factors(state: TruncatedFockState, mode: int, factors: np.ndarray):
    factors = np.asarray(factors, dtype=np.complex128)
    state.amplitudes *= factors[_index_tables(state.modes, state.cutoff)[0][mode]]


def _sector_generator(total: int) -> np.ndarray:
    """Antisymmetric generator of a two-mode mixer restricted to a photon total."""
    w = np.sqrt(np.arange(1, total + 1) * np.arange(total, 0, -1.0))  # sqrt((p+1)(N-p))
    return np.diag(w, -1) - np.diag(w, 1)


@lru_cache(maxsize=None)
def _sector_eigenbasis(total: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues w and unitary eigenvectors u of the Hermitian 1j * K_N.

    Then exp(theta K_N) = u diag(exp(-1j theta w)) u^H for every theta. The
    eigenvalues are the integers N - 2p, so eigh is well conditioned.
    """
    w, u = np.linalg.eigh(1j * _sector_generator(total))
    w.flags.writeable = False
    u.flags.writeable = False
    return w, u


def _sector_rotation(total: int, theta: float) -> np.ndarray:
    """The real orthogonal matrix exp(theta K_N) of a mixer on photon total N."""
    w, u = _sector_eigenbasis(total)
    return ((u * np.exp(-1j * theta * w)) @ u.conj().T).real


def apply_beamsplitter(state: TruncatedFockState, i: int, j: int,
                       theta: float) -> TruncatedFockState:
    """Mix modes i and j in place with the real rotation of angle theta.

    Acts exactly within each two-mode photon-total sector with the rotation
    built from that sector's cached eigenbasis. Every sector fits under the
    cutoff, so the squared norm is kept and ``truncation_loss`` is untouched.
    """
    if i == j:
        raise ValidationError("beamsplitter modes must differ")
    if not (0 <= i < state.modes and 0 <= j < state.modes):
        raise ValidationError(f"modes ({i}, {j}) out of range for {state.modes} modes")
    d = state.cutoff
    # Fill the caches before the loop: entries first built between the loop's
    # temporaries would pin freed heap pages and raise the peak RSS.
    for total in range(1, d + 1):
        _sector_eigenbasis(total)
    order, bounds = _pair_gather(state.modes, d, i, j)
    a = state.amplitudes
    for total in range(1, d + 1):
        index = order[bounds[total]:bounds[total + 1]].reshape(total + 1, -1)
        a[index] = _sector_rotation(total, theta) @ a[index]
    return state


def apply_network(state: TruncatedFockState, network) -> TruncatedFockState:
    """Evolve through a decomposition or element list, in place.

    Lists are ordered as matrix factors, so elements are applied back to
    front; a decomposition's residual diagonal is applied before any element.
    Restricted to the single-photon sector this reproduces the matrix action
    of ``reconstruct``.
    """
    if isinstance(network, ReckDecomposition):
        elements = network.elements
        residual = network.residual
        if network.dimension != state.modes:
            raise ValidationError(
                f"decomposition over {network.dimension} modes does not match "
                f"{state.modes}-mode state"
            )
    else:
        elements = tuple(network)
        residual = None
    levels = np.arange(state.cutoff + 1)
    if residual is not None:
        for mode, z in enumerate(residual):
            z = complex(z)
            if z != 1.0 + 0.0j:
                _apply_mode_factors(state, mode, z ** levels)
    for el in reversed(elements):
        if not isinstance(el, TwoModeElement):
            raise ValidationError(f"network elements must be TwoModeElement, got {el!r}")
        if el.j >= state.modes:
            raise ValidationError(
                f"element pair ({el.i}, {el.j}) out of range for {state.modes} modes"
            )
        apply_beamsplitter(state, el.i, el.j, el.theta)
        if el.phi:
            _apply_mode_factors(state, el.i, np.exp(1j * el.phi * levels))
    return state


def build_squeezed_product(modes: int, xi, cutoff: int) -> TruncatedFockState:
    """Identically squeezed vacuum in every mode up to total ``cutoff``, tail loss recorded."""
    if modes < 1:
        raise ValidationError(f"mode count must be positive, got {modes}")
    vec, _ = squeezed_vacuum_vector(xi, cutoff)
    state = TruncatedFockState.from_product([vec] * modes)
    state.truncation_loss = max(0.0, 1.0 - state.squared_norm())
    return state


def build_passv_input(total_photons: int, modes: int, xi, variant: str,
                      cutoff: int) -> TruncatedFockState:
    """Photon-added or photon-subtracted squeezed vacuum over the first n modes.

    Each of the first n mode vectors receives one ladder operation on top of
    its squeezed vacuum and the exact analytic normalization (1/cosh r for
    "added", 1/sinh r for "subtracted"); the product is kept up to total
    ``cutoff``, so the squared norm falls short of 1 only by the recorded
    truncation loss, the input's tail above the cutoff. Subtracting from an
    unsqueezed mode annihilates the vacuum and raises a validation error.
    """
    if variant not in (ADDED, SUBTRACTED):
        raise ValidationError(f"variant must be '{ADDED}' or '{SUBTRACTED}', got {variant!r}")
    if not (1 <= total_photons <= modes):
        raise ValidationError(f"need 1 <= n <= m, got n={total_photons}, m={modes}")
    sq = as_squeezing(xi)
    if variant == SUBTRACTED and sq.r == 0.0:
        raise ValidationError("photon subtraction from vacuum (xi = 0) yields the zero state")
    # One level past the cutoff, so that lowering fills level D too.
    vec, _ = squeezed_vacuum_vector(sq, cutoff + 1)
    if variant == ADDED:
        laddered = mode_ladder(vec, "raise") / math.cosh(sq.r)
    else:
        laddered = mode_ladder(vec, "lower") / math.sinh(sq.r)
    state = TruncatedFockState.from_product(
        [laddered[:cutoff + 1]] * total_photons + [vec[:cutoff + 1]] * (modes - total_photons)
    )
    norm2 = state.squared_norm()
    if norm2 <= 1e-12:
        raise ValidationError("the prepared state vanished; increase the cutoff or the squeezing")
    state.truncation_loss = max(0.0, 1.0 - norm2)
    return state


def parity_distribution(state: TruncatedFockState) -> OutputDistribution:
    """Joint per-mode parity probabilities, normalized by the squared norm.

    Covers all 2^m sign patterns, even outcome first per mode.
    """
    norm2 = state.squared_norm()
    if norm2 <= 1e-300:
        raise ValidationError("parity distribution is undefined for the zero state")
    if norm2 > 1.0 + 1e-9:
        raise ValidationError(f"state squared norm {norm2} exceeds 1")
    # Pattern index of every amplitude, a block at a time: one bit per mode,
    # set when odd, the first mode most significant.
    occupations = _index_tables(state.modes, state.cutoff)[0]
    table = np.zeros(2 ** state.modes)
    for start in range(0, occupations.shape[1], AMPLITUDE_BLOCK):
        columns = occupations[:, start:start + AMPLITUDE_BLOCK]
        pattern = (1 << np.arange(state.modes - 1, -1, -1)) @ (columns & 1)
        probs = np.abs(state.amplitudes[start:start + AMPLITUDE_BLOCK])
        probs **= 2
        table += np.bincount(pattern, weights=probs, minlength=len(table))
    pairs = []
    for idx, p in zip(np.ndindex((2,) * state.modes), table.tolist()):
        pattern_key = ParityPattern(tuple(1 if b == 0 else -1 for b in idx))
        pairs.append((pattern_key, p / norm2))
    return OutputDistribution(pairs)


def number_distribution(state: TruncatedFockState) -> OutputDistribution:
    """Joint photon-number probabilities over all retained occupation tuples.

    One entry per amplitude in an array-backed table, whose ModeConfiguration
    keys are made only when a caller asks for them. States over
    SUPPORT_SIZE_LIMIT amplitudes are refused before the table is built.
    """
    if len(state.amplitudes) > SUPPORT_SIZE_LIMIT:
        raise SizeLimitError(
            f"a number distribution of {len(state.amplitudes)} amplitudes exceeds "
            f"{SUPPORT_SIZE_LIMIT} entries"
        )
    norm2 = state.squared_norm()
    if norm2 <= 1e-300:
        raise ValidationError("number distribution is undefined for the zero state")
    probs = np.abs(state.amplitudes) ** 2 / norm2
    occupations = _index_tables(state.modes, state.cutoff)[0]
    return OutputDistribution(occupations=occupations.T, probabilities=probs)


def state_overlap(a: TruncatedFockState, b: TruncatedFockState) -> complex:
    """Inner product <a|b>, conjugating the first argument."""
    if (a.modes, a.cutoff) != (b.modes, b.cutoff):
        raise ValidationError("states must share mode count and cutoff: "
                              f"({a.modes}, {a.cutoff}) vs ({b.modes}, {b.cutoff})")
    return complex(np.vdot(a.amplitudes, b.amplitudes))
