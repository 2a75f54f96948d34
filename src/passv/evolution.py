"""Brute-force evolution of truncated multimode Fock states.

States live on a dense (d+1)^m amplitude tensor with a per-mode occupation
cutoff d. Two-mode mixers act exactly within each total-photon sector N: the
sector rotation exp(theta K_N) is assembled from an eigenbasis of the
generator K_N that is computed once per N and cached, so no matrix
exponential is evaluated per call. Amplitude pushed past the cutoff is dropped
and its squared magnitude accumulated in ``truncation_loss``, so squared norm
plus recorded loss is conserved.

Element lists follow the matrix-factor order used by the decomposition
module: the first element of a list is the last operation applied to a state,
and a residual diagonal acts first of all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np
from scipy.linalg import expm  # noqa: F401  (unused; perfbench/tracing.py wraps this name)

from .configurations import ModeConfiguration, ParityPattern, _as_configuration
from .distributions import OutputDistribution
from .errors import SizeLimitError, ValidationError
from .networks import ReckDecomposition, TwoModeElement

ADDED = "added"
SUBTRACTED = "subtracted"

STATE_SIZE_LIMIT = 25_000_000  # complex amplitudes; 400 MB


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


def _check_state_size(modes: int, cutoff: int) -> None:
    """Refuse a (cutoff+1)^modes tensor over STATE_SIZE_LIMIT before it is built."""
    if (int(cutoff) + 1) ** int(modes) > STATE_SIZE_LIMIT:
        raise SizeLimitError(
            f"state tensor {(cutoff + 1,) * modes} exceeds {STATE_SIZE_LIMIT} "
            "amplitudes; reduce the squeezing or epsilon_tail"
        )


class TruncatedFockState:
    """Dense amplitudes over (cutoff+1)^modes occupation tuples.

    Mutated in place by the apply_* operations; callers that need the original
    should ``copy()`` first.
    """

    def __init__(self, modes: int, cutoff: int, amplitudes: np.ndarray | None = None,
                 truncation_loss: float = 0.0):
        if modes < 1:
            raise ValidationError(f"mode count must be positive, got {modes}")
        if cutoff < 0:
            raise ValidationError(f"cutoff must be non-negative, got {cutoff}")
        _check_state_size(modes, cutoff)
        shape = (cutoff + 1,) * modes
        if amplitudes is None:
            amplitudes = np.zeros(shape, dtype=np.complex128)
            amplitudes[(0,) * modes] = 1.0
        else:
            amplitudes = np.asarray(amplitudes, dtype=np.complex128)
            if amplitudes.shape != shape:
                raise ValidationError(
                    f"amplitude tensor shape {amplitudes.shape} does not match {shape}"
                )
            amplitudes = amplitudes.copy()
        self.modes = modes
        self.cutoff = cutoff
        self.amplitudes = amplitudes
        self.truncation_loss = float(truncation_loss)

    @classmethod
    def vacuum(cls, modes: int, cutoff: int) -> "TruncatedFockState":
        return cls(modes, cutoff)

    @classmethod
    def from_product(cls, vectors, truncation_loss: float = 0.0) -> "TruncatedFockState":
        vectors = [np.asarray(v, dtype=np.complex128) for v in vectors]
        if not vectors:
            raise ValidationError("product state needs at least one mode vector")
        lengths = {v.shape for v in vectors}
        if len(lengths) != 1 or vectors[0].ndim != 1:
            raise ValidationError("mode vectors must be 1-D and equally long")
        _check_state_size(len(vectors), vectors[0].shape[0] - 1)
        # The outer product is a fresh array (the copied first vector covers
        # m = 1), so the state takes it over without __init__'s copy.
        state = cls.__new__(cls)
        state.modes = len(vectors)
        state.cutoff = vectors[0].shape[0] - 1
        state.amplitudes = reduce(np.multiply.outer, vectors[1:], vectors[0].copy())
        state.truncation_loss = float(truncation_loss)
        return state

    def copy(self) -> "TruncatedFockState":
        return TruncatedFockState(
            self.modes, self.cutoff, self.amplitudes, self.truncation_loss
        )

    def squared_norm(self) -> float:
        return float(np.vdot(self.amplitudes, self.amplitudes).real)

    def amplitude(self, configuration) -> complex:
        config = _as_configuration(configuration)
        if config.modes != self.modes:
            raise ValidationError(
                f"configuration over {config.modes} modes does not match {self.modes}"
            )
        if any(k > self.cutoff for k in config):
            return 0.0 + 0.0j
        return complex(self.amplitudes[config.occupations])

    def snapshot_dict(self, threshold: float = 1e-14) -> dict:
        """Debug record: indices and amplitudes above ``threshold`` in modulus."""
        entries = []
        for idx in np.ndindex(self.amplitudes.shape):
            a = self.amplitudes[idx]
            if abs(a) > threshold:
                entries.append([list(idx), float(a.real), float(a.imag)])
        return {
            "m": self.modes,
            "d": self.cutoff,
            "loss": float(self.truncation_loss),
            "amps": entries,
        }


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


def required_cutoff(xi, epsilon_tail: float = 1e-8, headroom: int = 0) -> int:
    """Minimal even cutoff whose squeezed-vacuum tail mass is <= epsilon_tail,
    plus ``headroom`` extra levels for subsequent photon additions."""
    sq = as_squeezing(xi)
    if epsilon_tail <= 0.0:
        raise ValidationError(f"epsilon_tail must be positive, got {epsilon_tail}")
    if headroom < 0:
        raise ValidationError(f"headroom must be non-negative, got {headroom}")
    if sq.r == 0.0:
        return headroom
    t = math.tanh(sq.r)
    c2 = 1.0 / math.cosh(sq.r)
    retained = c2
    d = 0
    while 1.0 - retained > epsilon_tail:
        c2 = c2 * t * t * (2 * d + 1) * (2 * d + 2) / (4.0 * (d + 1.0) ** 2)
        d += 1
        retained += c2
        if d > 100_000:
            raise SizeLimitError("squeezed tail does not reach the requested epsilon")
    return 2 * d + headroom


def _mode_axis_view(state: TruncatedFockState, mode: int) -> np.ndarray:
    if not (0 <= mode < state.modes):
        raise ValidationError(f"mode {mode} out of range for {state.modes} modes")
    return np.moveaxis(state.amplitudes, mode, 0)


def apply_ladder(state: TruncatedFockState, mode: int, direction: str) -> TruncatedFockState:
    """Apply a creation ("raise") or annihilation ("lower") operator in place.

    Raising maps occupation k to k+1 with weight sqrt(k+1); the component at
    the cutoff is dropped and recorded in ``truncation_loss``. Lowering is
    exact. The state is generally unnormalized afterwards.
    """
    if direction not in ("raise", "lower"):
        raise ValidationError(f"ladder direction must be 'raise' or 'lower', got {direction!r}")
    # One occupation slice at a time, in the order that reads each slice
    # before it is overwritten, so no second state tensor is allocated.
    a = _mode_axis_view(state, mode)
    d = state.cutoff
    if direction == "raise":
        state.truncation_loss += float(np.sum(np.abs(a[d]) ** 2)) * (d + 1)
        for k in range(d, 0, -1):
            a[k] = a[k - 1] * math.sqrt(k)
        a[0] = 0.0
    else:
        for k in range(d):
            a[k] = a[k + 1] * math.sqrt(k + 1)
        a[d] = 0.0
    return state


def _apply_mode_factors(state: TruncatedFockState, mode: int, factors: np.ndarray):
    view = _mode_axis_view(state, mode)
    view *= np.asarray(factors, dtype=np.complex128).reshape(
        (-1,) + (1,) * (state.modes - 1)
    )


def _sector_generator(total: int) -> np.ndarray:
    """Antisymmetric generator of a two-mode mixer restricted to a photon total."""
    k = np.zeros((total + 1, total + 1))
    for p in range(total):
        w = math.sqrt((p + 1) * (total - p))
        k[p + 1, p] = w
        k[p, p + 1] = -w
    return k


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
    built from that sector's cached eigenbasis; sectors whose total exceeds
    the cutoff lose the amplitude routed past it, which is added to
    ``truncation_loss``.
    """
    if i == j:
        raise ValidationError("beamsplitter modes must differ")
    if not (0 <= i < state.modes and 0 <= j < state.modes):
        raise ValidationError(
            f"modes ({i}, {j}) out of range for {state.modes} modes"
        )
    d = state.cutoff
    # Fill the cache before the loop: entries first built between the loop's
    # temporaries would pin freed heap pages and raise the peak RSS.
    for total in range(1, 2 * d + 1):
        _sector_eigenbasis(total)
    # A view with modes i and j in front: each sector is gathered, rotated
    # and written back through it, so no second state tensor is allocated.
    a = np.moveaxis(state.amplitudes, (i, j), (0, 1))
    for total in range(1, 2 * d + 1):
        lo = max(0, total - d)
        hi = min(d, total)
        ps = np.arange(lo, hi + 1)
        full = _sector_rotation(total, theta)
        block = full if total <= d else full[np.ix_(ps, ps)]
        vin = a[ps, total - ps].reshape(len(ps), -1)
        vout = block @ vin
        if total > d:
            lost = float(np.sum(np.abs(vin) ** 2) - np.sum(np.abs(vout) ** 2))
            state.truncation_loss += max(0.0, lost)
        a[ps, total - ps] = vout.reshape((len(ps),) + a.shape[2:])
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
    """Identically squeezed vacuum in every mode, with tail loss recorded."""
    if modes < 1:
        raise ValidationError(f"mode count must be positive, got {modes}")
    vec, _ = squeezed_vacuum_vector(xi, cutoff)
    state = TruncatedFockState.from_product([vec] * modes)
    state.truncation_loss = max(0.0, 1.0 - state.squared_norm())
    return state


def build_passv_input(total_photons: int, modes: int, xi, variant: str,
                      cutoff: int) -> TruncatedFockState:
    """Photon-added or photon-subtracted squeezed vacuum over the first n modes.

    Each of the first n modes receives one ladder operation on top of its
    squeezed vacuum, then the exact analytic normalization is applied
    (cosh(r)^-n for "added", sinh(r)^-n for "subtracted"), so the squared norm
    falls short of 1 only by the recorded truncation loss. Subtracting from an
    unsqueezed mode annihilates the vacuum and raises a validation error.
    """
    if variant not in (ADDED, SUBTRACTED):
        raise ValidationError(f"variant must be '{ADDED}' or '{SUBTRACTED}', got {variant!r}")
    if not (1 <= total_photons <= modes):
        raise ValidationError(
            f"need 1 <= n <= m, got n={total_photons}, m={modes}"
        )
    sq = as_squeezing(xi)
    if variant == SUBTRACTED and sq.r == 0.0:
        raise ValidationError(
            "photon subtraction from vacuum (xi = 0) yields the zero state"
        )
    vec, _ = squeezed_vacuum_vector(sq, cutoff)
    state = TruncatedFockState.from_product([vec] * modes)
    direction = "raise" if variant == ADDED else "lower"
    for mode in range(total_photons):
        apply_ladder(state, mode, direction)
    scale = math.cosh(sq.r) if variant == ADDED else math.sinh(sq.r)
    state.amplitudes *= scale ** (-total_photons)
    norm2 = state.squared_norm()
    if norm2 <= 1e-12:
        raise ValidationError(
            "the prepared state vanished; increase the cutoff or the squeezing"
        )
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
    probs = np.abs(state.amplitudes) ** 2
    dim = state.cutoff + 1
    for axis in range(state.modes):
        even = probs.take(np.arange(0, dim, 2), axis=axis).sum(axis=axis)
        odd = probs.take(np.arange(1, dim, 2), axis=axis).sum(axis=axis)
        probs = np.stack([even, odd], axis=axis)
    pairs = []
    for idx in np.ndindex((2,) * state.modes):
        pattern = ParityPattern(tuple(1 if b == 0 else -1 for b in idx))
        pairs.append((pattern, float(probs[idx]) / norm2))
    return OutputDistribution(pairs)


def number_distribution(state: TruncatedFockState) -> OutputDistribution:
    """Joint photon-number probabilities over all retained occupation tuples."""
    norm2 = state.squared_norm()
    if norm2 <= 1e-300:
        raise ValidationError("number distribution is undefined for the zero state")
    probs = np.abs(state.amplitudes) ** 2 / norm2
    pairs = [
        (ModeConfiguration(idx), float(probs[idx]))
        for idx in np.ndindex(state.amplitudes.shape)
    ]
    return OutputDistribution(pairs)


def state_overlap(a: TruncatedFockState, b: TruncatedFockState) -> complex:
    """Inner product <a|b>, conjugating the first argument."""
    if a.modes != b.modes or a.cutoff != b.cutoff:
        raise ValidationError(
            "states must share mode count and cutoff: "
            f"({a.modes}, {a.cutoff}) vs ({b.modes}, {b.cutoff})"
        )
    return complex(np.vdot(a.amplitudes, b.amplitudes))
