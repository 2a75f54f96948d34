"""Brute-force evolution of truncated multimode Fock states.

A state over m modes holds one amplitude for every occupation tuple whose
total photon number is at most the cutoff D, in one flat vector, in
lexicographic order with the first mode most significant: C(D+m, m)
amplitudes. A state whose amplitudes all have totals of one parity holds
only the totals of that parity, about half as many; a product of mode
vectors that each have only even or only odd levels is such a state, as
are squeezed vacuum and every PASSV input, whose totals are n + 2k. Two
states meet (``state_overlap``) only when they share one layout.
Passive networks never move amplitude between photon totals, so nothing is
lost while a network is applied and the parity is kept. A network moves the
state into the pair-sorted order of its first mixer, where, for each
subtotal s of the pair, the (s+1) x G block of the pair's splits of s
against the G occupations of the other modes that fit under D - s is one
contiguous slice. Each mixer rotates those slices with exp(theta K_s), an
element phase scales their rows, and one held int32 permutation moves the
state on into the next mixer's order; after the last mixer it is scattered
back to canonical order once. A network builds
the sector rotations of all its mixers at once, one stack per subtotal, from
half an eigenbasis of the generator K_s: 1j K_s is Hermitian and purely
imaginary, so the eigenvector of -w is the conjugate of that of w, and
exp(theta K_s) is a real sum over the eigenvalues w >= 0 alone, formed for
every angle in one batched real matrix product. The eigenbasis is in closed
form, the 50:50 mixer exp(pi/4 K_s) with its rows phased by i^r, and the
50:50 mixers of every subtotal come from one stable recursion over s: no
eigensolver runs. Only the real columns w >= 0 of each 50:50 mixer are held;
an op phases their rows. One layout is held at a time, with its moves
between pair-sorted orders and the eigenbases up to its cutoff; the size
guard (``_state_bytes`` against ``errors.MEMORY_LIMIT``) counts it with one
state, the spare state-sized array the mixers move it into, and one
network's rotations. The only truncation is the input's mass above total
D; for a PASSV input, ``sector_weights`` gives it, and the weight of every
total, in closed form.

Squared norms and overlaps are einsum sums, not BLAS dot products: a dot
product of a state's length wakes OpenBLAS's other threads, which then spin
through the rest of the op. An op on the benchmark inputs, cold or warm,
makes no BLAS or LAPACK call large enough to be threaded, so it runs on one
core.

A state's dtype follows its inputs: float64 when every amplitude it is built
from has a zero imaginary part, complex128 otherwise. Sector rotations are
real, so a mixer keeps a real state real; it multiplies a complex state's
interleaved real and imaginary parts as one real matrix. A mode factor with
a nonzero imaginary part (a complex residual or element phase) promotes a
real state to complex128 once, the first time one is applied.

Networks are applied as ReckDecompositions, in the matrix-factor order of
the decomposition module: the first element is the last operation applied to
a state, and the residual diagonal acts first of all.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

from .configurations import (
    ParityPattern,
    _as_configuration,
    bounded_occupations,
)
from .distributions import OutputDistribution
from .errors import SizeLimitError, ValidationError, check_memory
from .networks import ReckDecomposition, TwoModeElement
from .sampling import SUPPORT_SIZE_LIMIT

ADDED = "added"
SUBTRACTED = "subtracted"

# Modules and library code that a process's first network op maps beside its
# arrays (numpy.random for the draw among them): max RSS rose 7.4 to 8.3 MiB
# for a one-photon op at r = 0.1, m = 1 to 4.
FIRST_OP_BYTES = 12 << 20
AMPLITUDE_BLOCK = 16_384  # amplitudes at a time in from_product, mode factors and moves


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
        # cosh r is finite up to r = asinh(max float), about 710.48.
        if not 0.0 <= self.r <= math.asinh(np.finfo(np.float64).max):
            raise ValidationError("squeezing magnitude must be >= 0 and at most about 710.48, "
                                  f"past which cosh r overflows; got {self.r}")
        if not math.isfinite(self.theta):
            raise ValidationError(f"squeezing phase must be finite, got {self.theta}")

    @property
    def xi(self) -> complex:
        return self.r * complex(math.cos(self.theta), math.sin(self.theta))


def as_squeezing(value) -> Squeezing:
    if isinstance(value, Squeezing):
        return value
    if isinstance(value, complex):
        return Squeezing(abs(value), math.atan2(value.imag, value.real))
    return Squeezing(float(value))


def _amplitude_count(modes: int, cutoff: int, parity: int | None) -> int:
    """Occupation tuples over ``modes`` with total <= ``cutoff``, of ``parity`` if one is set."""
    if parity is None:
        return math.comb(cutoff + modes, modes)
    return sum(math.comb(total + modes - 1, total) for total in range(parity, cutoff + 1, 2))


def _held_moves(modes: int) -> int:
    """Moves between pair-sorted orders that ``_pair_gather`` holds at most: 2m - 3.

    That is what a Reck network on adjacent pairs makes, counting the gather
    from canonical order, which also scatters the state back: 1, 3, 5 and 7
    at m = 2 to 5. One mode has no pair.
    """
    return max(2 * modes - 3, 0)


def _state_bytes(modes: int, cutoff: int, parity: int | None = None) -> int:
    """Bytes of every array a state over ``modes`` up to ``cutoff`` photons needs.

    This is the count ``_check_state_size`` holds to ``errors.MEMORY_LIMIT``.
    Per stored amplitude (every total, or those of ``parity``): the amplitude
    and one workspace (the spare a network's mixers move the state into, a
    copy, or the squares and widened bins of ``parity_sectors``), 16 bytes
    each; one held occupation per mode and one sector bin; with two modes or
    more, one held 4-byte index for each of at most 2m - 3 moves between
    pair-sorted orders, as many as a Reck network makes counting the gather
    from canonical order (``_pair_gather`` holds no more, and builds each
    from places streamed block by block, beside nothing state-sized). With
    two modes or more, a network has E = m(m-1)/2 mixers, and
    per subtotal s <= D: 8 E (s+1)^2 bytes of real rotations; the held half
    eigenbasis, the real 50:50 columns of its h = s//2 + 1 eigenvalues
    w >= 0, 8 (s+1) h; and under 1 KB of array objects. Besides, the top
    total's temporaries: the recursion's buffers (two raised copies of the
    50:50 mixer of D - 1, the mixer of D and two temporaries), 40 (D+1)^2,
    and after them the phase table and the complex u 2 exp(-1j theta w),
    16 E (D+1) (h+1), and the complex u with its row phases, 16 (D+1) (h+1);
    and FIRST_OP_BYTES. A one-mode network has no mixer and builds none of
    these, and its state is bounded by ``sector_weights`` long before this
    count, so it is counted by its amplitudes alone.
    """
    bin_bytes = np.min_scalar_type(((cutoff + 1) << modes) - 1).itemsize
    per_amplitude = (32 + modes * np.min_scalar_type(cutoff).itemsize + bin_bytes
                     + 4 * _held_moves(modes))
    amplitudes = _amplitude_count(modes, cutoff, parity) * per_amplitude
    if modes < 2:
        return amplitudes
    mixers = modes * (modes - 1) // 2
    held = sum((8 * mixers * (s + 1) + 8 * (s // 2 + 1)) * (s + 1) + 1024
               for s in range(cutoff + 1))
    top_total = (40 * (cutoff + 1) + 16 * (mixers + 1) * (cutoff // 2 + 2)) * (cutoff + 1)
    return amplitudes + held + top_total + FIRST_OP_BYTES


def _check_state_size(modes: int, cutoff: int, parity: int | None = None) -> None:
    """Refuse a state whose arrays, as ``_state_bytes`` counts them, exceed MEMORY_LIMIT."""
    check_memory(_state_bytes(modes, cutoff, parity),
                 f"a {modes}-mode state up to {cutoff} photons "
                 f"({_amplitude_count(modes, cutoff, parity)} amplitudes)",
                 "; reduce the squeezing or raise epsilon_tail")


def _real_or_complex(values) -> np.ndarray:
    """A new float64 array of ``values`` if no imaginary part is nonzero, else complex128."""
    values = np.asarray(values)
    if np.iscomplexobj(values) and np.any(values.imag):
        return values.astype(np.complex128)
    return values.real.astype(np.float64)


@dataclass
class _Slot:
    """The layout held: its (modes, cutoff, parity) ``key``, its ``_index_tables``
    and the sector eigenbases of photon totals 0, 1, ... up to its cutoff."""

    key: tuple[int, int, int | None] | None = None
    tables: tuple = ()
    eigenbases: list = field(default_factory=list)


_slot = _Slot()


def _index_tables(modes: int, cutoff: int, parity: int | None = None
                  ) -> tuple[np.ndarray, np.ndarray, dict]:
    """Occupation table, sector bins and a dict of the moves between pair-sorted orders of a layout.

    The table is ``bounded_occupations(modes, cutoff, parity)``: every total
    up to the cutoff, or with a parity only the totals of that parity.
    Column k is for amplitude k, whose bin is its total times 2^m plus its
    parity pattern; ``_pair_gather`` fills the dict on first use. Only the
    layout in use is held: a different one drops it, and the eigenbases of
    totals above its own cutoff (every eigenbasis, for one mode, which mixes
    nothing), before it is built.
    """
    key = (modes, cutoff, parity)
    if _slot.key != key:
        _slot.key, _slot.tables = None, ()
        del _slot.eigenbases[cutoff + 1 if modes > 1 else 0:]
        table = bounded_occupations(modes, cutoff, parity)
        # Shifted once per mode: the total ends up times 2^m, mode 0's parity in bit m - 1.
        bins = table.sum(axis=0, dtype=np.min_scalar_type(((cutoff + 1) << modes) - 1))
        for level in table:
            bins <<= 1
            bins |= level & 1
        for array in (table, bins):
            array.flags.writeable = False
        _slot.key, _slot.tables = key, (table, bins, {})
    return _slot.tables


def _gather(values: np.ndarray, move: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[k] = values[move[k]]``, widening the int32 move AMPLITUDE_BLOCK indices at a time.

    ``mode="clip"`` because, with ``out``, numpy's default ``"raise"`` first
    gathers into a buffer of its own; every move is in range by construction.
    """
    for start in range(0, len(move), AMPLITUDE_BLOCK):
        block = slice(start, start + AMPLITUDE_BLOCK)
        np.take(values, move[block], out=out[block], mode="clip")
    return out


def _scatter(values: np.ndarray, move: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``out[move[k]] = values[k]``, undoing ``_gather``, AMPLITUDE_BLOCK indices at a time."""
    for start in range(0, len(move), AMPLITUDE_BLOCK):
        block = slice(start, start + AMPLITUDE_BLOCK)
        # Widened here: numpy's own conversion for an int32 index is slower.
        out[move[block].astype(np.intp)] = values[block]
    return out


def _pair_positions(occupations: np.ndarray, cutoff: int, pair: tuple[int, int]):
    """The place of each amplitude in ``pair``'s order, block by block, and the sector bounds.

    The pair's order sorts the amplitudes stably by their run (s, p), the
    pair's subtotal s and then mode i's occupation p. A counting sort places
    them without sorting the state: one pass counts the runs, and a second
    gives each amplitude, AMPLITUDE_BLOCK at a time in canonical order, the
    next free place of its run. The second pass is a generator of intp
    blocks, so nothing state-sized is made.
    """
    i, j = pair
    width = cutoff + 1
    starts = range(0, occupations.shape[1], AMPLITUDE_BLOCK)

    def runs(start):
        first = occupations[i, start:start + AMPLITUDE_BLOCK].astype(np.intp)
        return (first + occupations[j, start:start + AMPLITUDE_BLOCK]) * width + first

    sizes = sum((np.bincount(runs(start), minlength=width * width) for start in starts),
                np.zeros(width * width, dtype=np.intp))

    def positions():
        free = np.cumsum(sizes) - sizes  # the next free place of each run
        for start in starts:
            block = runs(start)
            local = np.argsort(block, kind="stable")
            counts = np.bincount(block, minlength=width * width)
            ranked = block[local]
            firsts = np.cumsum(counts) - counts  # where each run starts in the sorted block
            placed = np.empty_like(block)
            placed[local] = free[ranked] + np.arange(len(ranked)) - firsts[ranked]
            free += counts
            yield placed

    return positions(), [0, *np.cumsum(sizes.reshape(width, width).sum(axis=1)).tolist()]


def _move(occupations: np.ndarray, cutoff: int, step) -> tuple[np.ndarray, list[int]]:
    """The move of ``step`` and the target's sector bounds.

    ``move[q]`` is the place in the source's order of the amplitude at place q
    of the target's order. Both orders' places are streamed block by block,
    so the move is the one state-sized array made.
    """
    source, target = step
    targets, bounds = _pair_positions(occupations, cutoff, target)
    if source is None:
        sources = (np.arange(start, start + AMPLITUDE_BLOCK)
                   for start in range(0, occupations.shape[1], AMPLITUDE_BLOCK))
    else:
        sources = _pair_positions(occupations, cutoff, source)[0]
    move = np.empty(occupations.shape[1], dtype=np.int32)
    for places, comes_from in zip(targets, sources):
        move[places] = comes_from[:len(places)]
    return move, bounds


def _pair_gather(modes: int, cutoff: int, parity: int | None, steps) -> None:
    """Hold the move of each (source, target) in ``steps``, between orders of a layout.

    An order is canonical (None) or that of a mixer on the mode pair (i, j).
    A stable sort by the pair's subtotal s, then by mode i's occupation, lays
    sector s out as s + 1 equal runs, one per occupation p of mode i. Within
    a run the other modes keep their lexicographic order, which is the same
    in every run, so ``a[bounds[s]:bounds[s + 1]].reshape(s + 1, -1)`` is the
    contiguous block that the sector rotation acts on, row p. A one-parity
    layout keeps the runs equal: the other modes' total must have the parity
    of ``parity - s``. The move from source to target is the int32
    permutation inverse(order_source)[order_target], which ``_gather`` takes
    a source-ordered state through; from canonical order it is the target's
    order itself, which ``_scatter`` also takes the state back through. It
    is held in the layout's dict under (source, target), with the target's
    sector bounds. At most ``_held_moves(modes)`` = 2m - 3 are held: a new
    move drops the oldest move that ``steps`` does not use, and is not held
    when every held move is one of ``steps``. So a walk that needs more, such
    as a Reck network with a skipped step (2m - 2), keeps its first 2m - 3
    and ``_mix`` builds the rest when it reaches them.
    """
    occupations, _, moves = _index_tables(modes, cutoff, parity)
    for step in steps:
        if step[0] == step[1] or step in moves:
            continue
        stale = [held for held in moves if held not in steps]
        if len(moves) >= _held_moves(modes) and not stale:
            return
        move, bounds = _move(occupations, cutoff, step)
        if len(moves) >= _held_moves(modes):
            del moves[stale[0]]
        move.flags.writeable = False
        moves[step] = move, bounds


class TruncatedFockState:
    """Amplitudes of the occupation tuples over ``modes`` with total <= ``cutoff``.

    ``amplitudes`` is flat, ordered like the columns of the occupation table
    of ``_index_tables(modes, cutoff, parity)``; the vacuum comes first when
    it is held. ``parity`` is None for a state that holds every total, which
    is what __init__ makes, or 0 or 1 for one that holds only the totals of
    that parity, as ``from_product`` makes when the product has one. The
    amplitudes are float64 when every given amplitude has a zero imaginary
    part and complex128 otherwise. Mutated in place by the apply_*
    operations; callers that need the original should ``copy()`` first.
    """

    def __init__(self, modes: int, cutoff: int, amplitudes: np.ndarray | None = None):
        if modes < 1:
            raise ValidationError(f"mode count must be positive, got {modes}")
        if cutoff < 0:
            raise ValidationError(f"cutoff must be non-negative, got {cutoff}")
        _check_state_size(modes, cutoff)
        shape = (math.comb(cutoff + modes, modes),)
        if amplitudes is None:
            amplitudes = np.zeros(shape)
            amplitudes[0] = 1.0
        else:
            amplitudes = _real_or_complex(amplitudes)
            if amplitudes.shape != shape:
                raise ValidationError(
                    f"amplitude vector shape {amplitudes.shape} does not match {shape}"
                )
        self.modes, self.cutoff, self.parity, self.amplitudes = modes, cutoff, None, amplitudes

    @classmethod
    def _holding(cls, modes: int, cutoff: int, parity: int | None,
                 amplitudes: np.ndarray) -> "TruncatedFockState":
        """A state that takes over ``amplitudes``, already laid out for ``parity``."""
        state = cls.__new__(cls)
        state.modes, state.cutoff, state.parity, state.amplitudes = (
            modes, cutoff, parity, amplitudes)
        return state

    @classmethod
    def from_product(cls, vectors) -> "TruncatedFockState":
        """The product of one amplitude vector per mode (occupations 0..D), up to total D.

        When every vector is nonzero only at even levels or only at odd ones,
        every total of the product has one parity, and the state holds only
        the totals of that parity; otherwise it holds every total. Formed
        AMPLITUDE_BLOCK amplitudes at a time into one fresh array, which the
        state takes over without __init__'s copy. The product is float64
        unless some vector has a nonzero imaginary part.
        """
        vectors = [_real_or_complex(v) for v in vectors]
        if not vectors:
            raise ValidationError("product state needs at least one mode vector")
        lengths = {v.shape for v in vectors}
        if len(lengths) != 1 or vectors[0].ndim != 1:
            raise ValidationError("mode vectors must be 1-D and equally long")
        modes, cutoff = len(vectors), vectors[0].shape[0] - 1
        level_parities = [set((np.flatnonzero(v) % 2).tolist()) for v in vectors]
        parity = None
        if all(len(found) <= 1 for found in level_parities):
            parity = sum(sum(found) for found in level_parities) % 2
        _check_state_size(modes, cutoff, parity)
        dtype = np.result_type(*vectors)
        vectors = [v.astype(dtype, copy=False) for v in vectors]
        occupations = _index_tables(modes, cutoff, parity)[0]
        amplitudes = np.empty(occupations.shape[1], dtype=dtype)
        gathered = np.empty(min(AMPLITUDE_BLOCK, len(amplitudes)), dtype=dtype)
        for start in range(0, len(amplitudes), AMPLITUDE_BLOCK):
            columns = occupations[:, start:start + AMPLITUDE_BLOCK]
            block, factors = amplitudes[start:start + AMPLITUDE_BLOCK], gathered[:columns.shape[1]]
            np.take(vectors[0], columns[0], out=block, mode="clip")
            for vector, levels in zip(vectors[1:], columns[1:]):
                block *= np.take(vector, levels, out=factors, mode="clip")
        return cls._holding(modes, cutoff, parity, amplitudes)

    def copy(self) -> "TruncatedFockState":
        return self._holding(self.modes, self.cutoff, self.parity, self.amplitudes.copy())

    def squared_norm(self) -> float:
        # einsum, not vdot, which wakes OpenBLAS's threads (module docstring).
        parts = self.amplitudes.view(np.float64)
        return float(np.einsum("i,i->", parts, parts))

    def amplitude(self, configuration) -> complex:
        config = _as_configuration(configuration)
        if config.modes != self.modes:
            raise ValidationError(
                f"configuration over {config.modes} modes does not match {self.modes}"
            )
        if config.total > self.cutoff or self.parity not in (None, config.total % 2):
            return 0.0 + 0.0j
        table = _index_tables(self.modes, self.cutoff, self.parity)[0]
        (k,) = np.flatnonzero((table.T == config.occupations).all(axis=1))
        return complex(self.amplitudes[k])


def squeezed_vacuum_vector(xi, cutoff: int) -> tuple[np.ndarray, float]:
    """Single-mode squeezed vacuum amplitudes up to ``cutoff``, plus tail mass.

    Only even occupations are populated:
    c_{2k} = (-1)^k sqrt((2k)!) / (2^k k!) * exp(i k theta) tanh^k(r) / sqrt(cosh r),
    evaluated by a stable term-ratio recurrence. The returned tail is the
    squared mass of the occupations above the cutoff, |c_{2k}|^2 summed from
    the terms above it as ``sector_weights`` does: each ratio is below
    tanh^2 r, so terms are made until the rest is negligible. Where the kept
    mass is under 1/2, 1 minus it is as exact, and is taken instead.
    """
    sq = as_squeezing(xi)
    if cutoff < 0:
        raise ValidationError(f"cutoff must be non-negative, got {cutoff}")
    vec = np.zeros(cutoff + 1, dtype=np.complex128)
    r, theta = sq.r, sq.theta
    c = complex(1.0 / math.sqrt(math.cosh(r)))
    kept = []
    t = math.tanh(r)
    phase = complex(math.cos(theta), math.sin(theta))
    k = 0
    while 2 * k <= cutoff:
        vec[2 * k] = c
        kept.append(abs(c) ** 2)
        c = c * (-phase * t) * math.sqrt((2 * k + 1) * (2 * k + 2)) / (2.0 * (k + 1))
        k += 1
        if c == 0.0:
            break
    t2 = t * t
    if math.fsum(kept) < 0.5 or t2 >= 1.0:
        return vec, max(0.0, 1.0 - math.fsum(kept))
    terms, weight, rough = [], abs(c) ** 2, 0.0
    while weight > 0.0:
        terms.append(weight)
        rough += weight
        if weight * t2 / (1.0 - t2) <= 2.0 ** -53 * rough:
            break
        weight *= t2 * (2 * k + 1) / (2 * k + 2)
        k += 1
    return vec, math.fsum(terms)


def sector_weights(xi, epsilon_tail: float = 1e-8, modes: int = 1,
                   photons: int = 0) -> tuple[np.ndarray, float]:
    """Weights w_0..w_K of the input's photon totals photons + 2k, and the tail above K.

    The input is that of ``build_passv_input``. With t = tanh r, a squeezed
    vacuum's pair count has generating function ((1 - t^2)/(1 - t^2 z))^(1/2),
    a raised or lowered one the exponent 3/2, so for both variants and any
    phase w_k = C(k + a - 1, k) (1 - t^2)^a t^(2k), a = modes/2 + photons. K
    is the smallest k whose tail, summed from the terms above it, fits
    epsilon_tail. Every ratio past term k is at most q = t^2 max(1, (k+a)/(k+1)):
    terms are made until the rest, at most w_k q/(1 - q), is negligible.
    """
    sq = as_squeezing(xi)
    if not (math.isfinite(epsilon_tail) and epsilon_tail > 0.0):
        raise ValidationError(f"epsilon_tail must be finite and positive, got {epsilon_tail}")
    if modes < 1 or photons < 0:
        raise ValidationError(f"need modes >= 1 and photons >= 0, got {modes}, {photons}")
    t2, a = math.tanh(sq.r) ** 2, modes / 2.0 + photons
    terms, top = [math.cosh(sq.r) ** (-2.0 * a)], None
    while True:
        k = len(terms) - 1
        if k > 100_000 or terms[0] == 0.0:  # too wide, or w_0 underflowed
            raise SizeLimitError("squeezed tail does not reach the requested epsilon")
        q = t2 * max(1.0, (k + a) / (k + 1.0))
        rest = terms[-1] * q / (1.0 - q) if q < 1.0 else math.inf
        if top is None and rest <= 2.0 ** -53 * epsilon_tail:
            # The rounded suffix sums fall with j, so the first that fits is bisected for.
            top = bisect.bisect_left(range(k + 1), True,
                                     key=lambda j: math.fsum(terms[j + 1:]) <= epsilon_tail)
        if top is not None and rest <= 2.0 ** -53 * math.fsum(terms[top + 1:]):
            return np.array(terms[:top + 1]), math.fsum(terms[top + 1:])
        terms.append(terms[-1] * (t2 * (k + a) / (k + 1.0)))


def required_cutoff(xi, epsilon_tail: float = 1e-8, modes: int = 1, photons: int = 0) -> int:
    """Smallest total photon cutoff whose input tail is <= epsilon_tail: photons + 2K."""
    return photons + 2 * (len(sector_weights(xi, epsilon_tail, modes, photons)[0]) - 1)


def mode_ladder(vector, direction: str) -> np.ndarray:
    """A creation ("raise") or annihilation ("lower") operator on one mode's amplitudes.

    Raising maps occupation k to k+1 with weight sqrt(k+1) and drops the top
    occupation; lowering leaves the top level empty, since its source is not
    held. Returns a new vector, generally unnormalized, of the dtype rule of
    states: float64 unless some amplitude has a nonzero imaginary part.
    """
    if direction not in ("raise", "lower"):
        raise ValidationError(f"ladder direction must be 'raise' or 'lower', got {direction!r}")
    vector = _real_or_complex(vector)
    out = np.zeros_like(vector)
    weights = np.sqrt(np.arange(1, len(vector)))
    if direction == "raise":
        out[1:] = vector[:-1] * weights
    else:
        out[:-1] = vector[1:] * weights
    return out


def _apply_mode_factors(state: TruncatedFockState, mode: int, factors: np.ndarray):
    """Multiply each amplitude by the factor of its occupation of ``mode``, in place.

    Real factors keep a real state real; the first factor with a nonzero
    imaginary part promotes the state to complex128 (``_state_bytes`` counts
    16 bytes per amplitude, so the promoted state still fits). The factors
    are gathered AMPLITUDE_BLOCK amplitudes at a time, so no state-sized
    temporary is made beside the promoted state.
    """
    factors = _real_or_complex(factors)
    if factors.dtype == np.complex128 and state.amplitudes.dtype == np.float64:
        state.amplitudes = state.amplitudes.astype(np.complex128)
    levels = _index_tables(state.modes, state.cutoff, state.parity)[0][mode]
    gathered = np.empty(min(AMPLITUDE_BLOCK, len(levels)), dtype=factors.dtype)
    for start in range(0, len(levels), AMPLITUDE_BLOCK):
        block = slice(start, start + AMPLITUDE_BLOCK)
        state.amplitudes[block] *= np.take(factors, levels[block],
                                           out=gathered[:len(levels[block])], mode="clip")


def _extend_eigenbases(held: list, cutoff: int) -> None:
    """Append the eigenbases of the totals above those ``held``, up to ``cutoff``.

    Total N holds one real float64 array and nothing else: the columns
    w >= 0 of its 50:50 mixer, ``mixer[:, N//2::-1]``, of shape
    (N+1, N//2+1). ``_sector_rotations`` gives the closed form. The recursion
    runs from total 0, and its buffers are freed on return, before any
    rotation stack is made.
    """
    roots = np.sqrt(np.arange(cutoff + 1))
    mixer = np.ones((1, 1))  # exp(pi/4 K_0)
    for total in range(cutoff + 1):
        if total:
            # Mode i, then mode j, raised on total - 1; the mixer takes a^dag to
            # (a^dag - b^dag)/sqrt 2 and b^dag to (a^dag + b^dag)/sqrt 2. Each
            # weight sqrt(p/2)/N is rounded on its own: a shared 1/(sqrt 2 N)
            # carries one rounding of sqrt 2 into every total, and the mixer's
            # orthogonality then drifted 20 times further by N = 357.
            raised_i, raised_j = np.zeros((2, total + 1, total))
            raised_i[1:] = roots[1:total + 1, None] * mixer
            raised_j[:-1] = roots[total:0:-1, None] * mixer
            weights = np.sqrt(np.arange(total + 1) / (2.0 * total * total))
            mixer = np.zeros((total + 1, total + 1))
            mixer[:, 1:] = (raised_i - raised_j) * weights[1:]
            mixer[:, :-1] += (raised_i + raised_j) * weights[:0:-1]
        if total >= len(held):
            held.append(mixer[:, total // 2::-1].copy())


def _sector_rotations(thetas, cutoff: int) -> list[np.ndarray]:
    """The rotations exp(theta K_N) of every angle on every photon total N <= cutoff.

    K_N = a^dag b - a b^dag on the splits (p, N - p) of modes i and j, and
    1j K_N is Hermitian and purely imaginary, with the eigenvalues w = N - 2k,
    k = 0..N; the eigenvector of -w is the conjugate of that of w. So
    exp(theta K_N) = sum over w > 0 of 2 Re(exp(-1j theta w) u u^H), plus
    z z^T for the real null vector z of an even N: a real sum over half the
    eigenbasis. The eigenbasis is in closed form: diag(i^r) exp(pi/4 K_N),
    the 50:50 mixer times the phases i^r of the rows r, has eigenvalue N - 2k
    on column k. The 50:50 mixer of total N comes from that of N - 1 by
    writing |p, N - p> as a^dag |p - 1, N - p> sqrt(p)/N plus
    b^dag |p, N - p - 1> sqrt(N - p)/N, each raised through the mixer (a
    spin-N/2 rotation under Schwinger's map; T. Risbo, J. Geodesy 70, 383
    (1996)); raising one mode alone is unstable. Held per total: the real
    columns k = N//2 .. 0 of the mixer, the h = N//2 + 1 eigenvalues w >= 0
    in ascending order. Per op, each total's u is those columns with their
    rows phased by i^r, and stack N is a real, contiguous (E, N+1, N+1)
    array: the float64 view of u 2 exp(-1j theta_e w), read from one table
    of phases for w <= cutoff whose w = 0 entry is 1 so that z enters once,
    times the float64 view of u transposed, in one batched real matrix
    product, which forms each entry exactly as a one-angle stack does.
    Eigenbases up to the held layout's cutoff stay held; callers fetch the
    state's layout first. Each eigenbasis is made as the recursion reaches
    its total, and the stacks from the top total down.
    """
    held = _slot.eigenbases
    if len(held) <= cutoff:
        _extend_eigenbases(held, cutoff)
    phases = 2.0 * np.exp(-1j * np.outer(thetas, np.arange(cutoff + 1)))[:, None, :]
    phases[..., 0] = 1.0  # w = 0: the null vector enters once
    row_phases = np.array([1, 1j, -1, -1j])[np.arange(cutoff + 1) % 4, None]
    stacks = [(u * phases[..., total % 2:total + 1:2]).view(np.float64) @ u.view(np.float64).T
              for total in range(cutoff, -1, -1)
              for u in [held[total] * row_phases[:total + 1]]]
    del held[_slot.key[1] + 1 if _slot.key else 0:]  # none above the held layout's cutoff
    return stacks[::-1]


def _mix(state: TruncatedFockState, pairs: list[tuple[int, int]], stacks: list[np.ndarray],
         phases: list[float]) -> None:
    """Mixer e on ``pairs[e]`` with ``stacks[N][e]`` on each total N, then phase ``phases[e]``.

    The state enters in canonical order and is gathered into the first
    pair's order, rotated there sector by sector as contiguous slices, and
    moved on into each next pair's order by one held move; after the last
    mixer it is scattered back into canonical order once. A spare
    state-sized array takes each move and each rotation, and is swapped
    with the state; the last rotation is made in place when the state is
    then outside ``state.amplitudes``, so that the scatter back lands in
    that array. The rotation is real, so it acts on a float64 view of each
    block: the block itself for a real state, interleaved real and imaginary
    parts for a complex one. Row p of a block is the first mode's occupation
    p, so the element phase exp(1j phi p) scales it; the first phase with a
    nonzero imaginary part promotes the state and the spare to complex128.
    A move that is not held, past the 2m - 3 held for the walk, is built
    when it is reached and dropped after its use, beside the spare.
    """
    occupations, _, moves = _index_tables(state.modes, state.cutoff, state.parity)
    cutoff = state.cutoff

    def held(step):
        return moves[step] if step in moves else _move(occupations, cutoff, step)

    levels = np.arange(cutoff + 1)
    a, spare, source = state.amplitudes, np.empty_like(state.amplitudes), None
    for e, pair in enumerate(pairs):
        if pair != source:
            move, bounds = held((source, pair))
            a, spare, source = _gather(a, move, spare), a, pair
        last_in_place = e == len(pairs) - 1 and a is not state.amplitudes
        out = a if last_in_place else spare
        if out is spare:
            spare[:bounds[1]] = a[:bounds[1]]  # total 0 is left as it is
        reals, width = (a.view(np.float64), out.view(np.float64)), a.itemsize // 8
        for total in range(1, cutoff + 1):
            block = slice(width * bounds[total], width * bounds[total + 1])
            np.matmul(stacks[total][e], reals[0][block].reshape(total + 1, -1),
                      out=reals[1][block].reshape(total + 1, -1))
        if not last_in_place:
            a, spare = spare, a
        if phases[e]:
            factors = _real_or_complex(np.exp(1j * phases[e] * levels))
            if factors.dtype == np.complex128 and a.dtype == np.float64:
                a = a.astype(np.complex128)
                # Both real arrays are dropped before the complex spare is made.
                state.amplitudes = spare = a
                state.amplitudes = spare = np.empty_like(a)
            for total in range(cutoff + 1):
                rows = a[bounds[total]:bounds[total + 1]].reshape(total + 1, -1)
                rows *= factors[:total + 1, None]
    _scatter(a, held((None, source))[0], state.amplitudes)


def apply_beamsplitter(state: TruncatedFockState, i: int, j: int,
                       theta: float) -> TruncatedFockState:
    """Mix modes i and j in place with the real rotation of angle theta.

    Acts exactly within each two-mode photon-total sector N with the rotation
    exp(theta K_N): the one-mixer case of ``apply_network``'s loop, canonical
    order in and out. Every sector fits under the cutoff, so the squared norm
    is kept; the rotation is real, so the state keeps its dtype.
    """
    if i == j:
        raise ValidationError("beamsplitter modes must differ")
    if not (0 <= i < state.modes and 0 <= j < state.modes):
        raise ValidationError(f"modes ({i}, {j}) out of range for {state.modes} modes")
    _pair_gather(state.modes, state.cutoff, state.parity, [(None, (i, j))])
    _mix(state, [(i, j)], _sector_rotations([theta], state.cutoff), [0.0])
    return state


def apply_network(state: TruncatedFockState,
                  decomposition: ReckDecomposition) -> TruncatedFockState:
    """Evolve through a decomposition, in place.

    Elements are ordered as matrix factors, so they are applied back to
    front, after the residual diagonal, whose entries equal to exactly 1 are
    skipped. The sector rotations of every element are built in one pass per
    photon total before the first element is applied, and the elements are
    mixed in pair-sorted order (``_mix``); a network without elements builds
    none. Restricted to the single-photon sector this reproduces the matrix
    action of ``reconstruct``. A real state stays real through real elements
    and a residual of +-1.
    """
    if not isinstance(decomposition, ReckDecomposition):
        raise ValidationError("apply_network expects a ReckDecomposition")
    if decomposition.dimension != state.modes:
        raise ValidationError(
            f"decomposition over {decomposition.dimension} modes does not match "
            f"{state.modes}-mode state"
        )
    elements = decomposition.elements[::-1]
    for el in elements:
        if not isinstance(el, TwoModeElement):
            raise ValidationError(f"network elements must be TwoModeElement, got {el!r}")
        if el.j >= state.modes:
            raise ValidationError(f"modes ({el.i}, {el.j}) out of range for {state.modes} modes")
    # The state's layout and its moves first: its rotations are never built
    # beside another layout, and no order is sorted beside the spare or a copy
    # that a complex phase has promoted.
    _index_tables(state.modes, state.cutoff, state.parity)
    pairs = [(el.i, el.j) for el in elements]
    if pairs:
        _pair_gather(state.modes, state.cutoff, state.parity,
                     [*zip([None, *pairs], pairs), (None, pairs[-1])])
    levels = np.arange(state.cutoff + 1)
    for mode, z in enumerate(decomposition.residual):
        z = complex(z)
        if z != 1.0 + 0.0j:
            _apply_mode_factors(state, mode, z ** levels)
    if pairs:
        _mix(state, pairs, _sector_rotations([el.theta for el in elements], state.cutoff),
             [el.phi for el in elements])
    return state


def _check_passv_input(total_photons: int, modes: int, xi, variant: str) -> Squeezing:
    """The squeezing of ``xi``, once build_passv_input's checks short of the size guard pass."""
    if variant not in (ADDED, SUBTRACTED):
        raise ValidationError(f"variant must be '{ADDED}' or '{SUBTRACTED}', got {variant!r}")
    if not (1 <= total_photons <= modes):
        raise ValidationError(f"need 1 <= n <= m, got n={total_photons}, m={modes}")
    sq = as_squeezing(xi)
    if variant == SUBTRACTED and sq.r == 0.0:
        raise ValidationError("photon subtraction from vacuum (xi = 0) yields the zero state")
    return sq


def build_passv_input(total_photons: int, modes: int, xi, variant: str,
                      cutoff: int) -> TruncatedFockState:
    """Photon-added or photon-subtracted squeezed vacuum over the first n modes.

    Each of the first n mode vectors receives one ladder operation on top of
    its squeezed vacuum and the exact analytic normalization (1/cosh r for
    "added", 1/sinh r for "subtracted"); the product is kept up to total
    ``cutoff``, so the squared norm falls short of 1 only by the truncation
    loss, the input's tail above the cutoff. Subtracting from an unsqueezed
    mode annihilates the vacuum and raises a validation error.
    """
    sq = _check_passv_input(total_photons, modes, xi, variant)
    # One level past the cutoff, so that lowering fills level D too.
    vec, _ = squeezed_vacuum_vector(sq, cutoff + 1)
    if variant == ADDED:
        laddered = mode_ladder(vec, "raise") / math.cosh(sq.r)
    else:
        laddered = mode_ladder(vec, "lower") / math.sinh(sq.r)
    state = TruncatedFockState.from_product(
        [laddered[:cutoff + 1]] * total_photons + [vec[:cutoff + 1]] * (modes - total_photons)
    )
    if state.squared_norm() <= 1e-12:
        raise ValidationError("the prepared state vanished; increase the cutoff or the squeezing")
    return state


def parity_sectors(state: TruncatedFockState) -> np.ndarray:
    """Squared amplitudes summed per photon total (row) and parity pattern (column).

    Column bits, the first mode most significant, are set on odd modes. A
    one-parity state's rows of the other parity are zero.
    """
    bins = _index_tables(state.modes, state.cutoff, state.parity)[1]
    probs = np.abs(state.amplitudes)
    probs **= 2
    table = np.bincount(bins, weights=probs, minlength=(state.cutoff + 1) << state.modes)
    return table.reshape(state.cutoff + 1, -1)


def _parity_keys(modes: int) -> list[ParityPattern]:
    """The 2^m parity patterns in the column order of ``parity_sectors``."""
    return [ParityPattern(tuple(1 - 2 * b for b in idx)) for idx in np.ndindex((2,) * modes)]


def parity_distribution(state: TruncatedFockState) -> OutputDistribution:
    """Joint per-mode parity probabilities, normalized by the squared norm.

    Covers all 2^m sign patterns, even outcome first per mode.
    """
    norm2 = state.squared_norm()
    if norm2 <= 1e-300:
        raise ValidationError("parity distribution is undefined for the zero state")
    if norm2 > 1.0 + 1e-9:
        raise ValidationError(f"state squared norm {norm2} exceeds 1")
    table = parity_sectors(state).sum(axis=0) / norm2
    return OutputDistribution(zip(_parity_keys(state.modes), table.tolist()))


def number_distribution(state: TruncatedFockState) -> OutputDistribution:
    """Joint photon-number probabilities over all retained occupation tuples.

    One entry per amplitude in an array-backed table (a one-parity state
    holds only the tuples of its parity), whose ModeConfiguration
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
    occupations = _index_tables(state.modes, state.cutoff, state.parity)[0]
    return OutputDistribution(occupations=occupations.T, probabilities=probs)


def state_overlap(a: TruncatedFockState, b: TruncatedFockState) -> complex:
    """Inner product <a|b>, conjugating the first argument, of two states of one layout.

    Both states must share their modes, cutoff and parity, so their
    amplitudes are in one order; nothing is looked up, and the layout held
    with its moves and eigenbases is left as it is.
    """
    if (a.modes, a.cutoff, a.parity) != (b.modes, b.cutoff, b.parity):
        raise ValidationError("states must share mode count, cutoff and parity: "
                              f"({a.modes}, {a.cutoff}, {a.parity}) vs "
                              f"({b.modes}, {b.cutoff}, {b.parity})")
    left, right = a.amplitudes, b.amplitudes
    # einsum over the real and imaginary parts of ``left``, not vdot (module docstring).
    overlap = np.einsum("i,i->", left.real, right)
    if np.iscomplexobj(left):
        overlap = overlap - 1j * np.einsum("i,i->", left.imag, right)
    return complex(overlap)
