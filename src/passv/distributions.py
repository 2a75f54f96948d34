"""Discrete output distributions keyed by configurations or parity patterns.

Every table is a (K, m) row array beside a probability vector, keyed by
ModeConfiguration (occupation rows) or ParityPattern (parity rows). It makes
its key objects, and the key index, only when a caller first asks for keys,
items or a lookup; its length, probabilities and total never need them.

``draw_indices`` samples by inverse CDF with an exact guide table (Chen and
Asau, 1974): equal buckets of [0, 1) bracket the index of every draw. One
probe closes every bracket of at most one index, and a vectorized bisection
closes the wider ones, one block of draws at a time; the uniforms are drawn
a block at a time too. The indices equal those of a plain ``searchsorted``
over the CDF.

``check_table_size`` counts the bytes of a table, with any draws held beside
it, and ``check_shots`` those of draws alone, against ``errors.MEMORY_LIMIT``,
before either is made.
"""

from __future__ import annotations

import math

import numpy as np

from .configurations import (
    ModeConfiguration,
    ParityPattern,
    configurations_from_array,
    patterns_from_array,
)
from .errors import FIRST_OP_BYTES, ValidationError, check_memory

SAMPLING_DEFECT_LIMIT = 1e-6
DRAW_BLOCK = 1 << 14  # draws per block of draw_indices; bounds its temporaries
# What an output table over m modes holds per outcome, TABLE_MODE_BYTES * m +
# TABLE_OUTCOME_BYTES: its occupation array and probabilities, the duplicate
# check and permanent table that build it, and the artifact sample-fock writes
# from it, in either format. At the largest m admitted for each n = 2 to 11,
# the max RSS of a cold sample-fock rose by 62-70% of the count (with
# FIRST_OP_BYTES) in CSV and 69-77% in JSON, and by 82% in JSON at n = 11, m = 11.
TABLE_MODE_BYTES = 24
TABLE_OUTCOME_BYTES = 256
# Per draw: its index, and draw_samples' list slot. The uniforms are drawn a
# block at a time, so none is held per draw: a cold sample-fock --n 2 --m 3
# with 16,000,000 draws raised max RSS by 136 MB, 8.0 bytes per draw beside
# the modules a first op maps (it rose 264 MB when a uniform was held too).
DRAW_BYTES = 16


def _table_bytes(outcomes: int, modes: int) -> int:
    """The bytes ``check_table_size`` counts for a table of ``outcomes`` over ``modes``."""
    return outcomes * (TABLE_MODE_BYTES * modes + TABLE_OUTCOME_BYTES) + FIRST_OP_BYTES


def check_table_size(outcomes: int, modes: int, shots: int = 0) -> None:
    """Refuse a table of ``outcomes`` over ``modes``, and ``shots`` draws from it, over MEMORY_LIMIT.

    The count is TABLE_MODE_BYTES per outcome and mode, TABLE_OUTCOME_BYTES
    per outcome, FIRST_OP_BYTES, and DRAW_BYTES per draw held beside the
    table; callers run it before the occupation array is made. Negative
    shots are refused.
    """
    if shots < 0:
        raise ValidationError(f"shots must be non-negative, got {shots}")
    what = f"a table of {outcomes:,} outcomes over {modes} modes"
    check_memory(_table_bytes(outcomes, modes) + DRAW_BYTES * shots,
                 what + (f" and {shots:,} shots drawn from it" if shots else ""))


class OutputDistribution:
    """An ordered probability table with a declared normalization defect.

    A (K, m) integer ``rows`` array beside ``probabilities``. A ``key`` of
    ModeConfiguration reads each row as occupations; ParityPattern reads it as
    parities, 0 even and 1 odd, so a collision-free occupation row is its own
    parity row. Zero-probability entries are retained so that serialized
    artifacts diff cleanly. ``normalization_defect`` records |1 - sum| and
    may be large on purpose for deliberately sub-normalized tables.
    """

    def __init__(self, rows, probabilities, *, key: type = ModeConfiguration,
                 normalization_defect: float | None = None):
        self._fill(rows, probabilities, key, normalization_defect)
        duplicate = _duplicate_row(self._rows)
        if duplicate is not None:
            raise ValidationError(f"duplicate distribution key {self._keys_of(duplicate)[0]!r}")

    @classmethod
    def _of_distinct_rows(cls, rows, probabilities, *, key: type = ModeConfiguration,
                          normalization_defect: float | None = None) -> "OutputDistribution":
        """A table over rows that differ by construction, made without the duplicate check.

        For the builders' rows (``configuration_array``, ``collision_free_array``,
        ``parity_array``, a layout's occupation table) and a table's own.
        """
        table = cls.__new__(cls)
        table._fill(rows, probabilities, key, normalization_defect)
        return table

    def _fill(self, rows, probabilities, key: type, normalization_defect: float | None):
        if key not in (ModeConfiguration, ParityPattern):
            raise ValidationError(f"key must be ModeConfiguration or ParityPattern, not {key!r}")
        self.key = key
        rows = _occupation_rows(rows)
        if key is ParityPattern and rows.size and rows.max() > 1:
            raise ValidationError("parity rows must hold 0 (even) or 1 (odd)")
        probs = np.array(probabilities, dtype=np.float64)
        if probs.shape != (len(rows),):
            raise ValidationError(f"{probs.shape} probabilities for {len(rows)} keys")
        for name, bad in (("non-finite", ~np.isfinite(probs)), ("negative", probs < -1e-12)):
            positions = np.flatnonzero(bad)
            if positions.size:
                i = positions[0]
                key = self._keys_of(rows[i])[0]
                raise ValidationError(f"{name} probability {probs[i]} for key {key!r}")
        np.maximum(probs, 0.0, out=probs)
        probs.flags.writeable = False
        self._rows = rows
        self._probs = probs
        self._keys = None  # made from the rows on first use
        self._index = None  # key -> position, built on the first lookup
        if normalization_defect is None:
            normalization_defect = abs(1.0 - float(probs.sum()))
        self.normalization_defect = float(normalization_defect)
        if not math.isfinite(self.normalization_defect):
            raise ValidationError(f"non-finite normalization_defect {self.normalization_defect}")

    def _keys_of(self, rows: np.ndarray) -> list:
        build = patterns_from_array if self.key is ParityPattern else configurations_from_array
        return build(np.atleast_2d(rows))

    def _key_list(self) -> list:
        if self._keys is None:
            self._keys = self._keys_of(self._rows)
        return self._keys

    def _position(self, key) -> int | None:
        if self._index is None:
            self._index = {k: i for i, k in enumerate(self._key_list())}
        return self._index.get(key)

    @property
    def keys(self) -> list:
        return list(self._key_list())

    @property
    def occupations(self) -> np.ndarray:
        """The read-only (K, m) rows: occupations, or parities (1 odd) for ParityPattern keys."""
        return self._rows

    @property
    def probabilities(self) -> np.ndarray:
        """The read-only (K,) probabilities, in row order."""
        return self._probs

    @property
    def support(self) -> list[tuple]:
        return list(self.items())

    def probability(self, key, default: float = 0.0) -> float:
        i = self._position(key)
        return float(self._probs[i]) if i is not None else default

    def __contains__(self, key) -> bool:
        return self._position(key) is not None

    def __len__(self) -> int:
        return len(self._probs)

    def items(self):
        return zip(self._key_list(), self._probs.tolist())

    def total(self) -> float:
        return float(self._probs.sum())

    def normalized(self) -> "OutputDistribution":
        s = self.total()
        if s <= 0.0:
            raise ValidationError("cannot normalize a distribution with zero mass")
        return OutputDistribution._of_distinct_rows(self._rows, self._probs / s, key=self.key,
                                                    normalization_defect=0.0)

    def restrict(self, predicate) -> "OutputDistribution":
        """Sub-table of keys satisfying ``predicate``; defect is recomputed."""
        mask = np.fromiter(map(predicate, self._key_list()), dtype=bool, count=len(self))
        return OutputDistribution._of_distinct_rows(self._rows[mask], self._probs[mask], key=self.key)


def _occupation_rows(occupations) -> np.ndarray:
    """A read-only view of a (K, m) array of non-negative integers, m >= 1, as intp."""
    try:
        occupations = np.asarray(occupations)
    except ValueError:  # ragged, as (key, p) pairs are; refused below
        occupations = np.empty(0)
    if occupations.ndim != 2 or occupations.shape[1] < 1 or not np.issubdtype(
            occupations.dtype, np.integer) or (occupations.size and occupations.min() < 0):
        raise ValidationError("rows must be a (K, m) array of non-negative integers")
    rows = occupations.astype(np.intp, copy=False).view()
    rows.flags.writeable = False
    return rows


def _duplicate_row(occupations: np.ndarray) -> np.ndarray | None:
    """The first repeated row in lexicographic order, or None if every row differs.

    The rows are sorted column by column, the first column most significant,
    so a row of any width and magnitude is compared exactly.
    """
    ordered = occupations[np.lexsort(occupations.T[::-1])]
    repeats = np.flatnonzero((ordered[1:] == ordered[:-1]).all(axis=1))
    return ordered[repeats[0]] if repeats.size else None


def draw_indices(distribution: OutputDistribution, seed: int, shots: int) -> np.ndarray:
    """Draw indices into ``distribution.keys`` by inverse-CDF sampling.

    Deterministic for a given seed: the stream of one ``rng.random(shots)``
    call, drawn DRAW_BLOCK uniforms at a time into one buffer, each draw
    mapped to the first CDF entry above it, as many as ``check_shots`` admits.
    The distribution must be normalized within 1e-6; the residual defect is
    renormalized away before drawing.
    """
    check_shots(shots)
    if distribution.normalization_defect > SAMPLING_DEFECT_LIMIT or abs(
        1.0 - distribution.total()
    ) > SAMPLING_DEFECT_LIMIT:
        raise ValidationError(
            "refusing to sample a distribution whose normalization defect exceeds "
            f"{SAMPLING_DEFECT_LIMIT:g}"
        )
    seed = int(seed)
    if seed < 0:
        raise ValidationError(f"seed must be non-negative, got {seed}")
    probs = distribution.probabilities
    total = probs.sum()
    cdf = np.cumsum(probs / total)
    cdf[-1] = 1.0
    rng = np.random.default_rng(seed)
    search = _guide_search(cdf)
    out = np.empty(shots, dtype=np.intp)
    draws = np.empty(min(shots, DRAW_BLOCK))
    for start in range(0, shots, DRAW_BLOCK):
        u = rng.random(out=draws[:min(DRAW_BLOCK, shots - start)])
        search(u, out[start:start + len(u)])
    return out


def check_shots(shots: int):
    """Refuse negative shots, and shots over MEMORY_LIMIT at DRAW_BYTES each, before any draw."""
    if shots < 0:
        raise ValidationError(f"shots must be non-negative, got {shots}")
    check_memory(DRAW_BYTES * shots, f"{shots:,} shots")


def inverse_cdf(cdf: np.ndarray, draws: np.ndarray) -> np.ndarray:
    """Index of the first ``cdf`` entry above each draw in [0, 1).

    ``cdf`` must be nondecreasing before its last entry, which must be 1.

    An exact guide-table search. With B the smallest power of two >= K, a
    draw u falls in bucket b = floor(u * B), and its index lies in
    [guide[b], min(guide[b + 1], K - 1)], where guide[b] counts the entries
    <= b / B; u * B and b / B are exact in binary floating point. A bracket
    of at most one index is closed by one probe, guide[b] plus one if
    cdf[guide[b]] <= u. Only the draws in wider brackets are bisected, in
    power-of-two steps over the widest of them in a block of DRAW_BLOCK
    draws, ceil(log2(width + 1)) steps, never more than a plain binary
    search. The result equals
    ``minimum(searchsorted(cdf, draws, side="right"), K - 1)``.
    """
    search = _guide_search(cdf)
    out = np.empty(len(draws), dtype=np.intp)
    for start in range(0, len(draws), DRAW_BLOCK):
        search(draws[start:start + DRAW_BLOCK], out[start:start + DRAW_BLOCK])
    return out


def _guide_search(cdf: np.ndarray):
    """``inverse_cdf``'s search over ``cdf``, as a function that writes a block's indices to ``out``."""
    k = len(cdf)
    buckets = 1 << (k - 1).bit_length()
    guide = np.searchsorted(cdf, np.arange(buckets + 1) / buckets, side="right")
    np.minimum(guide, k - 1, out=guide)
    width = np.diff(guide)
    wide = width > 1
    # Entries past a bracket are >= its upper end, which lies above the draw;
    # the padding keeps every probe of the widest bracket in range.
    padded = np.concatenate((cdf, np.ones(k)))

    def search(u: np.ndarray, out: np.ndarray):
        bucket = (u * buckets).astype(np.intp)
        guide.take(bucket, out=out, mode="clip")  # in range; "raise" would buffer a copy
        out += padded.take(out) <= u  # exact for a bracket of at most one index
        slow = np.flatnonzero(wide.take(bucket))
        if not slow.size:
            return
        u, bucket = u[slow], bucket[slow]
        below = guide[bucket]
        below -= 1  # the last index whose entry is known <= u, or -1
        probe = np.empty_like(below)
        step = 1 << int(width[bucket].max()).bit_length()
        while step > 1:
            step >>= 1
            np.add(below, step, out=probe)
            np.copyto(below, probe, where=padded[probe] <= u)
        below += 1
        out[slow] = below

    return search


def draw_samples(distribution: OutputDistribution, seed: int, shots: int) -> list:
    """Draw keys by inverse-CDF sampling; the keys at ``draw_indices``."""
    keys = distribution.keys
    return [keys[i] for i in draw_indices(distribution, seed, shots)]


def total_variation_distance(p: OutputDistribution, q: OutputDistribution) -> float:
    """Half the L1 distance over the union support, zero-filling missing keys.

    Refuses to compare tables keyed by different domain types.
    """
    if p.key is not q.key:
        raise ValidationError(f"cannot compare {p.key.__name__} and {q.key.__name__} tables")
    union = list(dict.fromkeys(p.keys + q.keys))
    return 0.5 * sum(abs(p.probability(k) - q.probability(k)) for k in union)
