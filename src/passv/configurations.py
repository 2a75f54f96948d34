"""Photon occupation configurations over optical modes and their parity images."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .errors import ValidationError


@dataclass(frozen=True)
class ModeConfiguration:
    """Occupation numbers of indistinguishable photons across modes.

    Hashable, so instances can key distribution tables. Serializes to a
    comma-separated string such as ``"1,0,2"``.
    """

    occupations: tuple[int, ...]

    def __post_init__(self):
        occ = tuple(int(k) for k in self.occupations)
        if not occ:
            raise ValidationError("a configuration needs at least one mode")
        if any(k < 0 for k in occ):
            raise ValidationError(f"occupations must be non-negative, got {occ}")
        object.__setattr__(self, "occupations", occ)

    @property
    def modes(self) -> int:
        return len(self.occupations)

    @property
    def total(self) -> int:
        return sum(self.occupations)

    @property
    def is_collision_free(self) -> bool:
        return all(k <= 1 for k in self.occupations)

    def __len__(self) -> int:
        return len(self.occupations)

    def __iter__(self):
        return iter(self.occupations)

    def __getitem__(self, index):
        return self.occupations[index]

    def serialize(self) -> str:
        return ",".join(str(k) for k in self.occupations)

    @classmethod
    def parse(cls, text: str) -> "ModeConfiguration":
        try:
            return cls(tuple(int(part) for part in text.split(",")))
        except ValueError as exc:
            raise ValidationError(f"cannot parse configuration {text!r}") from exc


@dataclass(frozen=True)
class ParityPattern:
    """Per-mode photon-number parity outcomes, +1 for even and -1 for odd.

    Serializes to a sign string such as ``"+-+"``.
    """

    outcomes: tuple[int, ...]

    def __post_init__(self):
        out = tuple(int(s) for s in self.outcomes)
        if not out:
            raise ValidationError("a parity pattern needs at least one mode")
        if any(s not in (1, -1) for s in out):
            raise ValidationError(f"parity outcomes must be +1 or -1, got {out}")
        object.__setattr__(self, "outcomes", out)

    @property
    def modes(self) -> int:
        return len(self.outcomes)

    @property
    def odd_count(self) -> int:
        return sum(1 for s in self.outcomes if s == -1)

    def __len__(self) -> int:
        return len(self.outcomes)

    def __iter__(self):
        return iter(self.outcomes)

    def __getitem__(self, index):
        return self.outcomes[index]

    def serialize(self) -> str:
        return "".join("+" if s == 1 else "-" for s in self.outcomes)

    @classmethod
    def parse(cls, text: str) -> "ParityPattern":
        signs = []
        for ch in text:
            if ch == "+":
                signs.append(1)
            elif ch == "-":
                signs.append(-1)
            else:
                raise ValidationError(f"cannot parse parity pattern {text!r}")
        return cls(tuple(signs))


def parity_pattern_of(configuration: ModeConfiguration) -> ParityPattern:
    """Parity image of a configuration: +1 where the occupation is even."""
    config = _as_configuration(configuration)
    return ParityPattern(tuple(1 if k % 2 == 0 else -1 for k in config))


def configuration_count(total_photons: int, modes: int) -> int:
    """Number of ways to place ``total_photons`` bosons into ``modes`` modes."""
    _check_dimensions(total_photons, modes)
    return math.comb(total_photons + modes - 1, total_photons)


def occupation_count(modes: int, cutoff: int, parity: int | None = None) -> int:
    """Occupation tuples over ``modes`` with total <= ``cutoff``, of ``parity`` if one is set.

    The column count of ``bounded_occupations``, in O(m) binomials however
    large the cutoff: over k modes, the tuples whose total has the cutoff's
    parity number half the sum of C(D + k, k) and their count over k - 1
    modes, and the other parity has the rest.
    """
    total = math.comb(cutoff + modes, modes)
    if parity is None:
        return total
    same = int(cutoff >= 0 and cutoff % 2 == 0)  # over no modes: the empty tuple, of total 0
    for k in range(1, modes):
        same = (math.comb(cutoff + k, k) + same) // 2
    return (total + same) // 2 if parity == cutoff % 2 else (total - same) // 2


def bounded_occupations(modes: int, cutoff: int, parity: int | None = None) -> np.ndarray:
    """Every occupation tuple over ``modes`` with total <= ``cutoff``, as a (modes, K) table.

    Column k is tuple k, in lexicographic order with the first mode most
    significant, so the vacuum comes first and K = C(cutoff + modes, modes).
    With a ``parity`` (0 or 1), only the tuples whose total has that parity
    are made. The dtype is the smallest unsigned integer that holds
    ``cutoff``. Each row is written once (``_fill_occupations``), so the
    table takes O(modes K) time, and no temporary is larger than a few
    intp rows.
    """
    table = np.empty((modes, occupation_count(modes, cutoff, parity)),
                     dtype=np.min_scalar_type(cutoff))
    _fill_occupations(table, cutoff, parity)
    return table


def _fill_occupations(rows: np.ndarray, cutoff: int, parity: int | None) -> np.ndarray:
    """Write the rows of ``bounded_occupations`` into ``rows``; return the photons each tuple leaves.

    The prefixes over modes 0..j are expanded a mode at a time: a prefix
    with b photons left expands into b + 1, one per occupation of the next
    mode, and on the last mode with a ``parity`` only into the occupations
    that give it, every other level apart. A prefix over modes 0..j that
    leaves b photons spans ``spans[j][b]`` adjacent columns, so row j is its
    prefixes' last occupations, each repeated that many times; the last row
    is its prefixes themselves.
    """
    modes = len(rows)
    # spans[j][b]: the tuples that end a prefix over modes 0..j leaving b
    # photons, for j < m - 1. With no mode left, a prefix is a tuple when its
    # total has the parity (always, without one); each mode before adds a
    # running sum, one term per occupation of that mode.
    spans = []
    if modes > 1:
        b = np.arange(cutoff + 1)
        span = np.ones_like(b) if parity is None else (cutoff - b + parity + 1) % 2
        for _ in range(modes - 1):
            span = np.cumsum(span)
            spans.insert(0, span)
    left = np.array([cutoff])
    for mode, row in enumerate(rows):
        if parity is None or mode < modes - 1:
            first, step = None, 1
        else:
            first, step = (cutoff - left + parity) % 2, 2  # cutoff - left photons so far
        counts = left + 1 if first is None else (left - first) // step + 1  # 0 when one short
        parent = np.repeat(np.arange(len(left)), counts)
        level = np.arange(len(parent))
        level -= (np.cumsum(counts) - counts).take(parent)  # the rank among its siblings
        if first is not None:
            level *= step
            level += first.take(parent)
        left = left.take(parent)
        del parent
        left -= level
        row[...] = level if mode == modes - 1 else np.repeat(level, spans[mode].take(left))
    return left


def configuration_array(total_photons: int, modes: int) -> np.ndarray:
    """Every configuration of a fixed photon total as a C-contiguous (K, m) intp array.

    Rows are in canonical order, first mode descending: (n, 0, ..., 0) first
    and (0, ..., 0, n) last, K = C(n + m - 1, n). The first m - 1 modes run
    through every tuple with total <= n in reverse lexicographic order, and
    the last mode takes the photons left.
    """
    _check_dimensions(total_photons, modes)
    head = np.empty((modes - 1, configuration_count(total_photons, modes)),
                    dtype=np.min_scalar_type(total_photons))
    left = _fill_occupations(head, total_photons, None)
    table = np.empty((head.shape[1], modes), dtype=np.intp)
    table[:, :-1] = head[:, ::-1].T
    table[:, -1] = left[::-1]
    return table


def configurations_from_array(occupations: np.ndarray) -> list[ModeConfiguration]:
    """ModeConfiguration objects of the rows of a validated occupation array.

    The rows come from this module's builders, so they are not validated again.
    """
    configs = []
    for occ in map(tuple, occupations.tolist()):
        config = object.__new__(ModeConfiguration)
        object.__setattr__(config, "occupations", occ)
        configs.append(config)
    return configs


def patterns_from_array(rows: np.ndarray) -> list[ParityPattern]:
    """ParityPattern objects of the rows of a validated parity array, 1 on each odd mode."""
    patterns = []
    for signs in map(tuple, (1 - 2 * rows).tolist()):
        pattern = object.__new__(ParityPattern)
        object.__setattr__(pattern, "outcomes", signs)
        patterns.append(pattern)
    return patterns


def parity_array(modes: int) -> np.ndarray:
    """The (2^m, m) parity rows over ``modes``: bit m - 1 - i of row j is mode i's, 1 when odd."""
    return (np.arange(1 << modes)[:, np.newaxis] >> np.arange(modes - 1, -1, -1)) & 1


def occupation_fields(occupations: np.ndarray) -> np.ndarray:
    """``ModeConfiguration.serialize`` of every row of a (K, m) occupation array, as bytes.

    Returns a (K, W) uint8 matrix, one row per key, padded with NUL bytes.
    Each occupation value is formatted once, as a word of the widest value's
    digit count, right-aligned behind NULs and followed by a comma; one
    gather lays the words out in rows, and the last comma is dropped.
    Dropping the NULs gives the key. Every row has the same width when every
    occupation has the same number of digits, as when all are below 10.
    """
    top = int(occupations.max(initial=0))
    width = len(str(top))
    words = np.array([str(v).rjust(width, "\0") + "," for v in range(top + 1)],
                     dtype=f"S{width + 1}")
    return words[occupations].view(np.uint8)[:, :-1]


def enumerate_configurations(total_photons: int, modes: int) -> list[ModeConfiguration]:
    """All configurations of a fixed photon total, first mode descending.

    The first entry is (n, 0, ..., 0) and the last is (0, ..., 0, n); the list
    length is C(n + m - 1, n). The rows of ``configuration_array``.
    """
    return configurations_from_array(configuration_array(total_photons, modes))


def collision_free_configurations(total_photons: int, modes: int) -> list[ModeConfiguration]:
    """The rows of ``collision_free_array`` as configurations."""
    return configurations_from_array(collision_free_array(total_photons, modes))


def collision_free_array(total_photons: int, modes: int) -> np.ndarray:
    """Every configuration with at most one photon per mode, as a (C(m, n), m) intp array.

    Requires n <= m; rows are in the order of ``configuration_array``, first mode descending.
    """
    _check_dimensions(total_photons, modes)
    if total_photons > modes:
        raise ValidationError(
            f"collision-free placement needs n <= m, got n={total_photons}, m={modes}"
        )
    occupied = np.array(list(combinations(range(modes), total_photons)), dtype=np.intp)
    occupations = np.zeros((len(occupied), modes), dtype=np.intp)
    np.put_along_axis(occupations, occupied, 1, axis=1)
    return occupations


def _as_configuration(value) -> ModeConfiguration:
    if isinstance(value, ModeConfiguration):
        return value
    return ModeConfiguration(tuple(value))


def _check_dimensions(total_photons: int, modes: int):
    if modes < 1:
        raise ValidationError(f"mode count must be positive, got {modes}")
    if total_photons < 0:
        raise ValidationError(f"photon total must be non-negative, got {total_photons}")
