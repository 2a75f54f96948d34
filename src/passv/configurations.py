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


def bounded_occupations(modes: int, cutoff: int) -> np.ndarray:
    """Every occupation tuple over ``modes`` with total <= ``cutoff``, as a (modes, K) table.

    Column k is tuple k, in lexicographic order with the first mode most
    significant, so the vacuum comes first and K = C(cutoff + modes, modes).
    A partial tuple with b photons left expands into b + 1 tuples, one per
    occupation of the next mode. The dtype is the smallest unsigned integer
    that holds ``cutoff``.
    """
    table = np.zeros((0, 1), dtype=np.min_scalar_type(cutoff))
    left = np.array([cutoff])
    for _ in range(modes):
        counts = left + 1
        parent = np.repeat(np.arange(len(left)), counts)
        level = np.arange(len(parent)) - np.repeat(np.cumsum(counts) - counts, counts)
        table = np.vstack((table[:, parent], level.astype(table.dtype)))
        left = left[parent] - level
    return table


def configuration_array(total_photons: int, modes: int) -> np.ndarray:
    """Every configuration of a fixed photon total as a (K, m) occupation array.

    Rows are in canonical order, first mode descending: (n, 0, ..., 0) first
    and (0, ..., 0, n) last, K = C(n + m - 1, n). The first m - 1 modes run
    through every tuple with total <= n in reverse lexicographic order, and
    the last mode takes the photons left.
    """
    _check_dimensions(total_photons, modes)
    head = bounded_occupations(modes - 1, total_photons)[:, ::-1].astype(np.intp)
    last = total_photons - head.sum(axis=0)
    return np.vstack((head, last)).T


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


def serialize_rows(occupations: np.ndarray) -> list[str]:
    """``ModeConfiguration.serialize`` of every row of a (K, m) occupation array.

    Each occupation value is formatted once, then each row is joined.
    """
    words = np.array([str(k) for k in range(int(occupations.max(initial=0)) + 1)], dtype=object)
    return list(map(",".join, words[occupations].tolist()))


def enumerate_configurations(total_photons: int, modes: int) -> list[ModeConfiguration]:
    """All configurations of a fixed photon total, first mode descending.

    The first entry is (n, 0, ..., 0) and the last is (0, ..., 0, n); the list
    length is C(n + m - 1, n). The rows of ``configuration_array``.
    """
    return configurations_from_array(configuration_array(total_photons, modes))


def collision_free_configurations(total_photons: int, modes: int) -> list[ModeConfiguration]:
    """All configurations with at most one photon per mode, same ordering.

    Requires n <= m; the list length is C(m, n).
    """
    _check_dimensions(total_photons, modes)
    if total_photons > modes:
        raise ValidationError(
            f"collision-free placement needs n <= m, got n={total_photons}, m={modes}"
        )
    occupied = np.array(list(combinations(range(modes), total_photons)), dtype=np.intp)
    occupations = np.zeros((len(occupied), modes), dtype=np.intp)
    np.put_along_axis(occupations, occupied, 1, axis=1)
    return configurations_from_array(occupations)


def _as_configuration(value) -> ModeConfiguration:
    if isinstance(value, ModeConfiguration):
        return value
    return ModeConfiguration(tuple(value))


def _check_dimensions(total_photons: int, modes: int):
    if modes < 1:
        raise ValidationError(f"mode count must be positive, got {modes}")
    if total_photons < 0:
        raise ValidationError(f"photon total must be non-negative, got {total_photons}")
