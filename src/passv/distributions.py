"""Discrete output distributions keyed by configurations or parity patterns."""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

SAMPLING_DEFECT_LIMIT = 1e-6


class OutputDistribution:
    """An ordered probability table with a declared normalization defect.

    Keys are hashable domain objects (ModeConfiguration or ParityPattern).
    Zero-probability entries are retained so that serialized artifacts diff
    cleanly. ``normalization_defect`` records |1 - sum| and may be large on
    purpose for deliberately sub-normalized tables.
    """

    def __init__(self, pairs, *, normalization_defect: float | None = None):
        keys = []
        probs = []
        seen = set()
        for key, p in pairs:
            if key in seen:
                raise ValidationError(f"duplicate distribution key {key!r}")
            seen.add(key)
            p = float(p)
            if p < -1e-12:
                raise ValidationError(f"negative probability {p} for key {key!r}")
            keys.append(key)
            probs.append(max(p, 0.0))
        self._keys = keys
        self._probs = np.asarray(probs, dtype=np.float64)
        self._index = {key: i for i, key in enumerate(keys)}
        if normalization_defect is None:
            normalization_defect = abs(1.0 - float(self._probs.sum()))
        self.normalization_defect = float(normalization_defect)

    @property
    def keys(self) -> list:
        return list(self._keys)

    @property
    def probabilities(self) -> np.ndarray:
        return self._probs.copy()

    @property
    def support(self) -> list[tuple]:
        return list(zip(self._keys, self._probs.tolist()))

    def probability(self, key, default: float = 0.0) -> float:
        i = self._index.get(key)
        return float(self._probs[i]) if i is not None else default

    def __contains__(self, key) -> bool:
        return key in self._index

    def __len__(self) -> int:
        return len(self._keys)

    def items(self):
        return zip(self._keys, self._probs.tolist())

    def total(self) -> float:
        return float(self._probs.sum())

    def normalized(self) -> "OutputDistribution":
        s = self.total()
        if s <= 0.0:
            raise ValidationError("cannot normalize a distribution with zero mass")
        return OutputDistribution(
            zip(self._keys, (self._probs / s).tolist()), normalization_defect=0.0
        )

    def restrict(self, predicate) -> "OutputDistribution":
        """Sub-table of keys satisfying ``predicate``; defect is recomputed."""
        return OutputDistribution(
            (key, p) for key, p in self.items() if predicate(key)
        )


def draw_indices(distribution: OutputDistribution, seed: int, shots: int) -> np.ndarray:
    """Draw indices into ``distribution.keys`` by inverse-CDF sampling.

    Deterministic for a given seed. The distribution must be normalized within
    1e-6; the residual defect is renormalized away before drawing.
    """
    if shots < 0:
        raise ValidationError(f"shots must be non-negative, got {shots}")
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
    draws = rng.random(shots)
    idx = np.searchsorted(cdf, draws, side="right")
    return np.minimum(idx, len(cdf) - 1)


def draw_samples(distribution: OutputDistribution, seed: int, shots: int) -> list:
    """Draw keys by inverse-CDF sampling; the keys at ``draw_indices``."""
    keys = distribution.keys
    return [keys[i] for i in draw_indices(distribution, seed, shots)]


def total_variation_distance(p: OutputDistribution, q: OutputDistribution) -> float:
    """Half the L1 distance over the union support, zero-filling missing keys.

    Refuses to compare tables keyed by different domain types.
    """
    kinds = {type(k) for k in p.keys} | {type(k) for k in q.keys}
    if len(kinds) > 1:
        names = sorted(t.__name__ for t in kinds)
        raise ValidationError(f"cannot compare distributions keyed by {names}")
    union = list(dict.fromkeys(list(p.keys) + list(q.keys)))
    return 0.5 * sum(abs(p.probability(k) - q.probability(k)) for k in union)
