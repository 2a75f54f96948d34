"""Equivalence harness: permanent predictions versus brute-force parity statistics.

For n photons added to (or subtracted from) n identically squeezed modes and a
special-orthogonal network O, the probability of any parity pattern with
exactly n odd modes equals |Per(O_S)|^2, where O_S keeps the rows of the odd
modes and the first n columns. The identity is exact and independent of the
squeezing strength; the harness checks it numerically against the truncated
Fock oracle and measures, rather than assumes, everything else (collision
sector mass, truncation loss, the subtracted-variant matrix convention).

``brute_force_parity`` is that oracle, with its guards, its cutoff policy and
its truncation budget in one place; ``compare`` and ``sample-passv`` both run
it, so the library and the command line refuse and truncate alike.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .configurations import (
    ParityPattern,
    collision_free_configurations,
    parity_pattern_of,
)
from .distributions import OutputDistribution
from .errors import ValidationError
from .evolution import (
    ADDED,
    SUBTRACTED,
    apply_network,
    as_squeezing,
    build_passv_input,
    build_squeezed_product,
    parity_distribution,
    required_cutoff,
    state_overlap,
)
from .networks import (
    LinearNetwork,
    ORTHOGONAL,
    haar_special_orthogonal,
    reck_decompose,
)
from .sampling import outcome_probabilities, uniform_input

MAX_ORACLE_MODES = 5
MAX_SQUEEZING = 1.0
CONJUGATE = "conjugate"
TRANSPOSE = "transpose"

TOLERANCE_FLOOR = 1e-9


def truncation_budget(modes: int, epsilon_tail: float) -> float:
    return modes * epsilon_tail


def comparison_tolerance(modes: int, epsilon_tail: float) -> float:
    return truncation_budget(modes, epsilon_tail) + TOLERANCE_FLOOR


def predicted_parity_distribution(network: LinearNetwork, total_photons: int,
                                  variant: str = ADDED, *,
                                  convention: str = CONJUGATE) -> OutputDistribution:
    """Permanent-based probabilities of the n-odd parity patterns.

    The table is deliberately sub-normalized: patterns with fewer than n odd
    modes (collision sectors) carry squeezing-dependent mass and are not
    predicted, so their total shows up in ``normalization_defect``.

    For the subtracted variant the sampled matrix is the elementwise
    conjugate, which for a real network is the network itself; this is the
    convention the brute-force oracle confirms. ``convention="transpose"`` is
    kept for diagnostics.
    """
    if not isinstance(network, LinearNetwork):
        raise ValidationError("predicted_parity_distribution expects a LinearNetwork")
    if network.kind != ORTHOGONAL:
        raise ValidationError("parity predictions are defined for special-orthogonal networks")
    if variant not in (ADDED, SUBTRACTED):
        raise ValidationError(f"variant must be '{ADDED}' or '{SUBTRACTED}', got {variant!r}")
    if convention not in (CONJUGATE, TRANSPOSE):
        raise ValidationError(f"unknown convention {convention!r}")
    m = network.dimension
    n = total_photons
    if not (1 <= n <= m):
        raise ValidationError(f"need 1 <= n <= m, got n={n}, m={m}")
    entries = network.entries
    if variant == SUBTRACTED:
        entries = np.conj(entries) if convention == CONJUGATE else entries.T
    effective = LinearNetwork(entries, ORTHOGONAL, allow_reflection=True)
    outcomes = collision_free_configurations(n, m)
    probs = outcome_probabilities(effective, uniform_input(n, m), outcomes)
    return OutputDistribution(zip(map(parity_pattern_of, outcomes), probs.tolist()))


@dataclass
class EquivalenceReport:
    """Side-by-side parity probabilities for one network across squeezings.

    ``brute`` holds one probability row per squeezing value, aligned with
    ``patterns``; deviations are taken over collision-free patterns only.
    ``collision_sector_mass`` and ``truncation_loss`` are measured per
    squeezing value, and the comparison ``tolerance`` is derived from the
    truncation budget.
    """

    total_photons: int
    modes: int
    variant: str
    xi_values: list[float]
    seed: int
    epsilon_tail: float
    cutoffs: list[int]
    patterns: list[ParityPattern]
    predicted: list[float]
    brute: list[list[float]]
    max_deviation: float
    cross_xi_deviation: float
    collision_sector_mass: list[float]
    truncation_loss: list[float]
    truncation_budget: float
    tolerance: float
    transpose_convention_deviation: float | None = None

    def passes(self) -> bool:
        return (
            self.max_deviation <= self.tolerance
            and self.cross_xi_deviation <= self.tolerance
            and all(loss <= self.truncation_budget for loss in self.truncation_loss)
        )

    def to_json_dict(self) -> dict:
        d = {
            "n": self.total_photons,
            "m": self.modes,
            "variant": self.variant,
            "xi": [float(x) for x in self.xi_values],
            "seed": self.seed,
            "epsilon_tail": self.epsilon_tail,
            "cutoffs": list(self.cutoffs),
            "patterns": [p.serialize() for p in self.patterns],
            "predicted": [float(x) for x in self.predicted],
            "brute": [[float(x) for x in row] for row in self.brute],
            "max_deviation": float(self.max_deviation),
            "cross_xi_deviation": float(self.cross_xi_deviation),
            "collision_sector_mass": [float(x) for x in self.collision_sector_mass],
            "truncation_loss": [float(x) for x in self.truncation_loss],
            "truncation_budget": float(self.truncation_budget),
            "tolerance": float(self.tolerance),
            "passes": self.passes(),
        }
        if self.transpose_convention_deviation is not None:
            d["transpose_convention_deviation"] = float(self.transpose_convention_deviation)
        return d

    def to_csv_rows(self) -> list[list[str]]:
        header = ["pattern", "predicted"] + [f"p_xi{i}" for i in range(len(self.xi_values))]
        rows = [header]
        for k, pattern in enumerate(self.patterns):
            row = [pattern.serialize(), repr(float(self.predicted[k]))]
            row += [repr(float(self.brute[i][k])) for i in range(len(self.xi_values))]
            rows.append(row)
        return rows


def brute_force_parity(total_photons: int, modes: int, xi, variant: str = ADDED, *,
                       seed: int, epsilon_tail: float = 1e-8
                       ) -> tuple[OutputDistribution, int, float]:
    """The truncated-Fock oracle: parity statistics of one input behind network ``seed``.

    Refuses inputs outside the oracle's range (1 <= n <= m <= MAX_ORACLE_MODES,
    r <= MAX_SQUEEZING) before anything is built. The total photon cutoff is
    chosen once, from the input's analytic photon-number distribution: the
    smallest one, of the parity of n, whose tail fits ``truncation_budget``.
    Mixing loses nothing, so that tail is the whole recorded loss. The state
    size guard in build_passv_input refuses an oversized state before any of
    its arrays is allocated.

    Returns the parity distribution over all 2^m patterns, the cutoff and the
    recorded truncation loss.
    """
    n, m = total_photons, modes
    if not (1 <= n <= m):
        raise ValidationError(f"need 1 <= n <= m, got n={n}, m={m}")
    if m > MAX_ORACLE_MODES:
        raise ValidationError(
            f"the brute-force oracle is limited to m <= {MAX_ORACLE_MODES} modes"
        )
    sq = as_squeezing(xi)
    if sq.r > MAX_SQUEEZING:
        raise ValidationError(
            f"squeezing magnitude {sq.r} exceeds the supported {MAX_SQUEEZING}"
        )
    cutoff = required_cutoff(sq, truncation_budget(m, epsilon_tail), modes=m, photons=n)
    state = build_passv_input(n, m, sq, variant, cutoff)
    apply_network(state, reck_decompose(haar_special_orthogonal(m, seed)))
    return parity_distribution(state), cutoff, state.truncation_loss


def run_equivalence_experiment(total_photons: int, modes: int, xi_values,
                               variant: str = ADDED, *, seed: int,
                               epsilon_tail: float = 1e-8) -> EquivalenceReport:
    """Compare permanent predictions with brute-force parity statistics.

    Runs ``brute_force_parity`` on the Haar special-orthogonal network drawn
    from ``seed`` at every requested squeezing magnitude, and tabulates the
    parity probabilities of the collision-free patterns against |Per(O_S)|^2.
    """
    n, m = total_photons, modes
    xi_list = [as_squeezing(x) for x in xi_values]
    if not xi_list:
        raise ValidationError("at least one squeezing value is required")
    oracle = [
        brute_force_parity(n, m, sq, variant, seed=seed, epsilon_tail=epsilon_tail)
        for sq in xi_list
    ]
    network = haar_special_orthogonal(m, seed)
    predicted_dist = predicted_parity_distribution(network, n, variant)
    patterns = predicted_dist.keys
    predicted = [predicted_dist.probability(p) for p in patterns]
    brute_rows = [[parity.probability(p) for p in patterns] for parity, _, _ in oracle]
    brute = np.array(brute_rows)

    transpose_dev = None
    if variant == SUBTRACTED:
        alt = predicted_parity_distribution(network, n, variant, convention=TRANSPOSE)
        alt_row = [alt.probability(p) for p in patterns]
        transpose_dev = float(np.max(np.abs(brute - alt_row)))

    return EquivalenceReport(
        total_photons=n,
        modes=m,
        variant=variant,
        xi_values=[sq.r for sq in xi_list],
        seed=int(seed),
        epsilon_tail=float(epsilon_tail),
        cutoffs=[cutoff for _, cutoff, _ in oracle],
        patterns=patterns,
        predicted=predicted,
        brute=brute_rows,
        max_deviation=float(np.max(np.abs(brute - predicted))),
        # Peak to peak over xi is the largest pairwise gap, bit for bit:
        # rounded subtraction is monotone.
        cross_xi_deviation=float(np.max(np.ptp(brute, axis=0))),
        collision_sector_mass=[max(0.0, 1.0 - sum(row)) for row in brute_rows],
        truncation_loss=[loss for _, _, loss in oracle],
        truncation_budget=truncation_budget(m, epsilon_tail),
        tolerance=comparison_tolerance(m, epsilon_tail),
        transpose_convention_deviation=transpose_dev,
    )


def squeezed_invariance_check(network: LinearNetwork, xi, cutoff: int) -> float:
    """|overlap| between a product squeezed state and its network image.

    Real rotations leave the identically squeezed product invariant up to
    truncation, since they mix only like quadratures; a genuinely complex
    network entangles the modes and the overlap drops measurably below 1.
    """
    if not isinstance(network, LinearNetwork):
        raise ValidationError("squeezed_invariance_check expects a LinearNetwork")
    state0 = build_squeezed_product(network.dimension, xi, cutoff)
    evolved = state0.copy()
    apply_network(evolved, reck_decompose(network))
    return abs(state_overlap(state0, evolved))
