"""Equivalence harness: permanent predictions versus brute-force parity statistics.

For n photons added to (or subtracted from) n identically squeezed modes and a
special-orthogonal network O, the probability of any parity pattern with
exactly n odd modes equals |Per(O_S)|^2, where O_S keeps the rows of the odd
modes and the first n columns. The identity is exact and independent of the
squeezing strength, and one table serves both variants: photon subtraction
samples the elementwise conjugate of O, which is O itself. The harness checks
the identity against the truncated Fock oracle and measures, rather than
assumes, everything else (collision sector mass, truncation loss, and how far
the prediction of O^T, the transposed misreading of that rule, lands).

Why, one photon total at a time: with B = sum_j a_j^dag^2, the squeezed
product is sum_K c_K B^K|0>, and a real rotation keeps B. Since
[a_j, B^K] = 2K a_j^dag B^(K-1), and mode by mode a S(xi)|0> ~ a^dag S(xi)|0>
~ S(xi)|1>, both variants have the same normalized part in total n + 2k,
|psi_k> ~ a_1^dag ... a_n^dag B^k|0>; the variant and xi set only its weight
w_k (``evolution.sector_weights``). O maps the part with odd modes S to
Per(O_S) a_S^dag B^k|0>, of the same norm for every S, so P_k(S) =
|Per(O_S)|^2 in every total k. That a rotation keeps the squeezed product
needs no harness of its own: the product is ``TruncatedFockState.from_product``
of m squeezed vacuum vectors, and ``abs(state_overlap(...))`` with an evolved
``copy()`` of it is 1, up to truncation, behind a rotation and not behind a
generic unitary.

Not every total tests that claim. Total n (k = 0) of a PASSV input is
a_1^dag ... a_n^dag |0>, so its match is boson sampling itself and holds
behind any network, real or not, at any squeezing. Only the totals k >= 1
test the paper's claim: behind a complex network, or with one mode squeezed
less, they miss |Per|^2 while total n still matches. A report at xi = 0
evolves total n alone, so it checks boson sampling, not the claim.

So a report evolves one state, at its largest cutoff, and normalizes each
total's parity table by its own mass, which mixing keeps, to get P_k; the row
of each squeezing is sum_k w_k P_k / sum_k w_k over the totals its cutoff
keeps, and its truncation loss the closed-form tail above them. Guards, cutoff
policy and truncation budget are shared by ``brute_force_parity``, the
one-squeezing case that ``compare`` and ``sample-passv`` also run; every guard
runs for every squeezing before the network is drawn.
"""

from __future__ import annotations

import math
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
    Squeezing,
    _check_passv_input,
    _check_state_size,
    _parity_keys,
    apply_network,
    as_squeezing,
    build_passv_input,
    parity_sectors,
    sector_weights,
)
from .networks import (
    LinearNetwork,
    ORTHOGONAL,
    ReckDecomposition,
    haar_special_orthogonal,
    reck_decompose,
)
from .sampling import outcome_probabilities, uniform_input

MAX_ORACLE_MODES = 5

TOLERANCE_FLOOR = 1e-11


def truncation_budget(modes: int, epsilon_tail: float) -> float:
    return modes * epsilon_tail


def predicted_parity_distribution(network: LinearNetwork,
                                  total_photons: int) -> OutputDistribution:
    """Permanent-based probabilities of the n-odd parity patterns.

    The table is deliberately sub-normalized: patterns with fewer than n odd
    modes (collision sectors) carry squeezing-dependent mass and are not
    predicted, so their total shows up in ``normalization_defect``.

    It serves both variants: the subtracted variant samples the elementwise
    conjugate of the network, which for a real network is the network itself.
    """
    if not isinstance(network, LinearNetwork):
        raise ValidationError("predicted_parity_distribution expects a LinearNetwork")
    if network.kind != ORTHOGONAL:
        raise ValidationError("parity predictions are defined for special-orthogonal networks")
    m = network.dimension
    n = total_photons
    if not (1 <= n <= m):
        raise ValidationError(f"need 1 <= n <= m, got n={n}, m={m}")
    outcomes = collision_free_configurations(n, m)
    probs = outcome_probabilities(network, uniform_input(n, m), outcomes)
    return OutputDistribution(zip(map(parity_pattern_of, outcomes), probs.tolist()))


@dataclass
class EquivalenceReport:
    """Side-by-side parity probabilities for one network across squeezings.

    ``brute`` holds one probability row per squeezing value, aligned with
    ``patterns``; deviations are taken over collision-free patterns only.
    There every row is a weighted mean of per-total tables equal to
    |Per(O_S)|^2, so ``max_deviation``, ``cross_xi_deviation`` and
    ``sector_deviation`` (the largest |P_k(S) - |Per(O_S)|^2| over the
    evolved totals) carry no truncation and share one ``tolerance``,
    TOLERANCE_FLOOR. Only ``collision_sector_mass`` and ``truncation_loss``
    (the closed-form input tail), per squeezing value, carry truncation; the
    loss is held to ``truncation_budget``.
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
    sector_deviation: float
    collision_sector_mass: list[float]
    truncation_loss: list[float]
    truncation_budget: float
    tolerance: float
    transpose_convention_deviation: float | None = None

    def passes(self) -> bool:
        # np.max, unlike max, returns a NaN wherever it sits, and NaN fails.
        deviation = np.max([self.max_deviation, self.cross_xi_deviation, self.sector_deviation])
        return bool(deviation <= self.tolerance) and all(
            loss <= self.truncation_budget for loss in self.truncation_loss
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
            "sector_deviation": float(self.sector_deviation),
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

    Refuses inputs outside the oracle's range (1 <= n <= m <= MAX_ORACLE_MODES;
    no cap on r), then chooses the smallest cutoff, of the parity of n,
    whose closed-form input tail fits ``truncation_budget``, and runs
    build_passv_input's checks and the state size guard on it, all before the
    network is drawn. Returns the parity distribution over all 2^m patterns,
    the cutoff and the truncation loss, that tail.
    """
    inputs = _checked_inputs(total_photons, modes, [xi], variant, epsilon_tail)
    decomposition = reck_decompose(haar_special_orthogonal(modes, seed))
    rows, _ = _parity_rows(total_photons, inputs, variant, decomposition)
    [(_, _, tail, cutoff)] = inputs
    return OutputDistribution(zip(_parity_keys(modes), rows[0].tolist())), cutoff, tail


def _checked_inputs(n: int, m: int, xi_values: list, variant: str, epsilon_tail: float
                    ) -> list[tuple[Squeezing, np.ndarray, float, int]]:
    """The squeezing, sector weights, tail and cutoff of each xi, once every guard has passed.

    The oracle's range comes first, for all values; then, value by value, the
    weights and build_passv_input's checks; last, the size guard on the one
    state evolved, at the largest cutoff, which holds the totals of the
    parity of n.
    """
    if not (1 <= n <= m):
        raise ValidationError(f"need 1 <= n <= m, got n={n}, m={m}")
    if m > MAX_ORACLE_MODES:
        raise ValidationError(
            f"the brute-force oracle is limited to m <= {MAX_ORACLE_MODES} modes"
        )
    squeezings = [as_squeezing(xi) for xi in xi_values]
    budget = truncation_budget(m, epsilon_tail)
    checked = []
    for sq in squeezings:
        weights, tail = sector_weights(sq, budget, modes=m, photons=n)
        _check_passv_input(n, m, sq, variant)
        checked.append((sq, weights, tail, n + 2 * (len(weights) - 1)))
    _check_state_size(m, max(cutoff for *_, cutoff in checked), n % 2)
    return checked


def _parity_rows(n: int, inputs: list, variant: str,
                 decomposition: ReckDecomposition) -> tuple[np.ndarray, np.ndarray]:
    """The 2^m-pattern row of every checked input, and P_k of every evolved total n + 2k.

    One state is evolved, at the first input with the largest cutoff.
    """
    sq, _, _, cutoff = max(inputs, key=lambda checked: checked[3])
    state = build_passv_input(n, decomposition.dimension, sq, variant, cutoff)
    apply_network(state, decomposition)
    sectors = parity_sectors(state)[n::2]
    sectors /= sectors.sum(axis=1, keepdims=True)
    rows = np.array([weights @ sectors[:len(weights)] / math.fsum(weights)
                     for _, weights, _, _ in inputs])
    return rows, sectors


def run_equivalence_experiment(total_photons: int, modes: int, xi_values,
                               variant: str = ADDED, *, seed: int,
                               epsilon_tail: float = 1e-8) -> EquivalenceReport:
    """Compare permanent predictions with brute-force parity statistics.

    Evolves one input through the Haar special-orthogonal network drawn from
    ``seed`` and reads every requested squeezing's row from it, then
    tabulates the parity probabilities of the collision-free patterns, of
    each row and of each evolved total, against |Per(O_S)|^2. Every guard
    runs for every squeezing value before the network is drawn; the network
    is drawn and decomposed once, and the subtracted variant also predicts
    from O^T.
    """
    n, m = total_photons, modes
    xi_list = [as_squeezing(x) for x in xi_values]
    if not xi_list:
        raise ValidationError("at least one squeezing value is required")
    inputs = _checked_inputs(n, m, xi_list, variant, epsilon_tail)
    network = haar_special_orthogonal(m, seed)
    decomposition = reck_decompose(network)
    rows, sectors = _parity_rows(n, inputs, variant, decomposition)
    predicted_dist = predicted_parity_distribution(network, n)
    patterns = predicted_dist.keys
    predicted = [predicted_dist.probability(p) for p in patterns]
    # The column of parity_sectors: bit m - 1 - i is set when mode i is odd.
    columns = [sum(1 << (m - 1 - i) for i, sign in enumerate(p) if sign == -1)
               for p in patterns]
    brute = rows[:, columns]
    brute_rows = brute.tolist()

    transpose_dev = None
    if variant == SUBTRACTED:
        transposed = LinearNetwork(network.entries.T, ORTHOGONAL, allow_reflection=True)
        alt = predicted_parity_distribution(transposed, n)
        alt_row = [alt.probability(p) for p in patterns]
        transpose_dev = float(np.max(np.abs(brute - alt_row)))

    return EquivalenceReport(
        total_photons=n,
        modes=m,
        variant=variant,
        xi_values=[sq.r for sq, *_ in inputs],
        seed=int(seed),
        epsilon_tail=float(epsilon_tail),
        cutoffs=[cutoff for *_, cutoff in inputs],
        patterns=patterns,
        predicted=predicted,
        brute=brute_rows,
        max_deviation=float(np.max(np.abs(brute - predicted))),
        # Peak to peak over xi is the largest pairwise gap, bit for bit:
        # rounded subtraction is monotone.
        cross_xi_deviation=float(np.max(np.ptp(brute, axis=0))),
        sector_deviation=float(np.max(np.abs(sectors[:, columns] - predicted))),
        collision_sector_mass=[max(0.0, 1.0 - sum(row)) for row in brute_rows],
        truncation_loss=[tail for _, _, tail, _ in inputs],
        truncation_budget=truncation_budget(m, epsilon_tail),
        tolerance=TOLERANCE_FLOOR,
        transpose_convention_deviation=transpose_dev,
    )
