"""Tests for the parity-equivalence experiment harness.

The headline claim under test: after a rotation network, the collision-free
parity statistics of photon-added squeezed vacuum match the permanent-based
photon-counting probabilities of the corresponding Fock-state experiment,
independent of the squeezing strength.
"""

import math

import numpy as np
import pytest

from passv.configurations import ParityPattern, collision_free_configurations, parity_pattern_of
from passv.errors import ValidationError
from passv import experiments
from passv.experiments import (
    CONJUGATE,
    TRANSPOSE,
    EquivalenceReport,
    brute_force_parity,
    comparison_tolerance,
    predicted_parity_distribution,
    run_equivalence_experiment,
    squeezed_invariance_check,
)
from passv.evolution import ADDED, SUBTRACTED, required_cutoff
from passv.networks import haar_special_orthogonal, haar_unitary
from passv.sampling import output_distribution, uniform_input


def test_comparison_tolerance_formula():
    assert comparison_tolerance(4, 1e-8) == pytest.approx(4e-8 + 1e-9)
    assert comparison_tolerance(3, 0.0) == pytest.approx(1e-9)


def test_predicted_matches_fock_sampler_exactly_at_zero_squeezing():
    # The prediction is |permanent|^2 over collision-free outcomes, which is
    # the photon-counting distribution restricted to its binary support --
    # computed through the identical code path, so equality is exact.
    n, m = 2, 4
    net = haar_special_orthogonal(m, 5)
    predicted = predicted_parity_distribution(net, n)
    counting = output_distribution(net, uniform_input(n, m))
    for config in collision_free_configurations(n, m):
        pattern = parity_pattern_of(config)
        assert predicted.probability(pattern) == counting.probability(config)


def test_predicted_defect_equals_collision_sector_mass():
    n, m = 3, 4
    net = haar_special_orthogonal(m, 6)
    predicted = predicted_parity_distribution(net, n)
    counting = output_distribution(net, uniform_input(n, m))
    binary_mass = sum(
        counting.probability(c) for c in collision_free_configurations(n, m)
    )
    assert predicted.normalization_defect == pytest.approx(1.0 - binary_mass, abs=1e-12)


def test_predicted_supports_exactly_the_odd_count_patterns():
    n, m = 2, 4
    net = haar_special_orthogonal(m, 7)
    predicted = predicted_parity_distribution(net, n)
    assert len(predicted) == math.comb(m, n)
    assert all(key.odd_count == n for key in predicted.keys)


def test_predicted_requires_rotation_networks():
    with pytest.raises(ValidationError):
        predicted_parity_distribution(haar_unitary(3, 1), 2)
    with pytest.raises(ValidationError):
        predicted_parity_distribution(haar_special_orthogonal(3, 1), 4)
    with pytest.raises(ValidationError):
        predicted_parity_distribution(haar_special_orthogonal(3, 1), 2, convention="adjoint")


def test_equivalence_experiment_added_small():
    report = run_equivalence_experiment(2, 3, [0.0, 0.4], seed=11)
    assert report.passes()
    assert report.max_deviation <= report.tolerance
    assert report.cross_xi_deviation <= report.tolerance
    assert report.variant == ADDED
    assert report.cutoffs[0] == 2  # zero squeezing: the input is the 2-photon Fock state
    # the smallest total photon cutoff whose input tail fits the budget
    assert report.cutoffs[1] == required_cutoff(0.4, report.truncation_budget, modes=3,
                                                photons=2)
    assert len(report.patterns) == 3
    assert all(loss <= report.truncation_budget for loss in report.truncation_loss)


def test_equivalence_collision_mass_is_squeezing_independent():
    report = run_equivalence_experiment(2, 4, [0.0, 0.3, 0.6], seed=7)
    assert report.passes()
    spread = max(report.collision_sector_mass) - min(report.collision_sector_mass)
    assert spread < report.tolerance
    assert report.collision_sector_mass[0] > 0.01  # genuinely nonzero sector


def test_equivalence_subtracted_uses_conjugate_convention():
    report = run_equivalence_experiment(2, 3, [0.5], variant=SUBTRACTED, seed=13)
    assert report.passes()
    # The transpose reading of the same rule misses by orders of magnitude.
    assert report.transpose_convention_deviation > 1e3 * report.max_deviation
    assert report.transpose_convention_deviation > 0.01


def test_equivalence_report_serialization():
    report = run_equivalence_experiment(1, 3, [0.0, 0.2], seed=3)
    data = report.to_json_dict()
    assert data["passes"] is True
    assert data["n"] == 1 and data["m"] == 3
    assert data["xi"] == [0.0, 0.2]
    assert len(data["predicted"]) == 3
    assert len(data["brute"]) == 2
    rows = report.to_csv_rows()
    assert rows[0] == ["pattern", "predicted", "p_xi0", "p_xi1"]
    assert len(rows) == 1 + len(report.patterns)


def test_equivalence_validation():
    with pytest.raises(ValidationError):
        run_equivalence_experiment(2, 6, [0.0], seed=1)  # brute force capped at 5 modes
    with pytest.raises(ValidationError):
        run_equivalence_experiment(2, 3, [1.5], seed=1)  # squeezing capped at 1.0
    with pytest.raises(ValidationError):
        run_equivalence_experiment(2, 3, [], seed=1)
    with pytest.raises(ValidationError):
        run_equivalence_experiment(2, 3, [0.0], variant="removed", seed=1)


@pytest.mark.parametrize("n, m, xi", [(2, 6, 0.1), (4, 3, 0.1), (0, 3, 0.1), (2, 3, 1.5)])
def test_oracle_guards_fire_before_anything_is_built(monkeypatch, n, m, xi):
    def unreachable(*args, **kwargs):
        raise AssertionError("built past a guard")

    monkeypatch.setattr(experiments, "haar_special_orthogonal", unreachable)
    monkeypatch.setattr(experiments, "build_passv_input", unreachable)
    with pytest.raises(ValidationError):
        brute_force_parity(n, m, xi, seed=1)


def test_report_rows_are_the_oracle_distributions():
    report = run_equivalence_experiment(2, 3, [0.0, 0.4], seed=11)
    for row, xi, cutoff, loss in zip(report.brute, report.xi_values, report.cutoffs,
                                     report.truncation_loss):
        parity, oracle_cutoff, oracle_loss = brute_force_parity(2, 3, xi, seed=11)
        assert (oracle_cutoff, oracle_loss) == (cutoff, loss)
        assert row == [parity.probability(p) for p in report.patterns]
        assert len(parity) == 2 ** 3


def test_report_deviations_are_the_pairwise_maxima():
    n, m, seed = 2, 3, 7
    report = run_equivalence_experiment(n, m, [0.2, 0.4, 0.6], SUBTRACTED, seed=seed)
    rows, predicted = report.brute, report.predicted
    k = range(len(report.patterns))
    assert report.max_deviation == max(abs(r[i] - predicted[i]) for r in rows for i in k)
    assert report.cross_xi_deviation == max(
        abs(a[i] - b[i]) for a in rows for b in rows for i in k
    )
    alt = predicted_parity_distribution(haar_special_orthogonal(m, seed), n, SUBTRACTED,
                                        convention=TRANSPOSE)
    assert report.transpose_convention_deviation == max(
        abs(r[i] - alt.probability(report.patterns[i])) for r in rows for i in k
    )


def test_invariance_holds_for_rotations():
    fidelity = squeezed_invariance_check(
        haar_special_orthogonal(3, 21), 0.4, required_cutoff(0.4, 1e-8)
    )
    assert fidelity >= 1.0 - 1e-6


def test_invariance_fails_for_generic_unitaries():
    net = haar_unitary(3, 4)
    fidelity = squeezed_invariance_check(net, 0.4, required_cutoff(0.4, 1e-8))
    assert fidelity <= 0.999


def test_report_passes_reflects_tolerance():
    report = run_equivalence_experiment(1, 2, [0.3], seed=2)
    assert report.passes()
    strict = EquivalenceReport(
        **{**report.__dict__, "tolerance": report.max_deviation / 2.0}
    )
    assert not strict.passes()
