"""Tests for the parity-equivalence experiment harness.

The headline claim under test: after a rotation network, the collision-free
parity statistics of photon-added squeezed vacuum match the permanent-based
photon-counting probabilities of the corresponding Fock-state experiment,
independent of the squeezing strength.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest

from passv.configurations import ParityPattern, collision_free_configurations, parity_pattern_of
from passv.errors import SizeLimitError, ValidationError
from passv import experiments
from passv.experiments import (
    TOLERANCE_FLOOR,
    EquivalenceReport,
    brute_force_parity,
    comparison_tolerance,
    predicted_parity_distribution,
    run_equivalence_experiment,
    squeezed_invariance_check,
)
from passv.evolution import (
    ADDED,
    SUBTRACTED,
    apply_network,
    build_passv_input,
    parity_distribution,
    required_cutoff,
)
from passv.networks import (
    ORTHOGONAL,
    LinearNetwork,
    haar_special_orthogonal,
    haar_unitary,
    reck_decompose,
)
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


def test_one_prediction_serves_both_variants():
    # Subtraction samples the elementwise conjugate, and a real network is
    # its own conjugate, so both reports carry the same table.
    n, m, seed = 2, 4, 12
    net = haar_special_orthogonal(m, seed)
    conjugate = predicted_parity_distribution(
        LinearNetwork(np.conj(net.entries), ORTHOGONAL, allow_reflection=True), n)
    for variant in (ADDED, SUBTRACTED):
        report = run_equivalence_experiment(n, m, [0.3], variant, seed=seed)
        assert report.passes()
        assert report.predicted == [conjugate.probability(p) for p in report.patterns]


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
    with pytest.raises(ValidationError):  # a bad value anywhere in the list
        run_equivalence_experiment(n, m, [0.1, xi], seed=1)


@pytest.mark.parametrize("n, m, xi_values, variant, epsilon_tail, error", [
    # r = 1.0 at m = 5 needs total cutoff 92, over the state size limit.
    (2, 5, [0.1, 1.0], ADDED, 1e-8, SizeLimitError),
    (2, 3, [0.3, 0.0], SUBTRACTED, 1e-8, ValidationError),  # subtraction from vacuum
    (2, 3, [0.3, 0.4], "doubled", 1e-8, ValidationError),
    (2, 3, [0.3, 0.4], ADDED, float("nan"), ValidationError),
    (2, 3, [0.3, 0.4], ADDED, float("inf"), ValidationError),
], ids=["state-size", "subtracted-vacuum", "variant", "epsilon-nan", "epsilon-inf"])
def test_every_guard_runs_for_every_xi_before_anything_is_built(
        monkeypatch, n, m, xi_values, variant, epsilon_tail, error):
    def unreachable(*args, **kwargs):
        raise AssertionError("built past a guard")

    monkeypatch.setattr(experiments, "haar_special_orthogonal", unreachable)
    monkeypatch.setattr(experiments, "build_passv_input", unreachable)
    with pytest.raises(error):
        run_equivalence_experiment(n, m, xi_values, variant, seed=1,
                                   epsilon_tail=epsilon_tail)
    with pytest.raises(error):
        brute_force_parity(n, m, xi_values[-1], variant, seed=1, epsilon_tail=epsilon_tail)


def test_report_draws_and_decomposes_its_network_once(monkeypatch):
    calls = {"haar_special_orthogonal": 0, "reck_decompose": 0}
    for name in calls:
        def counted(*args, _original=getattr(experiments, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    report = run_equivalence_experiment(2, 3, [0.2, 0.4, 0.6], SUBTRACTED, seed=5)
    assert calls == {"haar_special_orthogonal": 1, "reck_decompose": 1}
    assert report.passes()


def test_report_rows_are_the_oracle_distributions():
    # A one-xi report is brute_force_parity's own computation.
    for n, m, xi, variant, seed in ((2, 3, 0.4, ADDED, 11), (3, 5, 0.3, SUBTRACTED, 7)):
        report = run_equivalence_experiment(n, m, [xi], variant, seed=seed)
        parity, cutoff, loss = brute_force_parity(n, m, xi, variant, seed=seed)
        assert (report.cutoffs, report.truncation_loss) == ([cutoff], [loss])
        assert report.brute[0] == [parity.probability(p) for p in report.patterns]
        assert len(parity) == 2 ** m


@pytest.mark.parametrize("seed", [7, 12, 33])
@pytest.mark.parametrize("n, m, xi_values, variant", [
    (2, 4, [0.0, 0.3, 0.6], ADDED), (3, 5, [0.3], SUBTRACTED), (1, 3, [0.2, 0.8], ADDED),
])
def test_report_rows_match_one_evolution_per_xi(n, m, xi_values, variant, seed):
    # Every row of a multi-xi report is read from one state; evolving each xi
    # on its own, at its own cutoff, gives the same rows up to rounding.
    report = run_equivalence_experiment(n, m, xi_values, variant, seed=seed)
    decomposition = reck_decompose(haar_special_orthogonal(m, seed))
    for row, xi, cutoff in zip(report.brute, xi_values, report.cutoffs):
        state = build_passv_input(n, m, xi, variant, cutoff)
        apply_network(state, decomposition)
        parity = parity_distribution(state)
        expected = [parity.probability(p) for p in report.patterns]
        assert np.max(np.abs(np.subtract(row, expected))) <= 1e-14


def test_report_evolves_one_state_whatever_the_number_of_xi(monkeypatch):
    calls = {"build_passv_input": 0, "apply_network": 0}
    for name in calls:
        def counted(*args, _original=getattr(experiments, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(experiments, name, counted)
    for xi_values in ([0.3], [0.0, 0.3, 0.6], [0.6, 0.1, 0.4, 0.2, 0.5]):
        calls.update(dict.fromkeys(calls, 0))
        assert run_equivalence_experiment(2, 4, xi_values, seed=7).passes()
        assert calls == {"build_passv_input": 1, "apply_network": 1}
    calls.update(dict.fromkeys(calls, 0))
    brute_force_parity(2, 4, 0.4, SUBTRACTED, seed=7)
    assert calls == {"build_passv_input": 1, "apply_network": 1}


@pytest.mark.parametrize("seed", [7, 12, 33])
@pytest.mark.parametrize("n, m, xi_values, variant", [
    (2, 4, [0.0, 0.3, 0.6], ADDED), (3, 5, [0.3], SUBTRACTED),
])
def test_every_evolved_sector_matches_the_permanents(n, m, xi_values, variant, seed):
    # The claim holds in each photon total on its own, not only in the mix.
    report = run_equivalence_experiment(n, m, xi_values, variant, seed=seed)
    assert report.sector_deviation <= 1e-13
    assert report.to_json_dict()["sector_deviation"] == report.sector_deviation
    assert report.passes()


def test_report_deviations_are_the_pairwise_maxima():
    n, m, seed = 2, 3, 7
    report = run_equivalence_experiment(n, m, [0.2, 0.4, 0.6], SUBTRACTED, seed=seed)
    rows, predicted = report.brute, report.predicted
    k = range(len(report.patterns))
    assert report.max_deviation == max(abs(r[i] - predicted[i]) for r in rows for i in k)
    assert report.cross_xi_deviation == max(
        abs(a[i] - b[i]) for a in rows for b in rows for i in k
    )
    transposed = haar_special_orthogonal(m, seed).entries.T
    alt = predicted_parity_distribution(
        LinearNetwork(transposed, ORTHOGONAL, allow_reflection=True), n)
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
    # A sector off by more than the floor fails the report, whatever the budget.
    off = EquivalenceReport(**{**report.__dict__, "sector_deviation": 2 * TOLERANCE_FLOOR})
    assert not off.passes()


# Twenty warm ops of each benchmark command, after one cold op. The cold op's
# eigh of the larger sector generators wakes OpenBLAS's other threads, which
# spin for about 0.1 s after; the pause lets them go idle first.
ONE_CORE_CHILD = """
import time
from passv.experiments import run_equivalence_experiment

for args, seed in (((2, 4, [0.0, 0.3, 0.6]), 3), ((3, 5, [0.3], "subtracted"), 7)):
    run_equivalence_experiment(*args, seed=seed)
    time.sleep(0.5)
    wall, cpu = time.perf_counter(), time.process_time()
    for _ in range(20):
        run_equivalence_experiment(*args, seed=seed)
    print((time.process_time() - cpu) / (time.perf_counter() - wall))
"""


@pytest.mark.parametrize("threads", ["2", None], ids=["openblas-2-threads", "openblas-unset"])
def test_warm_equivalence_ops_keep_to_one_core(threads):
    # A BLAS call too small to gain from threads still wakes OpenBLAS's other
    # threads, and they spin through the rest of the op: process CPU time ran
    # at about twice the wall time. Load on the host can only lower the ratio.
    env = {key: value for key, value in os.environ.items() if key != "OPENBLAS_NUM_THREADS"}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    result = subprocess.run([sys.executable, "-c", ONE_CORE_CHILD], capture_output=True,
                            text=True, env=env, timeout=300)
    assert result.returncode == 0, result.stderr
    ratios = [float(line) for line in result.stdout.split()]
    assert len(ratios) == 2 and max(ratios) <= 1.3, f"process CPU / wall: {ratios}"
