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
from hypothesis import assume, given, settings, strategies

from passv.configurations import collision_free_configurations, parity_pattern_of
from passv.errors import SizeLimitError, ValidationError
from passv import evolution, experiments
from passv.experiments import (
    TOLERANCE_FLOOR,
    EquivalenceReport,
    brute_force_parity,
    predicted_parity_distribution,
    run_equivalence_experiment,
)
from passv.evolution import (
    ADDED,
    SUBTRACTED,
    TruncatedFockState,
    apply_network,
    build_passv_input,
    mode_ladder,
    parity_distribution,
    parity_sectors,
    required_cutoff,
    squeezed_vacuum_vector,
)
from passv.networks import (
    ORTHOGONAL,
    LinearNetwork,
    haar_special_orthogonal,
    haar_unitary,
    reck_decompose,
)
from passv.sampling import outcome_probabilities, output_distribution, uniform_input


def test_report_tolerance_is_the_floor_for_every_m_and_epsilon():
    # Truncation never enters a deviation, so the tolerance has no m or epsilon in it.
    for n, m, epsilon_tail in ((1, 1, 1e-8), (2, 3, 1e-4), (2, 4, 1e-8), (3, 5, 1e-12)):
        report = run_equivalence_experiment(n, m, [0.3], seed=7, epsilon_tail=epsilon_tail)
        assert report.tolerance == TOLERANCE_FLOOR
        assert report.to_json_dict()["tolerance"] == TOLERANCE_FLOOR
        assert report.truncation_budget == m * epsilon_tail
        assert report.passes()


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
    # No squeezing cap: the byte guard admits r = 1.5 here (D = 242).
    assert run_equivalence_experiment(2, 3, [1.5], seed=1).passes()
    with pytest.raises(ValidationError):
        run_equivalence_experiment(2, 3, [], seed=1)
    with pytest.raises(ValidationError):
        run_equivalence_experiment(2, 3, [0.0], variant="removed", seed=1)


@pytest.mark.parametrize("n, m, xi", [(2, 6, 0.1), (4, 3, 0.1), (0, 3, 0.1)])
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
    # r = 2.0 at m = 3 needs total cutoff 658, past the byte edge at r = 1.60 (D = 296).
    (2, 3, [0.1, 2.0], ADDED, 1e-8, SizeLimitError),
    (2, 3, [0.3, 0.0], SUBTRACTED, 1e-8, ValidationError),  # subtraction from vacuum
    (2, 3, [0.3, 0.4], "doubled", 1e-8, ValidationError),
    (2, 3, [0.3, 0.4], ADDED, float("nan"), ValidationError),
    (2, 3, [0.3, 0.4], ADDED, float("inf"), ValidationError),
], ids=["state-size", "squeezing-past-the-byte-edge", "subtracted-vacuum", "variant",
        "epsilon-nan", "epsilon-inf"])
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


def test_report_passes_reflects_tolerance():
    report = run_equivalence_experiment(1, 2, [0.3, 0.6], seed=2)
    assert report.passes()
    strict = EquivalenceReport(
        **{**report.__dict__, "tolerance": report.max_deviation / 2.0}
    )
    assert not strict.passes()
    # Any one deviation above the floor, or not a number, fails the report,
    # whatever the truncation budget.
    for field in ("max_deviation", "cross_xi_deviation", "sector_deviation"):
        for value in (2 * TOLERANCE_FLOOR, math.nan):
            off = EquivalenceReport(**{**report.__dict__, field: value})
            assert not off.passes(), (field, value)
    lossy = EquivalenceReport(
        **{**report.__dict__, "truncation_loss": [0.0, 2 * report.truncation_budget]})
    assert not lossy.passes()


@settings(max_examples=40, deadline=None)
@given(shape=strategies.sampled_from([(n, m) for m in (1, 2, 3) for n in range(1, m + 1)]),
       seed=strategies.integers(0, 2**32 - 1), r=strategies.integers(1, 100),
       variant=strategies.sampled_from([ADDED, SUBTRACTED]))
def test_every_deviation_is_within_the_floor(shape, seed, r, variant):
    # The identity holds in every photon total, so only rounding enters a
    # deviation, whatever the squeezing and the cutoff; r runs over [0, 1] in
    # steps of 0.01, and r = 0 joins every added report as a second row.
    n, m = shape
    xi_values = [r / 100] if variant == SUBTRACTED else [0.0, r / 100]
    report = run_equivalence_experiment(n, m, xi_values, variant, seed=seed)
    worst = max(report.max_deviation, report.cross_xi_deviation, report.sector_deviation)
    assert worst <= TOLERANCE_FLOOR
    assert report.passes()


def _deviation_per_total(n, network, state):
    """max over the n-odd patterns S of |P_k(S) - |Per(U_S)|^2|, for each total n + 2k."""
    m = network.dimension
    apply_network(state, reck_decompose(network))
    sectors = parity_sectors(state)[n::2]
    sectors /= sectors.sum(axis=1, keepdims=True)
    outcomes = collision_free_configurations(n, m)
    columns = [sum(1 << (m - 1 - i) for i, occupation in enumerate(config) if occupation)
               for config in outcomes]
    predicted = outcome_probabilities(network, uniform_input(n, m), outcomes)
    return np.max(np.abs(sectors[:, columns] - predicted), axis=1)


@settings(max_examples=60, deadline=None)
@given(shape=strategies.sampled_from([(n, m) for m in (2, 3, 4) for n in range(1, m + 1)]),
       seed=strategies.integers(0, 2**32 - 1), r=strategies.integers(1, 60),
       variant=strategies.sampled_from([ADDED, SUBTRACTED]))
def test_only_the_totals_above_n_tell_a_broken_condition(shape, seed, r, variant):
    # Two inputs that break the paper's conditions: a complex Haar U, and a
    # real O with the last mode squeezed to r/2. Total n is
    # a_1^dag ... a_n^dag |0>, so its match is boson sampling itself and holds
    # behind any network; every total n + 2k, k >= 1, misses. A network that
    # barely mixes cannot tell, so networks within 1e-3 of these are skipped:
    # U real up to its row phases and one phase common to every column, and O
    # that leaves the last mode alone.
    # Measured at r = 0.01, 0.1, 0.3 and 0.6 on 1,200 to 60,000 networks per
    # m, k = 0 stayed within 2.8e-15 and k >= 1 missed by 6.6e-8 or more.
    n, m = shape
    r /= 100
    cutoff = required_cutoff(r, m * 1e-8, modes=m, photons=n)
    assert cutoff >= n + 2
    unitary, rotation = haar_unitary(m, seed), haar_special_orthogonal(m, seed)
    u = unitary.entries
    assume(np.max(np.abs((u[:, :, None] * u[:, None, :].conj()).imag)) >= 1e-3)
    assume(1.0 - np.max(rotation.entries[:, -1] ** 2) >= 1e-3)
    direction = "raise" if variant == ADDED else "lower"
    vectors = []
    for mode in range(m):
        vector, _ = squeezed_vacuum_vector(r / 2 if mode == m - 1 else r, cutoff + 1)
        vectors.append((mode_ladder(vector, direction) if mode < n else vector)[:cutoff + 1])
    for network, state in ((unitary, build_passv_input(n, m, r, variant, cutoff)),
                           (rotation, TruncatedFockState.from_product(vectors))):
        deviations = _deviation_per_total(n, network, state)
        assert deviations[0] <= TOLERANCE_FLOOR
        assert np.min(deviations[1:]) > 100 * TOLERANCE_FLOOR, network


# Twenty warm ops of each benchmark command, after one cold op and a pause
# that lets any BLAS thread the cold op woke go idle first.
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


# An edge of the byte guard, run cold in a child: max RSS rises from the
# imported process by the op's arrays and the modules a first op maps. The
# peak is the child's own VmHWM: ru_maxrss carries over the RSS that the
# forking process had, so under pytest it started 24 MB or more above the
# child's imports and hid that much of the rise.
EDGE_RSS_CHILD = """
import sys
from passv.experiments import run_equivalence_experiment

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

n, m, r = int(sys.argv[1]), int(sys.argv[2]), float(sys.argv[3])
before = peak()
report = run_equivalence_experiment(n, m, [r], seed=7)
print(report.passes(), report.cutoffs[0], (peak() - before) * 1024)
"""
needs_vmhwm = pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                                 reason="the child reads VmHWM from Linux's /proc")


def _edge_rise_within_count(n, m, r, cutoff):
    with pytest.raises(SizeLimitError):
        run_equivalence_experiment(n, m, [round(r + 0.01, 2)], seed=7)
    result = subprocess.run([sys.executable, "-c", EDGE_RSS_CHILD, str(n), str(m), str(r)],
                            capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    passes, held_cutoff, rise = result.stdout.split()
    assert (passes, held_cutoff) == ("True", str(cutoff))
    assert int(rise) <= evolution._state_bytes(m, cutoff, n % 2), f"max RSS rose {int(rise)} bytes"


@needs_vmhwm
def test_the_byte_guard_edge_holds_its_count_in_max_rss():
    # The m = 3 edge: r = 1.56 needs cutoff 299 and r = 1.57 is refused. Max
    # RSS rose 347 MB on a 392 MB count.
    _edge_rise_within_count(3, 3, 1.56, 299)


@needs_vmhwm
def test_the_m2_byte_guard_edge_holds_its_count_in_max_rss():
    # D = 446, the largest cutoff a mixer runs at: the held eigenbases are
    # 120 MB of the 385 MB count. Max RSS rose 371 MB. At the former edge,
    # D = 357, it rose 6 MB over the count when the count left out the modules
    # a first op maps.
    _edge_rise_within_count(2, 2, 1.82, 446)


@needs_vmhwm
def test_the_m5_byte_guard_edge_holds_its_count_in_max_rss():
    # 5.4 million stored amplitudes at D = 63, where the seven held moves
    # between pair-sorted orders are 28 bytes of the 67 counted per
    # amplitude. Max RSS rose 336 MB on a 383 MB count. Sorting whole pair
    # orders beside the held moves, as np.lexsort does with 18 to 20 bytes
    # per amplitude, takes it 15 MB over the count.
    _edge_rise_within_count(3, 5, 0.78, 63)
