"""End-to-end acceptance checks, one per numbered criterion.

Each test prints a single ``[PASS]``/``[FAIL]`` line with its measured
numbers before asserting, so a ``pytest -v -s`` run doubles as a compliance
report. Tolerances are pinned here on purpose; loosening them is a red flag.
"""

import json
import math
import time

import numpy as np

from passv.cli import execute
from passv.configurations import enumerate_configurations
from passv.distributions import total_variation_distance
from passv.errors import ValidationError
from passv.evolution import (
    ADDED,
    SUBTRACTED,
    TruncatedFockState,
    apply_beamsplitter,
    apply_network,
    build_passv_input,
    number_distribution,
    required_cutoff,
)
from passv.experiments import (
    TOLERANCE_FLOOR,
    run_equivalence_experiment,
    squeezed_invariance_check,
)
from passv.networks import (
    ORTHOGONAL,
    UNITARY,
    LinearNetwork,
    embed_unitary_as_orthogonal,
    haar_special_orthogonal,
    haar_unitary,
    reck_decompose,
    reconstruct,
)
from passv.permanents import permanent_naive, permanent_ryser
from passv.sampling import output_distribution, transition_amplitude, uniform_input


def _report(number: int, passed: bool, detail: str):
    print(f"[{'PASS' if passed else 'FAIL'}] criterion {number}: {detail}")
    assert passed, f"criterion {number}: {detail}"


def test_criterion_01_permanent_kernels_agree_on_random_instances():
    rng = np.random.default_rng(20260825)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        n = int(rng.integers(1, 9))
        a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        reference = permanent_naive(a)
        fast = permanent_ryser(a)
        worst = max(worst, abs(fast - reference) / max(abs(reference), 1e-300))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 30.0
    _report(1, ok, f"500 random instances n<=8, worst relative deviation "
                   f"{worst:.3e} (limit 1e-9), {elapsed:.1f}s (limit 30s)")


def test_criterion_02_all_ones_permanent_is_ten_factorial():
    value = permanent_ryser(np.ones((10, 10)))
    rel = abs(value - 3628800.0) / 3628800.0
    _report(2, rel <= 1e-9,
            f"permanent of the all-ones 10x10 matrix = {value.real:.6f}, "
            f"relative error {rel:.3e} (limit 1e-9)")


def test_criterion_03_haar_samples_are_on_the_group():
    worst_defect = 0.0
    worst_det = 0.0
    for m in range(2, 7):
        for seed in range(100):
            u = haar_unitary(m, seed)
            worst_defect = max(worst_defect, u.unitarity_defect())
            o = haar_special_orthogonal(m, seed)
            worst_defect = max(worst_defect, o.unitarity_defect())
            assert o.entries.dtype == np.float64
            worst_det = max(worst_det, abs(float(np.linalg.det(o.entries)) - 1.0))
    ok = worst_defect < 1e-12 and worst_det < 1e-12
    _report(3, ok, f"100 seeds x m in 2..6, worst orthonormality defect "
                   f"{worst_defect:.3e}, worst |det-1| {worst_det:.3e} (limits 1e-12)")


def test_criterion_04_triangular_decomposition_round_trips():
    worst = 0.0
    for m in range(2, 9):
        for kind, maker in ((UNITARY, haar_unitary), (ORTHOGONAL, haar_special_orthogonal)):
            for seed in (0, 1, 2):
                net = maker(m, 1000 * m + seed)
                dec = reck_decompose(net)
                assert len(dec.elements) <= m * (m - 1) // 2
                rebuilt = reconstruct(dec)
                assert rebuilt.kind == kind
                worst = max(worst, float(np.max(np.abs(rebuilt.entries - net.entries))))
    _report(4, worst <= 1e-9,
            f"decompose/reconstruct m in 2..8 both kinds, worst entry deviation "
            f"{worst:.3e} (limit 1e-9), element count within m(m-1)/2")


def test_criterion_05_realification_is_an_orthogonal_homomorphism():
    worst_defect = 0.0
    worst_hom = 0.0
    for k in range(50):
        m = 1 + k % 5
        u = haar_unitary(m, 2000 + 2 * k)
        v = haar_unitary(m, 2001 + 2 * k)
        ru = embed_unitary_as_orthogonal(u)
        worst_defect = max(worst_defect, ru.unitarity_defect())
        product = embed_unitary_as_orthogonal(u.entries @ v.entries).entries
        factored = ru.entries @ embed_unitary_as_orthogonal(v).entries
        worst_hom = max(worst_hom, float(np.max(np.abs(product - factored))))
    ok = worst_defect <= 1e-12 and worst_hom <= 1e-12
    _report(5, ok, f"50 embedding pairs m<=5, worst orthogonality defect "
                   f"{worst_defect:.3e}, worst homomorphism deviation "
                   f"{worst_hom:.3e} (limits 1e-12)")


def test_criterion_06_output_distributions_are_complete():
    worst = 0.0
    cases = 0
    for maker in (haar_unitary, haar_special_orthogonal):
        for n in range(1, 4):
            for m in range(n, 7):
                net = maker(m, 300 + 10 * n + m)
                dist = output_distribution(net, uniform_input(n, m))
                worst = max(worst, abs(dist.total() - 1.0))
                cases += 1
    _report(6, worst <= 1e-9,
            f"{cases} photon-counting distributions (n<=3, m<=6, both kinds) "
            f"sum to one within {worst:.3e} (limit 1e-9)")


def test_criterion_07_permanents_match_brute_force_at_zero_squeezing():
    t0 = time.perf_counter()
    worst = 0.0
    for n, m in ((2, 3), (2, 4), (3, 4)):
        for maker, seed in ((haar_unitary, 100 + n + m),
                            (haar_special_orthogonal, 200 + n + m)):
            net = maker(m, seed)
            permanent_route = output_distribution(net, uniform_input(n, m))
            state = build_passv_input(n, m, 0.0, ADDED, n)
            apply_network(state, reck_decompose(net))
            brute_route = number_distribution(state)
            for config in enumerate_configurations(n, m):
                dev = abs(permanent_route.probability(config)
                          - brute_route.probability(config))
                worst = max(worst, dev)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(7, ok, f"Fock inputs (2,3),(2,4),(3,4) both kinds, worst probability "
                   f"deviation {worst:.3e} (limit 1e-8), {elapsed:.1f}s (limit 60s)")


def test_criterion_08_parity_statistics_are_squeezing_independent():
    t0 = time.perf_counter()
    n, m = 2, 4
    xi_values = [0.0, 0.3, 0.6]
    tolerance = TOLERANCE_FLOOR
    assert tolerance == 1e-11
    report = run_equivalence_experiment(n, m, xi_values, ADDED, seed=7)
    assert report.tolerance == tolerance

    # Re-derive the prediction with the normalization factors written out:
    # P(pattern) = |Per(O_S)|^2 * cosh(r)^{2n} * N^2 with N = cosh(r)^{-n},
    # so the squeezing strength cancels exactly.
    net = haar_special_orthogonal(m, 7)
    worst = 0.0
    for r, row in zip(xi_values, report.brute):
        norm_const = math.cosh(r) ** (-n)
        for k, pattern in enumerate(report.patterns):
            config = next(
                c for c in enumerate_configurations(n, m)
                if c.is_collision_free
                and tuple(-1 if o % 2 else 1 for o in c) == pattern.outcomes
            )
            amp = transition_amplitude(net, uniform_input(n, m), config)
            predicted = abs(amp) ** 2 * math.cosh(r) ** (2 * n) * norm_const**2
            worst = max(worst, abs(row[k] - predicted))
    cross = report.cross_xi_deviation
    elapsed = time.perf_counter() - t0
    ok = worst <= tolerance and cross <= tolerance and elapsed < 300.0
    _report(8, ok, f"n=2 m=4 xi in {{0, 0.3, 0.6}}: worst |brute - permanent| "
                   f"{worst:.3e}, worst cross-squeezing spread {cross:.3e} "
                   f"(limit {tolerance:.2e}), cutoffs {report.cutoffs}, "
                   f"{elapsed:.1f}s (limit 300s)")


def test_criterion_09_rotations_preserve_squeezed_products():
    cutoff = required_cutoff(0.4, 1e-8)
    fidelity = squeezed_invariance_check(haar_special_orthogonal(3, 21), 0.4, cutoff)
    control = squeezed_invariance_check(haar_unitary(3, 4), 0.4, cutoff)
    ok = fidelity >= 1.0 - 1e-6 and control <= 0.999
    _report(9, ok, f"squeezed product under a rotation: fidelity {fidelity:.9f} "
                   f"(needs >= 1-1e-6); under a generic unitary: {control:.4f} "
                   f"(needs <= 0.999)")


def test_criterion_10_subtracted_variant_follows_the_conjugate_rule():
    worst = 0.0
    worst_tol = 1.0
    transpose_floor = math.inf
    for n, m in ((1, 3), (1, 4), (2, 3), (2, 4)):
        report = run_equivalence_experiment(n, m, [0.5], SUBTRACTED, seed=13)
        worst = max(worst, report.max_deviation / report.tolerance)
        worst_tol = min(worst_tol, report.tolerance)
        transpose_floor = min(transpose_floor, report.transpose_convention_deviation)
    try:
        build_passv_input(1, 2, 0.0, SUBTRACTED, 4)
        rejects_vacuum = False
    except ValidationError:
        rejects_vacuum = True
    ok = worst <= 1.0 and rejects_vacuum
    _report(10, ok, f"photon-subtracted n in {{1,2}} m in {{3,4}} at xi=0.5: worst "
                    f"deviation {worst:.2%} of tolerance; transpose misreading "
                    f"off by >= {transpose_floor:.2e}; subtraction from vacuum "
                    f"{'rejected' if rejects_vacuum else 'accepted'}")


def test_criterion_11_balanced_splitter_shows_pair_bunching():
    hom = LinearNetwork(np.array([[1.0, 1.0], [1.0, -1.0]]) / math.sqrt(2.0), UNITARY)
    permanent_route = output_distribution(hom, (1, 1))
    coincidence = permanent_route.probability(uniform_input(2, 2))

    one_photon = [0.0, 1.0, 0.0]
    state = TruncatedFockState.from_product([one_photon, one_photon])
    apply_beamsplitter(state, 0, 1, math.pi / 4.0)
    brute_coincidence = abs(state.amplitude((1, 1))) ** 2

    # Full-distribution agreement through the decomposition of the same matrix.
    mixed = TruncatedFockState.from_product([one_photon, one_photon])
    apply_network(mixed, reck_decompose(hom))
    spread = total_variation_distance(number_distribution(mixed), permanent_route)

    ok = coincidence <= 1e-12 and brute_coincidence <= 1e-12 and spread <= 1e-12
    _report(11, ok, f"balanced splitter on |1,1>: coincidence probability "
                    f"{coincidence:.2e} by permanents, {brute_coincidence:.2e} by "
                    f"evolution (limits 1e-12); route disagreement {spread:.2e}")


def test_criterion_12_cli_artifacts_are_deterministic(tmp_path, capsys):
    args = ["compare", "--n", "2", "--m", "3", "--xi", "0.0,0.4", "--seed", "11"]
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    rc_a = execute(args + ["--output", str(first)])
    rc_b = execute(args + ["--output", str(second)])
    identical = first.read_bytes() == second.read_bytes()
    passes = json.loads(first.read_text())["report"]["passes"]

    rc_validation = execute(["sample-fock", "--n", "5", "--m", "3", "--seed", "1",
                             "--output", str(tmp_path / "v.csv")])
    rc_size = execute(["sample-fock", "--n", "6", "--m", "39", "--seed", "1",
                       "--output", str(tmp_path / "s.csv")])
    rc_usage = execute(["sample-fock", "--n", "1", "--m", "2", "--seed", "1",
                        "--bogus"])
    capsys.readouterr()

    ok = (rc_a == rc_b == 0 and identical and passes
          and rc_validation == 1 and rc_size == 2 and rc_usage == 1)
    _report(12, ok, f"repeat comparison runs byte-identical={identical} "
                    f"(exit {rc_a}/{rc_b}), report passes={passes}; exit codes: "
                    f"validation {rc_validation} (wants 1), size limit {rc_size} "
                    f"(wants 2), usage {rc_usage} (wants 1)")
