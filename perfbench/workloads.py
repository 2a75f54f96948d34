"""The benchmark's workloads: the passv command one op runs and the checks on its output.

Importing this module loads neither numpy nor passv, so the set-up probe in
run.py times those imports itself.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

# Network seeds are taken modulo this; selftest.py scans all of them.
NETWORK_SEEDS = 64

# The seeds below NETWORK_SEEDS on which `compare --n 2 --m 4 --xi 0,0.3,0.6`
# grows the xi = 0.6 cutoff exactly once (cutoffs 2, 16, 30: five evolutions
# per op). The other 18 networks evolve 3, 4 or 6 times, which moves the op's
# wall time by about a fifth, so drawing every network from one class keeps the
# work per op the same at every benchmark seed. selftest.py re-derives the list.
EQUIVALENCE_NETWORKS = (
    0, 1, 3, 4, 5, 7, 8, 11, 12, 14, 15, 16, 18, 20, 22, 23, 25, 27, 28, 29, 30,
    31, 32, 33, 35, 36, 37, 38, 40, 43, 44, 45, 46, 47, 48, 50, 52, 53, 54, 55,
    56, 57, 59, 60, 61, 63,
)

FOCK_N, FOCK_M, FOCK_SHOTS = 5, 12, 100_000
FOCK_TABLE_ROWS = math.comb(FOCK_N + FOCK_M - 1, FOCK_N)  # 4,368 outcomes
FOCK_RECOMPUTED = 3


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    command: tuple[str, ...]  # passv arguments, without --seed and --output
    artifacts: tuple[str, ...]  # files one op writes; the first is its --output
    check: Callable[[list[Path], int], list[str]]
    networks: tuple[int, ...] | None = None  # allowed network seeds; None allows all

    def network_seed(self, seed: int) -> int:
        k = seed % NETWORK_SEEDS
        if self.networks is None:
            return k
        return next((s for s in self.networks if s >= k), self.networks[0])

    def argv(self, network_seed: int, outdir: Path) -> list[str]:
        return [*self.command, "--seed", str(network_seed),
                "--output", str(outdir / self.artifacts[0])]

    def paths(self, outdir: Path) -> list[Path]:
        return [outdir / name for name in self.artifacts]


def digest(paths: list[Path]) -> str:
    """SHA-256 over the artifacts of one op, in order."""
    h = hashlib.sha256()
    for path in paths:
        h.update(path.read_bytes())
    return h.hexdigest()


def check_compare(paths: list[Path], network_seed: int) -> list[str]:
    report = json.loads(paths[0].read_text(encoding="utf-8"))["report"]
    problems = []
    if report["passes"] is not True:
        problems.append("report.passes is not true")
    if not report["max_deviation"] <= report["tolerance"]:
        problems.append(
            f"max_deviation {report['max_deviation']} exceeds tolerance {report['tolerance']}"
        )
    return problems


def _csv_body(path: Path) -> list[list[str]]:
    """Rows of a passv CSV artifact after its `# config` line and header."""
    with path.open(encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or not rows[0] or not rows[0][0].startswith("# config "):
        raise ValueError(f"{path.name} has no config line")
    return rows[2:]


def check_fock(paths: list[Path], network_seed: int) -> list[str]:
    from passv.configurations import ModeConfiguration
    from passv.networks import haar_unitary, scattering_submatrix
    from passv.permanents import permanent_naive
    from passv.sampling import uniform_input

    table = _csv_body(paths[0])
    problems = []
    if len(table) != FOCK_TABLE_ROWS:
        problems.append(f"table has {len(table)} rows, expected {FOCK_TABLE_ROWS}")
    defect = abs(1.0 - math.fsum(float(p) for _, p in table))
    if defect > 1e-9:
        problems.append(f"table sums to 1 - {defect:.3e}")
    samples = _csv_body(paths[1])
    if len(samples) != FOCK_SHOTS:
        problems.append(f"{len(samples)} sample rows, expected {FOCK_SHOTS}")
    # The input has one photon per occupied mode, so |Per|^2 / prod(s_i!) is the
    # probability; the permutation sum is independent of the Ryser kernel.
    network = haar_unitary(FOCK_M, network_seed)
    pump = uniform_input(FOCK_N, FOCK_M)
    for key, p in random.Random(network_seed).sample(table, FOCK_RECOMPUTED):
        s = ModeConfiguration.parse(key)
        weight = math.prod(math.factorial(k) for k in s)
        expected = abs(permanent_naive(scattering_submatrix(network, pump, s))) ** 2 / weight
        if abs(expected - float(p)) > 1e-12:
            problems.append(f"entry {key}: table {p}, permutation sum {expected!r}")
    return problems


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "equivalence",
            "acceptance criterion 8; about 99% of an op is brute-force evolution, "
            "the cutoff grows once at xi 0.6",
            ("compare", "--n", "2", "--m", "4", "--xi", "0,0.3,0.6", "--variant", "added"),
            ("report.json",),
            check_compare,
            EQUIVALENCE_NETWORKS,
        ),
        Workload(
            "equivalence-m5",
            "evolution with 10 mixers, a lower cutoff and wider sector slices, "
            "the subtracted variant and the transpose diagnostic",
            ("compare", "--n", "3", "--m", "5", "--xi", "0.3", "--variant", "subtracted"),
            ("report.json",),
            check_compare,
        ),
        Workload(
            "fock-table",
            "the permanent route: 4,368 permanents, a full table, 100,000 samples "
            "and CSV output; evolution is idle",
            ("sample-fock", "--n", str(FOCK_N), "--m", str(FOCK_M), "--kind", "unitary",
             "--shots", str(FOCK_SHOTS)),
            ("table.csv", "table.samples.csv"),
            check_fock,
        ),
    )
}
