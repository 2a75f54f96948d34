"""Tests for the command-line front-end.

Most cases call ``execute`` in-process for speed; subprocess tests cover the
``python -m`` entry point, the ``PASSV_LOG`` level and an import that must
not load scipy. Subprocess tests inherit the caller's environment
(overriding only what they test), so the child imports the same ``passv`` as
the test process. Artifacts must be byte-identical across repeat runs with
the same arguments.
"""

import csv
import hashlib
import io
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from passv import cli, distributions, errors, evolution, experiments
from passv.cli import execute
from passv.configurations import (
    ModeConfiguration,
    ParityPattern,
    configuration_count,
    occupation_fields,
)
from passv.distributions import DRAW_BYTES, OutputDistribution, draw_samples
from passv.evolution import required_cutoff
from passv.experiments import brute_force_parity
from passv.networks import haar_special_orthogonal, haar_unitary
from passv.sampling import output_distribution, uniform_input


def _run(tmp_path, name, args):
    out = tmp_path / name
    code = execute(args + ["--output", str(out)])
    return code, out


# ---------------------------------------------------------------- exit codes


def test_no_subcommand_is_a_usage_error(capsys):
    assert execute([]) == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_subcommand_and_flag_exit_one(capsys):
    assert execute(["frobnicate"]) == 1
    assert execute(["sample-fock", "--n", "1", "--m", "2", "--seed", "1", "--bogus"]) == 1
    capsys.readouterr()


def test_validation_failure_exits_one(tmp_path, capsys):
    code, _ = _run(tmp_path, "x.csv",
                   ["sample-fock", "--n", "5", "--m", "3", "--seed", "1"])
    assert code == 1
    assert "n <= m" in capsys.readouterr().err


def test_size_limit_exits_two(tmp_path, capsys):
    code, _ = _run(tmp_path, "x.csv",
                   ["sample-fock", "--n", "6", "--m", "39", "--seed", "1"])
    assert code == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert execute(["--help"]) == 0
    assert execute(["compare", "--help"]) == 0
    capsys.readouterr()


def test_one_parser_serves_every_invocation_of_a_process(tmp_path, capsys):
    # The parser is built once, on the first execute, and a usage error
    # between two runs leaves it as it was.
    args = ["compare", "--n", "2", "--m", "3", "--xi", "0.2,0.5", "--seed", "4"]
    first, first_out = _run(tmp_path, "first.json", args)
    refused = execute(["compare", "--n", "2", "--m", "3", "--bogus", "1"])
    again, again_out = _run(tmp_path, "again.json", args)
    assert (first, refused, again) == (0, 1, 0)
    assert first_out.read_bytes() == again_out.read_bytes()
    assert cli._build_parser() is cli._build_parser()
    capsys.readouterr()


def test_missing_required_flag_exits_one(capsys):
    assert execute(["compare", "--n", "2", "--m", "3", "--xi", "0.0"]) == 1
    capsys.readouterr()


# ------------------------------------------------------------------ sampling


def test_sample_fock_csv_artifact(tmp_path):
    code, out = _run(tmp_path, "fock.csv",
                     ["sample-fock", "--n", "2", "--m", "3", "--kind", "orthogonal",
                      "--seed", "9"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config ")
    config = json.loads(lines[0].removeprefix("# config "))
    assert config["subcommand"] == "sample-fock"
    assert config["seed"] == 9
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["key", "probability"]
    assert len(rows) == 1 + 6  # C(2+3-1, 3-1) outcome configurations
    total = sum(float(r[1]) for r in rows[1:])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_sample_fock_is_byte_identical_across_runs(tmp_path):
    args = ["sample-fock", "--n", "2", "--m", "4", "--kind", "unitary", "--seed", "3"]
    _, first = _run(tmp_path, "a.csv", args)
    _, second = _run(tmp_path, "b.csv", args)
    assert first.read_bytes() == second.read_bytes()


# SHA-256 of every artifact of `sample-fock --n 3 --m 5 --kind unitary --seed 4
# --shots 2000`, as CSV and as JSON. A change that alters any byte of them,
# the table, its float formatting or a single drawn sample, fails here.
# The table digests pin the last bits of the permanent kernel's arithmetic,
# which already depend on numpy's SIMD path: with NPY_DISABLE_CPU_FEATURES=
# "X86_V3 X86_V4 AVX512_ICL AVX512_SPR" the table digests differ while the
# samples digest holds.
GOLDEN_SAMPLE_FOCK = {
    "csv": {
        "fock.csv": "f9402fa286ed37c4d8c15224c077daad32d7fc216b93a294869435ebe6ce6eff",
        "fock.samples.csv": "80a67eaf2915a378da83a135865e36adc6bcca11b377836ad1b8091c057c920c",
    },
    "json": {
        "fock.json": "831bdc51e20e4393895f6d3527ec76dc927e1eb2f46d97f1eab2fa6d01233daa",
        "fock.samples.csv": "80a67eaf2915a378da83a135865e36adc6bcca11b377836ad1b8091c057c920c",
    },
}


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sample_fock_artifacts_match_golden_digests(tmp_path, fmt):
    code, _ = _run(tmp_path, f"fock.{fmt}",
                   ["sample-fock", "--n", "3", "--m", "5", "--kind", "unitary", "--seed", "4",
                    "--shots", "2000", "--format", fmt])
    assert code == 0
    digests = {path.name: hashlib.sha256(path.read_bytes()).hexdigest()
               for path in tmp_path.iterdir()}
    assert digests == GOLDEN_SAMPLE_FOCK[fmt]


# SHA-256 of the artifacts of `compare --n 2 --m 3 --xi 0.2,0.4 --variant
# subtracted --seed 5` and `sample-passv --n 2 --m 3 --xi 0.4 --variant added
# --seed 5`, as JSON and as CSV: the parity tables, their pattern order and
# their float formatting. The brute-force route pins the last bits of the
# mixers' matmuls and the predictions those of the permanent kernel, which
# already depend on numpy's SIMD path, as the sample-fock digests above do.
GOLDEN_PARITY = {
    ("compare", "json"): "179e21ea374302c18be931e9448bd82ac91d2f850916715fd524b39cffdb3e49",
    ("compare", "csv"): "86c8b23b6028d3e3279b32d8467e9ad1ce983c63d55ee7dd24e0a51ae494ba00",
    ("sample-passv", "json"): "f5ed52aff92423796155883945283b3c438da799c776c17fce6470d80030890d",
    ("sample-passv", "csv"): "7e56c37f06cedb62a428c56e4e8a7f8550c78f94de5aaaeeb30da45d18444794",
}
PARITY_COMMANDS = {
    "compare": ["--n", "2", "--m", "3", "--xi", "0.2,0.4", "--variant", "subtracted",
                "--seed", "5"],
    "sample-passv": ["--n", "2", "--m", "3", "--xi", "0.4", "--variant", "added",
                     "--seed", "5"],
}


@pytest.mark.parametrize("command, fmt", sorted(GOLDEN_PARITY))
def test_parity_artifacts_match_golden_digests(tmp_path, command, fmt):
    code, out = _run(tmp_path, f"{command}.{fmt}",
                     [command, *PARITY_COMMANDS[command], "--format", fmt])
    assert code == 0
    assert hashlib.sha256(out.read_bytes()).hexdigest() == GOLDEN_PARITY[command, fmt]


def test_sample_fock_draws_shots_into_sibling_file(tmp_path):
    code, out = _run(tmp_path, "fock.csv",
                     ["sample-fock", "--n", "1", "--m", "2", "--kind", "orthogonal",
                      "--seed", "4", "--shots", "25"])
    assert code == 0
    samples = tmp_path / "fock.samples.csv"
    assert samples.exists()
    lines = samples.read_text().splitlines()
    assert lines[0].startswith("# config ")
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["sample"]
    assert len(rows) == 26


def test_sample_fock_streamed_samples_match_per_sample_csv(tmp_path, monkeypatch, capsys):
    # Small chunks, so the artifact is written in many pieces.
    monkeypatch.setattr(cli, "SAMPLE_CHUNK", 7)
    for n, m in ((3, 5), (1, 1)):
        args = ["sample-fock", "--n", str(n), "--m", str(m), "--shots", "2000", "--seed", "4"]
        code, out = _run(tmp_path, f"fock{m}.csv", args)
        assert code == 0
        pump = uniform_input(n, m)
        config = {"subcommand": "sample-fock", "n": n, "input": pump.serialize(), "shots": 2000,
                  "m": m, "kind": "orthogonal", "seed": 4}
        dist = output_distribution(haar_special_orthogonal(m, 4), pump)
        buf = io.StringIO()
        buf.write("# config " + json.dumps(config, sort_keys=True) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["sample"])
        for key in draw_samples(dist, 5, 2000):
            writer.writerow([key.serialize()])
        reference = buf.getvalue()
        # Keys are quoted when they hold commas: over five modes, not over one.
        body = reference.split("\nsample\n", 1)[1]
        assert ('"1,0,1,0,1"' in body) if m > 1 else body == "1\n" * 2000
        assert _first_difference((tmp_path / f"fock{m}.samples.csv").read_text(encoding="utf-8"),
                                 reference) is None

        # Without --output both artifacts go to stdout, table first.
        capsys.readouterr()
        assert execute(args) == 0
        assert _first_difference(capsys.readouterr().out,
                                 out.read_text(encoding="utf-8") + reference) is None


# Distinct occupation rows of one to six modes with values of one to three
# digits, so that fields of one matrix differ in width; distinct parity rows
# of one to five modes; and probabilities that include the extremes of repr.
OCCUPATION_TABLES = st.integers(1, 6).flatmap(lambda m: st.lists(
    st.tuples(*[st.integers(0, 120)] * m), min_size=1, max_size=40, unique=True))
PARITY_TABLES = st.integers(1, 5).flatmap(lambda m: st.lists(
    st.tuples(*[st.integers(0, 1)] * m), min_size=1, max_size=32, unique=True))
PROBABILITIES = st.one_of(st.sampled_from([0.0, 5e-324, 1.0]), st.floats(0.0, 1.0))
TABLE_CONFIG = {"subcommand": "sample-passv", "n": 2, "xi": [0.4, 1e-300], "input": "1,1,0",
                "truncation_loss": 2.5e-09}


def _table(rows, key, data, defect=None) -> tuple[OutputDistribution, np.ndarray]:
    """A table of ``rows`` with drawn probabilities, and its key fields as the CLI builds them."""
    probabilities = data.draw(st.lists(PROBABILITIES, min_size=len(rows), max_size=len(rows)))
    dist = OutputDistribution(np.array(rows), probabilities, key=key, normalization_defect=defect)
    if key is ParityPattern:
        return dist, np.frombuffer(b"+-", dtype=np.uint8)[dist.occupations]
    return dist, occupation_fields(dist.occupations)


def _joined(chunks) -> str:
    return b"".join(c.encode() if isinstance(c, str) else c.tobytes() for c in chunks).decode()


@settings(max_examples=60, deadline=None)
@given(rows=OCCUPATION_TABLES, data=st.data())
def test_csv_writers_quote_keys_as_csv_writer_does(rows, data):
    dist, fields = _table(rows, ModeConfiguration, data)
    indices = np.array(data.draw(st.lists(st.integers(0, len(rows) - 1), max_size=30)),
                       dtype=np.intp)
    table, samples = io.StringIO(), io.StringIO()
    for buf, header in ((table, "key,probability"), (samples, "sample")):
        buf.write(cli._config_comment(TABLE_CONFIG) + "\n" + header + "\n")
    csv.writer(table, lineterminator="\n").writerows(
        [key.serialize(), repr(p)] for key, p in dist.items())
    keys = dist.keys
    csv.writer(samples, lineterminator="\n").writerows([keys[i].serialize()] for i in indices)
    assert _joined(cli._distribution_csv(fields, dist, TABLE_CONFIG)) == table.getvalue()
    assert _joined(cli._samples_csv(fields, indices, TABLE_CONFIG)) == samples.getvalue()


@settings(max_examples=80, deadline=None)
@given(table=st.one_of(OCCUPATION_TABLES.map(lambda rows: (rows, ModeConfiguration)),
                       PARITY_TABLES.map(lambda rows: (rows, ParityPattern))),
       defect=st.one_of(st.none(), st.sampled_from([0.0, 5e-324, 1.0]), st.floats(0.0, 1.0)),
       data=st.data())
def test_json_tables_are_the_json_dumps_text(table, defect, data):
    # A defect of None is computed from the probabilities; any other is declared.
    dist, fields = _table(*table, data, defect)
    record = {"config": TABLE_CONFIG, "normalization_defect": dist.normalization_defect,
              "distribution": [[key.serialize(), p] for key, p in dist.items()]}
    assert (_joined(cli._distribution_json(fields, dist, TABLE_CONFIG))
            == json.dumps(record, sort_keys=True, indent=2) + "\n")


def _first_difference(text, expected):
    """None for equal texts, else (line number, line, expected line).

    A whole-text assertion diff of thousands of rows takes minutes; this fails fast.
    """
    lines, wanted = text.splitlines(keepends=True), expected.splitlines(keepends=True)
    for number, pair in enumerate(itertools.zip_longest(lines, wanted), start=1):
        if pair[0] != pair[1]:
            return number, *pair
    return None


def _reference_table(dist, config, fmt):
    """A sample-fock table artifact built from key objects, as a csv.writer per row."""
    if fmt == "json":
        record = {"config": config, "normalization_defect": dist.normalization_defect,
                  "distribution": [[key.serialize(), float(p)] for key, p in dist.items()]}
        return json.dumps(record, sort_keys=True, indent=2) + "\n"
    buf = io.StringIO()
    buf.write("# config " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["key", "probability"])
    for key, p in dist.items():
        writer.writerow([key.serialize(), repr(float(p))])
    return buf.getvalue()


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("n,m", [(1, 1), (3, 5)])
def test_sample_fock_tables_match_a_reference_built_from_objects(tmp_path, fmt, n, m):
    code, out = _run(tmp_path, f"fock.{fmt}",
                     ["sample-fock", "--n", str(n), "--m", str(m), "--kind", "unitary",
                      "--seed", "8", "--format", fmt])
    assert code == 0
    config = {"subcommand": "sample-fock", "n": n, "input": ",".join(["1"] * n + ["0"] * (m - n)),
              "shots": 0, "m": m, "kind": "unitary", "seed": 8}
    dist = output_distribution(haar_unitary(m, 8), uniform_input(n, m))
    text = out.read_text(encoding="utf-8")
    assert text == _reference_table(dist, config, fmt)
    if fmt == "csv" and m == 1:
        assert text.splitlines()[2] == "1,1.0"  # a one-mode key has no comma: unquoted


def _bunched_input(total_photons, modes):
    return ModeConfiguration((total_photons,) + (0,) * (modes - 1))


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("m", [2, 3])
def test_sample_fock_artifacts_with_fields_of_varying_width(tmp_path, monkeypatch, fmt, m):
    # The CLI's input has one photon per mode, so a key needs m >= 10 to reach
    # an occupation of 10; all ten photons in the first mode reach it at m = 2
    # and 3. Chunks of 7 rows straddle one- and two-digit keys.
    monkeypatch.setattr(cli, "uniform_input", _bunched_input)
    monkeypatch.setattr(cli, "SAMPLE_CHUNK", 7)
    code, out = _run(tmp_path, f"fock.{fmt}",
                     ["sample-fock", "--n", "10", "--m", str(m), "--seed", "2",
                      "--shots", "500", "--format", fmt])
    assert code == 0
    config = {"subcommand": "sample-fock", "n": 10, "input": "10" + ",0" * (m - 1),
              "shots": 500, "m": m, "kind": "orthogonal", "seed": 2}
    dist = output_distribution(haar_special_orthogonal(m, 2), _bunched_input(10, m))
    assert out.read_text(encoding="utf-8") == _reference_table(dist, config, fmt)
    buf = io.StringIO()
    buf.write("# config " + json.dumps(config, sort_keys=True) + "\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sample"])
    keys = [key.serialize() for key in draw_samples(dist, 3, 500)]
    writer.writerows([key] for key in keys)
    assert len({len(key) for key in keys}) == 2  # one- and two-digit keys are both drawn
    assert _first_difference((tmp_path / "fock.samples.csv").read_text(encoding="utf-8"),
                             buf.getvalue()) is None


def test_sample_fock_json_with_shots_writes_csv_samples(tmp_path):
    args = ["sample-fock", "--n", "2", "--m", "3", "--kind", "unitary", "--seed", "6",
            "--shots", "40"]
    assert _run(tmp_path, "t.json", args + ["--format", "json"])[0] == 0
    assert _run(tmp_path, "c.csv", args)[0] == 0
    assert not (tmp_path / "t.samples.json").exists()
    samples = (tmp_path / "t.samples.csv").read_text(encoding="utf-8")
    assert samples == (tmp_path / "c.samples.csv").read_text(encoding="utf-8")
    assert samples.splitlines()[1] == "sample"


def test_sample_fock_negative_shots_exit_one_before_writing(tmp_path, capsys):
    code, out = _run(tmp_path, "t.csv",
                     ["sample-fock", "--n", "2", "--m", "3", "--seed", "1", "--shots", "-5"])
    assert code == 1
    assert "shots" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_sample_fock_shots_over_the_limit_exit_two_before_writing(tmp_path, capsys, monkeypatch):
    # A limit that admits 10 million draws; the next is refused before the table.
    monkeypatch.setattr(errors, "MEMORY_LIMIT", 10_000_000 * DRAW_BYTES)
    tracemalloc.start()
    try:
        code, _ = _run(tmp_path, "t.csv", ["sample-fock", "--n", "2", "--m", "3", "--seed", "1",
                                           "--shots", "10000001"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    assert "shots" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []
    assert peak < 1_000_000


def test_sample_fock_counts_its_table_and_draws_together(tmp_path, capsys):
    # The table edge at n = 3 with the most draws a count of the draws alone
    # would admit: each passes on its own. When they were counted apart, such
    # a run at m = 92 rose 413 MB.
    code, _ = _run(tmp_path, "t.csv", ["sample-fock", "--n", "3", "--m", "95", "--seed", "7",
                                       "--shots", "16666666"])
    assert code == 2
    err = capsys.readouterr().err
    assert "size limit" in err and "outcomes" in err and "shots" in err
    assert list(tmp_path.iterdir()) == []


def test_sample_fock_joint_count_edge(tmp_path, monkeypatch):
    # A limit of the (2, 3) table's count and 50 draws admits 50 and refuses 51.
    table = distributions._table_bytes(configuration_count(2, 3), 3)
    monkeypatch.setattr(errors, "MEMORY_LIMIT", table + 50 * DRAW_BYTES)
    args = ["sample-fock", "--n", "2", "--m", "3", "--seed", "1", "--shots"]
    assert _run(tmp_path, "a.csv", args + ["50"])[0] == 0
    assert _run(tmp_path, "b.csv", args + ["51"])[0] == 2
    assert not (tmp_path / "b.csv").exists()


# The largest m whose table the count admits, in either format, at n = 2, 3 and 5.
TABLE_EDGES = {2: 314, 3: 95, 5: 32}


def test_table_edges_are_the_largest_admitted_m():
    for n, m in TABLE_EDGES.items():
        assert (distributions._table_bytes(configuration_count(n, m), m) <= errors.MEMORY_LIMIT
                < distributions._table_bytes(configuration_count(n, m + 1), m + 1))


@pytest.mark.parametrize("n, m", [*((n, m + 1) for n, m in TABLE_EDGES.items()), (3, 140)])
def test_sample_fock_tables_past_the_edge_exit_two_before_allocating(tmp_path, capsys, n, m):
    # n = 3, m = 140 has 467,180 outcomes; a run would peak at 1,137 MB.
    assert distributions._table_bytes(configuration_count(n, m), m) > errors.MEMORY_LIMIT
    tracemalloc.start()
    try:
        # Counted before the network is drawn: the draw alone peaks at 1.9 MB at m = 93.
        code, _ = _run(tmp_path, "t.json", ["sample-fock", "--n", str(n), "--m", str(m),
                                            "--kind", "unitary", "--seed", "1", "--format", "json"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 2
    err = capsys.readouterr().err
    assert "size limit" in err and "outcomes" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    assert peak < 1_000_000


def test_sample_fock_json_format(tmp_path):
    code, out = _run(tmp_path, "fock.json",
                     ["sample-fock", "--n", "1", "--m", "2", "--kind", "unitary",
                      "--seed", "5", "--format", "json"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["subcommand"] == "sample-fock"
    assert len(data["distribution"]) == 2
    assert sum(p for _, p in data["distribution"]) == pytest.approx(1.0, abs=1e-9)
    assert data["normalization_defect"] < 1e-9


def test_sample_fock_reads_matrix_file_and_warns_on_conflict(tmp_path, caplog):
    matrix_file = tmp_path / "net.json"
    matrix_file.write_text(json.dumps(haar_unitary(3, 8).to_json_dict()))
    code, out = _run(tmp_path, "fock.csv",
                     ["sample-fock", "--n", "1", "--m", "3",
                      "--matrix", str(matrix_file), "--seed", "99"])
    assert code == 0
    assert any("matrix file" in rec.message for rec in caplog.records)
    reference, _ = _run(tmp_path, "ref.csv",
                        ["sample-fock", "--n", "1", "--m", "3", "--kind", "unitary",
                         "--seed", "8"])
    body = out.read_text().splitlines()[1:]
    ref_body = (tmp_path / "ref.csv").read_text().splitlines()[1:]
    assert body == ref_body


def test_sample_fock_records_the_seed_its_matrix_file_draws_from(tmp_path, caplog):
    matrix_file = tmp_path / "net.json"
    matrix_file.write_text(json.dumps(haar_unitary(2, 8).to_json_dict()))
    configs, samples = [], []
    for seed in (1, 2):
        code, out = _run(tmp_path, f"fock{seed}.csv",
                         ["sample-fock", "--n", "1", "--matrix", str(matrix_file),
                          "--shots", "200", "--seed", str(seed)])
        assert code == 0
        drawn = (tmp_path / f"fock{seed}.samples.csv").read_text().splitlines()
        assert drawn[0] == out.read_text().splitlines()[0]
        configs.append(json.loads(drawn[0].removeprefix("# config ")))
        samples.append(drawn[2:])
    assert [config["seed"] for config in configs] == [1, 2]
    assert samples[0] != samples[1]
    assert not any("matrix file" in rec.message for rec in caplog.records)


def test_sample_passv_parity_table(tmp_path):
    code, out = _run(tmp_path, "parity.csv",
                     ["sample-passv", "--n", "1", "--m", "2", "--xi", "0.4",
                      "--seed", "6"])
    assert code == 0
    lines = out.read_text().splitlines()
    config = json.loads(lines[0].removeprefix("# config "))
    assert config["variant"] == "added"
    assert config["cutoff"] >= 16
    rows = {r[0]: float(r[1]) for r in csv.reader(lines[1:]) if r[0] != "key"}
    assert set(rows) == {"++", "+-", "-+", "--"}
    assert sum(rows.values()) == pytest.approx(1.0, abs=1e-9)
    # exactly one added photon: even-even and odd-odd patterns are empty
    assert rows["++"] == 0.0
    assert rows["--"] == 0.0


def test_sample_passv_grows_the_cutoff_until_the_loss_fits_the_budget(tmp_path):
    # The total cutoff grows two photons at a time until the input's tail fits
    # m * epsilon_tail = 4e-8; total 36 would leave about 9.8e-8 above it.
    code, out = _run(tmp_path, "parity.csv",
                     ["sample-passv", "--n", "2", "--m", "4", "--xi", "0.6",
                      "--seed", "7"])
    assert code == 0
    config = json.loads(out.read_text().splitlines()[0].removeprefix("# config "))
    assert config["cutoff"] == 38
    assert config["truncation_loss"] <= 4e-8


def test_sample_passv_refuses_more_modes_than_the_oracle_supports(tmp_path, capsys):
    code, out = _run(tmp_path, "parity.csv",
                     ["sample-passv", "--n", "2", "--m", "6", "--xi", "0.1",
                      "--seed", "7"])
    assert code == 1
    err = capsys.readouterr().err
    assert "m <= 5" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("variant, xi", [("added", "0.6"), ("subtracted", "0.4")])
def test_sample_passv_table_matches_the_compare_brute_row_exactly(tmp_path, variant, xi):
    common = ["--n", "2", "--m", "3", "--xi", xi, "--variant", variant, "--seed", "11"]
    code, table = _run(tmp_path, "parity.csv", ["sample-passv", *common])
    assert code == 0
    code, report = _run(tmp_path, "report.json", ["compare", *common])
    assert code == 0
    lines = table.read_text().splitlines()
    config = json.loads(lines[0].removeprefix("# config "))
    rows = {r[0]: float(r[1]) for r in csv.reader(lines[2:])}
    data = json.loads(report.read_text())["report"]
    assert config["cutoff"] == data["cutoffs"][0]
    assert config["truncation_loss"] == data["truncation_loss"][0]
    assert [rows[p] for p in data["patterns"]] == data["brute"][0]


def test_sample_passv_oversized_state_exits_two_before_allocating(tmp_path, capsys):
    # Total cutoff 92 over 5 modes is C(97, 5) = 64 million amplitudes (about
    # 5 GB with the index tables): the guard must refuse it before any is built.
    code, out = _run(tmp_path, "parity.csv",
                     ["sample-passv", "--n", "2", "--m", "5", "--xi", "1.0",
                      "--seed", "7"])
    assert code == 2
    err = capsys.readouterr().err
    assert "size limit" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sample_passv_state_over_the_shared_limit_exits_two(tmp_path, capsys):
    # Three added photons at r = 1.0 need total cutoff 101: C(106, 5) = 101
    # million amplitudes, about 7.8 GB, over the one MEMORY_LIMIT.
    code, out = _run(tmp_path, "parity.csv",
                     ["sample-passv", "--n", "3", "--m", "5", "--xi", "1.0",
                      "--seed", "7"])
    assert code == 2
    err = capsys.readouterr().err
    assert "size limit" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_sample_passv_subtracted_vacuum_is_rejected(tmp_path, capsys):
    code, _ = _run(tmp_path, "parity.csv",
                   ["sample-passv", "--n", "1", "--m", "2", "--xi", "0.0",
                    "--variant", "subtracted", "--seed", "6"])
    assert code == 1
    capsys.readouterr()


# ------------------------------------------------------------------- compare


def test_compare_json_report(tmp_path):
    code, out = _run(tmp_path, "report.json",
                     ["compare", "--n", "2", "--m", "3", "--xi", "0.0,0.4",
                      "--seed", "11"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["config"]["subcommand"] == "compare"
    assert data["report"]["passes"] is True
    assert data["report"]["n"] == 2
    assert data["report"]["max_deviation"] <= data["report"]["tolerance"]


def test_compare_oracle_size_limit_exits_two_with_hint(tmp_path, capsys):
    # At r = 1.0 the oracle needs total cutoff 92 over 5 modes, far over the
    # state size limit; the guard fires before the input is prepared.
    code, out = _run(tmp_path, "report.json",
                     ["compare", "--n", "2", "--m", "5", "--xi", "1.0", "--seed", "7"])
    assert code == 2
    err = capsys.readouterr().err
    assert "size limit" in err
    assert "reduce the squeezing or raise epsilon_tail" in err
    assert "Traceback" not in err
    assert not out.exists()


def test_following_the_size_limit_hint_admits_the_run(tmp_path, capsys):
    # D = 67 at the default budget 1e-8 is refused; a raised budget gives
    # D = 53, which runs, where a lowered one would need D = 79.
    args = ["compare", "--n", "3", "--m", "5", "--xi", "0.8", "--variant", "subtracted",
            "--seed", "7"]
    code, out = _run(tmp_path, "refused.json", args + ["--epsilon-tail", "1e-10"])
    assert code == 2 and not out.exists()
    code, out = _run(tmp_path, "refused.json", args)
    assert code == 2 and not out.exists()
    assert "raise epsilon_tail" in capsys.readouterr().err
    code, out = _run(tmp_path, "report.json", args + ["--epsilon-tail", "1e-6"])
    assert code == 0
    report = json.loads(out.read_text())["report"]
    assert report["passes"] is True and report["cutoffs"] == [53]


@pytest.mark.parametrize("subcommand", ["compare", "sample-passv"])
@pytest.mark.parametrize("epsilon", ["nan", "inf"])
def test_non_finite_epsilon_tail_exits_one_without_writing(tmp_path, capsys, subcommand,
                                                            epsilon):
    # A NaN tolerance would be written as the non-JSON token NaN, and an
    # infinite one would pass any report.
    code, out = _run(tmp_path, "report.json",
                     [subcommand, "--n", "1", "--m", "2", "--xi", "0.3", "--seed", "1",
                      "--epsilon-tail", epsilon, "--format", "json"])
    assert code == 1
    err = capsys.readouterr().err
    assert "epsilon_tail must be finite and positive" in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("args, expected_code", [
    (["--n", "2", "--m", "5", "--xi", "0.1,1.0"], 2),  # the state at r = 1.0 is too big
    (["--n", "2", "--m", "3", "--xi", "0.3,0.0", "--variant", "subtracted"], 1),
])
def test_compare_guards_every_xi_before_preparing_any_input(monkeypatch, tmp_path, capsys,
                                                            args, expected_code):
    prepared = []
    monkeypatch.setattr(experiments, "build_passv_input",
                        lambda *a, **k: prepared.append(a) or evolution.build_passv_input(*a))
    code, out = _run(tmp_path, "report.json", ["compare", *args, "--seed", "7"])
    assert code == expected_code
    assert prepared == []
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


def test_compare_three_photons_in_five_modes_at_r_0_6_passes(tmp_path):
    # Total cutoff 43: C(48, 5) = 1.7 million amplitudes, where a cutoff on
    # each mode would need 44^5 = 165 million.
    code, out = _run(tmp_path, "report.json",
                     ["compare", "--n", "3", "--m", "5", "--xi", "0.6", "--variant",
                      "subtracted", "--seed", "7"])
    assert code == 0
    report = json.loads(out.read_text())["report"]
    assert report["passes"] is True
    assert report["cutoffs"] == [43]
    assert report["max_deviation"] <= 1e-13
    assert report["truncation_loss"][0] <= 5e-8


def test_one_mode_is_not_charged_for_rotations_it_never_builds(tmp_path):
    # r = 1.87 needs D = 421: 211 stored amplitudes, which the count once
    # refused for the eigenbases and rotations a one-mode network does not build.
    code, out = _run(tmp_path, "report.json",
                     ["compare", "--n", "1", "--m", "1", "--xi", "1.87", "--seed", "7"])
    assert code == 0
    report = json.loads(out.read_text())["report"]
    assert report["passes"] is True and report["cutoffs"] == [421]


def test_largest_admitted_state_peaks_within_the_limit_and_the_next_exits_two(
        monkeypatch, capsys):
    n, m, xi, seed = 2, 4, 0.6, 7
    cutoff = required_cutoff(xi, 4e-8, modes=m, photons=n)
    limit = evolution._state_bytes(m, cutoff, n % 2)  # the input holds totals n + 2k only
    monkeypatch.setattr(errors, "MEMORY_LIMIT", limit)
    monkeypatch.setattr(evolution, "_slot", evolution._Slot())  # cold: no layout held
    tracemalloc.start()
    try:
        brute_force_parity(n, m, xi, seed=seed)
        held, peak = tracemalloc.get_traced_memory()  # held: the layout and its eigenbases
        tracemalloc.reset_peak()
        # xi = 0.61 needs the next total up, cutoff + 2.
        assert required_cutoff(0.61, 4e-8, modes=m, photons=n) == cutoff + 2
        code = execute(["sample-passv", "--n", str(n), "--m", str(m), "--xi", "0.61",
                        "--seed", str(seed)])
        _, refused_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit
    assert code == 2
    # Less than one byte per amplitude of the refused state: none of its
    # arrays was allocated.
    assert refused_peak - held < math.comb(cutoff + 2 + m, m)
    err = capsys.readouterr().err
    assert "size limit" in err and "Traceback" not in err


def test_cached_index_tables_and_the_next_state_share_the_limit(monkeypatch):
    # Cutoffs 32, 34, 36 and 38 in turn: each state drops the layout held
    # for the one before it, keeping the eigenbases up to its own cutoff, so
    # the whole sequence stays within the limit of the largest.
    n, m, seed = 2, 4, 7
    xis = (0.51, 0.53, 0.56, 0.59)
    cutoffs = [required_cutoff(xi, 4e-8, modes=m, photons=n) for xi in xis]
    assert cutoffs == [32, 34, 36, 38]
    limit = evolution._state_bytes(m, cutoffs[-1], n % 2)
    monkeypatch.setattr(errors, "MEMORY_LIMIT", limit)
    monkeypatch.setattr(evolution, "_slot", evolution._Slot())  # cold: no layout held
    tracemalloc.start()
    try:
        for xi in xis:
            brute_force_parity(n, m, xi, seed=seed)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= limit
    assert evolution._slot.key == (m, cutoffs[-1], n % 2)  # the last state's layout stays


def test_unknown_log_level_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setenv("PASSV_LOG", "verbose")
    assert execute(["sample-fock", "--n", "1", "--m", "2", "--seed", "2"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "PASSV_LOG must be one of quiet, info, debug" in captured.err
    assert "'verbose'" in captured.err


def test_compare_is_byte_identical_across_runs(tmp_path):
    args = ["compare", "--n", "2", "--m", "3", "--xi", "0.0,0.3", "--seed", "7"]
    _, first = _run(tmp_path, "a.json", args)
    _, second = _run(tmp_path, "b.json", args)
    assert first.read_bytes() == second.read_bytes()


def test_compare_csv_format(tmp_path):
    code, out = _run(tmp_path, "report.csv",
                     ["compare", "--n", "1", "--m", "3", "--xi", "0.0,0.2",
                      "--seed", "3", "--format", "csv"])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("# config ")
    rows = list(csv.reader(lines[1:]))
    assert rows[0] == ["pattern", "predicted", "p_xi0", "p_xi1"]
    assert len(rows) == 4  # header plus one row per single-odd pattern


def test_compare_rejects_bad_xi_list(tmp_path, capsys):
    code, _ = _run(tmp_path, "r.json",
                   ["compare", "--n", "2", "--m", "3", "--xi", "0.0,,0.4",
                    "--seed", "1"])
    assert code == 1
    capsys.readouterr()
    code, _ = _run(tmp_path, "r.json", ["compare", "--n", "2", "--m", "3", "--xi", "",
                                        "--seed", "1"])
    assert code == 1
    assert "cannot parse --xi list" in capsys.readouterr().err


# ------------------------------------------------------- decompose / embed


def test_decompose_round_trip_error_is_reported(tmp_path):
    code, out = _run(tmp_path, "dec.json",
                     ["decompose", "--m", "4", "--kind", "unitary", "--seed", "12"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["reconstruction_error"] < 1e-9
    assert len(data["elements"]) <= 6
    assert data["config"]["subcommand"] == "decompose"


@pytest.mark.parametrize("content", [
    b'{"m": 2, "kind": "unitary", "re": [[1.0, 0.0], [0.0, 1.0]], "im": "x"}',
    b'{"m": 2, "kind": "unitary", "re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0]]}',
    b"\xff\xfe{}",
], ids=["im-not-numbers", "im-ragged", "not-utf-8"])
def test_malformed_matrix_file_exits_one_without_a_traceback(tmp_path, content):
    matrix_file = tmp_path / "net.json"
    matrix_file.write_bytes(content)
    result = subprocess.run(
        [sys.executable, "-m", "passv.cli", "decompose", "--matrix", str(matrix_file)],
        capture_output=True, text=True,
    )
    assert result.returncode == 1
    assert "validation:" in result.stderr and "Traceback" not in result.stderr


@pytest.mark.parametrize("args, message", [
    (["decompose", "--matrix", "{not_utf8}"], "cannot read matrix file"),
    (["decompose", "--seed", "1"], "either --matrix or --m"),
    (["decompose", "--m", "3"], "--seed is required when generating"),
    (["sample-fock", "--n", "1", "--m", "2", "--shots", "10"], "--seed is required to draw"),
], ids=["matrix-not-utf-8", "no-m-or-matrix", "m-without-seed", "shots-without-seed"])
def test_network_source_usage_errors_exit_one_without_writing(tmp_path, caplog, args, message):
    not_utf8 = tmp_path / "net.json"
    not_utf8.write_bytes(b"\xff\xfe{}")
    args = [arg.format(not_utf8=not_utf8) for arg in args]
    code, out = _run(tmp_path, "out.json", args)
    assert code == 1
    assert any(message in rec.message for rec in caplog.records)
    assert not out.exists()


def test_output_naming_a_directory_exits_one_and_leaves_no_temporary_file(tmp_path, caplog):
    target = tmp_path / "taken"
    target.mkdir()
    code, _ = _run(tmp_path, "taken", ["decompose", "--m", "2", "--seed", "1"])
    assert code == 1
    assert any(rec.message.startswith("i/o:") for rec in caplog.records)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["taken"]
    assert not any(target.iterdir())


# The child caps its own address space at 3 GB, so a draw that got past its
# guard would fail there with a MemoryError instead of filling the host.
CAPPED_CLI = """
import resource, sys
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))
from passv.cli import main
main()
"""


@pytest.mark.parametrize("kind", ["unitary", "orthogonal"])
def test_network_draw_over_the_memory_limit_exits_two_before_allocating(kind):
    # One 50,000 x 50,000 array of the draw is 18.6 GiB real, 37.3 GiB complex.
    result = subprocess.run(
        [sys.executable, "-c", CAPPED_CLI, "decompose", "--m", "50000", "--kind", kind,
         "--seed", "1"],
        capture_output=True, text=True, timeout=60,
    )
    assert result.returncode == 2, result.stderr
    assert "size limit:" in result.stderr and "Traceback" not in result.stderr


def test_embed_doubles_the_dimension(tmp_path):
    code, out = _run(tmp_path, "emb.json",
                     ["embed", "--m", "3", "--kind", "unitary", "--seed", "13"])
    assert code == 0
    data = json.loads(out.read_text())
    assert data["m"] == 6
    assert data["kind"] == "orthogonal"
    entries = np.asarray(data["re"])
    assert np.max(np.abs(entries.T @ entries - np.eye(6))) < 1e-9


@pytest.mark.parametrize("args", [
    ["embed", "--m", "5", "--kind", "unitary", "--seed", "13"],
    ["decompose", "--m", "6", "--kind", "unitary", "--seed", "12"],
    ["decompose", "--m", "6", "--kind", "orthogonal", "--seed", "12"],
], ids=["embed", "decompose-unitary", "decompose-orthogonal"])
def test_records_written_in_chunks_are_the_json_dumps_text(tmp_path, args):
    code, out = _run(tmp_path, "record.json", args)
    assert code == 0
    text = out.read_text()
    assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("args, builder", [
    (["embed", "--m", "40", "--kind", "unitary", "--seed", "13"], "embed_unitary_as_orthogonal"),
    (["decompose", "--m", "40", "--kind", "unitary", "--seed", "12"], "reck_decompose"),
], ids=["embed", "decompose"])
def test_records_over_the_limit_exit_two_before_they_are_built(monkeypatch, capsys, args, builder):
    # The record of m = 40 is counted at 666 KB (embed) or 611 KB (decompose).
    monkeypatch.setattr(errors, "MEMORY_LIMIT", 600_000)
    monkeypatch.setattr(cli, builder, lambda *a, **k: pytest.fail("built past the guard"))
    assert execute(args) == 2
    assert "size limit" in capsys.readouterr().err


# The child runs one CLI invocation and reads its own peak RSS: ru_maxrss
# would start at the forking process's RSS.
CLI_RSS_CHILD = """
import sys
from passv.cli import execute
from passv.configurations import ModeConfiguration

def peak():
    with open("/proc/self/status") as status:
        return next(int(line.split()[1]) for line in status if line.startswith("VmHWM:"))

before = peak()
print(execute(sys.argv[1:]), (peak() - before) * 1024)
"""


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="the child reads VmHWM from Linux's /proc")
def test_embed_of_a_thousand_modes_exits_two_before_allocating():
    # Counted at 416 MB: five doubled arrays (160 MB), and the 4 million
    # numbers of the record as Python floats (128 MB) and as text (128 MB).
    # Before the count, m = 1000 peaked at 737 MB. Only the draw, counted at
    # 128 MB of its own, may be made, and the modules a first op maps: the
    # rise was 125 MB.
    result = subprocess.run(
        [sys.executable, "-c", CLI_RSS_CHILD, "embed", "--m", "1000", "--kind", "unitary",
         "--seed", "1"],
        capture_output=True, text=True, timeout=120,
    )
    code, rise = result.stdout.split()
    assert code == "2", result.stderr
    assert "size limit:" in result.stderr and "Traceback" not in result.stderr
    assert int(rise) <= 8 * 16 * 1000 ** 2 + evolution.FIRST_OP_BYTES


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="the child reads VmHWM from Linux's /proc")
@pytest.mark.parametrize("fmt, n", [("csv", 2), ("json", 5)])
def test_the_table_edge_holds_its_count_in_max_rss(tmp_path, fmt, n):
    # Max RSS rose 278 MB (CSV, n = 2, m = 314) and 284 MB (JSON, n = 5,
    # m = 32), on counts of 398 and 399 MB.
    m = TABLE_EDGES[n]
    out = tmp_path / f"table.{fmt}"
    result = subprocess.run(
        [sys.executable, "-c", CLI_RSS_CHILD, "sample-fock", "--n", str(n), "--m", str(m),
         "--seed", "7", "--format", fmt, "--output", str(out)],
        capture_output=True, text=True, timeout=300,
    )
    code, rise = result.stdout.split()
    assert code == "0", result.stderr
    assert out.stat().st_size > configuration_count(n, m) * 2 * m
    assert int(rise) <= distributions._table_bytes(configuration_count(n, m), m), (
        f"max RSS rose {int(rise)} bytes")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                    reason="the child reads VmHWM from Linux's /proc")
def test_a_json_table_peaks_near_the_same_table_in_csv(tmp_path):
    # Both formats frame one byte matrix of key fields. At n = 5, m = 22
    # (65,780 outcomes) max RSS rose 43 MB in CSV and 48 MB in JSON; a JSON
    # record of Python lists, encoded whole, rose 70 MB.
    rises = {}
    for fmt in ("csv", "json"):
        result = subprocess.run(
            [sys.executable, "-c", CLI_RSS_CHILD, "sample-fock", "--n", "5", "--m", "22",
             "--seed", "7", "--format", fmt, "--output", str(tmp_path / f"table.{fmt}")],
            capture_output=True, text=True, timeout=300,
        )
        code, rise = result.stdout.split()
        assert code == "0", result.stderr
        rises[fmt] = int(rise)
    assert rises["json"] <= 1.25 * rises["csv"], rises


def test_embed_rejects_orthogonal_input(tmp_path, capsys):
    code, _ = _run(tmp_path, "emb.json",
                   ["embed", "--m", "3", "--kind", "orthogonal", "--seed", "13"])
    assert code == 1
    assert "unitary" in capsys.readouterr().err


# ------------------------------------------------------------- entry points


def test_module_entry_point_runs_in_subprocess(tmp_path):
    out = tmp_path / "dist.csv"
    result = subprocess.run(
        [sys.executable, "-m", "passv.cli", "sample-fock", "--n", "1", "--m", "2",
         "--kind", "orthogonal", "--seed", "2", "--output", str(out)],
        capture_output=True, text=True,
    )
    assert result.returncode == 0
    assert out.exists()


def test_importing_passv_leaves_scipy_unloaded():
    result = subprocess.run(
        [sys.executable, "-c",
         "import sys, passv, passv.cli; print('scipy' in sys.modules)"],
        capture_output=True, text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_quiet_log_level_suppresses_progress(tmp_path):
    out = tmp_path / "dist.csv"
    result = subprocess.run(
        [sys.executable, "-m", "passv.cli", "sample-fock", "--n", "1", "--m", "2",
         "--kind", "orthogonal", "--seed", "2", "--output", str(out)],
        capture_output=True, text=True, env={**os.environ, "PASSV_LOG": "quiet"},
    )
    assert result.returncode == 0
    assert result.stderr == ""


def test_stdout_is_the_default_sink(capsys):
    code = execute(["sample-fock", "--n", "1", "--m", "2", "--kind", "orthogonal",
                    "--seed", "2"])
    assert code == 0
    captured = capsys.readouterr()
    assert "key,probability" in captured.out
