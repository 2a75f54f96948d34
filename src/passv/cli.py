"""Deterministic command-line front-end.

Subcommands: sample-fock, sample-passv, compare, decompose, embed. Every
artifact embeds the run configuration, files are written atomically (temp
file plus rename), and a repeated invocation with identical flags produces
byte-identical output.

sample-passv and compare run one oracle path in ``experiments``, so they
share its guards (n <= m <= 5 and the state size limit, which bounds the
squeezing), its cutoff choice and its truncation budget; the cutoff is
chosen by the oracle and recorded, never set.

sample-fock writes all three artifacts, and sample-passv its table, from one
NUL-padded (K, W) uint8 matrix of unquoted key fields
(``configurations.occupation_fields``, or the sign rows). Either table format
lays out each field, the probability's repr (``floatrepr.float_reprs``, written
into the same matrix) and fixed framing bytes in one byte matrix and drops
every NUL in one pass (``_table_rows``); CSV fields are quoted when they hold a
comma.
The samples CSV takes SAMPLE_CHUNK rows at a time, compacted only when the
fields differ in width. Artifacts are written as bytes: atomically to a file,
or to ``sys.stdout.buffer``.

Exit codes: 0 success, 1 validation failure or bad usage, 2 size-limit guard.
The PASSV_LOG environment variable (quiet, info, debug) sets stderr
verbosity; any other value is a usage error.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import logging
import os
import sys
import tempfile
from collections.abc import Iterable, Iterator

import numpy as np

from .configurations import configuration_count, occupation_fields
from .distributions import OutputDistribution, check_table_size, draw_indices
from .errors import SizeLimitError, ValidationError, check_memory
from .experiments import brute_force_parity, run_equivalence_experiment
from .floatrepr import WIDTH, float_reprs
from .networks import (
    LinearNetwork,
    embed_unitary_as_orthogonal,
    haar_special_orthogonal,
    haar_unitary,
    ORTHOGONAL,
    reck_decompose,
    reconstruct,
    UNITARY,
)
from .sampling import output_distribution, uniform_input

logger = logging.getLogger("passv")

LOG_LEVELS = {"quiet": logging.WARNING, "info": logging.INFO, "debug": logging.DEBUG}

SAMPLE_CHUNK = 8192  # sample rows per chunk written to the samples artifact
# The prefix, separator and suffix of a [key, p] pair in a JSON table at indent 2.
JSON_ROW = ('    [\n      "', '",\n      ', "\n    ],\n")
# Per number of a matrix record: a float object and its list slot, 32 bytes, and
# its text at indent 2, at most 32: a repr of up to 24 characters, 6 of indent, a
# comma and a line break.
JSON_NUMBER_BYTES = 64
# Per element of a decomposition record: the TwoModeElement with its indices and
# angles (198 bytes at m = 400), its record dict (193) and its text (112).
JSON_ELEMENT_BYTES = 512


def _configure_logging(level: int):
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(message)s"))
    logger.handlers = [handler]
    logger.setLevel(level)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first ``execute`` and reused by later ones."""
    parser = argparse.ArgumentParser(
        prog="passv",
        description="Permanent-based boson sampling and its parity-measurement "
        "equivalence harness for squeezed-vacuum inputs.",
    )
    sub = parser.add_subparsers(dest="command", metavar="SUBCOMMAND")

    def add_matrix_source(p, need_n=True):
        if need_n:
            p.add_argument("--n", type=int, required=True, help="photon count")
        p.add_argument("--m", type=int, help="mode count (required unless --matrix is given)")
        p.add_argument("--matrix", help="path to a matrix JSON file; wins over --kind/--seed")
        p.add_argument("--kind", choices=[UNITARY, ORTHOGONAL], default=ORTHOGONAL,
                       help="random network kind when no --matrix file is given")
        p.add_argument("--seed", type=int, help="seed for random network generation")

    p = sub.add_parser("sample-fock", help="exact permanent-based output distribution")
    add_matrix_source(p)
    p.add_argument("--shots", type=int, default=0, help="also draw this many samples")
    p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("sample-passv", help="brute-force parity distribution of a "
                                            "photon-added/subtracted squeezed input")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--xi", type=float, required=True, help="squeezing magnitude")
    p.add_argument("--variant", choices=["added", "subtracted"], default="added")
    p.add_argument("--seed", type=int, required=True, help="network seed")
    p.add_argument("--epsilon-tail", type=float, default=1e-8)
    p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--format", choices=["csv", "json"], default="csv")

    p = sub.add_parser("compare", help="equivalence report: permanents vs brute force")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--xi", required=True, help="comma-separated squeezing magnitudes")
    p.add_argument("--variant", choices=["added", "subtracted"], default="added")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--epsilon-tail", type=float, default=1e-8)
    p.add_argument("--output", help="output path (default: stdout)")
    p.add_argument("--format", choices=["json", "csv"], default="json")

    p = sub.add_parser("decompose", help="triangular two-mode decomposition of a network")
    add_matrix_source(p, need_n=False)
    p.add_argument("--output", help="output path (default: stdout)")

    p = sub.add_parser("embed", help="realify a unitary into a doubled rotation matrix")
    add_matrix_source(p, need_n=False)
    p.add_argument("--output", help="output path (default: stdout)")

    return parser


def execute(argv) -> int:
    """Run one invocation; returns the process exit code."""
    level_name = os.environ.get("PASSV_LOG", "info").lower()
    _configure_logging(LOG_LEVELS.get(level_name, logging.INFO))
    if level_name not in LOG_LEVELS:
        logger.error("usage: PASSV_LOG must be one of %s, got %r",
                     ", ".join(LOG_LEVELS), level_name)
        return 1
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 1
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    handlers = {
        "sample-fock": _run_sample_fock,
        "sample-passv": _run_sample_passv,
        "compare": _run_compare,
        "decompose": _run_decompose,
        "embed": _run_embed,
    }
    try:
        handlers[args.command](args)
    except ValidationError as exc:
        logger.error("validation: %s", exc)
        return 1
    except SizeLimitError as exc:
        logger.error("size limit: %s", exc)
        return 2
    except OSError as exc:
        logger.error("i/o: %s", exc)
        return 1
    return 0


def main():
    sys.exit(execute(sys.argv[1:]))


def _resolve_network(args) -> tuple[LinearNetwork, dict]:
    """Load a matrix file or generate one from (kind, m, seed); the file wins.

    The seed is recorded when it is used, for the network or sample-fock's draws.
    """
    draws = getattr(args, "shots", 0)  # only sample-fock draws samples
    if args.matrix:
        if args.seed is not None and not draws:
            logger.warning("--matrix file wins over --kind/--seed generation")
        try:
            with open(args.matrix, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ValidationError(f"cannot read matrix file {args.matrix}: {exc}") from exc
        net = LinearNetwork.from_json_dict(data)
        source = {"matrix": args.matrix, "m": net.dimension, "kind": net.kind}
        return net, {**source, "seed": args.seed} if draws else source
    if args.m is None:
        raise ValidationError("either --matrix or --m is required")
    if args.seed is None:
        raise ValidationError("--seed is required when generating a network")
    if args.kind == UNITARY:
        net = haar_unitary(args.m, args.seed)
    else:
        net = haar_special_orthogonal(args.m, args.seed)
    return net, {"m": args.m, "kind": args.kind, "seed": args.seed}


def _write_artifact(path: str | None, chunks: Iterable[str | np.ndarray]):
    """Write chunks of text or uint8 arrays to stdout or atomically to ``path``.

    Text is encoded as UTF-8; an array chunk must be C-contiguous, and its
    bytes are written as they lie. Stdout gets the bytes through
    ``sys.stdout.buffer``, after whatever its text layer holds.
    """
    chunks = (chunk.encode("utf-8") if isinstance(chunk, str) else chunk for chunk in chunks)
    if path is None:
        sys.stdout.flush()
        for chunk in chunks:
            sys.stdout.buffer.write(chunk)
        sys.stdout.buffer.flush()
        return
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".passv-", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            for chunk in chunks:
                fh.write(chunk)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    logger.info("wrote %s", path)


def _config_comment(config: dict) -> str:
    return "# config " + json.dumps(config, sort_keys=True)


def _byte_columns(rows: int, text: str) -> np.ndarray:
    """``text`` repeated on each of ``rows`` rows: a read-only (rows, len(text)) uint8 view."""
    return np.broadcast_to(np.frombuffer(text.encode("ascii"), dtype=np.uint8), (rows, len(text)))


def _quote(fields: np.ndarray) -> str:
    """``csv.writer``'s minimal quote for key fields: '"' when they hold a comma (m > 1 occupations)."""
    return '"' if ord(",") in fields[:1] else ""


def _table_rows(fields: np.ndarray, dist: OutputDistribution, prefix: str, separator: str,
                suffix: str) -> np.ndarray:
    """The rows of a table artifact as bytes, from a NUL-padded (K, W) byte matrix of key fields.

    Row k of one byte matrix is ``prefix``, field k, ``separator``,
    ``repr(p_k)`` and ``suffix``. ``float_reprs`` writes the reprs into the
    matrix, as NUL-padded rows of WIDTH bytes, straight from the table's
    probabilities; the NULs are dropped from the whole matrix at once.
    """
    k, w = fields.shape
    start = len(prefix) + w + len(separator)
    rows = np.empty((k, start + WIDTH + len(suffix)), dtype=np.uint8)
    rows[:, :len(prefix)] = _byte_columns(k, prefix)
    rows[:, len(prefix):len(prefix) + w] = fields
    rows[:, start - len(separator):start] = _byte_columns(k, separator)
    float_reprs(dist.probabilities, out=rows[:, start:start + WIDTH])
    rows[:, start + WIDTH:] = _byte_columns(k, suffix)
    return rows[rows != 0]


def _distribution_csv(fields: np.ndarray, dist: OutputDistribution, config: dict) -> tuple[str, np.ndarray]:
    """The table CSV as header and body: per row the field (quoted), a comma, ``repr(p)``, a line break."""
    quote = _quote(fields)
    return (_config_comment(config) + "\nkey,probability\n",
            _table_rows(fields, dist, quote, quote + ",", "\n"))


def _distribution_json(fields: np.ndarray, dist: OutputDistribution, config: dict) -> tuple:
    """The table JSON as head, rows (the last one's comma dropped) and tail; at least one row.

    The bytes are ``json.dumps(sort_keys=True, indent=2)`` and a line break of
    the record of config, normalization defect and [key, p] pairs: keys need
    no escaping, and a finite float's ``repr`` is the text ``json`` writes.
    """
    head = json.dumps({"config": config}, sort_keys=True, indent=2)[:-2]  # without "\n}"
    defect = json.dumps(dist.normalization_defect)
    return (head + ',\n  "distribution": [\n', _table_rows(fields, dist, *JSON_ROW)[:-2],
            f'\n  ],\n  "normalization_defect": {defect}\n}}\n')


TABLE_WRITERS = {"csv": _distribution_csv, "json": _distribution_json}


def _run_sample_fock(args):
    if args.shots and args.seed is None:
        raise ValidationError("--seed is required to draw samples")
    if args.m is not None and not args.matrix:
        _check_sample_fock_size(args.n, args.m, args.shots)  # before a network is drawn
    net, source = _resolve_network(args)
    if args.matrix:
        _check_sample_fock_size(args.n, net.dimension, args.shots)
    pump = uniform_input(args.n, net.dimension)
    dist = output_distribution(net, pump)
    # The table's key fields in its canonical order, built once for all three artifacts.
    fields = occupation_fields(dist.occupations)
    config = {"subcommand": "sample-fock", "n": args.n, "input": pump.serialize(),
              "shots": args.shots, **source}
    _write_artifact(args.output, TABLE_WRITERS[args.format](fields, dist, config))
    if args.shots:
        indices = draw_indices(dist, int(args.seed) + 1, args.shots)
        _write_artifact(_samples_path(args.output), _samples_csv(fields, indices, config))


def _check_sample_fock_size(n: int, m: int, shots: int) -> None:
    """Count the table of n photons over m modes and its draws together, before either is made.

    While the draws are made and written, the table's occupation array,
    fields and CDF are held beside them. ``output_distribution`` counts the
    table again; n > m is refused by ``uniform_input``.
    """
    if n <= m:
        check_table_size(configuration_count(n, m), m, shots)


def _samples_csv(fields: np.ndarray, indices: np.ndarray, config: dict) -> Iterator[str | np.ndarray]:
    """The sample CSV in chunks of SAMPLE_CHUNK rows, each one ``take`` of field-plus-newline rows.

    Fields are quoted as in the table CSV. A chunk is compacted only when the
    fields hold NUL padding, that is when their widths differ.
    """
    quote = _quote(fields)
    lines = np.hstack((_byte_columns(len(fields), quote), fields,
                       _byte_columns(len(fields), quote + "\n")))
    padded = not lines.all()
    yield _config_comment(config) + "\nsample\n"
    for start in range(0, len(indices), SAMPLE_CHUNK):
        chunk = lines.take(indices[start:start + SAMPLE_CHUNK], axis=0)
        yield chunk[chunk != 0] if padded else chunk


def _samples_path(path: str | None) -> str | None:
    """The samples artifact beside ``path``: always CSV, whatever the table's format."""
    if path is None:
        return None
    return f"{os.path.splitext(path)[0]}.samples.csv"


def _run_sample_passv(args):
    dist, cutoff, loss = brute_force_parity(
        args.n, args.m, args.xi, args.variant,
        seed=args.seed, epsilon_tail=args.epsilon_tail,
    )
    config = {
        "subcommand": "sample-passv", "n": args.n, "m": args.m, "xi": args.xi,
        "variant": args.variant, "seed": args.seed, "cutoff": cutoff,
        "epsilon_tail": args.epsilon_tail, "truncation_loss": loss,
    }
    # ParityPattern.serialize of each parity row: m bytes, no comma, so never quoted.
    fields = np.frombuffer(b"+-", dtype=np.uint8)[dist.occupations]
    _write_artifact(args.output, TABLE_WRITERS[args.format](fields, dist, config))


def _parse_xi_list(text: str) -> list[float]:
    try:
        values = [float(part) for part in str(text).split(",")]
    except ValueError as exc:
        raise ValidationError(f"cannot parse --xi list {text!r}") from exc
    return values


def _run_compare(args):
    report = run_equivalence_experiment(
        args.n, args.m, _parse_xi_list(args.xi), args.variant,
        seed=args.seed, epsilon_tail=args.epsilon_tail,
    )
    config = {
        "subcommand": "compare", "n": args.n, "m": args.m, "xi": report.xi_values,
        "variant": args.variant, "seed": args.seed, "epsilon_tail": args.epsilon_tail,
    }
    if args.format == "json":
        record = {"config": config, "report": report.to_json_dict()}
        _write_artifact(args.output, _json_chunks(record))
    else:
        buf = io.StringIO()
        buf.write(_config_comment(config) + "\n")
        writer = csv.writer(buf, lineterminator="\n")
        for row in report.to_csv_rows():
            writer.writerow(row)
        _write_artifact(args.output, (buf.getvalue(),))


def _check_record_size(subcommand: str, m: int, needed: int) -> None:
    """Refuse a decompose or embed record of ``needed`` bytes over MEMORY_LIMIT, before building it.

    ``needed`` counts the arrays the command makes, the Python objects of its
    record and the record's JSON text. The text is written in the encoder's
    chunks (``_json_chunks``) but counted whole, so the artifact itself stays
    under the limit too.
    """
    check_memory(needed, f"{subcommand} of a {m}-mode network (its arrays, record and text)")


def _json_chunks(record: dict) -> Iterator[str]:
    """``json.dumps(sort_keys=True, indent=2)`` of ``record`` and a line break, in chunks."""
    yield from json.JSONEncoder(sort_keys=True, indent=2).iterencode(record)
    yield "\n"


def _run_decompose(args):
    net, source = _resolve_network(args)
    m = net.dimension
    # Eight complex m x m arrays (the network, the working copy, the rebuilt
    # matrix, its validated copy, the check's product and the error's copies),
    # every element and the residual.
    _check_record_size("decompose", m, 128 * m * m + JSON_ELEMENT_BYTES * (m * (m - 1) // 2)
                       + JSON_NUMBER_BYTES * 2 * m)
    dec = reck_decompose(net)
    rebuilt = reconstruct(dec)
    err = float(np.max(np.abs(
        rebuilt.entries.astype(np.complex128) - net.entries.astype(np.complex128)
    )))
    record = {
        "config": {"subcommand": "decompose", **source},
        **dec.to_json_dict(),
        "kind": net.kind,
        "reconstruction_error": err,
    }
    _write_artifact(args.output, _json_chunks(record))


def _run_embed(args):
    net, source = _resolve_network(args)
    if net.kind != UNITARY:
        raise ValidationError("embed expects a unitary network")
    # The five real 2m x 2m arrays that embed_unitary_as_orthogonal counts, and
    # the (2m)^2 numbers of the doubled matrix.
    doubled_entries = (2 * net.dimension) ** 2
    _check_record_size("embed", net.dimension, (40 + JSON_NUMBER_BYTES) * doubled_entries)
    doubled = embed_unitary_as_orthogonal(net)
    record = {"config": {"subcommand": "embed", **source}, **doubled.to_json_dict()}
    _write_artifact(args.output, _json_chunks(record))


if __name__ == "__main__":
    main()
