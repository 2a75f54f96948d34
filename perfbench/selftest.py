#!/usr/bin/env python3
"""Self-test of the benchmark: exact traced counts, failure counting and network classes.

    python3 perfbench/selftest.py

Exits 0 when every check holds and 1 otherwise, naming each check that failed.
It runs with one OpenBLAS thread: no count depends on the thread count, and
the brute-force ops are several times faster with one thread than with two.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import run
import tracing
import workloads

os.environ["OPENBLAS_NUM_THREADS"] = "1"  # after `run`, which pins it, and before numpy

FAILURES = []


def expect(condition, message):
    print(("ok    " if condition else "FAIL  ") + message)
    if not condition:
        FAILURES.append(message)


def traced_op(cli, workload, seed, outdir):
    """One traced op; returns its spans and its per-layer metrics."""
    tracer = tracing.Tracer()
    loop = run.Loop(cli, workload, seed, outdir, tracer)
    undo = tracing.install(tracer)
    try:
        loop.op(traced=True)
    finally:
        tracing.restore(undo)
    expect(loop.failed == 0, f"{workload.name} network {loop.network_seed}: op passes its checks")
    (spans,) = tracing.per_op(tracer.spans).values()
    return spans, tracing.op_metrics(spans)


def check_declared_metrics():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {**tracing.metric_units(), **run.TRACE_EXTRA_UNITS}
    expect(declared == emitted, "BENCHMARK.json per_layer matches the traced run's metrics")
    declared = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    expect(declared == run.END_TO_END_UNITS, "BENCHMARK.json end_to_end matches the untraced run")
    expect(spec["workloads"] == [{"name": w.name, "why": w.why}
                                 for w in workloads.WORKLOADS.values()],
           "BENCHMARK.json workloads match workloads.WORKLOADS")


def check_accounting(name, spans, metrics):
    """Self times of every span in an op, the root's included, add up to its wall time."""
    total = math.fsum(s[6] for s in spans)
    expect(abs(total - metrics["trace.wall_s"]) <= 1e-9 * max(1.0, total),
           f"{name}: layer self times + unattributed = traced wall time")


def check_mixer_counts(name, spans, metrics, m):
    networks = metrics["evolution.apply_network.calls"]
    expect(metrics["evolution.apply_beamsplitter.calls"] == m * (m - 1) // 2 * networks,
           f"{name}: apply_beamsplitter calls = m(m-1)/2 x apply_network calls ({networks})")
    cutoffs = [s[8] for s in spans if s[3] == "evolution.apply_beamsplitter"]
    expect(metrics["evolution.expm.calls"] == sum(2 * d for d in cutoffs)
           == metrics["evolution.sector_rotations"],
           f"{name}: expm calls = sum of 2d over the mixers ({sum(2 * d for d in cutoffs)})")


def check_ops(cli, outdir):
    fock = workloads.WORKLOADS["fock-table"]
    spans, metrics = traced_op(cli, fock, 7, outdir)
    rows = workloads.FOCK_TABLE_ROWS
    expect(metrics["permanents.permanent_ryser.calls"] == rows == 4_368,
           "fock-table: 4,368 permanent_ryser calls per op")
    expect(metrics["permanents.ops"] == rows * 5 * 2 ** 5, "fock-table: permanents.ops = sum n 2^n")
    expect(metrics["evolution.apply_network.calls"] == 0, "fock-table: evolution is idle")
    check_accounting("fock-table", spans, metrics)

    # Network 2 is outside the equivalence class: its cutoff never grows.
    for network, evolutions in ((7, 5), (2, 4)):
        workload = dataclasses.replace(workloads.WORKLOADS["equivalence"], networks=None)
        name = f"equivalence network {network}"
        spans, metrics = traced_op(cli, workload, network, outdir)
        expect(metrics["evolution.apply_network.calls"] == evolutions,
               f"{name}: {evolutions} evolutions per op")
        expect(metrics["experiments.evolutions_per_xi"] == evolutions / 3,
               f"{name}: evolutions_per_xi = {evolutions}/3")
        check_mixer_counts(name, spans, metrics, 4)
        check_accounting(name, spans, metrics)

    spans, metrics = traced_op(cli, workloads.WORKLOADS["equivalence-m5"], 7, outdir)
    expect(metrics["evolution.apply_network.calls"] == 2, "equivalence-m5: 2 evolutions per op")
    check_mixer_counts("equivalence-m5", spans, metrics, 5)
    check_accounting("equivalence-m5", spans, metrics)


def check_corruption(cli, outdir):
    """A damaged artifact is a failed op, whichever check catches it."""
    loop = run.Loop(cli, workloads.WORKLOADS["equivalence-m5"], 7, outdir)
    loop.op()
    report = loop.paths[0].read_text(encoding="utf-8")
    loop.paths[0].write_text(report.replace('"passes": true', '"passes": false'),
                             encoding="utf-8")
    problems = loop.check(0)
    expect(any("passes" in p for p in problems) and any("first op" in p for p in problems),
           "a report edited to fail is flagged by its check and its digest")
    loop.paths[0].write_text(report[: len(report) // 2], encoding="utf-8")
    expect(bool(loop.check(0)), "a truncated report is a failure")

    loop = run.Loop(cli, workloads.WORKLOADS["fock-table"], 7, outdir)
    loop.op()
    lines = loop.paths[1].read_text(encoding="utf-8").splitlines(keepends=True)
    loop.paths[1].write_text("".join(lines[:-1]), encoding="utf-8")
    problems = loop.check(0)
    expect(any("sample rows" in p for p in problems), "a missing sample row is flagged")
    loop.paths[1].write_text("".join(lines), encoding="utf-8")
    expect(loop.check(0) == [], "the restored artifact passes again")
    expect(loop.failed == 0 and loop.attempted == 1, "checking by hand leaves the op counts alone")

    loop = run.Loop(cli, workloads.WORKLOADS["fock-table"], 7, outdir)
    loop.reference = "0" * 64
    loop.op()
    expect(loop.failed == 1 and loop.attempted == 1, "an op whose digest differs counts as failed")


def evolutions_by_network(workload):
    """Evolutions per op of `workload` on every network seed, from traced calls."""
    from passv.experiments import run_equivalence_experiment

    n, m, xi, variant = (workload.command[i] for i in (2, 4, 6, 8))
    counts = {}
    tracer = tracing.Tracer()
    undo = tracing.install(tracer)
    try:
        for seed in range(workloads.NETWORK_SEEDS):
            tracer.spans.clear()
            tracer.begin_op(seed)
            run_equivalence_experiment(int(n), int(m), [float(x) for x in xi.split(",")],
                                       variant, seed=seed)
            tracer.end_op()
            counts[seed] = sum(s[3] == "evolution.build_passv_input" for s in tracer.spans)
    finally:
        tracing.restore(undo)
    return counts


def check_network_classes():
    counts = evolutions_by_network(workloads.WORKLOADS["equivalence"])
    members = tuple(s for s, c in counts.items() if c == 5)
    expect(members == workloads.EQUIVALENCE_NETWORKS,
           f"EQUIVALENCE_NETWORKS lists the networks with 5 evolutions ({len(members)} of "
           f"{len(counts)}; the rest evolve {sorted(set(counts.values()) - {5})} times)")
    counts = evolutions_by_network(workloads.WORKLOADS["equivalence-m5"])
    expect(set(counts.values()) == {2}, "equivalence-m5 evolves twice on every network")


def main():
    cli = run.import_cli()
    check_declared_metrics()
    run.OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.OUT) as tmp:
        check_ops(cli, Path(tmp))
        check_corruption(cli, Path(tmp))
    check_network_classes()
    print(f"{len(FAILURES)} failed" if FAILURES else "all checks hold")
    return 1 if FAILURES else 0


if __name__ == "__main__":
    sys.exit(main())
