#!/usr/bin/env python3
"""End-to-end benchmark of the passv command line, with an optional traced run.

    python3 perfbench/run.py --workload equivalence --seed 7 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 7 --seconds 35

Run from the root of a source checkout; passv is imported from its `src`.
One process runs one workload as a closed loop with one client: it calls
`passv.cli.execute` in-process, back to back, with `--output` in a temporary
directory, and checks every op's artifacts. `--trace 0` prints the end-to-end
metrics; `--trace 1` alternates untraced and traced ops and prints the
per-layer metrics of the traced ones. The last line of standard output is one
JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

SCRIPT = Path(__file__).resolve()
ROOT = SCRIPT.parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
NPROC = len(os.sched_getaffinity(0))
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 60

# OpenBLAS reads its thread count once, when numpy loads it: pin it before any
# import of numpy so that every run, and every set-up probe, uses the same one.
os.environ["OPENBLAS_NUM_THREADS"] = str(NPROC)
os.environ["PASSV_LOG"] = "quiet"

import tracing  # noqa: E402  (neither module imports numpy)
import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}
# Per-layer metrics the benchmark measures itself, beside tracing.metric_units().
TRACE_EXTRA_UNITS = {"cli.artifact_bytes": "B", "trace.overhead_s": "s"}


def import_cli():
    """passv.cli from this checkout's src, never from an installed copy."""
    sys.path.insert(0, str(SRC))
    import passv
    import passv.cli

    if Path(passv.__file__).resolve().parent != SRC / "passv":
        raise ImportError(f"passv resolved to {passv.__file__}, not {SRC}")
    return passv.cli


def probe_setup(workload, seed):
    """Child of measure_setup: prints the seconds to import passv and make the inputs."""
    start = time.perf_counter()
    import_cli()
    workload.argv(workload.network_seed(seed), OUT)
    print(repr(time.perf_counter() - start))
    return 0


def measure_setup(workload_name, seed):
    """Set-up times of SETUP_PROBES fresh processes."""
    times = []
    for _ in range(SETUP_PROBES):
        child = subprocess.run(
            [sys.executable, str(SCRIPT), "--probe-setup",
             "--workload", workload_name, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, check=False,
        )
        if child.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {child.stderr.strip()}")
        times.append(float(child.stdout.strip().splitlines()[-1]))
    return times


class Loop:
    """Closed loop over one workload's op, checking every op's artifacts."""

    def __init__(self, cli, workload, seed, outdir, tracer=None):
        self.cli = cli
        self.workload = workload
        self.network_seed = workload.network_seed(seed)
        self.argv = workload.argv(self.network_seed, outdir)
        self.paths = workload.paths(outdir)
        self.tracer = tracer
        self.reference = None  # artifact digest of the first op
        self.attempted = 0
        self.failed = 0
        self.timed = {False: [], True: []}  # traced? -> [(wall_s, cpu_s)]

    def op(self, traced=False):
        """Run, time and check one op; returns its wall and CPU seconds."""
        self.attempted += 1
        for path in self.paths:
            path.unlink(missing_ok=True)
        if traced:
            self.tracer.begin_op(self.attempted)
        wall0, cpu0 = time.perf_counter(), time.process_time()
        try:
            code = self.cli.execute(self.argv)
        except Exception:  # an op that raises is a failed op, not a failed run
            traceback.print_exc()
            code = None
        wall, cpu = time.perf_counter() - wall0, time.process_time() - cpu0
        if traced:
            self.tracer.end_op()
        problems = self.check(code)
        if problems:
            self.failed += 1
            print(f"op {self.attempted} failed: {'; '.join(problems)}", file=sys.stderr)
        return wall, cpu

    def check(self, code):
        if code != 0:
            return [f"exit code {code}"]
        try:
            problems = self.workload.check(self.paths, self.network_seed)
            found = workloads.digest(self.paths)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"unreadable artifact: {exc!r}"]
        if self.reference is None:
            self.reference = found
        elif found != self.reference:
            problems.append("artifact differs from the first op's")
        return problems

    def run(self, seconds):
        """Run ops until the next one would end after `seconds`.

        With a tracer, ops alternate untraced and traced, starting untraced,
        and at least one of each runs.
        """
        start = time.perf_counter()
        traced = False
        while True:
            wall, cpu = self.op(traced)
            self.timed[traced].append((wall, cpu))
            enough = all(self.timed.values()) if self.tracer else True
            if enough and time.perf_counter() - start + wall > seconds:
                return
            traced = self.tracer is not None and not traced


def environment(seed, network_seed):
    import numpy
    import scipy

    cpu_model = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(line.split(":", 1)[1].strip() for line in fh
                             if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        found = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                               text=True, check=False)
        commit = found.stdout.strip() or commit
    blas = {
        "numpy": numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
        "scipy": scipy.show_config(mode="dicts")["Build Dependencies"]["blas"]["version"],
    }
    return {
        "seed": seed, "network_seed": network_seed, "nproc": NPROC,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "openblas": blas,
        "openblas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "cpu_model": cpu_model, "commit": commit,
    }


def run_workload(args):
    try:
        cli = import_cli()
    except ImportError as exc:
        print(f"cannot import passv from {SRC}: {exc}", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    setup = None if args.trace else measure_setup(workload.name, args.seed)
    tracer = tracing.Tracer() if args.trace else None
    OUT.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT) as outdir:
        loop = Loop(cli, workload, args.seed, Path(outdir), tracer)
        undo = tracing.install(tracer) if tracer else []
        try:
            loop.run(args.seconds)
        finally:
            tracing.restore(undo)
        artifact_bytes = sum(p.stat().st_size for p in loop.paths if p.exists())

    untraced = loop.timed[False]
    print(json.dumps({"workload": workload.name,
                      "environment": environment(args.seed, loop.network_seed)}))
    if args.trace:
        traced = loop.timed[True]
        metrics = tracing.median_metrics(tracer.spans)
        metrics["cli.artifact_bytes"] = artifact_bytes
        metrics["trace.overhead_s"] = (statistics.median(w for w, _ in traced)
                                       - statistics.median(w for w, _ in untraced))
        units = {**tracing.metric_units(), **TRACE_EXTRA_UNITS}
        spans_path = OUT / f"spans-{workload.name}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {"workload": workload.name, "seed": args.seed,
                                  "network_seed": loop.network_seed})
        print(f"{len(traced)} traced and {len(untraced)} untraced ops; "
              f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    else:
        walls, cpus = zip(*untraced)
        metrics = {
            "setup_s": statistics.median(setup),
            "wall_s": statistics.median(walls),
            "cpu_s": statistics.median(cpus),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        print(f"setup_s: median of {len(setup)} fresh processes; wall_s, cpu_s: medians of "
              f"{len(walls)} ops (wall min {min(walls):.4f} s, max {max(walls):.4f} s)")
    for name, value in metrics.items():
        print(f"  {name:<48} {value:>16.6g} {units[name]}")
    print(f"  {'error_rate':<48} {loop.failed / loop.attempted:>16.6g} ratio "
          f"({loop.failed} failed of {loop.attempted} attempted)")
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def run_all(args):
    """Each workload in its own process, so peak memory is per workload."""
    correct = True
    for name in workloads.WORKLOADS:
        child = subprocess.run(
            [sys.executable, str(SCRIPT), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stdout.write(child.stdout)
        sys.stderr.write(child.stderr)
        if child.returncode != 0:
            print(f"{name}: exit code {child.returncode}", file=sys.stderr)
            return child.returncode
        correct = correct and json.loads(child.stdout.splitlines()[-1])["correct"]
    return 0 if correct else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=int, default=35)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if args.workload == "all":
        return run_all(args)
    if args.probe_setup:
        return probe_setup(workloads.WORKLOADS[args.workload], args.seed)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
