"""Span tracing of passv's public functions, installed from outside the package.

`install` rebinds every name under which a passv module holds one of the
LAYERS functions to a wrapper, and returns what `restore` needs to put the
originals back. A wrapper records a span only while an op is open, so checks
run between ops cost nothing and are not counted. Spans stay in memory until
`write` dumps them.
"""

from __future__ import annotations

import functools
import json
import math
import statistics
import sys
import time
from collections import defaultdict

# (module, attribute) of each traced function; its span is named "module.attribute".
# A class is traced through its __init__.
LAYERS = (
    ("cli", "execute"),
    ("experiments", "run_equivalence_experiment"),
    ("experiments", "predicted_parity_distribution"),
    ("networks", "haar_unitary"),
    ("networks", "haar_special_orthogonal"),
    ("networks", "reck_decompose"),
    ("networks", "scattering_submatrix"),
    ("configurations", "enumerate_configurations"),
    ("permanents", "permanent_ryser"),
    ("sampling", "output_distribution"),
    ("sampling", "transition_amplitude"),
    ("distributions", "OutputDistribution"),
    ("distributions", "draw_samples"),
    ("evolution", "build_passv_input"),
    ("evolution", "apply_network"),
    ("evolution", "apply_beamsplitter"),
    ("evolution", "expm"),
    ("evolution", "parity_distribution"),
)
LAYER_NAMES = tuple(f"{module}.{attr}" for module, attr in LAYERS)

# Layers whose spans also record process CPU time (all threads).
CPU_LAYERS = ("evolution.apply_beamsplitter", "evolution.expm")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


# Per-span facts the derived counts need, taken from the call's arguments.
INFO = {
    "permanents.permanent_ryser": lambda a, k: len(_arg(a, k, 0, "matrix")),
    "evolution.build_passv_input": lambda a, k: (
        _arg(a, k, 1, "modes"), _arg(a, k, 4, "cutoff")),
    "evolution.apply_beamsplitter": lambda a, k: _arg(a, k, 0, "state").cutoff,
    "experiments.run_equivalence_experiment": lambda a, k: len(_arg(a, k, 2, "xi_values")),
}

OP = "op"  # the root span of one op, opened by the benchmark around cli.execute


class Tracer:
    """Collects closed spans as (id, parent, op, name, start, end, self_s, cpu_s, info)."""

    def __init__(self):
        self.spans = []
        self._stack = []  # open spans: [id, name, start, cpu_start, info, child_s]
        self._next_id = 0
        self.op = None

    def _open(self, name, info, cpu):
        self._next_id += 1
        self._stack.append([self._next_id, name, time.perf_counter(),
                            time.process_time() if cpu else None, info, 0.0])

    def _close(self):
        end = time.perf_counter()
        span_id, name, start, cpu_start, info, child_s = self._stack.pop()
        cpu_s = None if cpu_start is None else time.process_time() - cpu_start
        duration = end - start
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[5] += duration
        self.spans.append((span_id, parent[0] if parent else None, self.op, name,
                           start, end, duration - child_s, cpu_s, info))

    def begin_op(self, op_id):
        self.op = op_id
        self._open(OP, None, False)

    def end_op(self):
        self._close()
        self.op = None

    def wrap(self, name, fn):
        info_of = INFO.get(name)
        cpu = name in CPU_LAYERS

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            self._open(name, info_of(args, kwargs) if info_of else None, cpu)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close()

        return traced

    def write(self, path, header):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(header) + "\n")
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def install(tracer):
    """Wrap every passv binding of each LAYERS function; returns the undo list."""
    modules = [m for n, m in sorted(sys.modules.items())
               if n == "passv" or n.startswith("passv.")]
    undo = []
    for (module, attr), name in zip(LAYERS, LAYER_NAMES):
        original = getattr(sys.modules[f"passv.{module}"], attr)
        if isinstance(original, type):
            init = original.__dict__["__init__"]
            setattr(original, "__init__", tracer.wrap(name, init))
            undo.append((original, "__init__", init))
            continue
        wrapper = tracer.wrap(name, original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, key, wrapper)
                    undo.append((mod, key, original))
    return undo


def restore(undo):
    for owner, key, original in reversed(undo):
        setattr(owner, key, original)


# Derived counts, each with its unit; computed per op by `op_metrics`.
DERIVED = {
    "permanents.ops": "count",
    "evolution.sector_rotations": "count",
    "evolution.state_amplitudes": "count",
    "evolution.in_range_fraction": "ratio",
    "experiments.evolutions_per_xi": "ratio",
    "trace.wall_s": "s",
    "trace.unattributed_s": "s",
}


def metric_units():
    """Every per-layer metric `op_metrics` emits, with its unit."""
    units = {}
    for name in LAYER_NAMES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.busy_s"] = "s"
        units[f"{name}.self_s"] = "s"
        if name in CPU_LAYERS:
            units[f"{name}.cpu_s"] = "s"
    units.update(DERIVED)
    return units


def op_metrics(spans):
    """Per-layer metrics of one op, from its spans; no traced function recurses."""
    values = dict.fromkeys(metric_units(), 0)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[3]].append(span)
    for name in LAYER_NAMES:
        own = by_name.get(name, [])
        values[f"{name}.calls"] = len(own)
        values[f"{name}.busy_s"] = math.fsum(s[5] - s[4] for s in own)
        values[f"{name}.self_s"] = math.fsum(s[6] for s in own)
        if name in CPU_LAYERS:
            values[f"{name}.cpu_s"] = math.fsum(s[7] for s in own)
    values["permanents.ops"] = sum(
        n * 2 ** n for *_, n in by_name.get("permanents.permanent_ryser", []))
    values["evolution.sector_rotations"] = len(by_name.get("evolution.expm", []))
    states = [s[8] for s in by_name.get("evolution.build_passv_input", [])]
    if states:
        m, d = max(states, key=lambda md: (md[1] + 1) ** md[0])
        values["evolution.state_amplitudes"] = (d + 1) ** m
        values["evolution.in_range_fraction"] = math.comb(d + m, m) / (d + 1) ** m
    xi_count = sum(s[8] for s in by_name.get("experiments.run_equivalence_experiment", []))
    if xi_count:
        values["experiments.evolutions_per_xi"] = len(states) / xi_count
    (root,) = by_name[OP]
    values["trace.wall_s"] = root[5] - root[4]
    values["trace.unattributed_s"] = root[6]
    return values


def per_op(spans):
    """op id -> list of that op's spans."""
    ops = defaultdict(list)
    for span in spans:
        ops[span[2]].append(span)
    return dict(ops)


def median_metrics(spans):
    """Median over traced ops of each per-layer metric."""
    rows = [op_metrics(s) for s in per_op(spans).values()]
    return {name: statistics.median(r[name] for r in rows) for name in metric_units()}
