"""The benchmark tracer's bindings resolve in passv.

``perfbench/tracing.py`` wraps passv functions by (module, attribute) name and
fails at install time if one is missing; this catches a rename in Tier-1,
on every Python the suite runs on, rather than only in a traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_layer_resolves_in_passv():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # the tracer imports only the standard library
    missing = [f"{module}.{attr}" for module, attr in tracing.LAYERS
               if not hasattr(importlib.import_module(f"passv.{module}"), attr)]
    assert tracing.LAYERS and missing == []
