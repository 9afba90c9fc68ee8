"""The benchmark's tracer wraps engine names by attribute; a rename or a
deletion in the engine shows up here instead of as a silent gap in the
per-layer metrics."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def test_every_traced_name_exists():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    with tracing.Instrumentation(tracing.Tracer()) as inst:
        assert inst.missing == []
