"""The benchmark's tracer wraps package functions by name; every name it
lists must still exist, so deleting or renaming one fails here and not
only in the benchmark's own tests."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_every_traced_name_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    targets = [t for group in tracing.GROUPS.values() for t in group]
    assert len(targets) > 20
    missing = [
        f"gamma2.{layer}.{attr}"
        for layer, attr in targets
        if not callable(getattr(importlib.import_module(f"gamma2.{layer}"), attr, None))
    ]
    assert missing == []
