"""The benchmark's traced run replaces program attributes by name; a name it
lists that the program no longer defines would crash that run.  This checks
the list against the program, looking each name up the way the tracer does."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in spans._TARGETS
        if attr not in owner.__dict__
    ]
    assert spans._TARGETS
    assert missing == []
