"""The benchmark tracer wraps wsgaps functions by name: every name it lists
must still exist, or `perfbench/run.py --trace 1` fails at install time."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    """Load tracer.py (stdlib-only) without writing a bytecode cache beside it."""
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("wsgaps_perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_wrapped_name_exists(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    missing = [
        f"wsgaps.{layer}.{name}"
        for layer, functions in tracer.WRAPPED.items()
        for name in functions
        if not callable(getattr(importlib.import_module(f"wsgaps.{layer}"), name, None))
    ]
    assert not missing
    assert sum(map(len, tracer.WRAPPED.values())) >= 20
