"""The benchmark's tracer must find every function it wraps.

``perfbench/tracer.py`` times layers by wrapping functions at the attributes
their callers look them up through, and skips a hook whose attribute is
gone. A refactor that renames or stops importing one of them would blank a
layer of the benchmark without any error, so this checks every hook here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer(monkeypatch):
    # Loaded by path, without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_to_a_callable(monkeypatch):
    hooks = load_tracer(monkeypatch).HOOKS
    assert hooks
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []

