"""The benchmark's entry points must keep working with the package.

``perfbench/tracer.py`` times layers by wrapping functions at the attributes
their callers look them up through, and skips a hook whose attribute is
gone. A refactor that renames or stops importing one of them would blank a
layer of the benchmark without any error, so this checks every hook here.
``perfbench/workloads.py`` drives the stages through their public entry
points, so each workload is also run here at its 60-frame floor, plainly
and traced.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# Count-CSV rows parsed in one pass of 60 frames: run_pipeline reads only
# the truth CSV; series_replay reads its input, the smoothed CSV and the
# three eval inputs.
ROWS_READ = {"detector_stream": 60, "series_replay": 300, "dense_crowd": 60}


def load_perfbench(monkeypatch, name):
    # Loaded by path, without writing bytecode next to it.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves_to_a_callable(monkeypatch):
    hooks = load_perfbench(monkeypatch, "tracer").HOOKS
    assert hooks
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in hooks
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert missing == []


@pytest.mark.parametrize("workload", list(ROWS_READ))
def test_workload_pass_verifies_clean(monkeypatch, tmp_path, workload):
    workloads = load_perfbench(monkeypatch, "workloads")
    tracer = load_perfbench(monkeypatch, "tracer")
    inputs, plain, traced = tmp_path / "in", tmp_path / "plain", tmp_path / "traced"
    assert workloads.generate(workload, 7, inputs, 0.0)["frames"] == 60
    expect = dict(np.load(inputs / "expect.npz"))

    workloads.run_pass(workload, inputs, plain)
    assert workloads.verify(workload, plain, expect) == []

    spans = tracer.Tracer()
    spans.run_pass(0, workloads.run_pass, workload, inputs, traced)
    assert workloads.verify(workload, traced, expect) == []
    assert workloads.digest(traced) == workloads.digest(plain)
    assert spans.pass_metrics(0)["counting.csv_rows_read"] == ROWS_READ[workload]
