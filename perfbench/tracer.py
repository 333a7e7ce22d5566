"""Per-layer spans from outside the package.

The tracer replaces public functions with timing wrappers at the attributes
their callers look them up through (``crowdgate.cli`` for the stage glue,
``crowdgate.density`` for the per-frame density steps, ``crowdgate.kernels``
for the smoothing kernel), so the library source stays untouched. Spans are
kept in memory and written out once, at the end of the run.

A span's self time is its duration minus its direct children's durations; a
layer's time is the sum of its spans' self times, so the layers of one pass
add up to the pass's root span exactly.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

LAYERS = ("ingest", "counting", "density", "smoothing", "segmenting", "evaluation", "cli")


def _boxes(args, result):
    frames, _ = result
    return {"ingest.boxes": sum(len(f.boxes) for f in frames), "ingest.input_bytes": len(args[0])}


def _kernel(args, result):
    # The in-place pass visits frame x when its raw value differs from the
    # corrected value of frame x - 1 (the last accepted value).
    raw, (corrected, replaced) = np.asarray(args[0]), result
    return {
        "smoothing.raw_changes": int(np.count_nonzero(raw[1:] != corrected[:-1])),
        "smoothing.frames_replaced": int(replaced.sum()),
    }


# (module, attribute, layer, counter(args, result) -> {count name: amount})
HOOKS = [
    ("crowdgate.cli", "parse_detections", "ingest", _boxes),
    ("crowdgate.cli", "load_gray_frames", "ingest", None),
    ("crowdgate.cli", "count_series", "counting", None),
    ("crowdgate.cli", "frames_needing_density", "counting",
     lambda a, r: {"counting.routed_frames": len(r)}),
    ("crowdgate.cli", "route_counts", "counting", None),
    ("crowdgate.cli", "read_count_series", "counting",
     lambda a, r: {"counting.csv_rows_read": len(r)}),
    ("crowdgate.cli", "write_count_series", "counting", None),
    ("crowdgate.cli", "estimate_density_counts", "density",
     lambda a, r: {"density.frames_scanned": len(a[0]), "density.frames_predicted": len(r)}),
    ("crowdgate.cli", "fit_regressor", "density", None),
    ("crowdgate.cli", "read_calibration_csv", "density", None),
    ("crowdgate.cli", "regressor_to_json", "density", None),
    ("crowdgate.cli", "regressor_from_json", "density", None),
    ("crowdgate.density", "update_background", "density", None),
    ("crowdgate.density", "extract_foreground", "density", None),
    ("crowdgate.density", "compute_features", "density", None),
    ("crowdgate.density", "predict_count", "density", None),
    ("crowdgate.cli", "smooth_series", "smoothing", None),
    ("crowdgate.kernels", "smooth_counts", "smoothing", _kernel),
    ("crowdgate.cli", "extract_segments", "segmenting",
     lambda a, r: {"segmenting.segments": len(r)}),
    ("crowdgate.cli", "emit_cutlist", "segmenting", None),
    ("crowdgate.cli", "evaluate", "evaluation", None),
    ("crowdgate.cli", "matched_ap_d", "evaluation", None),
    ("crowdgate.cli", "render_table", "evaluation", None),
    ("crowdgate.cli", "stage_count", "cli", None),
    ("crowdgate.cli", "stage_smooth", "cli", None),
    ("crowdgate.cli", "stage_segment", "cli", None),
    ("crowdgate.cli", "stage_eval", "cli", None),
    ("crowdgate.cli", "run_pipeline", "cli", None),
]

# Per-layer time metrics: the summed durations of the named spans.
SPAN_TIMES = {
    "ingest.parse_s": ("parse_detections",),
    "ingest.gray_load_s": ("load_gray_frames",),
    "counting.count_s": ("count_series", "frames_needing_density", "route_counts"),
    "counting.csv_read_s": ("read_count_series",),
    "counting.csv_write_s": ("write_count_series",),
    "smoothing.stage_s": ("smooth_series",),
    "smoothing.kernel_s": ("smooth_counts",),
    "density.estimate_s": ("estimate_density_counts",),
    "density.bg_update_s": ("update_background",),
    "density.foreground_s": ("extract_foreground",),
    "density.features_s": ("compute_features",),
    "segmenting.extract_s": ("extract_segments",),
    "segmenting.emit_s": ("emit_cutlist",),
    "evaluation.eval_s": ("evaluate", "matched_ap_d", "render_table"),
}
COUNTS = (
    "counting.routed_frames", "counting.csv_rows_read", "smoothing.raw_changes",
    "smoothing.frames_replaced", "density.frames_scanned", "density.frames_predicted",
    "segmenting.segments",
)
MIB = 1 << 20


class Tracer:
    """Spans of traced passes; ``install`` wraps the hooks, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [id, parent id, name, layer, start, end, pass]
        self.counts: dict[int, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self._stack: list[int] = []
        self._saved: list[tuple] = []
        self._pass = -1

    def install(self):
        for module_name, attr, layer, counter in HOOKS:
            module = importlib.import_module(module_name)
            original = getattr(module, attr, None)
            if original is None:  # the program no longer routes calls through here
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, attr, layer, counter))

    def uninstall(self):
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _open(self, name, layer) -> list:
        span = [len(self.spans), self._stack[-1] if self._stack else None, name, layer,
                time.perf_counter(), None, self._pass]
        self.spans.append(span)
        self._stack.append(span[0])
        return span

    def _close(self, span):
        span[5] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name, layer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                for key, amount in counter(args, result).items():
                    self.counts[self._pass][key] += amount
            return result

        return traced

    def run_pass(self, pass_no: int, fn, *args):
        """Call ``fn(*args)`` under a root span of layer ``cli``; returns its wall seconds."""
        self._pass = pass_no
        self.install()
        try:
            span = self._open("pass", "cli")
            try:
                fn(*args)
            finally:
                self._close(span)
        finally:
            self.uninstall()
        return span[5] - span[4]

    def pass_metrics(self, pass_no: int) -> dict[str, float]:
        """Per-layer metrics of one traced pass."""
        spans = [s for s in self.spans if s[6] == pass_no]
        duration = {s[0]: s[5] - s[4] for s in spans}
        children = defaultdict(float)
        for s in spans:
            if s[1] is not None:
                children[s[1]] += duration[s[0]]
        layer_self = dict.fromkeys(LAYERS, 0.0)
        by_name = defaultdict(float)
        for s in spans:
            layer_self[s[3]] += duration[s[0]] - children[s[0]]
            by_name[s[2]] += duration[s[0]]
        counts = self.counts[pass_no]
        m = {metric: sum(by_name[n] for n in names) for metric, names in SPAN_TIMES.items()}
        m.update({key: counts[key] for key in COUNTS})
        m.update({f"{layer}.self_s": t for layer, t in layer_self.items()})
        m["ingest.input_mb"] = counts["ingest.input_bytes"] / MIB
        m["ingest.boxes_per_s"] = _ratio(counts["ingest.boxes"], m["ingest.parse_s"])
        m["smoothing.kernel_share"] = _ratio(m["smoothing.kernel_s"], m["smoothing.stage_s"])
        m["density.predict_yield"] = _ratio(
            m["density.frames_predicted"], m["density.frames_scanned"])
        m["trace.pass_s"] = next(duration[s[0]] for s in spans if s[1] is None)
        return m

    def write(self, path: Path):
        keys = ("id", "parent", "name", "layer", "start", "end", "pass")
        path.write_text(json.dumps([dict(zip(keys, s)) for s in self.spans]) + "\n", "utf-8")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def medians(per_pass: list[dict[str, float]]) -> dict[str, float]:
    return {k: statistics.median(m[k] for m in per_pass) for k in per_pass[0]}
