"""The three benchmark workloads: seeded input generators, one pass each, checks.

Every workload is a fixed-size input made from one seed. ``generate`` writes
the program's inputs plus ``expect.npz`` (what the generator planted) into a
directory; ``run_pass`` runs the pipeline once on those inputs through the
package's public entry points; ``verify`` checks one pass's artifacts against
the planted values and returns a list of problems (empty when correct).

Why these three (each stresses a different layer):

* ``detector_stream`` -- ``run_pipeline --truth`` on a JSONL detections file
  with ~12 boxes per frame and low jitter. Work sits in ingest (parsing) and
  counting; the smoothing kernel barely runs.
* ``series_replay`` -- ``stage_smooth`` -> ``stage_segment`` -> ``stage_eval``
  on count CSVs with heavy jitter. No ingest at all: the work is CSV
  read/write (one write, five reads per pass) and the smoothing kernel.
* ``dense_crowd`` -- ``run_pipeline --gray --calibration --truth`` on a
  640x360 gray container where about half the frames exceed the count
  ceiling. Density estimation dominates; the background scan covers every
  frame but only over-ceiling frames are predicted.
"""

from __future__ import annotations

import hashlib
import json
import struct
from fractions import Fraction
from pathlib import Path

import numpy as np

from crowdgate import cli
from crowdgate.counting import CountSeries, write_count_series
from crowdgate.evaluation import JitterSpec, generate_synthetic

FPS = 30
CEILING = 25  # PipelineConfig default; frames strictly above go to density
WINDOW = FPS // 3  # smoothing window radius at the default divisor

# Frames per workload at scale 1; each pass takes ~2-4 s on one core.
SIZES = {"detector_stream": 36_000, "series_replay": 150_000, "dense_crowd": 360}
THRESHOLDS = {"detector_stream": 10, "series_replay": 14, "dense_crowd": 10}
NAMES = tuple(SIZES)

# A planted abnormal run [s, e] counts as covered when one segment spans
# [s + slack, e]. The in-place prefer-last pass accepts a step only once
# WINDOW + 1 clean frames follow it, so the smoothed series lags steps up
# (and holds the abnormal level past steps down) by a jitter-dependent
# amount. Slacks are several times the largest lag seen over 2,360 steps
# of each workload's jitter (73 frames at p=0.05, 406 at p=0.2; none on
# dense_crowd, whose dense levels are exact).
COVER_SLACK = {"detector_stream": 20 * WINDOW, "series_replay": 90 * WINDOW, "dense_crowd": 2 * WINDOW}

GRAY_W, GRAY_H = 640, 360
CELL_W, CELL_H = 40, 90  # one person per cell, so blobs never touch
BLOB_W, BLOB_H, BLOB_Y = 16, 40, 25


def _runs_above(values: np.ndarray, threshold: int) -> np.ndarray:
    """(start, end) inclusive index pairs of maximal runs with value > threshold."""
    above = np.concatenate(([False], values > threshold, [False])).astype(np.int8)
    edges = np.flatnonzero(np.diff(above))
    return edges.reshape(-1, 2) - np.array([0, 1])


def _profile(rng, n, low, high, run_lo, run_hi) -> list[tuple[int, int]]:
    """(frames, count) pieces of an n-frame truth alternating normal and abnormal levels.

    Each normal run is followed by an abnormal run of the same length, so
    about half the frames are abnormal whatever the seed, and input sizes
    (hence time and memory per pass) hardly vary between seeds.
    """
    pieces, total = [], 0
    while total < n:
        run = int(rng.integers(run_lo, run_hi + 1))
        for levels in (low, high):
            frames = min(run, n - total)
            if frames > 0:
                pieces.append((frames, int(rng.integers(*levels))))
                total += frames
    return pieces


def _expand(pieces) -> np.ndarray:
    return np.concatenate([np.full(r, c, dtype=np.int64) for r, c in pieces])


def _jitter(rng, truth, p, magnitude, max_run, lo, hi) -> np.ndarray:
    """Detector instability: short +-1..magnitude spikes, clipped to [lo, hi]."""
    out = truth.copy()
    for i in np.flatnonzero(rng.random(len(truth)) < p):
        run = int(rng.integers(1, max_run + 1))
        out[i : i + run] += int(rng.choice([-1, 1])) * int(rng.integers(1, magnitude + 1))
    return np.clip(out, lo, hi)


def _detections_jsonl(rng, qualifying: np.ndarray, source: str) -> bytes:
    """JSONL detections: ``qualifying`` person boxes per frame plus 0-3 distractors.

    Distractors are either person boxes below min_score (0.5) or boxes of
    another class, so they must not be counted.
    """
    n = len(qualifying)
    extra = rng.integers(0, 4, n)
    total = int(qualifying.sum() + extra.sum())
    xs = np.round(rng.uniform(0, 1900, total), 1)
    ys = np.round(rng.uniform(0, 1000, total), 1)
    ws = np.round(rng.uniform(10, 80, total), 1)
    hs = np.round(rng.uniform(20, 200, total), 1)
    good = np.round(rng.uniform(0.5, 1.0, total), 2)
    low = np.round(rng.uniform(0.05, 0.49, total), 2)
    other_class = rng.random(total) < 0.5
    lines = [json.dumps({"fps": FPS, "source_id": source}, separators=(",", ":"))]
    k = 0
    for i in range(n):
        boxes = []
        for j in range(int(qualifying[i] + extra[i])):
            if j < qualifying[i]:
                score, cls = good[k], 0
            elif other_class[k]:
                score, cls = good[k], 1 + k % 3
            else:
                score, cls = low[k], 0
            boxes.append(
                f'{{"x":{xs[k]},"y":{ys[k]},"w":{ws[k]},"h":{hs[k]},'
                f'"score":{score},"class_id":{cls}}}'
            )
            k += 1
        lines.append(
            f'{{"frame_index":{i},"timestamp_ms":{round(i * 1000 / FPS)},'
            f'"boxes":[{",".join(boxes)}]}}'
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def _csv(counts: np.ndarray, comment: str) -> bytes:
    return write_count_series(CountSeries.from_counts(counts, FPS), comments=[comment])


def _gray_container(rng, truth: np.ndarray) -> bytes:
    """CGRY frames: a static textured scene plus ``truth[i]`` striped moving blobs.

    Each person owns one 40x90 cell and walks 1 px per frame inside it. The
    blob's vertical stripes alternate between two intensities with period 2,
    so every blob pixel changes on every frame: the motion gate never blends
    a person into the background, and the foreground equals the blobs. The
    truth starts with an empty scene, so the first frame is pure background.
    """
    cells = [(r, c) for r in range(GRAY_H // CELL_H) for c in range(GRAY_W // CELL_W)]
    order = rng.permutation(len(cells))
    start_x = rng.integers(4, CELL_W - BLOB_W - 4, len(cells))
    scene = rng.integers(20, 91, (GRAY_H, GRAY_W), dtype=np.uint8)
    stripes = np.where(np.arange(BLOB_W) % 2 == 0, 160, 255).astype(np.uint8)
    span = CELL_W - BLOB_W - 8  # walking range of a blob's left edge
    out = bytearray(struct.pack("<4sIII", b"CGRY", GRAY_W, GRAY_H, len(truth)))
    for i, count in enumerate(truth):
        frame = scene.copy()
        for p in order[:count]:
            row, col = cells[p]
            step = (start_x[p] - 4 + i) % (2 * span)
            x = col * CELL_W + 4 + (step if step < span else 2 * span - step)
            y = row * CELL_H + BLOB_Y
            frame[y : y + BLOB_H, x : x + BLOB_W] = stripes
        out += frame.tobytes()
    return bytes(out)


def _calibration_csv(rng) -> bytes:
    """Labelled (area, edge, count) samples for the density regressor.

    A blob of BLOB_W x BLOB_H has that many foreground pixels and
    2w + 2h - 4 boundary pixels; the labels carry a little measurement
    noise, as hand-labelled calibration frames would.
    """
    area, edge = BLOB_W * BLOB_H, 2 * BLOB_W + 2 * BLOB_H - 4
    rows = ["frame_index,area,edge,true_count"]
    for k, n in enumerate(rng.integers(1, 61, 40)):
        a = int(n * area + rng.normal(0, 0.02 * area * np.sqrt(n)))
        e = int(n * edge + rng.normal(0, 0.02 * edge * np.sqrt(n)))
        rows.append(f"{k},{a},{min(a, e)},{n}")
    return ("\n".join(rows) + "\n").encode("utf-8")


def generate(name: str, seed: int, workdir: Path, scale: float = 1.0) -> dict:
    """Write the inputs of workload ``name`` into ``workdir``; return their sizes."""
    rng = np.random.default_rng([seed, NAMES.index(name)])
    n = max(int(SIZES[name] * scale), 60)
    workdir.mkdir(parents=True, exist_ok=True)
    inputs: dict[str, bytes] = {}
    expect: dict[str, np.ndarray] = {}
    if name == "detector_stream":
        truth = _expand(_profile(rng, n, (2, 7), (14, 20), 240, 1200))
        raw = _jitter(rng, truth, 0.05, 3, 2, 0, CEILING)
        inputs["detections.jsonl"] = _detections_jsonl(rng, raw, "bench-detector")
        inputs["truth.csv"] = _csv(truth, f"seed={seed}")
        expect["raw"] = raw
    elif name == "series_replay":
        truth_s, jittered_s = generate_synthetic(
            _profile(rng, n, (3, 7), (22, 27), 1200, 3000),
            JitterSpec(0.2, 3, 3, seed),
            fps=Fraction(FPS),
        )
        truth = truth_s.counts
        inputs["jittered.csv"] = _csv(jittered_s.counts, f"seed={seed}")
        inputs["truth.csv"] = _csv(truth, f"seed={seed}")
    else:
        pieces = _profile(rng, n, (2, 7), (32, 46), 20, 60)
        truth = _expand([(pieces[0][0], 0)] + pieces[1:])
        dense = truth > CEILING
        raw = np.where(dense, rng.integers(CEILING + 1, CEILING + 6, n),
                       _jitter(rng, truth, 0.05, 2, 2, 0, THRESHOLDS[name] - 1))
        inputs["detections.jsonl"] = _detections_jsonl(rng, raw, "bench-dense")
        inputs["gray.cgry"] = _gray_container(rng, truth)
        inputs["calibration.csv"] = _calibration_csv(rng)
        inputs["truth.csv"] = _csv(truth, f"seed={seed}")
        expect["raw"] = raw
        expect["dense"] = np.flatnonzero(dense)
    for fname, data in inputs.items():
        (workdir / fname).write_bytes(data)
    expect["truth"] = truth
    expect["runs"] = _runs_above(truth, THRESHOLDS[name])
    np.savez(workdir / "expect.npz", **expect)
    detections = inputs.get("detections.jsonl", b"")
    return {
        "frames": int(len(truth)),
        "boxes": detections.count(b'"x":'),
        "input_bytes": sum(len(d) for d in inputs.values()),
    }


def config(name: str) -> cli.PipelineConfig:
    return cli.PipelineConfig(abnormal_threshold=THRESHOLDS[name])


def run_pass(name: str, workdir: Path, out: Path) -> None:
    """One full pass of workload ``name``; artifacts land in ``out``.

    ``cli`` attributes are looked up at call time, so a tracer that wraps
    them sees these calls.
    """
    if name == "series_replay":
        raw = (workdir / "jittered.csv").read_bytes()
        conf = config(name)
        _, smoothed_csv, _ = cli.stage_smooth(raw, conf)
        out.mkdir(parents=True, exist_ok=True)
        (out / "smoothed_counts.csv").write_bytes(smoothed_csv)
        _, report, cutlist = cli.stage_segment(smoothed_csv, conf, source="bench-series")
        (out / "segments.json").write_bytes(report)
        (out / "cutlist.txt").write_bytes(cutlist)
        truth = (workdir / "truth.csv").read_bytes()
        _, eval_bytes, table = cli.stage_eval(truth, raw, smoothed_csv)
        (out / "eval_report.json").write_bytes(eval_bytes)
        (out / "eval_report.txt").write_text(table, "utf-8")
        return
    extra = {}
    if name == "dense_crowd":
        extra = {
            "gray_frames_path": workdir / "gray.cgry",
            "calibration_path": workdir / "calibration.csv",
        }
    cli.run_pipeline(
        workdir / "detections.jsonl", config(name), out,
        truth_path=workdir / "truth.csv", **extra,
    )


def digest(out: Path) -> dict[str, str]:
    """SHA-256 of every artifact in ``out``, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out.iterdir())
    }


def _read_csv(path: Path) -> tuple[np.ndarray, np.ndarray]:
    """(counts, provenance) of a count-series CSV, parsed independently of the package."""
    lines = [ln for ln in path.read_text("utf-8").splitlines() if ln and ln[0] != "#"]
    rows = [ln.split(",") for ln in lines[1:]]  # no field of this format is quoted
    if [int(r[0]) for r in rows] != list(range(len(rows))):
        raise ValueError(f"{path.name}: frame_index is not 0..n-1")
    return np.array([int(r[1]) for r in rows], dtype=np.int64), np.array([r[2] for r in rows])


def verify(name: str, out: Path, expect) -> list[str]:
    """Problems with one pass's artifacts; an empty list means the pass is correct."""
    problems = []
    truth = expect["truth"]
    if name != "series_replay":
        counts, prov = _read_csv(out / "raw_counts.csv")
        dense = expect["dense"] if "dense" in expect else np.zeros(0, dtype=np.int64)
        if len(counts) != len(truth):
            problems.append(f"raw_counts has {len(counts)} frames, expected {len(truth)}")
        else:
            det = prov == "Detector"
            if not np.array_equal(counts[det], expect["raw"][det]):
                bad = np.flatnonzero(det & (counts != expect["raw"]))
                problems.append(f"raw counts differ from planted at frames {bad[:5].tolist()}")
            routed = np.flatnonzero(~det)
            if not (np.array_equal(routed, dense) and np.all(prov[routed] == "Density")):
                problems.append(
                    f"{len(routed)} non-Detector frames, planted {len(dense)} over-ceiling frames"
                )
    smoothed, _ = _read_csv(out / "smoothed_counts.csv")
    if len(smoothed) != len(truth):
        problems.append(f"smoothed_counts has {len(smoothed)} frames, expected {len(truth)}")
    segments = json.loads((out / "segments.json").read_text("utf-8"))
    spans = [(s["start_frame"], s["end_frame"]) for s in segments]
    for s, e in expect["runs"]:
        lo = s + COVER_SLACK[name]
        if lo <= e and not any(a <= lo and e <= b for a, b in spans):
            problems.append(f"planted abnormal run {s}..{e} not covered by a segment")
    for a, b in spans:
        if not any(a <= e and s <= b for s, e in expect["runs"]):
            problems.append(f"segment {a}..{b} overlaps no planted abnormal run")
    report = json.loads((out / "eval_report.json").read_text("utf-8"))
    if report["total_true_objects"] != int(truth.sum()):
        problems.append(
            f"eval total_true_objects {report['total_true_objects']} != planted {int(truth.sum())}"
        )
    matched = int(smoothed[smoothed == truth].sum()) / int(truth.sum()) if len(smoothed) == len(truth) else -1.0
    if report["matched_ap_d"]["smoothed"] != matched:
        problems.append(
            f"eval matched_ap_d {report['matched_ap_d']['smoothed']} != recomputed {matched}"
        )
    return problems


def matched_ap_d(out: Path) -> float:
    """The smoothed series' matched-frame AP from the pass's eval report."""
    report = json.loads((out / "eval_report.json").read_text("utf-8"))
    return float(report["matched_ap_d"]["smoothed"])
