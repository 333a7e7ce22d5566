"""Count-precision evaluation and synthetic jitter generation.

The headline metric is a count-level average precision: the ratio of
frame-count-weighted detected objects to true objects. Grouped by distinct
count value it reads sum_c m1(c)*c / sum_c m2(c)*c where m1(c)/m2(c) are
the numbers of detected/true frames whose count is c; algebraically that
equals total detected objects over total true objects, and both forms are
computed and cross-checked on every call. The metric can exceed 1 under
over-detection, so a stricter matched-frame variant is exposed alongside
it for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import CountSeries

_CROSSCHECK_TOL = 1e-12
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class JitterSpec:
    """Synthetic detection-instability model: short random count spikes."""

    spike_probability: float
    max_spike_magnitude: int
    max_spike_run: int
    rng_seed: int

    def __post_init__(self):
        if not 0.0 <= self.spike_probability <= 1.0:
            raise ValueError(f"spike_probability must be in [0, 1], got {self.spike_probability}")
        if self.max_spike_magnitude < 1:
            raise ValueError(f"max_spike_magnitude must be >= 1, got {self.max_spike_magnitude}")
        if self.max_spike_run < 1:
            raise ValueError(f"max_spike_run must be >= 1, got {self.max_spike_run}")
        for name in ("max_spike_magnitude", "max_spike_run"):
            if getattr(self, name) > _INT64_MAX:
                raise ValueError(f"{name} {getattr(self, name)} exceeds int64")
        if self.rng_seed < 0:
            raise ValueError(f"rng_seed must be >= 0, got {self.rng_seed}")


@dataclass(frozen=True)
class EvalReport:
    """Raw-vs-smoothed comparison against one ground-truth series."""

    ap_d_raw: float
    ap_d_smoothed: float
    per_count_table: dict[int, tuple[int, int]]
    total_detected_objects: int
    total_true_objects: int


def _as_counts(series) -> np.ndarray:
    if isinstance(series, CountSeries):
        return series.counts
    return np.asarray(series, dtype=np.int64)


def ap_d(detected, truth) -> float:
    """Count-level average precision of ``detected`` against ``truth``.

    Both the grouped-by-value form and the plain totals ratio are computed;
    a disagreement beyond 1e-12 means a bug and raises.
    """
    tru = _as_counts(truth)
    det = _aligned(detected, tru)
    return _checked_ap_d(_reduced(det), _reduced(tru))


def matched_ap_d(detected, truth) -> float:
    """Strict variant: only frames whose detected count equals the true count score."""
    tru = _as_counts(truth)
    det = _aligned(detected, tru)
    total_true = _total(tru)
    if total_true == 0:
        raise ValueError("truth series has no objects (zero denominator)")
    matched = _total(det[det == tru])
    return matched / total_true


def _aligned(detected, tru: np.ndarray) -> np.ndarray:
    """The counts of ``detected``; ValueError unless as many as ``tru``."""
    det = _as_counts(detected)
    if len(det) != len(tru):
        raise ValueError(f"length mismatch: detected {len(det)}, truth {len(tru)}")
    return det


def _total(counts: np.ndarray) -> int:
    """The exact sum of int64 counts, which ``counts.sum()`` wraps past
    2**63 - 1: the int64 sums of the high and of the low 32 bits of fewer
    than 2**31 counts cannot overflow."""
    return (int((counts >> 32).sum()) << 32) + int((counts & 0xFFFFFFFF).sum())


def _frames_by_count(counts: np.ndarray) -> dict[int, int]:
    """count value -> number of frames at that count, as Python ints."""
    values, frames = np.unique(counts, return_counts=True)
    return dict(zip(values.tolist(), frames.tolist()))


def _reduced(counts: np.ndarray) -> tuple[dict[int, int], int]:
    """(frames by count value, exact total) of a series: the two independent
    reductions the metric is checked by."""
    return _frames_by_count(counts), _total(counts)


def _checked_ap_d(detected, truth) -> float:
    """ap_d of the ``_reduced`` detected and true series: the ratio of
    their totals, checked against the ratio of their grouped totals."""
    (det_frames, det_total), (tru_frames, tru_total) = detected, truth
    if tru_total == 0:
        raise ValueError("truth series has no objects (zero denominator)")
    grouped = _grouped_total(det_frames) / _grouped_total(tru_frames)
    totals = det_total / tru_total
    if abs(grouped - totals) > _CROSSCHECK_TOL:
        raise AssertionError(
            f"metric self-check failed: grouped {grouped!r} vs totals {totals!r}"
        )
    return totals


def _grouped_total(frames: dict[int, int]) -> int:
    """sum_c c * (frames at count c), exact in Python ints."""
    return sum(c * m for c, m in frames.items())


def per_count_table(detected, truth) -> dict[int, tuple[int, int]]:
    """count value -> (detected frames at that count, true frames at that count)."""
    return _merged(_frames_by_count(_as_counts(detected)), _frames_by_count(_as_counts(truth)))


def _merged(det: dict[int, int], tru: dict[int, int]) -> dict[int, tuple[int, int]]:
    """The per-count table of two series' frames by count value."""
    return {c: (det.get(c, 0), tru.get(c, 0)) for c in sorted(det.keys() | tru.keys())}


def evaluate(truth, raw, smoothed) -> EvalReport:
    """ap_d of the raw and the smoothed series against ``truth``, the
    smoothed series' per-count table and the object totals.

    Each series is reduced once, to its frames by count value and its
    exact total (``_reduced``), and every figure is read off those; the
    errors are ap_d's, in the order ``ap_d(raw, truth)`` and then
    ``ap_d(smoothed, truth)`` raise them.
    """
    tru_counts = _as_counts(truth)
    raw_counts = _aligned(raw, tru_counts)
    tru_frames, tru_total = tru = _reduced(tru_counts)
    ap_d_raw = _checked_ap_d(_reduced(raw_counts), tru)
    det_frames, det_total = det = _reduced(_aligned(smoothed, tru_counts))
    return EvalReport(
        ap_d_raw=ap_d_raw,
        ap_d_smoothed=_checked_ap_d(det, tru),
        per_count_table=_merged(det_frames, tru_frames),
        total_detected_objects=det_total,
        total_true_objects=tru_total,
    )


def render_table(results: dict[str, dict[str, float]]) -> str:
    """Plain-text table, methods as rows and scenes as columns."""
    scenes: list[str] = []
    for per_scene in results.values():
        for scene in per_scene:
            if scene not in scenes:
                scenes.append(scene)
    method_width = max([len("method")] + [len(m) for m in results])
    widths = [max(len(s), 7) for s in scenes]
    lines = [
        "  ".join(
            ["method".ljust(method_width)]
            + [s.rjust(w) for s, w in zip(scenes, widths)]
        )
    ]
    for method, per_scene in results.items():
        cells = []
        for scene, w in zip(scenes, widths):
            value = per_scene.get(scene)
            cells.append(("-" if value is None else f"{value:.4f}").rjust(w))
        lines.append("  ".join([method.ljust(method_width)] + cells))
    return "".join(line + "\n" for line in lines)


def generate_synthetic(
    truth_profile, jitter: JitterSpec, fps=Fraction(30)
) -> tuple[CountSeries, CountSeries]:
    """Build a piecewise-constant truth series plus a jittered copy.

    ``truth_profile`` is a sequence of (run_length, count) pairs. Each frame
    independently starts a spike with the given probability; a spike adds a
    uniform +-{1..max_spike_magnitude} offset over a uniform 1..max_spike_run
    frame run (clamped at the series end), and the result clamps at zero.
    Deterministic for a fixed seed. Spikes may overlap, so a profile whose
    largest count plus the most a frame's overlapping spikes can add
    exceeds int64 raises ValueError.
    """
    pieces = [(int(r), int(c)) for r, c in truth_profile]
    if not pieces or sum(r for r, _ in pieces) < 1:
        raise ValueError("truth profile must cover at least one frame")
    for run, count in pieces:
        if run < 1:
            raise ValueError(f"run length must be >= 1, got {run}")
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count > _INT64_MAX:
            raise ValueError(f"count {count} exceeds int64")
    truth = np.concatenate([np.full(run, count, dtype=np.int64) for run, count in pieces])
    n = len(truth)
    # At most min(max_spike_run, n) spikes cover any one frame.
    stacked = min(jitter.max_spike_run, n) if jitter.spike_probability > 0 else 0
    top = max(count for _, count in pieces)
    if top + stacked * jitter.max_spike_magnitude > _INT64_MAX:
        raise ValueError(
            f"count {top} plus {stacked} overlapping spike(s) of up to "
            f"{jitter.max_spike_magnitude} exceeds int64"
        )
    rng = np.random.default_rng(jitter.rng_seed)
    jittered = truth.copy()
    for i in range(n):
        if rng.random() >= jitter.spike_probability:
            continue
        magnitude = int(rng.integers(1, jitter.max_spike_magnitude + 1))
        sign = 1 if rng.integers(0, 2) == 1 else -1
        run = int(rng.integers(1, jitter.max_spike_run + 1))
        jittered[i : i + run] += sign * magnitude
    np.maximum(jittered, 0, out=jittered)
    return (
        CountSeries.from_counts(truth, fps),
        CountSeries.from_counts(jittered, fps),
    )
