"""Count-precision evaluation and synthetic jitter generation.

The headline metric is a count-level average precision: the ratio of
frame-count-weighted detected objects to true objects. Grouped by distinct
count value it reads sum_c m1(c)*c / sum_c m2(c)*c where m1(c)/m2(c) are
the numbers of detected/true frames whose count is c; algebraically that
equals total detected objects over total true objects, which is how it is
computed; criterion 5 of the acceptance tests and ``TestCounterOracle``
check the identity. The metric can exceed 1 under over-detection, so a
stricter matched-frame variant is exposed alongside it for diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .counting import CountSeries

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
    """Every figure of the eval report: the raw and the smoothed series
    scored against one ground-truth series, as ``evaluate`` computes them."""

    ap_d_raw: float
    ap_d_smoothed: float
    matched_ap_d_raw: float
    matched_ap_d_smoothed: float
    per_count_table: dict[int, tuple[int, int]]
    total_detected_objects: int
    total_true_objects: int


def _as_counts(series) -> np.ndarray:
    if isinstance(series, CountSeries):
        return series.counts
    return np.asarray(series, dtype=np.int64)


def ap_d(detected, truth) -> float:
    """Count-level average precision of ``detected`` against ``truth``:
    total detected objects over total true objects, which equals the
    paper's grouped form (criterion 5 of the acceptance tests checks it)."""
    tru = _as_counts(truth)
    det = _aligned(detected, tru)
    return _total(det) / _true_total(tru)


def matched_ap_d(detected, truth) -> float:
    """Strict variant: only frames whose detected count equals the true
    count score; an exact-total ratio like ``ap_d``."""
    tru = _as_counts(truth)
    det = _aligned(detected, tru)
    return _total(det[det == tru]) / _true_total(tru)


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


def _true_total(tru: np.ndarray) -> int:
    """``_total`` of a truth series; ValueError if it is zero."""
    total = _total(tru)
    if total == 0:
        raise ValueError("truth series has no objects (zero denominator)")
    return total


def _frames_by_count(counts: np.ndarray) -> dict[int, int]:
    """count value -> number of frames at that count, as Python ints."""
    values, frames = np.unique(counts, return_counts=True)
    return dict(zip(values.tolist(), frames.tolist()))


def evaluate(truth, raw, smoothed) -> EvalReport:
    """Every figure of the eval report: ap_d and matched_ap_d of the raw
    and the smoothed series against ``truth``, the smoothed series'
    per-count table (count value -> (smoothed frames, true frames) at that
    count) and the object totals.

    The truth is reduced once, to one exact total and one frames-by-count
    table. The errors are those of ``ap_d(raw, truth)`` and then
    ``ap_d(smoothed, truth)``, in that order.
    """
    tru = _as_counts(truth)
    raw_counts = _aligned(raw, tru)
    tru_total = _true_total(tru)
    det = _aligned(smoothed, tru)
    det_total = _total(det)
    det_frames, tru_frames = _frames_by_count(det), _frames_by_count(tru)
    return EvalReport(
        ap_d_raw=_total(raw_counts) / tru_total,
        ap_d_smoothed=det_total / tru_total,
        matched_ap_d_raw=_total(raw_counts[raw_counts == tru]) / tru_total,
        matched_ap_d_smoothed=_total(det[det == tru]) / tru_total,
        per_count_table={
            c: (det_frames.get(c, 0), tru_frames.get(c, 0))
            for c in sorted(det_frames.keys() | tru_frames.keys())
        },
        total_detected_objects=det_total,
        total_true_objects=tru_total,
    )


def render_table(report: EvalReport) -> str:
    """Plain-text table of the raw and the smoothed series' ap_d."""
    rows = [
        ("method", "ap_d"),
        ("raw", f"{report.ap_d_raw:.4f}"),
        ("smoothed", f"{report.ap_d_smoothed:.4f}"),
    ]
    return "".join(f"{method:<8}  {cell:>7}\n" for method, cell in rows)


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
