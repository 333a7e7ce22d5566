"""Abnormal-count segment extraction and cut-list emission.

Finds maximal runs where the (smoothed) count strictly exceeds the
abnormal threshold, merges runs separated by short below-threshold gaps,
drops runs that are too short, and renders the result both as a JSON
report and as an FFmpeg command sheet for external re-encoding.
"""

from __future__ import annotations

import json
import shlex
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from .counting import CountSeries, _total


@dataclass(frozen=True)
class Segment:
    """Contiguous frame range (inclusive) with its timing and count summary.

    ``end_ms`` is end-exclusive time: (end_frame + 1) / fps, so adjacent
    segments tile without overlap. ``mean_count`` is the float nearest the
    exact mean, so it is checked against the float nearest ``peak_count``:
    above 2**53 the peak itself may have no float.
    """

    start_frame: int
    end_frame: int
    start_ms: int
    end_ms: int
    peak_count: int
    mean_count: float

    def __post_init__(self):
        if self.start_frame > self.end_frame:
            raise ValueError(f"start_frame {self.start_frame} > end_frame {self.end_frame}")
        if self.start_ms > self.end_ms:
            raise ValueError(f"start_ms {self.start_ms} > end_ms {self.end_ms}")
        if float(self.peak_count) < self.mean_count:
            raise ValueError(
                f"peak_count {self.peak_count} < mean_count {self.mean_count}"
            )


@dataclass(frozen=True)
class SegmentPolicy:
    """min_duration/merge_gap default to the smoothing window radius when None."""

    abnormal_threshold: int
    min_duration_frames: int | None = None
    merge_gap_frames: int | None = None

    def __post_init__(self):
        if self.abnormal_threshold < 1:
            raise ValueError(
                f"abnormal_threshold must be >= 1, got {self.abnormal_threshold}"
            )
        for name in ("min_duration_frames", "merge_gap_frames"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")

    def resolved(self, window_half_length: int) -> "SegmentPolicy":
        return SegmentPolicy(
            abnormal_threshold=self.abnormal_threshold,
            min_duration_frames=(
                self.min_duration_frames
                if self.min_duration_frames is not None
                else window_half_length
            ),
            merge_gap_frames=(
                self.merge_gap_frames
                if self.merge_gap_frames is not None
                else window_half_length
            ),
        )


def frame_to_ms(frame: int, fps: Fraction) -> int:
    """Frame start time in integer milliseconds, ties rounded up (deterministic)."""
    return int(Fraction(frame) * 1000 / fps + Fraction(1, 2))


def extract_segments(series: CountSeries, policy: SegmentPolicy) -> list[Segment]:
    """Maximal above-threshold runs, gap-merged and duration-filtered."""
    if len(series) == 0:
        raise ValueError("empty series")
    policy = policy.resolved(0)

    # a run starts where the padded flags rise and ends before they fall
    above = np.concatenate(([False], series.counts > policy.abnormal_threshold, [False]))
    edges = np.flatnonzero(np.diff(above.view(np.int8)))
    runs = (edges.reshape(-1, 2) - [0, 1]).tolist()

    merged: list[list[int]] = []
    for run in runs:
        if merged and run[0] - merged[-1][1] - 1 <= policy.merge_gap_frames:
            merged[-1][1] = run[1]
        else:
            merged.append(run)

    segments = []
    for s, e in merged:
        if e - s + 1 < policy.min_duration_frames:
            continue
        window = series.counts[s : e + 1]
        # int / int is the float nearest the exact mean; window.mean() sums
        # in floats, which round once the sum passes 2**53
        segments.append(
            Segment(
                start_frame=s,
                end_frame=e,
                start_ms=frame_to_ms(s, series.fps),
                end_ms=frame_to_ms(e + 1, series.fps),
                peak_count=int(window.max()),
                mean_count=_total(window) / len(window),
            )
        )
    return segments


def emit_cutlist(segments, source_path: str) -> tuple[str, str]:
    """Render (JSON segment report, FFmpeg trim command sheet).

    Trim windows use millisecond-precision seconds; the end bound is
    end-exclusive, matching Segment.end_ms. The input and output names are
    shell-quoted, so any ``source_path`` stays one word of each command.
    """
    ordered = list(segments)
    for prev, curr in zip(ordered, ordered[1:]):
        if curr.start_frame <= prev.end_frame:
            raise ValueError(
                f"overlapping segments: {prev.start_frame}..{prev.end_frame} and "
                f"{curr.start_frame}..{curr.end_frame}"
            )
    report = json.dumps([asdict(seg) for seg in ordered], indent=2) + "\n"
    source = shlex.quote(source_path)
    lines = []
    for k, seg in enumerate(ordered):
        start_s = seg.start_ms / 1000.0
        end_s = seg.end_ms / 1000.0
        lines.append(
            f"ffmpeg -i {source} -ss {start_s:.3f} -to {end_s:.3f} "
            f"-c copy {shlex.quote(f'{source_path}_seg{k}.mp4')}"
        )
    sheet = "".join(line + "\n" for line in lines)
    return report, sheet
