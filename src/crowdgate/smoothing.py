"""Detection-jitter correction for count series.

A frame whose count differs from the last accepted count is a change
point; its value is replaced by the dominant (most frequent) value of the
surrounding window. The window radius defaults to one third of the frame
rate, and the pass works in place so that later windows see earlier
corrections — this is what makes short multi-frame spikes collapse while
genuine steps (runs longer than the window radius) survive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction

from . import kernels
from .counting import PROV_SMOOTHED, CountSeries


class TieBreak(Enum):
    PREFER_LAST_VALUE = "prefer-last-value"
    PREFER_SMALLEST = "prefer-smallest"


@dataclass(frozen=True)
class SmoothingParams:
    window_half_length: int
    divisor: int = 3
    tie_break: TieBreak = TieBreak.PREFER_LAST_VALUE

    def __post_init__(self):
        if self.window_half_length < 1:
            raise ValueError(
                f"window_half_length must be >= 1, got {self.window_half_length}"
            )
        if self.divisor < 1:
            raise ValueError(f"divisor must be >= 1, got {self.divisor}")

    @classmethod
    def from_fps(cls, fps, divisor=3, tie_break=TieBreak.PREFER_LAST_VALUE):
        return cls(window_length(fps, divisor), divisor, tie_break)


def window_length(fps, divisor: int = 3) -> int:
    """Correction-window radius: floor(fps / divisor), at least 1."""
    fps = Fraction(fps)
    if fps <= 0:
        raise ValueError(f"fps must be > 0, got {fps}")
    if divisor < 1:
        raise ValueError(f"divisor must be >= 1, got {divisor}")
    return max(1, math.floor(fps / divisor))


def smooth_series(series: CountSeries, params: SmoothingParams) -> CountSeries:
    """Run the jitter-correction pass; replaced frames get Smoothed provenance."""
    if len(series) == 0:
        raise ValueError("empty series")
    prefer_last = params.tie_break is TieBreak.PREFER_LAST_VALUE
    # looked up on the module at call time, so a wrapper installed there sees it
    corrected, replaced = kernels.smooth_counts(
        series.counts, params.window_half_length, prefer_last
    )
    prov = series.provenance.copy()
    prov[replaced] = PROV_SMOOTHED
    return CountSeries(corrected, series.fps, prov)
