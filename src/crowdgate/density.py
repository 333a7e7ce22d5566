"""Pixel-based crowd-count estimation for dense frames.

Maintains an adaptive background by motion-gated exponential averaging of
consecutive frames, subtracts it to get a foreground mask, reduces the mask
to (area, boundary-pixel count) features, and maps those to a person count
with a fitted linear regressor.
"""

from __future__ import annotations

import csv
import json
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import InputFormatError, RankDeficientError
from .ingest import GrayFrame, decode_line, source_bytes

DEFAULT_MOTION_THRESHOLD = 15.0
DEFAULT_LEARNING_RATE = 0.05
DEFAULT_FG_THRESHOLD = 25.0

_CALIBRATION_HEADER = ["frame_index", "area", "edge", "true_count"]
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class BackgroundModel:
    """Running background estimate; ``background`` is float64, shape (height, width)."""

    width: int
    height: int
    background: np.ndarray
    motion_threshold: float = DEFAULT_MOTION_THRESHOLD
    learning_rate: float = DEFAULT_LEARNING_RATE

    def __post_init__(self):
        if self.background.shape != (self.height, self.width):
            raise ValueError(
                f"background shape {self.background.shape} does not match "
                f"{self.height}x{self.width}"
            )
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")

    @classmethod
    def from_first_frame(cls, frame: GrayFrame, **kwargs) -> "BackgroundModel":
        """Initialize from the first frame verbatim (static scenes are a fixed point)."""
        return cls(
            width=frame.width,
            height=frame.height,
            background=frame.pixels.astype(np.float64),
            **kwargs,
        )


@dataclass(frozen=True)
class ForegroundFeatures:
    area: int
    edge: int
    frame_index: int

    def __post_init__(self):
        if self.edge > self.area:
            raise ValueError(f"edge {self.edge} exceeds area {self.area}")


@dataclass(frozen=True)
class DensityRegressor:
    """Linear map (area, edge) -> person count; predictions clamp at zero."""

    coef_area: float
    coef_edge: float
    intercept: float
    fg_threshold: float = DEFAULT_FG_THRESHOLD


def update_background(
    model: BackgroundModel, prev: GrayFrame, curr: GrayFrame
) -> BackgroundModel:
    """Blend the current frame into the background wherever it is not moving.

    A pixel whose inter-frame change is below the motion threshold is
    considered static and moves toward the current frame by the learning
    rate; moving pixels leave the background untouched, so people never
    pollute it.
    """
    _check_pair(model, prev, curr)
    prev_f = prev.pixels.astype(np.float64)
    curr_f = curr.pixels.astype(np.float64)
    static = np.abs(curr_f - prev_f) < model.motion_threshold
    alpha = model.learning_rate
    background = model.background.copy()
    background[static] = (1.0 - alpha) * background[static] + alpha * curr_f[static]
    return replace(model, background=background)


def extract_foreground(
    model: BackgroundModel, frame: GrayFrame, fg_threshold: float = DEFAULT_FG_THRESHOLD
) -> np.ndarray:
    """Boolean mask of pixels deviating from the background by more than the threshold."""
    _check_dims(model, frame)
    return np.abs(frame.pixels.astype(np.float64) - model.background) > fg_threshold


def compute_features(mask: np.ndarray, frame_index: int = 0) -> ForegroundFeatures:
    """Foreground area and 4-neighbor boundary pixel count.

    A foreground pixel is a boundary pixel when at least one of its
    4-neighbors is background or outside the image.
    """
    mask = np.asarray(mask, dtype=bool)
    if mask.ndim != 2:
        raise ValueError(f"mask must be 2-D, got shape {mask.shape}")
    area = int(mask.sum())
    padded = np.pad(mask, 1, constant_values=False)
    interior = (
        mask
        & padded[:-2, 1:-1]
        & padded[2:, 1:-1]
        & padded[1:-1, :-2]
        & padded[1:-1, 2:]
    )
    edge = area - int(interior.sum())
    return ForegroundFeatures(area=area, edge=edge, frame_index=frame_index)


def fit_regressor(samples, fg_threshold: float = DEFAULT_FG_THRESHOLD) -> DensityRegressor:
    """Ordinary least squares of true counts on (area, edge, 1).

    ``samples`` is a sequence of (ForegroundFeatures, true_count). Requires
    at least 3 samples and a full-rank design matrix.
    """
    samples = list(samples)
    if len(samples) < 3:
        raise ValueError(f"need at least 3 calibration samples, got {len(samples)}")
    design = np.array(
        [[feat.area, feat.edge, 1.0] for feat, _ in samples], dtype=np.float64
    )
    target = np.array([count for _, count in samples], dtype=np.float64)
    if np.linalg.matrix_rank(design) < 3:
        degenerate = []
        if np.ptp(design[:, 0]) == 0:
            degenerate.append("area")
        if np.ptp(design[:, 1]) == 0:
            degenerate.append("edge")
        if not degenerate:
            degenerate = ["area", "edge"]  # mutually collinear
        raise RankDeficientError(degenerate)
    coef, *_ = np.linalg.lstsq(design, target, rcond=None)
    return DensityRegressor(
        coef_area=float(coef[0]),
        coef_edge=float(coef[1]),
        intercept=float(coef[2]),
        fg_threshold=fg_threshold,
    )


def predict_count(regressor: DensityRegressor, features: ForegroundFeatures) -> int:
    """Clamped linear prediction, rounded half away from zero."""
    raw = (
        regressor.coef_area * features.area
        + regressor.coef_edge * features.edge
        + regressor.intercept
    )
    clamped = max(0.0, raw)
    return int(math.floor(clamped + 0.5))


def estimate_density_counts(
    frames, regressor: DensityRegressor, frame_indices
) -> dict[int, int]:
    """Density counts for the requested frames of one gray-frame stream.

    Runs the background model sequentially over the whole stream (it is
    order-dependent) and predicts only at the requested indices. The
    background is updated in place; it stays bit-identical to folding
    ``update_background`` over the stream, and each mask to
    ``extract_foreground``.
    """
    wanted = set(frame_indices)
    if not frames:
        raise ValueError("no gray frames supplied")
    out_of_range = sorted(i for i in wanted if not 0 <= i < len(frames))
    if out_of_range:
        raise ValueError(f"frame indices outside the gray stream: {out_of_range}")
    counts, _ = _density_loop(frames, regressor, wanted)
    return counts


def _density_loop(frames, regressor: DensityRegressor, wanted):
    """The loop of ``estimate_density_counts``; returns (counts, final background).

    ``frames`` is non-empty. Every frame is checked before any work is done.
    The per-frame steps write into buffers allocated once, using the same
    float operations in the same order as ``update_background`` and
    ``extract_foreground``.
    """
    model = BackgroundModel.from_first_frame(frames[0])
    for i in range(1, len(frames)):
        _check_pair(model, frames[i - 1], frames[i])
    alpha = model.learning_rate
    keep = 1.0 - alpha
    background = model.background  # a fresh copy, private to this loop
    prev = background.copy()
    curr = np.empty_like(background)
    scratch = np.empty_like(background)
    static = np.empty(background.shape, dtype=bool)
    mask = np.empty(background.shape, dtype=bool)
    results: dict[int, int] = {}
    for i, frame in enumerate(frames):
        if i > 0:
            np.copyto(curr, frame.pixels)
            np.subtract(curr, prev, out=scratch)
            np.abs(scratch, out=scratch)
            np.less(scratch, model.motion_threshold, out=static)
            np.multiply(background, keep, out=background, where=static)
            np.multiply(curr, alpha, out=scratch, where=static)
            np.add(background, scratch, out=background, where=static)
            prev, curr = curr, prev
        if i in wanted:
            # ``prev`` holds this frame as float64.
            np.subtract(prev, background, out=scratch)
            np.abs(scratch, out=scratch)
            np.greater(scratch, regressor.fg_threshold, out=mask)
            features = compute_features(mask, frame_index=i)
            results[i] = predict_count(regressor, features)
    return results, background


def regressor_to_json(regressor: DensityRegressor) -> str:
    return json.dumps(
        {
            "coef_area": regressor.coef_area,
            "coef_edge": regressor.coef_edge,
            "intercept": regressor.intercept,
            "fg_threshold": regressor.fg_threshold,
        },
        indent=2,
        sort_keys=True,
    ) + "\n"


def regressor_from_json(text: str) -> DensityRegressor:
    try:
        obj = json.loads(text)
        return DensityRegressor(
            coef_area=float(obj["coef_area"]),
            coef_edge=float(obj["coef_edge"]),
            intercept=float(obj["intercept"]),
            fg_threshold=float(obj["fg_threshold"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise InputFormatError(f"bad density model file: {exc}") from exc


def read_calibration_csv(source) -> list[tuple[ForegroundFeatures, int]]:
    """Parse the calibration CSV: frame_index,area,edge,true_count.

    Every value is a non-negative int64 and ``edge`` is at most ``area``;
    a row breaking either raises InputFormatError naming its line.
    """
    lines = source_bytes(source).split(b"\n")
    samples = []
    reader = csv.reader(decode_line(line, n) for n, line in enumerate(lines, start=1))
    header_seen = False
    for line_no, fields in enumerate(reader, start=1):
        if not fields or not "".join(fields).strip():
            continue
        if fields[0].strip().startswith("#"):
            continue
        if not header_seen:
            if [f.strip() for f in fields] != _CALIBRATION_HEADER:
                raise InputFormatError(f"bad calibration header {fields!r}", line=line_no)
            header_seen = True
            continue
        try:
            frame_index, area, edge, count = values = [int(f) for f in fields]
        except ValueError as exc:
            raise InputFormatError(f"bad calibration row {fields!r}", line=line_no) from exc
        for name, value in zip(_CALIBRATION_HEADER, values):
            if value < 0:
                raise InputFormatError(f"negative {name} {value}", line=line_no)
            if value > _INT64_MAX:
                raise InputFormatError(f"{name} {value} exceeds int64", line=line_no)
        if edge > area:
            raise InputFormatError(f"edge {edge} exceeds area {area}", line=line_no)
        samples.append((ForegroundFeatures(area, edge, frame_index), count))
    if not header_seen:
        raise InputFormatError("calibration file has no header row")
    return samples


def _check_pair(model: BackgroundModel, prev: GrayFrame, curr: GrayFrame):
    _check_dims(model, prev)
    _check_dims(model, curr)
    if curr.frame_index != prev.frame_index + 1:
        raise ValueError(
            f"frames must be consecutive: got {prev.frame_index} then {curr.frame_index}"
        )


def _check_dims(model: BackgroundModel, frame: GrayFrame):
    if (frame.width, frame.height) != (model.width, model.height):
        raise ValueError(
            f"frame {frame.frame_index} is {frame.width}x{frame.height}, "
            f"model is {model.width}x{model.height}"
        )
