"""Pixel-based crowd-count estimation for dense frames.

Maintains an adaptive background by motion-gated exponential averaging of
consecutive frames, subtracts it to get a foreground mask, reduces the mask
to (area, boundary-pixel count) features, and maps those to a person count
with a fitted linear regressor.
"""

from __future__ import annotations

import bisect
import json
import math
import re
from dataclasses import asdict, dataclass, replace

import numpy as np

from .errors import InputFormatError, RankDeficientError
from .ingest import (
    _GRAY_WINDOW_BYTES,
    _INT64_MAX,
    _map_threads,
    _releaser,
    _thread_count,
    decode_line,
)

DEFAULT_MOTION_THRESHOLD = 15.0
DEFAULT_LEARNING_RATE = 0.05
DEFAULT_FG_THRESHOLD = 25.0

_CALIBRATION_HEADER = ["frame_index", "area", "edge", "true_count"]
# ASCII digits, as in count CSVs; int() also takes "+1", " 1", "1_0" and "\u0663".
_INTEGER = re.compile("-?[0-9]+")
# Pixels per band of ``_density_loop``: 90 rows of a 640-wide frame. A band
# makes a few float64 steps over its rows per frame and a few uint8 steps
# over a window of frames of them, so taller bands make fewer numpy calls,
# each handing the GIL to the other thread; shorter ones keep a band's
# buffers in cache. On 640x360 frames and a 2-CPU host, 90 rows ran the
# loop in 81 ms on two threads, where 45, 60, 120 and 180 rows took 103,
# 91, 100 and 87 ms (120 rows make three bands, two on one thread).
_BAND_PIXELS = 57_600


@dataclass(frozen=True)
class BackgroundModel:
    """Running background estimate; ``background`` is float64, shape (height, width).

    A stream's model starts from its first frame verbatim, so static scenes
    are a fixed point.
    """

    background: np.ndarray
    motion_threshold: float = DEFAULT_MOTION_THRESHOLD
    learning_rate: float = DEFAULT_LEARNING_RATE

    def __post_init__(self):
        if self.background.ndim != 2:
            raise ValueError(f"background must be 2-D, got shape {self.background.shape}")
        if not 0.0 < self.learning_rate <= 1.0:
            raise ValueError(f"learning_rate must be in (0, 1], got {self.learning_rate}")


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

    def __post_init__(self):
        for name in ("coef_area", "coef_edge", "intercept"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not (math.isfinite(self.fg_threshold) and self.fg_threshold >= 0):
            raise ValueError(f"fg_threshold must be finite and >= 0, got {self.fg_threshold}")


def update_background(
    model: BackgroundModel, prev: np.ndarray, curr: np.ndarray
) -> BackgroundModel:
    """Blend the current frame into the background wherever it is not moving.

    ``prev`` and ``curr`` are consecutive 2-D frames. A pixel whose
    inter-frame change is below the motion threshold is considered static
    and moves toward the current frame by the learning rate; moving pixels
    leave the background untouched, so people never pollute it.
    """
    prev_f = np.asarray(prev, dtype=np.float64)
    curr_f = np.asarray(curr, dtype=np.float64)
    if not prev_f.shape == curr_f.shape == model.background.shape:
        raise ValueError(
            f"frames are {prev_f.shape} and {curr_f.shape}, model is {model.background.shape}"
        )
    static = np.abs(curr_f - prev_f) < model.motion_threshold
    alpha = model.learning_rate
    background = model.background.copy()
    background[static] = (1.0 - alpha) * background[static] + alpha * curr_f[static]
    return replace(model, background=background)


def extract_foreground(
    model: BackgroundModel, frame: np.ndarray, fg_threshold: float = DEFAULT_FG_THRESHOLD
) -> np.ndarray:
    """Boolean mask of pixels deviating from the background by more than the threshold."""
    frame_f = np.asarray(frame, dtype=np.float64)
    if frame_f.shape != model.background.shape:
        raise ValueError(f"frame is {frame_f.shape}, model is {model.background.shape}")
    return np.abs(frame_f - model.background) > fg_threshold


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
    if not math.isfinite(raw):  # finite coefficients can still overflow
        raise ValueError(f"density prediction for frame {features.frame_index} is {raw}")
    count = int(math.floor(max(0.0, raw) + 0.5))
    if count > _INT64_MAX:  # a count series holds int64
        raise ValueError(
            f"density prediction for frame {features.frame_index} is {raw}, beyond int64"
        )
    return count


def estimate_density_counts(
    frames: np.ndarray, regressor: DensityRegressor, frame_indices
) -> np.ndarray:
    """Density counts for the requested frames of one (n, height, width) uint8 gray stream.

    The counts are int64, in the order of ``frame_indices``, which must rise
    strictly. Runs the background model sequentially over the stream (it is
    order-dependent) up to the last requested frame, and predicts only at
    the requested indices. The frame is processed in bands of rows, on up to
    one thread per usable CPU, and the stream a window of frames at a time:
    the motion gate and the interior test run once a window, the blend and
    the foreground test once a frame, on its rows cast to float64. The
    pages of windows passed are released (``ingest._releaser``) when
    ``frames`` views a mapped container, so a long stream costs about a
    window of memory per thread (2 MiB), not its size (``_density_loop``). The
    background stays bit-identical to folding ``update_background`` over
    the stream, and each mask to ``extract_foreground``. Other indices (the
    message shows the first 10), an empty stream, and frames of any dtype
    but uint8, raise ValueError.
    """
    wanted = np.asarray(frame_indices, dtype=np.int64)
    if len(frames) == 0:
        raise ValueError("no gray frames supplied")
    if (np.diff(wanted) <= 0).any():
        raise ValueError(f"frame indices must rise strictly, got {_first_ten(wanted)}")
    out_of_range = wanted[(wanted < 0) | (wanted >= len(frames))]
    if len(out_of_range):
        raise ValueError(f"frame indices outside the gray stream: {_first_ten(out_of_range)}")
    return _density_loop(frames, regressor, wanted.tolist())[0]


def _first_ten(indices) -> str:
    """The first 10 of an index array, and how many there are if more."""
    shown = str(indices[:10].tolist())
    return shown if len(indices) <= 10 else f"{shown} ({len(indices)} in all)"


def _density_loop(frames, regressor: DensityRegressor, order):
    """The loop of ``estimate_density_counts``; returns (counts, background).

    ``frames`` is a non-empty (n, height, width) uint8 array, so every frame
    has the same shape, and ``order`` the wanted frames, rising strictly.
    The counts are int64, in that order; the background returned is the one
    at the last wanted frame (at frame 0 when none is wanted). The frame is
    cut into bands of whole rows, and each band runs over the stream on its
    own (``_band``), so its buffers stay in cache and bands can run on
    separate threads. A band makes its motion gate and its interior test
    once a window, on the rows of all its frames, and about five float64
    steps a frame. Each pixel's background evolves independently of
    every other pixel and the per-band features are integer sums, so counts
    and background are bit-identical for any band height and any number of
    threads. Counts are predicted here, in the calling thread.

    The stream is run a window of frames at a time: as many frames as fill
    ``_GRAY_WINDOW_BYTES`` (2 MiB, 9 frames at 640x360), and at least 2.
    Each worker of ``_map_threads`` takes a fixed group of bands, every
    ``workers``-th one, and advances them all through a window before the
    next, with no barrier between workers. A band runs a whole window
    before the worker moves on to the next band, so the worker's bands
    share one set of temporaries (``_temporaries``), and each band holds
    only its background and the buffer it blends into. A worker that has
    finished window w releases the whole pages before window w's first
    frame, with its group's own ``ingest._releaser`` of ``frames``; the
    window's last frame stays mapped for the next window's motion gate. A
    page another worker still reads is faulted in again from the page
    cache, so a release changes no result.

    No full-frame background is held while the bands run: each band starts
    from its own rows of ``frames[0]``, and the background returned is
    joined from the bands' rows once they are done.
    """
    if frames.dtype != np.uint8:
        # ``_band``'s motion gate holds only for uint8 differences.
        raise ValueError(f"gray frames must be uint8, got {frames.dtype}")
    height, width = frames.shape[1:]
    rows = max(1, _BAND_PIXELS // max(width, 1))
    # A frame with no rows still gets one (empty) band.
    bands = [(r0, min(r0 + rows, height)) for r0 in range(0, max(height, 1), rows)]
    frame_bytes = height * width
    window = max(2, _GRAY_WINDOW_BYTES // max(frame_bytes, 1))
    firsts = range(0, (order[-1] if order else 0) + 1, window)  # each window's first frame

    def advance(group):
        release = _releaser(frames)
        temporaries = _temporaries(max(r1 - r0 for r0, r1 in group), width, window)
        runs = [
            _band(
                frames, band, order, DEFAULT_LEARNING_RATE, DEFAULT_MOTION_THRESHOLD,
                regressor.fg_threshold, window, temporaries,
            )
            for band in group
        ]
        for first in firsts:
            parts = [next(run) for run in runs]
            release(first * frame_bytes)
        return parts

    workers = _thread_count(len(bands))
    parts = [None] * len(bands)
    groups = [bands[g::workers] for g in range(workers)]
    for g, group_parts in enumerate(_map_threads(advance, groups)):
        parts[g::workers] = group_parts
    area = sum(part[0] for part in parts)
    interior = sum(part[1] for part in parts)
    background = np.concatenate([part[2] for part in parts])
    counts = np.zeros(len(order), dtype=np.int64)
    for k, i in enumerate(order):
        features = ForegroundFeatures(
            area=int(area[k]), edge=int(area[k] - interior[k]), frame_index=i
        )
        counts[k] = predict_count(regressor, features)
    return counts, background


def _motion_gate(threshold: float) -> int:
    """The number of uint8 frame differences ``d`` in 0..255 with ``d < threshold``.

    Between two uint8 frames ``|curr - prev|`` is such an integer, so a
    pixel is static for ``update_background`` exactly when its difference
    is below this cutoff; that holds for any float threshold, NaN and
    infinities included.
    """
    return int(np.count_nonzero(np.arange(256.0) < threshold))


def _temporaries(rows: int, width: int, window: int):
    """One worker's temporaries for ``_band``: those of bands of up to
    ``rows`` rows of ``width`` pixels, run in windows of ``window`` frames.

    A float64 scratch over a band's rows and halo rows, and two uint8
    buffers of ``window`` times as many pixels. The first holds a window's
    motion-gate differences, then the masks of its wanted frames; the
    second the gate's minimum, then the moving mask, then the interior
    test.
    """
    pixels = (rows + 2) * width
    return (
        np.empty(pixels),
        np.empty(window * pixels, dtype=np.uint8),
        np.empty(window * pixels, dtype=np.uint8),
    )


def _band(
    frames, rows, order, learning_rate: float, motion_threshold: float,
    fg_threshold: float, window: int, temporaries,
):
    """Run image rows ``rows = (r0, r1)`` of uint8 ``frames`` up to the last frame of ``order``.

    A generator: it runs a window of ``window`` frames (frames 0 to
    ``window - 1``, then the next ``window``, and so on, the last window
    ending at the last frame of ``order``) each time it is advanced, and
    yields its state at the window's end. Its state is the int64
    foreground area and interior-pixel count of these rows at each frame
    of ``order`` (ascending frame positions), filled in as far as the
    frames run, and the rows' background at the last frame run; after the
    last window that is the band's result. The rows' background starts
    from their rows of ``frames[0]``, as a ``BackgroundModel`` of that frame
    with ``learning_rate`` and ``motion_threshold`` does. The background
    yielded before the last window is a buffer the band goes on writing.
    The band also keeps the background of the row above and the row below
    it (its halo rows), which give its edge rows their vertical neighbours;
    rows outside the image count as background, as in ``compute_features``.

    The band holds only its background and the buffer it blends into; every
    other step writes into ``temporaries``, a ``_temporaries`` of at least
    these rows and ``window``, which the band may overwrite whenever it is
    advanced. The motion gate runs once a window, on the uint8 rows of all
    its frames, and compares integer differences with ``_motion_gate``'s
    cutoff. Each frame then blends its rows, cast into the float64
    scratch, and a wanted frame's foreground subtracts its cast rows, into
    the window's stack of masks; the interior test runs once a window on
    that stack. Every float step is the operation of ``update_background``
    and ``extract_foreground`` on the same float64 values, so the result
    is the same bit for bit.
    """
    r0, r1 = rows
    height, width = frames.shape[1:]
    a0, a1 = max(r0 - 1, 0), min(r1 + 1, height)
    keep = 1.0 - learning_rate
    gate = _motion_gate(motion_threshold)
    float_buf, stack_buf, test_buf = temporaries
    scratch = float_buf[: (a1 - a0) * width].reshape(a1 - a0, width)
    background = frames[0, a0:a1].astype(np.float64)
    blend = np.empty_like(background)
    areas = np.zeros(len(order), dtype=np.int64)
    interiors = np.zeros(len(order), dtype=np.int64)
    stop = order[-1] if order else 0
    k = 0  # the wanted frames before order[k] are done
    for first in range(0, stop + 1, window):
        end = min(first + window, stop + 1)
        # The gate of frames lo..end - 1 against the frames before them.
        lo = max(first, 1)
        shape = (end - lo, a1 - a0, width)
        diff = stack_buf[: math.prod(shape)].reshape(shape)
        low = test_buf[: diff.size].reshape(shape)
        prev, curr = frames[lo - 1 : end - 1, a0:a1], frames[lo:end, a0:a1]
        np.maximum(curr, prev, out=diff)
        np.minimum(curr, prev, out=low)
        np.subtract(diff, low, out=diff)
        moving = low.view(bool)
        np.greater_equal(diff, gate, out=moving)
        # The masks of the window's wanted frames, rows r0 - 1 .. r1 each,
        # over the gate's differences; a halo row outside the image is
        # cleared to False.
        k0 = k
        wanted = bisect.bisect_left(order, end, k0) - k0
        shape = (wanted, r1 - r0 + 2, width)
        padded = stack_buf[: math.prod(shape)].view(bool).reshape(shape)
        if a0 == r0:
            padded[:, 0] = False
        if a1 == r1:
            padded[:, -1] = False
        for j in range(first, end):
            if j:
                # Blend every pixel, then restore the moving ones, which
                # are usually few: a masked copy costs by the pixels it
                # copies.
                np.multiply(background, keep, out=blend)
                np.copyto(scratch, curr[j - lo])
                np.multiply(scratch, learning_rate, out=scratch)
                np.add(blend, scratch, out=blend)
                np.copyto(blend, background, where=moving[j - lo])
                background, blend = blend, background
            if k < len(order) and order[k] == j:
                np.copyto(scratch, frames[j, a0:a1])
                np.subtract(scratch, background, out=scratch)
                np.abs(scratch, out=scratch)
                np.greater(scratch, fg_threshold, out=padded[k - k0, a0 - r0 + 1 : a1 - r0 + 1])
                k += 1
        if wanted:
            # Interior: foreground with all four neighbours foreground. In
            # each frame's flat rows the pixels beside a pixel are one
            # before and one after it; the first and last columns border
            # the outside, so they never qualify and are cleared.
            own = padded[:, 1:-1]
            shape = own.shape
            interior = test_buf[: math.prod(shape)].view(bool).reshape(shape)
            np.logical_and(padded[:, :-2], padded[:, 2:], out=interior)
            np.logical_and(interior, own, out=interior)
            flat, inner = padded.reshape(wanted, -1), interior.reshape(wanted, -1)
            pixels = inner.shape[1]
            np.logical_and(inner, flat[:, width - 1 : width - 1 + pixels], out=inner)
            np.logical_and(inner, flat[:, width + 1 : width + 1 + pixels], out=inner)
            interior[:, :, :: max(width - 1, 1)] = False
            for w in range(wanted):
                areas[k0 + w] = np.count_nonzero(own[w])
                interiors[k0 + w] = np.count_nonzero(interior[w])
        yield areas, interiors, background[r0 - a0 : r1 - a0]


def regressor_to_json(regressor: DensityRegressor) -> str:
    return json.dumps(asdict(regressor), indent=2, sort_keys=True) + "\n"


def regressor_from_json(data: bytes) -> DensityRegressor:
    """Parse a density model file's bytes (UTF-8 JSON, as ``regressor_to_json`` writes)."""
    try:
        obj = json.loads(data.decode("utf-8"))
        return DensityRegressor(
            coef_area=float(obj["coef_area"]),
            coef_edge=float(obj["coef_edge"]),
            intercept=float(obj["intercept"]),
            fg_threshold=float(obj["fg_threshold"]),
        )
    except (json.JSONDecodeError, KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InputFormatError(f"bad density model file: {exc}") from exc


def read_calibration_csv(data: bytes) -> list[tuple[ForegroundFeatures, int]]:
    """Parse the calibration CSV frame_index,area,edge,true_count from its bytes.

    Read a line at a time, as count CSVs are (LF or CRLF, blank and ``#``
    lines skipped, no quoting), every value is ASCII digits (a leading
    ``-`` is reported as negative) making a non-negative int64, and
    ``edge`` is at most ``area``; a row breaking any of these raises
    InputFormatError naming its line.
    """
    samples = []
    header_seen = False
    for line_no, line in enumerate(data.split(b"\n"), start=1):
        text = decode_line(line.removesuffix(b"\r"), line_no)
        if not text.strip() or text.strip().startswith("#"):
            continue
        fields = text.split(",")
        if not header_seen:
            if [f.strip() for f in fields] != _CALIBRATION_HEADER:
                raise InputFormatError(f"bad calibration header {fields!r}", line=line_no)
            header_seen = True
            continue
        if len(fields) != 4 or not all(_INTEGER.fullmatch(f) for f in fields):
            raise InputFormatError(f"bad calibration row {fields!r}", line=line_no)
        frame_index, area, edge, count = values = [int(f) for f in fields]
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
