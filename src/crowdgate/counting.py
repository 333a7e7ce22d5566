"""Per-frame people counts from detections, and routing of dense frames.

The detector path counts person boxes above a confidence floor. Frames
whose detector count is strictly above the ceiling are unreliable (the
detector saturates in dense crowds) and get their count replaced by the
pixel-based density estimate.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np

from .errors import InputFormatError, RoutingError
from .ingest import Detections, format_fps, parse_fps

PROV_DETECTOR = "Detector"
PROV_DENSITY = "Density"
PROV_SMOOTHED = "Smoothed"
_PROVENANCE_VALUES = (PROV_DETECTOR, PROV_DENSITY, PROV_SMOOTHED)


@dataclass(frozen=True)
class CountSeries:
    """Ordered per-frame counts with frame rate and per-frame provenance.

    ``counts`` is int64, ``provenance`` a same-length unicode array holding
    one of "Detector", "Density", "Smoothed".
    """

    counts: np.ndarray
    fps: Fraction
    provenance: np.ndarray

    def __post_init__(self):
        if self.counts.shape != self.provenance.shape:
            raise ValueError("counts and provenance must be aligned")
        if self.fps <= 0:
            raise ValueError(f"fps must be > 0, got {self.fps}")
        if len(self.counts) and self.counts.min() < 0:
            raise ValueError("counts must be nonnegative")

    def __len__(self):
        return len(self.counts)

    @classmethod
    def from_counts(cls, counts, fps, provenance=PROV_DETECTOR) -> "CountSeries":
        counts = np.asarray(counts, dtype=np.int64)
        prov = np.full(counts.shape, provenance, dtype="<U8")
        return cls(counts, Fraction(fps), prov)


@dataclass(frozen=True)
class RoutingPolicy:
    """Knobs for the detector-vs-density decision."""

    count_ceiling: int = 25
    min_score: float = 0.5
    person_class_id: int = 0

    def __post_init__(self):
        if self.count_ceiling < 1:
            raise ValueError(f"count_ceiling must be >= 1, got {self.count_ceiling}")
        if not 0.0 <= self.min_score <= 1.0:
            raise ValueError(f"min_score must be in [0, 1], got {self.min_score}")


def count_series(detections: Detections, meta, policy: RoutingPolicy) -> CountSeries:
    """Detector counts for a whole stream, in frame order.

    A frame's count is its number of person boxes at or above the
    confidence floor.
    """
    n = len(detections)
    boxes = detections.boxes
    owner = np.repeat(np.arange(n), np.diff(detections.offsets))
    person = (boxes.class_id == policy.person_class_id) & (boxes.score >= policy.min_score)
    counts = np.bincount(owner[person], minlength=n)
    return CountSeries.from_counts(counts, meta.fps)


def frames_needing_density(series: CountSeries, policy: RoutingPolicy) -> list[int]:
    """Indices whose detector count is strictly above the ceiling."""
    return np.flatnonzero(series.counts > policy.count_ceiling).tolist()


def route_counts(
    series: CountSeries,
    policy: RoutingPolicy,
    density_counts: Mapping[int, int] | Sequence[int] | None = None,
) -> CountSeries:
    """Replace over-ceiling detector counts with density estimates.

    ``density_counts`` is either a full-length per-frame sequence or a
    mapping from frame index to count; only over-ceiling frames are read.
    A frame count equal to the ceiling stays on the detector path (routing
    triggers strictly above).
    """
    over = frames_needing_density(series, policy)
    if not over:
        return series
    if density_counts is None:
        raise RoutingError(over)
    if not isinstance(density_counts, Mapping):
        seq = np.asarray(density_counts, dtype=np.int64)
        if len(seq) != len(series):
            raise ValueError(
                f"density_counts length {len(seq)} != series length {len(series)}"
            )
        density_counts = {i: int(seq[i]) for i in over}
    missing = [i for i in over if i not in density_counts]
    if missing:
        raise RoutingError(missing)
    counts = series.counts.copy()
    prov = series.provenance.copy()
    for i in over:
        value = int(density_counts[i])
        if value < 0:
            raise ValueError(f"density count for frame {i} is negative: {value}")
        counts[i] = value
        prov[i] = PROV_DENSITY
    return CountSeries(counts, series.fps, prov)


def write_count_series(series: CountSeries, comments: Sequence[str] = ()) -> bytes:
    """Render the CSV count-series format.

    ``#``-prefixed comment lines (fps plus any caller-supplied provenance
    metadata) precede the header; readers skip them.
    """
    out = io.StringIO(newline="")
    out.write(f"# fps={format_fps(series.fps)}\n")
    for comment in comments:
        out.write(f"# {comment}\n")
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["frame_index", "count", "provenance"])
    for i, (count, prov) in enumerate(zip(series.counts, series.provenance)):
        writer.writerow([i, int(count), prov])
    return out.getvalue().encode("utf-8")


def read_count_series(source, fps=None) -> CountSeries:
    """Parse the CSV count-series format.

    ``fps`` overrides (or supplies, when no ``# fps=`` comment is present)
    the frame rate.
    """
    if isinstance(source, str):
        with open(source, "rb") as fh:
            text = fh.read().decode("utf-8")
    elif isinstance(source, (bytes, bytearray)):
        text = bytes(source).decode("utf-8")
    else:
        data = source.read()
        text = data.decode("utf-8") if isinstance(data, bytes) else data

    lines = text.splitlines()
    rows = []
    file_fps = None
    header_seen = False
    for line_no, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            comment = stripped.lstrip("#").strip()
            if comment.startswith("fps="):
                file_fps = parse_fps(comment[4:])
            continue
        fields = next(csv.reader([stripped]))
        if not header_seen:
            if [f.strip() for f in fields] != ["frame_index", "count", "provenance"]:
                raise InputFormatError(
                    f"bad count-series header {stripped!r}", line=line_no
                )
            header_seen = True
            continue
        try:
            index, count, prov = int(fields[0]), int(fields[1]), fields[2]
        except (IndexError, ValueError) as exc:
            raise InputFormatError(f"bad count row {stripped!r}", line=line_no) from exc
        if count < 0:
            raise InputFormatError(f"negative count {count}", line=line_no)
        if prov not in _PROVENANCE_VALUES:
            raise InputFormatError(f"unknown provenance {prov!r}", line=line_no)
        if index != len(rows):
            raise InputFormatError(
                f"expected frame_index {len(rows)}, got {index}", line=line_no
            )
        rows.append((count, prov))
    if not header_seen:
        raise InputFormatError("count-series file has no header row")
    effective_fps = Fraction(fps) if fps is not None else file_fps
    if effective_fps is None:
        raise InputFormatError("no fps available: file carries no '# fps=' and none was supplied")
    counts = np.array([r[0] for r in rows], dtype=np.int64)
    prov = np.array([r[1] for r in rows], dtype="<U8")
    return CountSeries(counts, effective_fps, prov)


def with_fps(series: CountSeries, fps) -> CountSeries:
    return replace(series, fps=Fraction(fps))
