"""Per-frame people counts from detections, and routing of dense frames.

The detector path counts person boxes above a confidence floor. Frames
whose detector count is strictly above the ceiling are unreliable (the
detector saturates in dense crowds) and get their count replaced by the
pixel-based density estimate.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Mapping, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import InputFormatError, RoutingError
from .ingest import Detections, decode_line, format_fps, parse_fps, source_bytes

PROV_DETECTOR = "Detector"
PROV_DENSITY = "Density"
PROV_SMOOTHED = "Smoothed"
_PROVENANCE_VALUES = (PROV_DETECTOR, PROV_DENSITY, PROV_SMOOTHED)
_PROVENANCE = np.array(_PROVENANCE_VALUES, dtype="<U8")

_HEADER = ["frame_index", "count", "provenance"]
_INT64_MAX = int(np.iinfo(np.int64).max)
_MAX_DIGITS = len(str(_INT64_MAX))
# One count-series row, as the line check splits it. A sign is matched only
# so that a negative count or frame_index gets its own message.
_ROW = re.compile(r'(-?[0-9]+),(-?[0-9]+),([^\s",]*)')
# Each provenance word as the little-endian uint64 of its bytes, zero-padded to 8.
_PROVENANCE_KEYS = np.array(
    [int.from_bytes(p.encode().ljust(8, b"\0"), "little") for p in _PROVENANCE_VALUES],
    dtype=np.uint64,
)
_PROVENANCE_WIDTHS = np.array([len(p) for p in _PROVENANCE_VALUES])


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
        if not _all_known_provenance(self.provenance):
            unknown = self.provenance[~np.isin(self.provenance, _PROVENANCE)]
            raise ValueError(f"unknown provenance {str(unknown.flat[0])!r}")

    def __len__(self):
        return len(self.counts)

    @classmethod
    def from_counts(cls, counts, fps, provenance=PROV_DETECTOR) -> "CountSeries":
        if provenance not in _PROVENANCE_VALUES:
            # checked here too: "<U8" would truncate "Detectors" to a known word
            raise ValueError(f"unknown provenance {provenance!r}")
        counts = np.asarray(counts, dtype=np.int64)
        prov = np.full(counts.shape, provenance, dtype="<U8")
        return cls(counts, Fraction(fps), prov)


def _all_known_provenance(provenance: np.ndarray) -> bool:
    """Whether every entry is one of the three provenance words.

    A "<U8" array, the dtype this module builds, is checked through its
    UTF-32 code units: when all are ASCII, each entry packs into the
    uint64 key of its bytes, which is several times faster than comparing
    strings on long series.
    """
    if provenance.dtype == _PROVENANCE.dtype:
        codes = np.ascontiguousarray(provenance).view(np.uint32)
        if codes.max(initial=0) < 128:
            packed = codes.astype(np.uint8).view(np.uint64)
            return bool(np.isin(packed, _PROVENANCE_KEYS).all())
    return bool(np.isin(provenance, _PROVENANCE).all())


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
    density_counts: Mapping[int, int] | None = None,
) -> CountSeries:
    """Replace over-ceiling detector counts with density estimates.

    ``density_counts`` maps frame index to count; only over-ceiling frames
    are read. A frame count equal to the ceiling stays on the detector path
    (routing triggers strictly above).
    """
    over = frames_needing_density(series, policy)
    if not over:
        return series
    if density_counts is None:
        raise RoutingError(over)
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
    head = [f"# fps={format_fps(series.fps)}\n"]
    head += [f"# {comment}\n" for comment in comments]
    head.append(",".join(_HEADER) + "\n")
    rows = zip(series.counts.tolist(), series.provenance.tolist())
    body = "".join([f"{i},{count},{prov}\n" for i, (count, prov) in enumerate(rows)])
    return ("".join(head) + body).encode("utf-8")


def read_count_series(source, fps=None) -> CountSeries:
    """Parse the CSV count-series format.

    ``source`` is a bytes object, a path or a file object. Blank lines and
    ``#`` comment lines may appear anywhere, with LF or CRLF line ends; the
    last ``# fps=`` comment gives the frame rate, which ``fps`` overrides
    (or supplies, when there is none). The first other line is the header
    ``frame_index,count,provenance``. Every line after it that is not blank
    or a comment must be a row as write_count_series emits it: frame_index
    counting up from 0, a count of at most 19 ASCII digits within int64, and
    one of the three provenance words, with no quotes, signs or spaces.
    Every rejected input raises InputFormatError naming its line.
    """
    data = source_bytes(source)
    file_fps, header_line, offset = _read_preamble(data)
    scanned = _scan_body(data, offset, header_line)
    if scanned is None:
        _raise_first_error(data, offset, header_line)
    counts, provenance, body_fps = scanned
    if body_fps is not None:
        file_fps = body_fps
    effective_fps = Fraction(fps) if fps is not None else file_fps
    if effective_fps is None:
        raise InputFormatError("no fps available: file carries no '# fps=' and none was supplied")
    return CountSeries(counts, effective_fps, provenance)


def _read_preamble(data: bytes) -> tuple[Fraction | None, int, int]:
    """(fps of the last '# fps=' comment, header line number, offset of the body)."""
    file_fps = None
    pos = line_no = 0
    while pos < len(data):
        end = data.find(b"\n", pos)
        if end < 0:
            end = len(data)
        line_no += 1
        text = decode_line(data[pos:end], line_no).strip()
        pos = end + 1
        if not text:
            continue
        if text.startswith("#"):
            file_fps = _comment_fps(text, line_no) or file_fps
            continue
        if [f.strip() for f in text.split(",")] != _HEADER:
            raise InputFormatError(f"bad count-series header {text!r}", line=line_no)
        return file_fps, line_no, min(pos, len(data))
    raise InputFormatError("count-series file has no header row")


def _comment_fps(text: str, line_no: int) -> Fraction | None:
    """The frame rate a '# fps=' comment line sets; None for other comments."""
    comment = text.lstrip("#").strip()
    if not comment.startswith("fps="):
        return None
    try:
        return parse_fps(comment[4:])
    except InputFormatError as exc:
        raise InputFormatError(str(exc), line=line_no) from None


def _scan_body(data: bytes, offset: int, header_line: int):
    """(counts, provenance, fps of the last '# fps=' comment or None) of the
    lines after the header, scanned as whole arrays; None if any line is bad.

    A line starting with a digit is a row. Other lines (blank, comments and
    bad lines, few in practice) are looked at one by one.
    """
    size = len(data) - offset
    if not size:
        return np.zeros(0, dtype=np.int64), _PROVENANCE[:0], None
    # the body, with zero bytes before and after it, so that a fixed-width
    # window ending at any field's end, or starting at any field's start,
    # stays inside the buffer
    buf = np.zeros(_MAX_DIGITS + size + 8, dtype=np.uint8)
    body = buf[_MAX_DIGITS : _MAX_DIGITS + size]
    body[:] = np.frombuffer(data, dtype=np.uint8, offset=offset)
    newlines = np.flatnonzero(body == ord("\n"))
    starts = np.concatenate(([0], newlines + 1))
    stops = np.append(newlines, size)
    stops -= (stops > starts) & (buf[_MAX_DIGITS - 1 + stops] == ord("\r"))
    first = buf[_MAX_DIGITS + starts]
    is_row = (stops > starts) & (first >= ord("0")) & (first <= ord("9"))

    body_fps = None
    for k in np.flatnonzero((stops > starts) & ~is_row).tolist():
        line_no = header_line + 1 + k
        try:
            text = decode_line(data[offset + starts[k] : offset + stops[k]], line_no).strip()
            if text and not text.startswith("#"):
                return None
            body_fps = _comment_fps(text, line_no) or body_fps
        except InputFormatError:  # _raise_first_error reports errors in file order
            return None

    starts, stops = starts[is_row], stops[is_row]
    commas = np.flatnonzero(body == ord(","))
    k = np.searchsorted(commas, starts)
    if (np.searchsorted(commas, stops) - k != 2).any():
        return None
    comma1, comma2 = commas[k], commas[k + 1]
    index = _digit_fields(buf, starts, comma1)
    counts = _digit_fields(buf, comma1 + 1, comma2)
    code = _provenance_codes(buf, comma2 + 1, stops)
    if (
        index is None
        or counts is None
        or code is None
        or not np.array_equal(index, np.arange(len(index), dtype=np.uint64))
        or (len(counts) and counts.max() > _INT64_MAX)
    ):
        return None
    return counts.astype(np.int64), _PROVENANCE[code], body_fps


def _digit_fields(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """uint64 values of the body fields ``starts[i]:stops[i]``, or None unless
    every field is 1 to 19 ASCII digits.

    The fields are read as one right-aligned digit matrix, one row a field.
    """
    width = stops - starts
    if not len(width):
        return np.zeros(0, dtype=np.uint64)
    if width.min() < 1 or width.max() > _MAX_DIGITS:
        return None
    cols = int(width.max())
    digits = sliding_window_view(buf, cols)[_MAX_DIGITS + stops - cols]
    digits[np.arange(cols) < (cols - width)[:, None]] = ord("0")
    digits -= np.uint8(ord("0"))
    if digits.max() > 9:
        return None
    value = np.zeros(len(width), dtype=np.uint64)
    for column in digits.T:
        value = value * np.uint64(10) + column
    return value


def _provenance_codes(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """Index into _PROVENANCE of each body field ``starts[i]:stops[i]``, or
    None unless every field is one of the words.

    Each field's first 8 bytes, zero-padded, are compared as one uint64
    key, and its width with the word's.
    """
    width = stops - starts
    words = sliding_window_view(buf, 8)[_MAX_DIGITS + starts]
    words[np.arange(8) >= width[:, None]] = 0
    keys = words.view("<u8")[:, 0]
    code = np.full(len(keys), -1)
    for i, key in enumerate(_PROVENANCE_KEYS):
        code[keys == key] = i
    if (code < 0).any() or not np.array_equal(_PROVENANCE_WIDTHS[code], width):
        return None
    return code


def _raise_first_error(data: bytes, offset: int, header_line: int):
    """Raise the InputFormatError of the first bad line after the header.

    Runs only on a body _scan_body rejected, and applies its rules one line
    at a time.
    """
    expected = 0
    lines = data[offset:].split(b"\n")
    for line_no, line in enumerate(lines, start=header_line + 1):
        text = decode_line(line.removesuffix(b"\r"), line_no)
        stripped = text.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            _comment_fps(stripped, line_no)
            continue
        row = _ROW.fullmatch(text)
        if row is None:
            raise InputFormatError(f"bad count row {text!r}", line=line_no)
        index, count, prov = row.groups()
        if count.startswith("-"):
            raise InputFormatError(f"negative count {count}", line=line_no)
        if len(count) > _MAX_DIGITS or int(count) > _INT64_MAX:
            raise InputFormatError(
                f"count {count} is over {_INT64_MAX} or longer than {_MAX_DIGITS} digits",
                line=line_no,
            )
        if prov not in _PROVENANCE_VALUES:
            raise InputFormatError(f"unknown provenance {prov!r}", line=line_no)
        if index.startswith("-") or len(index) > _MAX_DIGITS or int(index) != expected:
            raise InputFormatError(
                f"expected frame_index {expected}, got {index}", line=line_no
            )
        expected += 1
    raise RuntimeError("the count-series scan rejected a body its line check accepts")


def with_fps(series: CountSeries, fps) -> CountSeries:
    return replace(series, fps=Fraction(fps))
