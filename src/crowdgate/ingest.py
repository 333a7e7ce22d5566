"""Parsing and normalization of detector output and raw grayscale frames.

Two on-disk formats are handled here:

* Detections file: UTF-8, LF-terminated JSON lines. The first non-blank
  line is a header object ``{"fps": <number or "num/den">, "source_id": s}``;
  every following non-blank line is one frame record with its bounding boxes.
* Raw gray container: 16-byte header (magic ``CGRY``, little-endian u32
  width, height, frame count) followed by ``frame_count * width * height``
  bytes of row-major 8-bit intensities. FFmpeg can emit this layout from
  any video via ``-f rawvideo -pix_fmt gray`` plus a prepended header.

Parsed detections are held column-wise (:class:`Detections`): numpy arrays
with one entry per frame or per box, so no Python object per box outlives
the parse.
"""

from __future__ import annotations

import bisect
import io
import json
import mmap
import operator
import struct
from contextlib import contextmanager
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputFormatError

GRAY_MAGIC = b"CGRY"
_GRAY_HEADER = struct.Struct("<4sIII")

_BOX_FIELDS = ("x", "y", "w", "h", "score", "class_id")
_box_values = operator.itemgetter(*_BOX_FIELDS)
_class_id = operator.itemgetter(_BOX_FIELDS.index("class_id"))
# Frames whose boxes are collected as Python tuples before they become numpy
# columns; bounds the Python objects alive during a parse.
_BLOCK_FRAMES = 4096
_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True, eq=False)
class Boxes:
    """Detector boxes as columns; row k of every column is one box.

    Pixel coordinates (``x``, ``y`` = top-left corner), size, confidence
    ``score`` (float64) and ``class_id`` (int64).
    """

    x: np.ndarray
    y: np.ndarray
    w: np.ndarray
    h: np.ndarray
    score: np.ndarray
    class_id: np.ndarray

    def __len__(self):
        return len(self.x)

    def __getitem__(self, rows: slice) -> "Boxes":
        return Boxes(
            self.x[rows], self.y[rows], self.w[rows], self.h[rows],
            self.score[rows], self.class_id[rows],
        )


@dataclass(frozen=True, eq=False)
class FrameDetections:
    """One frame of a :class:`Detections`; ``boxes`` is a row slice of its columns."""

    frame_index: int
    timestamp_ms: int
    boxes: Boxes


@dataclass(frozen=True, eq=False)
class Detections:
    """A parsed detections stream, column-wise.

    ``frame_index`` and ``timestamp_ms`` are int64 with one entry per frame;
    frame i owns rows ``offsets[i]:offsets[i + 1]`` of ``boxes``. Indexing
    and iterating yield :class:`FrameDetections` views.
    """

    frame_index: np.ndarray
    timestamp_ms: np.ndarray
    offsets: np.ndarray
    boxes: Boxes

    def __len__(self):
        return len(self.frame_index)

    def __getitem__(self, i: int) -> FrameDetections:
        i = range(len(self))[i]
        return FrameDetections(
            int(self.frame_index[i]),
            int(self.timestamp_ms[i]),
            self.boxes[self.offsets[i] : self.offsets[i + 1]],
        )

    def __iter__(self):
        # plain ints and list offsets: cheaper than __getitem__ per frame
        offsets = self.offsets.tolist()
        stamps = self.timestamp_ms.tolist()
        for i, index in enumerate(self.frame_index.tolist()):
            yield FrameDetections(index, stamps[i], self.boxes[offsets[i] : offsets[i + 1]])


@dataclass(frozen=True)
class StreamMeta:
    """Stream-level metadata; ``gaps`` lists (first, last) missing index ranges."""

    fps: Fraction
    frame_count: int
    source_id: str
    gaps: tuple[tuple[int, int], ...] = field(default=())

    def __post_init__(self):
        if self.fps <= 0:
            raise ValueError(f"fps must be > 0, got {self.fps}")


def parse_fps(value) -> Fraction:
    """Accept a JSON number or a "num/den" string; reject non-positive rates."""
    if isinstance(value, str):
        try:
            fps = Fraction(value)
        except (ValueError, ZeroDivisionError) as exc:
            raise InputFormatError(f"cannot parse fps {value!r}") from exc
    elif isinstance(value, bool) or not isinstance(value, (int, float)):
        raise InputFormatError(f"fps must be a number or 'num/den' string, got {value!r}")
    else:
        fps = Fraction(str(value))
    if fps <= 0:
        raise InputFormatError(f"fps must be > 0, got {value!r}")
    return fps


def format_fps(fps: Fraction):
    """Inverse of parse_fps: integer rates as plain ints, others as num/den."""
    if fps.denominator == 1:
        return fps.numerator
    return f"{fps.numerator}/{fps.denominator}"


def parse_detections(source) -> tuple[Detections, StreamMeta]:
    """Parse a detections stream into columns plus stream metadata.

    ``source`` may be a bytes object, a text/binary file object, or a path;
    it is read line by line. Records must arrive in strictly increasing
    frame_index order; duplicates are rejected, missing indices are
    tolerated and reported as gaps. Box values must be JSON numbers. Every
    rejected input raises InputFormatError naming its line.
    """
    header = None
    block = _Block()
    blocks = []
    last_index = None
    gaps: list[tuple[int, int]] = []
    with _lines(source) as lines:
        for line_no, line in enumerate(lines, start=1):
            try:
                if isinstance(line, bytes):
                    line = decode_line(line, line_no)
                stripped = line.strip()
                if not stripped:
                    continue
                try:
                    obj = json.loads(stripped)
                except json.JSONDecodeError as exc:
                    raise InputFormatError(f"invalid JSON: {exc.msg}", line=line_no) from exc
                if header is None:
                    header = _header(obj, line_no)
                    continue
                frame_index = block.add_record(obj, line_no)
                if last_index is not None:
                    if frame_index == last_index:
                        raise InputFormatError(
                            f"duplicate frame_index {frame_index}", line=line_no
                        )
                    if frame_index < last_index:
                        raise InputFormatError(
                            f"non-monotone frame_index {frame_index} after {last_index}",
                            line=line_no,
                        )
                    if frame_index > last_index + 1:
                        gaps.append((last_index + 1, frame_index - 1))
            except InputFormatError:
                block.columns()  # a bad box on an earlier line is reported first
                raise
            last_index = frame_index
            if len(block.frame_index) == _BLOCK_FRAMES:
                blocks.append(block.columns())
                block = _Block()
    if header is None:
        raise InputFormatError("empty detections stream (no header)")
    blocks.append(block.columns())
    frame_index, timestamp_ms, counts, values, class_id = (
        np.concatenate(parts, axis=-1) for parts in zip(*blocks)
    )
    offsets = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=offsets[1:])
    detections = Detections(frame_index, timestamp_ms, offsets, Boxes(*values, class_id))
    meta = StreamMeta(
        fps=header[0],
        frame_count=len(detections),
        source_id=header[1],
        gaps=tuple(gaps),
    )
    return detections, meta


class _Block:
    """Up to _BLOCK_FRAMES frames of a parse, still as Python values.

    ``starts[k]`` is the first row in ``rows`` of the k-th record added and
    ``lines[k]`` its line number, so a bad row maps back to its line.
    """

    def __init__(self):
        self.frame_index: list[int] = []
        self.timestamp_ms: list[int] = []
        self.starts: list[int] = []
        self.lines: list[int] = []
        self.rows: list[tuple] = []

    def add_record(self, obj, line_no) -> int:
        """Append one frame record; returns its frame_index."""
        if not isinstance(obj, dict):
            raise InputFormatError("record must be a JSON object", line=line_no)
        frame_index = _int_field(obj, "frame_index", line_no)
        timestamp_ms = _int_field(obj, "timestamp_ms", line_no)
        if "boxes" not in obj:
            raise InputFormatError("record missing field 'boxes'", line=line_no)
        raw_boxes = obj["boxes"]
        if not isinstance(raw_boxes, list):
            raise InputFormatError(
                f"boxes must be a JSON array, got {raw_boxes!r}", line=line_no
            )
        self.starts.append(len(self.rows))
        self.lines.append(line_no)
        try:
            self.rows.extend(map(_box_values, raw_boxes))
        except KeyError as exc:
            raise InputFormatError(f"box missing field {exc.args[0]!r}", line=line_no) from exc
        except TypeError:
            raise InputFormatError("box must be a JSON object", line=line_no) from None
        for name, value in (("frame_index", frame_index), ("timestamp_ms", timestamp_ms)):
            if value < 0:
                raise InputFormatError(f"{name} must be >= 0, got {value}", line=line_no)
            if value > _INT64_MAX:
                raise InputFormatError(f"{name} must be <= {_INT64_MAX}, got {value}", line=line_no)
        self.frame_index.append(frame_index)
        self.timestamp_ms.append(timestamp_ms)
        return frame_index

    def line_of(self, row: int) -> int:
        return self.lines[bisect.bisect_right(self.starts, row) - 1]

    def columns(self):
        """(frame_index, timestamp_ms, box counts, (5, m) x/y/w/h/score, class_id) arrays.

        Raises InputFormatError for the first box whose values are not
        numbers or are out of range.
        """
        rows = self.rows
        try:
            values, class_id = _box_arrays(rows)
        except (TypeError, ValueError, OverflowError) as exc:
            # the first box that fails on its own is the one to report
            for r in range(len(rows)):
                try:
                    one, _ = _box_arrays(rows[r : r + 1])
                except (TypeError, ValueError, OverflowError):
                    raise InputFormatError(
                        f"bad box: values must be numbers, got {dict(zip(_BOX_FIELDS, rows[r]))}",
                        line=self.line_of(r),
                    ) from None
                self._check_ranges(one, r)
            raise InputFormatError(f"bad box: {exc}", line=self.lines[0]) from exc
        self._check_ranges(values, 0)
        return (
            np.array(self.frame_index, dtype=np.int64),
            np.array(self.timestamp_ms, dtype=np.int64),
            np.diff(self.starts + [len(rows)]),
            np.ascontiguousarray(values[:, :5].T),
            class_id,
        )

    def _check_ranges(self, values, first_row):
        """Reject the first row of ``values`` (row ``first_row`` of the block) out of range."""
        w, h, score = values[:, 2], values[:, 3], values[:, 4]
        bad = (w <= 0) | (h <= 0) | ~((0.0 <= score) & (score <= 1.0))
        if not bad.any():
            return
        r = int(np.argmax(bad))
        w, h, score = float(w[r]), float(h[r]), float(score[r])
        if w <= 0 or h <= 0:
            message = f"box width/height must be > 0, got w={w}, h={h}"
        else:
            message = f"score must be in [0, 1], got {score}"
        raise InputFormatError(f"bad box: {message}", line=self.line_of(first_row + r))


def _box_arrays(rows):
    """(m, 6) float64 box values and exact int64 class ids of box tuples.

    numpy infers a numeric dtype only when every value is a number (JSON
    true/false count as 1/0, as ``float`` reads them); anything else raises.
    """
    values = np.array(rows)
    if values.dtype.kind not in "biuf":
        raise TypeError(f"non-numeric box values ({values.dtype})")
    values = values.reshape(len(rows), len(_BOX_FIELDS)).astype(np.float64, copy=False)
    class_id = np.fromiter(map(_class_id, rows), dtype=np.int64, count=len(rows))
    return values, class_id


def _header(obj, line_no) -> tuple[Fraction, str]:
    """(fps, source_id) of the header line."""
    if not isinstance(obj, dict):
        raise InputFormatError("header must be a JSON object", line=line_no)
    if "fps" not in obj:
        raise InputFormatError("header missing 'fps'", line=line_no)
    try:
        fps = parse_fps(obj["fps"])
    except InputFormatError as exc:
        raise InputFormatError(str(exc), line=line_no) from None
    return fps, str(obj.get("source_id", ""))


def _int_field(obj, name, line_no) -> int:
    try:
        return int(obj[name])
    except KeyError:
        raise InputFormatError(f"record missing field {name!r}", line=line_no) from None
    except (TypeError, ValueError, OverflowError):
        raise InputFormatError(
            f"{name} must be an integer, got {obj[name]!r}", line=line_no
        ) from None


def serialize_detections(detections: Detections, meta: StreamMeta) -> bytes:
    """Write detections + metadata back to the detections file format."""
    out = io.StringIO()
    json.dump(
        {"fps": format_fps(meta.fps), "source_id": meta.source_id},
        out,
        separators=(",", ":"),
    )
    out.write("\n")
    b = detections.boxes
    rows = list(zip(*(c.tolist() for c in (b.x, b.y, b.w, b.h, b.score, b.class_id))))
    offsets = detections.offsets.tolist()
    stamps = detections.timestamp_ms.tolist()
    for i, index in enumerate(detections.frame_index.tolist()):
        record = {
            "frame_index": index,
            "timestamp_ms": stamps[i],
            "boxes": [dict(zip(_BOX_FIELDS, row)) for row in rows[offsets[i] : offsets[i + 1]]],
        }
        out.write(json.dumps(record, separators=(",", ":")))
        out.write("\n")
    return out.getvalue().encode("utf-8")


def load_gray_frames(source) -> np.ndarray:
    """Read a CGRY container as one read-only (n, height, width) uint8 array.

    ``source`` is the container's bytes, an ``mmap`` of it, a path or a file
    object. The array is a view of the bytes or of the mapping, not a copy.
    """
    data = source if isinstance(source, (bytes, mmap.mmap)) else source_bytes(source)
    if len(data) < _GRAY_HEADER.size:
        raise InputFormatError("gray container shorter than its 16-byte header")
    magic, width, height, count = _GRAY_HEADER.unpack_from(data)
    if magic != GRAY_MAGIC:
        raise InputFormatError(f"bad magic {magic!r}, expected {GRAY_MAGIC!r}")
    if width == 0 or height == 0:
        raise InputFormatError(f"zero frame dimension {width}x{height}")
    frame_size = width * height
    expected = _GRAY_HEADER.size + count * frame_size
    if len(data) < expected:
        raise InputFormatError(
            f"truncated payload: header declares {count} frames of {frame_size} bytes "
            f"({expected} total), got {len(data)} bytes"
        )
    if len(data) > expected:
        raise InputFormatError(f"{len(data) - expected} trailing bytes after last frame")
    pixels = np.frombuffer(
        data, dtype=np.uint8, count=count * frame_size, offset=_GRAY_HEADER.size
    )
    pixels.flags.writeable = False  # a writable mapping stays read-only here
    return pixels.reshape(count, height, width)


def save_gray_frames(frames) -> bytes:
    """Write an (n, height, width) uint8 array as a CGRY container.

    The inverse of ``load_gray_frames``; an array that is not 3-D, is empty
    or is not uint8 would make a container the loader rejects.
    """
    frames = np.asarray(frames)
    if frames.ndim != 3 or frames.dtype != np.uint8 or frames.size == 0:
        raise ValueError(
            "gray frames must be a non-empty (n, height, width) uint8 array, "
            f"got shape {frames.shape} of {frames.dtype}"
        )
    count, height, width = frames.shape
    return _GRAY_HEADER.pack(GRAY_MAGIC, width, height, count) + frames.tobytes()


@contextmanager
def _lines(source):
    """Line iterator over a path, bytes object or file object."""
    if isinstance(source, str):
        with open(source, "rb") as fh:
            yield fh
    elif isinstance(source, (bytes, bytearray)):
        yield io.BytesIO(source)
    else:
        yield source


def source_bytes(source) -> bytes:
    """The whole content of a path, bytes object or (binary or text) file object."""
    if isinstance(source, str):
        with open(source, "rb") as fh:
            return fh.read()
    if isinstance(source, (bytes, bytearray)):
        return bytes(source)
    data = source.read()
    return data.encode("utf-8") if isinstance(data, str) else data


def decode_line(line: bytes, line_no: int) -> str:
    """One input line as text; invalid UTF-8 raises InputFormatError naming the line."""
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"invalid UTF-8: {exc}", line=line_no) from None
