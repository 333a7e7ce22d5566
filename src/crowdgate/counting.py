"""Per-frame people counts from detections, and routing of dense frames.

The detector path counts person boxes above a confidence floor. Frames
whose detector count is strictly above the ceiling are unreliable (the
detector saturates in dense crowds) and get their count replaced by the
pixel-based density estimate.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InputFormatError, RoutingError
from .ingest import (
    _INT64_DIGITS,
    _INT64_MAX,
    Detections,
    StreamMeta,
    _join,
    _read_detections,
    _walk,
    decode_line,
    format_fps,
    parse_fps,
)
from .words import _DIGIT_VALUES, _LAST_BYTES, _digits_to_int, _padded, _words

PROV_DETECTOR = "Detector"
PROV_DENSITY = "Density"
PROV_SMOOTHED = "Smoothed"
# The provenance words; a CountSeries holds each frame's as its index here.
PROVENANCE = (PROV_DETECTOR, PROV_DENSITY, PROV_SMOOTHED)
CODE_DETECTOR, CODE_DENSITY, CODE_SMOOTHED = range(len(PROVENANCE))

_HEADER = ["frame_index", "count", "provenance"]
# Rows that write_count_series renders at once: its byte matrix, mask and
# temporaries take about 60 bytes a row, so a long series is rendered a
# block at a time and the writer's peak stays near its output.
_RENDER_ROWS = 1 << 14
# One count-series row, as the line check splits it. A sign is matched only
# so that a negative count or frame_index gets its own message.
_ROW = re.compile(r'(-?[0-9]+),(-?[0-9]+),([^\s",]*)')
# The 8 bytes before each row's line end, by code, as a little-endian
# uint64: the word, after its comma if it is shorter.
_ROW_KEYS = np.array(
    [int.from_bytes(f",{p}".encode()[-8:], "little") for p in PROVENANCE], dtype=np.uint64
)
# How many bytes before a row's end its second comma lies, by code
_SECOND_COMMA = np.array([len(p) + 1 for p in PROVENANCE], np.int8)
_ROW_ENDS = np.array(
    [np.frombuffer(f",{p}\n".encode().ljust(10, b"\0"), np.uint8) for p in PROVENANCE]
)
# The reader's buffer holds this many zero bytes before the body, so that
# the three 8-byte words ending at any field's end lie inside it.
_PAD = 24
_NL, _CR, _COMMA = b"\n\r,"
# A frame_index's word plus one, where its last digit is not 9
_NEXT_INDEX = np.uint64(1 << 56)


@dataclass(frozen=True)
class CountSeries:
    """Ordered per-frame counts with frame rate and per-frame provenance.

    ``counts`` is int64. ``provenance`` is a same-length uint8 array of
    codes, each the index of a word in ``PROVENANCE``: ``CODE_DETECTOR``
    ("Detector"), ``CODE_DENSITY`` ("Density") or ``CODE_SMOOTHED``
    ("Smoothed"). The count CSV holds the words.
    """

    counts: np.ndarray
    fps: Fraction
    provenance: np.ndarray

    def __post_init__(self):
        if self.counts.shape != self.provenance.shape:
            raise ValueError("counts and provenance must be aligned")
        if self.fps <= 0:
            raise ValueError(f"fps must be > 0, got {self.fps}")
        if self.counts.dtype != np.int64:
            raise ValueError(f"counts must be int64, got {self.counts.dtype}")
        if len(self.counts) and self.counts.min() < 0:
            raise ValueError("counts must be nonnegative")
        if self.provenance.dtype != np.uint8:
            raise ValueError(f"provenance must be uint8 codes, got {self.provenance.dtype}")
        if len(self.provenance) and self.provenance.max() >= len(PROVENANCE):
            raise ValueError(f"unknown provenance code {int(self.provenance.max())}")

    def __len__(self):
        return len(self.counts)

    @classmethod
    def from_counts(cls, counts, fps, provenance=PROV_DETECTOR) -> "CountSeries":
        """A series whose every frame has the provenance word ``provenance``."""
        if provenance not in PROVENANCE:
            raise ValueError(f"unknown provenance {provenance!r}")
        counts = np.asarray(counts, dtype=np.int64)
        codes = np.full(counts.shape, PROVENANCE.index(provenance), dtype=np.uint8)
        return cls(counts, Fraction(fps), codes)


def _total(counts: np.ndarray) -> int:
    """The exact sum of int64 counts, which ``counts.sum()`` wraps past
    2**63 - 1: the int64 sums of the high and of the low 32 bits of fewer
    than 2**31 counts cannot overflow."""
    return (int((counts >> 32).sum()) << 32) + int((counts & 0xFFFFFFFF).sum())


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
    """Detector counts for a whole parsed stream, in frame order.

    A frame's count is its number of person boxes at or above the
    confidence floor.
    """
    boxes = detections.boxes
    counts = _person_counts(detections.box_counts, boxes.score, boxes.class_id, policy)
    return CountSeries.from_counts(counts, meta.fps)


def count_detections(data, policy: RoutingPolicy) -> tuple[CountSeries, StreamMeta]:
    """Detector counts of a detections stream and its StreamMeta, whose
    ``sha256`` is the stream's hash.

    ``data`` is the whole stream, bytes or a mapping of its file, and is
    parsed and checked as ``ingest.parse_detections`` does, with the same
    errors. Each block's person boxes are counted where it is read, a
    scanned block's on the worker that scanned it (``ingest._read_detections``),
    and its box columns are dropped there. So a window of the walk
    (``ingest._walk``) holds each block's frame indices and counts, not its
    boxes, and the walk releases a mapped stream's pages behind it: memory
    grows with the frames (an int64 count per frame), not with the boxes or
    the stream's bytes.
    """

    def frame_counts(columns):
        frame_index, _, box_counts, *_, score, class_id = columns
        return frame_index, _person_counts(box_counts, score, class_id, policy)

    meta, counts = _read_detections(data, lambda part: part[1], frame_counts)
    return CountSeries.from_counts(_join(counts), meta.fps), meta


def _person_counts(box_counts, score, class_id, policy: RoutingPolicy) -> np.ndarray:
    """Per-frame counts of person boxes at or above the confidence floor; frame
    i owns the next ``box_counts[i]`` rows of ``score`` and ``class_id``."""
    owner = np.repeat(np.arange(len(box_counts)), box_counts)
    person = (class_id == policy.person_class_id) & (score >= policy.min_score)
    return np.bincount(owner[person], minlength=len(box_counts))


def frames_needing_density(series: CountSeries, policy: RoutingPolicy) -> np.ndarray:
    """Rising indices of the frames whose detector count is strictly above the ceiling."""
    return np.flatnonzero(series.counts > policy.count_ceiling)


def route_counts(series: CountSeries, policy: RoutingPolicy, density_counts=None) -> CountSeries:
    """Replace over-ceiling detector counts with density estimates.

    ``density_counts`` holds one count per frame ``frames_needing_density``
    returns, in that order: another length raises ValueError, and so does a
    negative count, naming its frame; None raises RoutingError naming the
    frames. A frame count equal to the ceiling stays on the detector path
    (routing triggers strictly above).
    """
    over = frames_needing_density(series, policy)
    if not len(over):
        return series
    if density_counts is None:
        raise RoutingError(over.tolist())
    values = np.asarray(density_counts)
    if values.shape != over.shape:
        raise ValueError(f"{values.size} density count(s) for {len(over)} over-ceiling frame(s)")
    if (values < 0).any():
        k = np.argmax(values < 0)
        raise ValueError(f"density count for frame {over[k]} is negative: {values[k]}")
    counts = series.counts.copy()
    prov = series.provenance.copy()
    counts[over] = values
    prov[over] = CODE_DENSITY
    return CountSeries(counts, series.fps, prov)


def write_count_series(series: CountSeries, comments: Sequence[str] = ()) -> bytes:
    """Render the CSV count-series format.

    ``#``-prefixed comment lines (fps plus any caller-supplied provenance
    metadata) precede the header; readers skip them.
    """
    head = [f"# fps={format_fps(series.fps)}\n"]
    head += [f"# {comment}\n" for comment in comments]
    head.append(",".join(_HEADER) + "\n")
    blocks = (slice(i, i + _RENDER_ROWS) for i in range(0, len(series), _RENDER_ROWS))
    rows = (_render_rows(series.counts[b], series.provenance[b], b.start) for b in blocks)
    return b"".join(["".join(head).encode("utf-8"), *rows])


def _render_rows(counts: np.ndarray, codes: np.ndarray, first: int) -> bytes:
    """The rows ``{i},{count},{word}\n`` of a series' frames ``first`` on,
    rendered as arrays.

    Each row is laid out in one row of a byte matrix: the index right-aligned
    in as many digit places as the widest has, a comma, the count likewise,
    then the comma, word and line end of its code. Leading zeros and the
    padding after short words are zero bytes, which no row holds, so
    dropping the matrix's zero bytes gives the rows in order.
    """
    n = len(counts)
    index_width = len(str(first + n - 1))
    count_width = len(str(int(counts.max())))
    row = np.empty((n, index_width + count_width + 1 + _ROW_ENDS.shape[1]), np.uint8)
    comma = index_width + 1 + count_width
    _render_digits(np.arange(first, first + n), row[:, :index_width])
    row[:, index_width] = ord(",")
    _render_digits(counts, row[:, index_width + 1 : comma])
    row[:, comma:] = _ROW_ENDS.take(codes, axis=0)
    return row[row != 0].tobytes()


def _render_digits(values: np.ndarray, digits: np.ndarray):
    """Write the decimal digits of nonnegative int64 ``values`` right-aligned
    into the columns of ``digits``, with zero bytes for leading zeros."""
    width = digits.shape[1]
    lowest = int(values.min())
    # uint32 arithmetic is several times faster, where the values fit
    rest = values.astype(np.uint32 if width < 10 else np.uint64)
    for power in range(width):
        quotient = rest // 10
        digit = rest - quotient * 10
        digit += ord("0")
        if power and lowest < 10**power:
            digit *= rest != 0  # a leading zero: nothing is left of the value
        digits[:, -1 - power] = digit
        rest = quotient


def read_count_series(data, fps=None, digest=None) -> CountSeries:
    """Parse the CSV count-series format from a file's bytes or a mapping of it.

    Blank lines and ``#`` comment lines may appear anywhere, with LF or
    CRLF line ends; the last ``# fps=`` comment gives the frame rate, which
    ``fps`` overrides (or supplies, when there is none). ``fps`` is read
    as ``parse_fps`` reads a header's, before the file. The first other
    line is the header ``frame_index,count,provenance``. Every line after
    it that is not blank or a comment must be a row as write_count_series
    emits it: frame_index counting up from 0, a count of at most 19 ASCII
    digits within int64, and one of the three provenance words, with no
    quotes, signs or spaces. Every rejected input raises InputFormatError
    naming its line.

    The preamble is read a line at a time, and the body by ``ingest._walk``,
    which also updates a ``hashlib`` hash given as ``digest`` with
    ``data``, whole. Its scan is ``_scan_body``, its line parser
    ``_parse_rows``, and a scanned block continues the rows before it if
    its first frame_index is their number.
    """
    fps = None if fps is None else parse_fps(fps)
    file_fps, line_no, body = _read_preamble(data)
    rows = 0

    def parse(start, end, line_no):
        nonlocal file_fps
        block_fps, *part, lines = _parse_rows(data, start, end, line_no, rows)
        file_fps = block_fps or file_fps
        return (rows, *part), lines

    # an empty part first, so that a body without rows joins too
    counts, codes = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.uint8)]
    scan = functools.partial(_scan_body, data)
    parts = _walk(data, body, line_no, scan, parse, lambda part: part[0] in (None, rows), digest)
    for _, block_counts, block_codes in parts:
        counts.append(block_counts)
        codes.append(block_codes)
        rows += len(block_counts)
    fps = fps or file_fps
    if fps is None:
        raise InputFormatError("no fps available: file carries no '# fps=' and none was supplied")
    return CountSeries(_join(counts), fps, _join(codes))


def _read_preamble(data) -> tuple[Fraction | None, int, int]:
    """(fps of the last '# fps=' comment, first body line's number, body offset)."""
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
        return file_fps, line_no + 1, min(pos, len(data))
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


def _scan_body(data, start: int, end: int):
    """((first frame_index or None, counts, provenance codes), number of
    line ends) of the body lines in ``data[start:end]``, scanned as whole
    arrays; None unless every line is a row or empty, with LF or CRLF line
    ends, and the frame_index counts up by one from the first row's.

    The scan searches the block for its line ends alone and places every
    field of a row from its ends. The block's lines are taken as LF rows,
    or, if a line's end is not a row's, as the rows ``_split_rows`` finds.
    The 8 bytes before a row's end must be a provenance word, after its
    comma if the word is shorter, which gives the row's code and its
    second comma (``_row_codes``). Its first comma lies as many bytes after
    its start as its expected frame_index, the first row's plus its place
    in the block, has digits, so an index with a leading zero is not
    scanned. A "," is checked at both places. One count then checks both
    number fields: line ends, CRs, commas and words hold no digit, so the
    block holds as many digits as the fields' summed widths only if every
    byte of them is a digit. The frame_index is checked by ``_counts_up``.
    Any other block, one holding a comment or a line to reject, is left to
    _parse_rows. The block is copied and its fields read as 8-byte words by
    ``words``, as the detections scan reads its numbers.
    """
    size = end - start
    if size >= 1 << 31:
        return None  # offsets are int32
    # the lines, with zero bytes before and after them, so that a word
    # ending at any field's end, or starting at any field's start, stays
    # inside; a block without a final line end gets one in the padding
    buf, stop = _padded(data, start, end, _PAD, 8)
    text = buf[_PAD:stop]
    stops = _line_ends(buf, len(text))
    line_ends = len(stops) - (len(text) - size)  # less a line end _padded added
    starts = np.empty_like(stops)
    starts[:1] = 0
    np.add(stops[:-1], 1, out=starts[1:])
    codes = _row_codes(buf, stops)
    if codes is None:
        starts, stops = _split_rows(buf, starts, stops)
        codes = _row_codes(buf, stops)
        if codes is None:
            return None
    if not len(stops):
        return (None, np.zeros(0, np.int64), codes), line_ends
    comma2 = stops  # in place
    comma2 -= _SECOND_COMMA.take(codes)
    first_width = text[starts[0] : comma2[0]].tobytes().find(b",")
    if not 0 < first_width <= _INT64_DIGITS:
        return None
    first = int(_digit_fields(buf, starts[:1] + first_width, np.array([first_width]))[0])
    # each row's index width, which grows by one at each power of ten
    index_width = np.full(len(stops), len(str(first)), np.int8)
    power = 10 ** len(str(first))
    while power < first + len(stops):
        index_width[power - first :] += 1
        power *= 10
    # the digits the fields hold if every byte of them is one
    digits = int(comma2.sum(dtype=np.int64)) - int(starts.sum(dtype=np.int64)) - len(starts)
    comma1 = starts  # in place
    comma1 += index_width
    count_width = comma2 - comma1
    count_width -= 1
    if not 1 <= count_width.min() <= count_width.max() <= _INT64_DIGITS:
        return None
    if not ((text[comma1] == _COMMA).all() and (text[comma2] == _COMMA).all()):
        return None
    digit = np.subtract(text, np.uint8(ord("0")))
    if np.count_nonzero(np.less(digit, 10, out=digit.view(np.bool_))) != digits:
        return None
    del digit
    if not _counts_up(buf, first, comma1, index_width):
        return None
    counts = _digit_fields(buf, comma2, count_width)
    if counts.max() > _INT64_MAX:
        return None
    return (first, counts.view(np.int64), codes), line_ends


def _line_ends(buf: np.ndarray, size: int) -> np.ndarray:
    """The offsets of the line ends in the first ``size`` bytes of the body.

    The line ends are marked, and the marks searched 8 at a time, as
    uint64 words: a row is longer than 8 bytes, so a word of rows holds at
    most one mark, and the top byte of its product with 0x0001020304050607
    is the mark's place in it. A block with two marks in a word is searched
    byte by byte.
    """
    marks = buf[_PAD : _PAD + -(-size // 8) * 8] == _NL
    words = marks.view("<u8")
    found = np.flatnonzero(words != 0)
    marked = words[found]
    two = marked - np.uint64(1)
    two &= marked
    if two.any():
        return np.flatnonzero(marks).astype(np.int32)
    del marks, two
    marked *= np.uint64(0x0001020304050607)
    marked >>= np.uint64(56)
    found <<= 3
    found += marked.view(np.int64)
    return found.astype(np.int32)


def _split_rows(buf: np.ndarray, starts: np.ndarray, stops: np.ndarray):
    """(row starts, row stops) of the body lines ``starts[i]:stops[i]``
    ending at line ends, less a CR before the line end, and then less the
    empty lines. A CR anywhere else lies in a field or a word, which the
    digit and word checks then reject."""
    stops = stops - (buf[_PAD - 1 + stops] == _CR)
    filled = stops > starts
    return starts[filled], stops[filled]


def _row_codes(buf: np.ndarray, stops: np.ndarray):
    """The provenance code of each body row ending before ``stops[i]``, or
    None unless the 8 bytes before every stop, as one uint64 key, are a
    word, after its comma if it is shorter."""
    keys = _words(buf)[_PAD - 8 + stops]
    codes = (keys == _ROW_KEYS[CODE_DENSITY]).view(np.uint8)
    codes |= (keys == _ROW_KEYS[CODE_SMOOTHED]).view(np.uint8) << 1
    if not np.array_equal(_ROW_KEYS.take(codes), keys):
        return None
    return codes


def _counts_up(buf: np.ndarray, first: int, ends: np.ndarray, width: np.ndarray) -> bool:
    """Whether the body fields of ``width[i]`` ASCII digits ending before
    ``ends[i]``, the first of which holds ``first``, count up by one.

    Up to 8 digits, each field is taken as the 8-byte word ending at its
    end, with the bytes before it cleared. Where a frame_index does not end
    in 9, the next differs from it in its last digit alone: its word is
    this one's plus 1 << 56. So only the fields after a carry, whose
    frame_index ends in 0, are summed as numbers; wider fields all are.
    """
    if first + len(ends) > 10**8:
        return not (np.diff(_digit_fields(buf, ends, width)) != 1).any()
    words = _words(buf)[_PAD - 8 + ends]
    words &= _LAST_BYTES.take(width)
    step = np.diff(words)
    carried = -first % 10  # the first row whose frame_index ends in 0
    step[(carried - 1) % 10 :: 10] = _NEXT_INDEX
    if (step != _NEXT_INDEX).any():
        return False
    read = _digits_to_int(words[carried::10] & _DIGIT_VALUES)
    return np.array_equal(read, np.arange(first + carried, first + len(ends), 10, dtype=np.uint64))


def _digit_fields(buf: np.ndarray, ends: np.ndarray, width: np.ndarray) -> np.ndarray:
    """uint64 values of the body fields of ``width[i]`` ASCII digits, 1 to
    19, that end before offset ``ends[i]``.

    Fields of at most 3 digits are summed a byte at a time from their end.
    Wider ones are read as the 8-byte words ending at their end, with the
    bytes before the field cleared, and each word's eight digits summed at
    once (``words._digits_to_int``).
    """
    widest = int(width.max())
    last = ends + (_PAD - 1)
    if widest <= 3:
        value = (buf[last] & np.uint8(0x0F)).astype(np.uint16)
        for k in range(1, widest):
            # the digit k places before the field's end, 0 past its start
            # widened first: NumPy 1 keeps uint8 * uint16(100) in uint8
            digit = (buf[last - k] & np.uint8(0x0F)).astype(np.uint16)
            value += digit * (width > k) * np.uint16(10**k)
        return value.astype(np.uint64)
    words = _words(buf)
    value = np.zeros(len(width), dtype=np.uint64)
    for i in range(-(-widest // 8)):
        # the i-th word from the field's end, with the bytes before the field cleared
        word = words[last - 7 - 8 * i]
        word &= _LAST_BYTES.take(np.clip(width - 8 * i, 0, 8) if widest > 8 else width)
        word &= _DIGIT_VALUES
        value += _digits_to_int(word) * np.uint64(10 ** (8 * i))
    return value


def _parse_rows(data, start: int, end: int, line_no: int, expected: int):
    """(fps of the last '# fps=' comment or None, counts, provenance codes,
    number of line ends) of the body lines in ``data[start:end]``, read a
    line at a time; raises the InputFormatError of the first bad line.

    ``line_no`` is the number of the first line and ``expected`` the
    frame_index of the first row.
    """
    block_fps = None
    counts, codes = [], []
    lines = data[start:end].split(b"\n")
    for line_no, line in enumerate(lines, start=line_no):
        text = decode_line(line.removesuffix(b"\r"), line_no)
        stripped = text.strip()
        if not stripped:
            continue
        if stripped.startswith("#"):
            block_fps = _comment_fps(stripped, line_no) or block_fps
            continue
        row = _ROW.fullmatch(text)
        if row is None:
            raise InputFormatError(f"bad count row {text!r}", line=line_no)
        index, count, prov = row.groups()
        if count.startswith("-"):
            raise InputFormatError(f"negative count {count}", line=line_no)
        if len(count) > _INT64_DIGITS or int(count) > _INT64_MAX:
            raise InputFormatError(
                f"count {count} is over {_INT64_MAX} or longer than {_INT64_DIGITS} digits",
                line=line_no,
            )
        if prov not in PROVENANCE:
            raise InputFormatError(f"unknown provenance {prov!r}", line=line_no)
        if index.startswith("-") or len(index) > _INT64_DIGITS or int(index) != expected:
            raise InputFormatError(
                f"expected frame_index {expected}, got {index}", line=line_no
            )
        counts.append(int(count))
        codes.append(PROVENANCE.index(prov))
        expected += 1
    return block_fps, np.array(counts, np.int64), np.array(codes, np.uint8), len(lines) - 1
