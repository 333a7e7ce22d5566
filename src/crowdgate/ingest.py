"""Parsing and normalization of detector output and raw grayscale frames,
and the one block walk of the package's text formats.

* Detections file: UTF-8, LF-terminated JSON lines. The first non-blank
  line is a header object ``{"fps": <number or "num/den">, "source_id": s}``;
  every following non-blank line is one frame record with its bounding boxes.
* Raw gray container: 16-byte header (magic ``CGRY``, little-endian u32
  width, height, frame count) followed by ``frame_count * width * height``
  bytes of row-major 8-bit intensities. FFmpeg can emit this layout from
  any video via ``-f rawvideo -pix_fmt gray`` plus a prepended header.

Parsed detections are held column-wise (:class:`Detections`): numpy arrays
with one entry per frame or per box, so no Python object per box outlives
the parse. The body of a text stream, a detections file here or a count
CSV (``counting.read_count_series``), is read by ``_walk``: in blocks on
all CPUs, a window of blocks at a time, each block scanned as whole numpy
arrays or parsed a line at a time, a mapped stream's pages released
behind each window. A format passes only its scan, its line parser and
its test that a scanned block continues the blocks before it.
"""

from __future__ import annotations

import bisect
import functools
import hashlib
import itertools
import json
import mmap
import operator
import os
import stat
import struct
import threading
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import InputFormatError

GRAY_MAGIC = b"CGRY"
_GRAY_HEADER = struct.Struct("<4sIII")

_BOX_FIELDS = ("x", "y", "w", "h", "score", "class_id")
_box_values = operator.itemgetter(*_BOX_FIELDS)
_class_id = operator.itemgetter(_BOX_FIELDS.index("class_id"))
_NUMBER_TYPES = frozenset((int, float))  # what json.loads makes of a JSON number
# The bound, and its digits, of every integer the package reads or writes.
_INT64_MAX = int(np.iinfo(np.int64).max)
_INT64_DIGITS = len(str(_INT64_MAX))
# ``_walk`` cuts the body of a detections file or a count CSV into blocks
# of this many bytes, each ended at the next line end (``_line_blocks``),
# and runs the blocks on all CPUs. Every numpy call of a scan lets the
# other scan threads take the interpreter lock, so larger blocks, with
# fewer calls per byte, read faster: on a 2-vCPU host, passes that read
# count CSVs took 10-13% less time than with 256 KiB blocks, and passes
# over detections 7-9% less.
_BLOCK_BYTES = 1 << 19
# Blocks ``_walk`` scans at once, at most, whatever the CPU count: a
# detections scan holds up to 5 times its block in temporaries, a
# count-CSV scan up to 4 times.
_SCAN_THREADS = 4
# Blocks per window of ``_walk`` (about 4 MiB): a mapped stream's
# pages are released a window at a time, once parsed and hashed.
_WINDOW_BLOCKS = 8
# Bytes per window of a gray container, which the density loop's workers
# and ``run``'s hash each walk at once (``density._density_loop``,
# ``cli._sha256``), releasing its mapped pages behind them. Smaller windows
# gave no lower peak, and 1 MiB ran slower.
_GRAY_WINDOW_BYTES = 1 << 21


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


@dataclass(frozen=True, eq=False)
class Detections:
    """A parsed detections stream, column-wise: the walk's joined columns.

    ``frame_index``, ``timestamp_ms`` and ``box_counts`` are int64 with one
    entry per frame; frame i owns the next ``box_counts[i]`` rows of
    ``boxes``, in frame order.
    """

    frame_index: np.ndarray
    timestamp_ms: np.ndarray
    box_counts: np.ndarray
    boxes: Boxes

    def __len__(self):
        return len(self.frame_index)


@dataclass(frozen=True)
class StreamMeta:
    """Stream-level metadata; ``gaps`` lists (first, last) missing index ranges.

    ``sha256`` is the hex SHA-256 of the whole stream, header included, as
    ``_read_detections`` hashed it; empty for metadata made without a walk.
    """

    fps: Fraction
    frame_count: int
    source_id: str
    gaps: tuple[tuple[int, int], ...] = field(default=())
    sha256: str = ""

    def __post_init__(self):
        if self.fps <= 0:
            raise ValueError(f"fps must be > 0, got {self.fps}")


def parse_fps(value) -> Fraction:
    """Accept a JSON number, read by its repr (29.97 is 2997/100), a
    "num/den" string or a Fraction; reject non-positive rates, and rates
    past int64, whose smoothing window would be too."""
    if isinstance(value, bool) or not isinstance(value, (str, int, float, Fraction)):
        raise InputFormatError(f"fps must be a number or 'num/den' string, got {value!r}")
    try:
        fps = Fraction(value if isinstance(value, str) else str(value))
    except (ValueError, ZeroDivisionError) as exc:  # also an infinite or NaN float
        raise InputFormatError(f"cannot parse fps {value!r}") from exc
    if fps <= 0:
        raise InputFormatError(f"fps must be > 0, got {value!r}")
    if fps > _INT64_MAX:
        raise InputFormatError(f"fps must be <= {_INT64_MAX}, got {value!r}")
    return fps


def format_fps(fps: Fraction):
    """Inverse of parse_fps: integer rates as plain ints, others as num/den."""
    if fps.denominator == 1:
        return fps.numerator
    return f"{fps.numerator}/{fps.denominator}"


def parse_detections(data) -> tuple[Detections, StreamMeta]:
    """Parse a detections stream into its walk's joined columns
    (``Detections``) plus stream metadata, which carries the stream's SHA-256.

    ``data`` is the whole stream: bytes, or an ``mmap`` of a file.
    Records must arrive in strictly increasing frame_index order;
    duplicates are rejected, missing indices are tolerated and reported as
    gaps. Box values must be JSON numbers; frame_index, timestamp_ms and
    class_id must be integers (``1.0`` counts, ``0.5`` does not). Every
    rejected input raises InputFormatError naming its line.

    The body is read by ``_walk``. A block whose lines are all canonical
    is read as whole numpy arrays (``scan.scan_block``). Canonical is what
    ``crowdgate ingest`` writes (``normalize_detections``): compact
    separators, the keys in the order frame_index, timestamp_ms, boxes and
    x, y, w, h, score, class_id, and numbers as Python writes them, where
    a float is scanned only when it has at most 15 significant digits and
    no exponent. Any other block, valid JSON laid out otherwise or a line
    to reject, is parsed a line at a time with ``json.loads``
    (``_parse_lines``), which reports every error; both give the same
    columns, bit for bit. A stream whose first block is not canonical
    costs one block's scan, and a later block in another form or out of
    frame order its scan on top of its per-line parse. A detector adapter
    that wants the scan writes the canonical form with floats rounded to at
    most 15 significant digits. Python's float repr often has 16 or 17
    (``0.1 + 0.2`` is ``0.30000000000000004``), so ``normalized.jsonl`` is
    scanned only when the input's floats were so rounded.
    """
    meta, parts = _read_detections(data, lambda part: part)
    # From here only `columns` holds the parts. They are joined a column at
    # a time, each column's parts dropped once joined, so the parse peaks
    # near its output, not at twice it.
    columns = [list(column) for column in zip(*parts)]
    parts.clear()
    frame_index, timestamp_ms, box_counts, *boxes = (_join(column) for column in columns)
    return Detections(frame_index, timestamp_ms, box_counts, Boxes(*boxes)), meta


def _read_detections(data, keep, reduce=None) -> tuple[StreamMeta, list]:
    """Read a detections stream through ``_walk``: (StreamMeta, kept parts).

    ``data`` is the whole stream, as for ``parse_detections``. Each block
    is parsed to its columns, as ``_Block.columns`` gives them, and checked
    as ``parse_detections`` describes. The two hooks run in different
    places. ``reduce(columns)``, if given, runs where the block is read: a
    scanned block's on the worker that scanned it, so that its box columns
    are dropped there, and a block parsed a line at a time on the calling
    thread; it makes the block's part, whose first item must stay its
    frame_index column. ``keep(part)`` runs on the calling thread, on each
    part in file order, and makes what is kept of it; so Python work that
    would hold the interpreter lock against the other scans, such as
    rendering records, belongs here. The kept parts start with ``keep`` of
    an empty block's part, so that a stream without records joins too.
    """
    (fps, source_id), body, line_no = _read_header(data)
    # Imported here: without cached bytecode, compiling the scan would cost
    # every command at start-up, also those that parse no detections.
    from .scan import scan_block

    reduce = reduce or (lambda columns: columns)

    def scan(start, stop):
        result = scan_block(data, start, stop)
        return None if result is None else (reduce(result[0]), result[1])

    def parse(start, stop, line_no):
        columns, lines = _parse_lines(data, start, stop, line_no, last_index)
        return reduce(columns), lines

    def follows(part):  # rises strictly, from above last_index
        frame_index = part[0]
        if last_index is not None and len(frame_index) and frame_index[0] <= last_index:
            return False
        return bool((np.diff(frame_index) > 0).all())

    kept = [keep(reduce(_Block().columns()))]
    last_index = None
    frame_count, gaps = 0, []
    digest = hashlib.sha256()
    for part in _walk(data, body, line_no, scan, parse, follows, digest):
        frame_count += len(part[0])
        gaps += _gaps(part[0], last_index)
        if len(part[0]):
            last_index = int(part[0][-1])
        kept.append(keep(part))
    meta = StreamMeta(fps, frame_count, source_id, tuple(gaps), digest.hexdigest())
    return meta, kept


def _walk(data, body, line_no, scan, parse, follows, digest=None):
    """Yield the parts of a text stream's body in file order: the package's
    one block walk, for detections and count CSVs alike.

    ``data`` is the whole stream, bytes or an ``mmap``; its body starts at
    offset ``body``, on line ``line_no``. The body is cut at line ends into
    blocks of about ``_BLOCK_BYTES`` (``_line_blocks``), ``_WINDOW_BLOCKS``
    to a window, and each window's blocks are scanned on ``_map_threads``.
    ``scan(start, stop)`` reads a block as whole arrays and gives ``(part,
    line ends)``, or None for a block it does not take; ``parse(start,
    stop, line_no)`` reads a block a line at a time, gives the same or
    raises the InputFormatError of its first bad line. The first block
    decides: a stream in another form is so throughout, as a rule, so no
    other block is scanned unless the scan takes the first. The other
    blocks wait for its scan, so a walk that hashes nothing beside it cuts
    it to an eighth of a block (``_line_blocks``). A scanned part
    is yielded if ``follows(part)``, the format's test that it continues
    the parts yielded before it; any other block is parsed, so the scan
    only speeds the read up. A window's parts are all held, as ``scan``
    gives them, before the first is yielded: a format that keeps less of
    a block than its columns makes the smaller part inside ``scan``, on
    the worker (``_read_detections``'s ``reduce``), so a window holds that.

    A ``hashlib`` hash given as ``digest`` is updated with each window's
    bytes, from byte 0 on, as one more item of the window's pool. Each
    window's whole pages are released (``_releaser``) once its parts are
    taken, so a mapped stream costs about a window of memory, and no page
    is released before it is hashed.
    """
    scanning = True
    first_scanned = threading.Event()

    def scan_in_turn(start, stop):
        """``scan``; past the first block, wait for its scan, and scan only if it was taken."""
        nonlocal scanning
        if start != body:
            first_scanned.wait()
            return scan(start, stop) if scanning else None
        try:
            scanning = (result := scan(start, stop)) is not None
            return result
        finally:
            first_scanned.set()

    release = _releaser(data)
    done = 0  # bytes of the stream hashed so far
    end = body
    with memoryview(data) as view:
        while True:
            short_first = digest is None and end == body
            window = _line_blocks(data, end, _WINDOW_BLOCKS, short_first)
            end = window[-1][1] if window else len(data)
            hashing = [] if digest is None else [functools.partial(digest.update, view[done:end])]
            jobs = hashing + [functools.partial(scan_in_turn, *b) for b in window if scanning]
            scanned = _map_threads(lambda job: job(), jobs, _SCAN_THREADS)[len(hashing) :]
            done = end
            for (start, stop), result in itertools.zip_longest(window, scanned):
                if result is None or not follows(result[0]):
                    result = parse(start, stop, line_no)
                part, lines = result
                line_no += lines
                yield part
            scanned.clear()
            release(end)  # the page holding `end` still serves the next window
            if end == len(data):
                return


def _releaser(data):
    """A ``release(upto)`` that releases (``MADV_DONTNEED``) the whole pages
    of ``data``'s mapping up to byte ``upto`` of ``data``, on from where it
    last stopped: the one release rule of the package.

    ``data`` is bytes, an ``mmap``, or a C-contiguous array that views one,
    as ``load_gray_frames`` makes it (ndarray -> ndarray -> memoryview,
    whose ``obj`` is the ``mmap``); the mapping is released from its start,
    the bytes before the array included. ``upto`` is rounded down to a page
    boundary unless it reaches the end of the mapping. A released page that
    is read again is faulted in from the page cache, so a release changes
    no result, only memory and time. For anything but a read-only mapping
    ``release`` does nothing: on a copy-on-write one it would drop the writes.
    """
    mapping, offset = data, 0
    if isinstance(data, np.ndarray):
        base = data
        while isinstance(base, np.ndarray):
            base = base.base
        contiguous = isinstance(base, memoryview) and data.flags.c_contiguous
        mapping = base.obj if contiguous else None
    if not isinstance(mapping, mmap.mmap):
        return _release_nothing
    with memoryview(mapping) as view:
        if not view.readonly:
            return _release_nothing
    if mapping is not data:  # the array's byte offset in the mapping
        start = np.frombuffer(base, dtype=np.uint8).__array_interface__["data"][0]
        offset = data.__array_interface__["data"][0] - start
    released = 0

    def release(upto):
        nonlocal released
        upto += offset
        if upto != len(mapping):
            upto -= upto % mmap.PAGESIZE
        if upto > released:
            mapping.madvise(mmap.MADV_DONTNEED, released, upto - released)
            released = upto

    return release


def _release_nothing(upto):
    """The ``release`` of anything but a read-only mapping."""


def _map_bytes(path):
    """A read-only ``mmap`` of a non-empty regular file; anything else read whole.

    Mapping copies nothing: pages come from the OS page cache as they are
    touched, and the mapping is released when the last array viewing it is
    freed. A FIFO, an empty file, or a file that cannot be mapped is read
    into ``bytes``. An unreadable path raises InputFormatError.
    """
    try:
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode) and info.st_size > 0:
                try:
                    return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                except (OSError, ValueError):
                    pass  # e.g. a file system without mmap, or a file emptied meanwhile
            return fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _gaps(frame_index, last_index) -> list[tuple[int, int]]:
    """(first, last) of each run of indices missing from the rising
    ``frame_index``, and between ``last_index`` (if not None) and it."""
    if last_index is not None:
        frame_index = np.concatenate(([last_index], frame_index))
    before = np.flatnonzero(np.diff(frame_index) > 1)
    return list(zip((frame_index[before] + 1).tolist(), (frame_index[before + 1] - 1).tolist()))


def _line_blocks(
    data, start: int, most: int | None = None, short_first: bool = False
) -> list[tuple[int, int]]:
    """(start, end) of the blocks of ``data[start:]``, the first ``most`` of
    them if given: each ends at the first line end at or past
    ``_BLOCK_BYTES`` bytes into it, or at the end of ``data``; the first
    at ``_BLOCK_BYTES // 8`` bytes if ``short_first``.

    Only the bytes around each block's end are read, but on a mapping
    that can fault in whole large pages: ``_walk`` cuts a window at a
    time, so that the pages it maps are the window's.
    """
    blocks = []
    size = max(_BLOCK_BYTES // 8, 1) if short_first else _BLOCK_BYTES
    while start < len(data) and (most is None or len(blocks) < most):
        end = data.find(b"\n", start + size - 1)
        end = len(data) if end < 0 else end + 1
        blocks.append((start, end))
        start, size = end, _BLOCK_BYTES
    return blocks


def _join(parts: list) -> np.ndarray:
    joined = np.concatenate(parts)
    parts.clear()
    return joined


def _read_header(data) -> tuple[tuple[Fraction, str], int, int]:
    """((fps, source_id), offset of the next line, its line number) of the header.

    The header is the first line that is not blank; a stream with none is
    rejected naming its last line.
    """
    start, line_no = 0, 1
    while start < len(data):
        end = data.find(b"\n", start)
        end = len(data) if end < 0 else end + 1
        text = decode_line(data[start:end], line_no).strip()
        if text:
            return _header(_loads(text, line_no), line_no), end, line_no + 1
        start, line_no = end, line_no + 1
    if data[-1:] not in (b"", b"\n"):  # the last line has no line end
        line_no -= 1
    raise InputFormatError("empty detections stream (no header)", line=line_no)


def _loads(text, line_no):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputFormatError(f"invalid JSON: {exc.msg}", line=line_no) from exc


def _parse_lines(data, start, end, line_no, last_index):
    """Columns of the records in ``data[start:end]``, one ``json.loads`` per line.

    ``line_no`` is the number of the first line and ``last_index`` the
    frame_index of the record before it (None for the first record).
    Returns the columns, as ``_Block.columns``, and the number of line ends
    in the range.
    """
    block = _Block()
    lines = data[start:end].split(b"\n")
    for line_no, line in enumerate(lines, start=line_no):
        try:
            text = decode_line(line, line_no).strip()
            if not text:
                continue
            frame_index = block.add_record(_loads(text, line_no), line_no)
            if last_index is not None:
                if frame_index == last_index:
                    raise InputFormatError(f"duplicate frame_index {frame_index}", line=line_no)
                if frame_index < last_index:
                    raise InputFormatError(
                        f"non-monotone frame_index {frame_index} after {last_index}",
                        line=line_no,
                    )
        except InputFormatError:
            block.columns()  # a bad box on an earlier line is reported first
            raise
        last_index = frame_index
    return block.columns(), len(lines) - 1


class _Block:
    """The records of a per-line parse, still as Python values.

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
        """Columns: frame_index, timestamp_ms, box counts, x, y, w, h, score, class_id.

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
            *np.ascontiguousarray(values[:, :5].T),
            class_id,
        )

    def _check_ranges(self, values, first_row):
        """Reject the first row of ``values`` (row ``first_row`` of the block) out of range.

        A class_id must be integral; ``_box_arrays`` truncates it.
        """
        w, h, score, class_id = values[:, 2], values[:, 3], values[:, 4], values[:, 5]
        fractional = class_id != np.floor(class_id)
        bad = fractional | (w <= 0) | (h <= 0) | ~((0.0 <= score) & (score <= 1.0))
        if not bad.any():
            return
        r = int(np.argmax(bad))
        w, h, score = float(w[r]), float(h[r]), float(score[r])
        if fractional[r]:
            message = f"class_id must be an integer, got {float(class_id[r])}"
        elif w <= 0 or h <= 0:
            message = f"box width/height must be > 0, got w={w}, h={h}"
        else:
            message = f"score must be in [0, 1], got {score}"
        raise InputFormatError(f"bad box: {message}", line=self.line_of(first_row + r))


def _box_arrays(rows):
    """(m, 6) float64 box values and exact int64 class ids of box tuples.

    Every value must be a JSON number: a string or a boolean (which numpy
    would read as 1 or 0) raises, and so does an integer too large for
    numpy's integer types.
    """
    if not _NUMBER_TYPES.issuperset(map(type, itertools.chain.from_iterable(rows))):
        raise TypeError("box values must be JSON numbers")
    values = np.array(rows)
    if values.dtype.kind not in "iuf":
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
    """``obj[name]`` as an int: a JSON integer, or an integral float (``int``
    would truncate any other); a string or a boolean is not a number."""
    try:
        value = obj[name]
    except KeyError:
        raise InputFormatError(f"record missing field {name!r}", line=line_no) from None
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise InputFormatError(f"{name} must be an integer, got {value!r}", line=line_no)


def normalize_detections(data) -> tuple[list[bytes], StreamMeta]:
    """The canonical form of a detections stream, what ``crowdgate ingest``
    writes, in parts whose join is that file, plus the stream metadata.

    A window's blocks are rendered on the calling thread, in file order,
    once the window is scanned (``_read_detections``'s ``keep``), so a
    block's box columns outlive it until its window is rendered, and no
    longer. Rendered on the scan workers, the walk ran 12-15% slower:
    ``_render_records`` is Python and holds the interpreter lock against
    the other scans.
    """
    meta, parts = _read_detections(data, lambda part: _render_records(*part))
    header = {"fps": format_fps(meta.fps), "source_id": meta.source_id}
    return [(json.dumps(header, separators=(",", ":")) + "\n").encode("utf-8"), *parts], meta


def _render_records(frame_index, timestamp_ms, box_counts, *boxes) -> bytes:
    """The canonical record lines of columns laid out as ``_Block.columns``
    gives them: one ``json.dumps`` per frame, over Python values, so a float
    is written as Python's repr."""
    rows = list(zip(*(column.tolist() for column in boxes)))
    ends = np.cumsum(box_counts).tolist()
    lines, start = [], 0
    for index, stamp, end in zip(frame_index.tolist(), timestamp_ms.tolist(), ends):
        record = {
            "frame_index": index,
            "timestamp_ms": stamp,
            "boxes": [dict(zip(_BOX_FIELDS, row)) for row in rows[start:end]],
        }
        lines.append(json.dumps(record, separators=(",", ":")) + "\n")
        start = end
    return "".join(lines).encode("utf-8")


def load_gray_frames(data) -> np.ndarray:
    """Read a CGRY container as one read-only (n, height, width) uint8 array.

    ``data`` is the container's bytes or an ``mmap`` of it. The array is a
    view of the bytes or of the mapping, not a copy.
    """
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


def decode_line(line: bytes, line_no: int) -> str:
    """One input line as text; invalid UTF-8 raises InputFormatError naming the line."""
    try:
        return line.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise InputFormatError(f"invalid UTF-8: {exc}", line=line_no) from None


def _map_threads(work, items, most=None):
    """``[work(item) for item in items]`` on up to one thread per usable CPU.

    The one pool of the package's stages: the density loop runs its row
    bands here, and ``_walk`` the scans and the hash of each window of a
    detections file or a count CSV, on at most ``most`` threads. Only
    ``run``'s hash of the gray container has a thread of its own, because
    it runs beside every stage (``cli.run_pipeline``). The
    calling thread is one of the workers; no thread is started for a
    single item or a single CPU. The first exception an item
    raises is re-raised here once every worker has stopped.
    """
    workers = _thread_count(len(items), most)
    if workers <= 1:
        return [work(item) for item in items]
    results = [None] * len(items)
    errors = []
    lock = threading.Lock()
    pending = iter(range(len(items)))

    def worker():
        while not errors:
            with lock:
                index = next(pending, None)
            if index is None:
                return
            try:
                results[index] = work(items[index])
            except BaseException as exc:  # noqa: BLE001 - re-raised in the calling thread
                errors.append(exc)

    threads = [threading.Thread(target=worker) for _ in range(workers - 1)]
    for thread in threads:
        thread.start()
    worker()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    return results


def _thread_count(items: int, most=None) -> int:
    """The number of threads ``_map_threads`` runs ``items`` items on."""
    return min(items, _usable_cpus(), most or items)


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not on every platform
        return os.cpu_count() or 1
