import ast
import contextlib
import json
import mmap
import sys
import threading
import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from crowdgate import ingest, scan
from crowdgate.errors import InputFormatError
from crowdgate.ingest import (
    Boxes,
    Detections,
    StreamMeta,
    load_gray_frames,
    parse_detections,
    parse_fps,
    save_gray_frames,
)

from conftest import WAYS, detections_bytes, parsed_in, serialize_detections

HEADER = '{"fps":30,"source_id":"s"}'
BOX_FIELDS = ("x", "y", "w", "h", "score", "class_id")
VALID_BOX = {"x": 1.0, "y": 2.0, "w": 3.0, "h": 4.0, "score": 0.5, "class_id": 0}


def reference_parse_detections(data: bytes):
    """The object-per-box parser the columnar one replaced, kept as the oracle.

    Returns (frames, fps, source_id, gaps) with one (frame_index,
    timestamp_ms, boxes) tuple per frame and one (x, y, w, h, score,
    class_id) tuple per box. Lines end at LF only; JSON takes a CR inside
    a line as white space.
    """
    header = None
    frames = []
    last_index = None
    gaps = []
    for line_no, raw_line in enumerate(data.split(b"\n"), start=1):
        try:
            stripped = raw_line.decode("utf-8").strip()
        except UnicodeDecodeError as exc:
            raise InputFormatError(f"invalid UTF-8: {exc}", line=line_no) from None
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"invalid JSON: {exc.msg}", line=line_no) from exc
        if header is None:
            if not isinstance(obj, dict):
                raise InputFormatError("header must be a JSON object", line=line_no)
            if "fps" not in obj:
                raise InputFormatError("header missing 'fps'", line=line_no)
            try:
                header = (parse_fps(obj["fps"]), str(obj.get("source_id", "")))
            except InputFormatError as exc:
                raise InputFormatError(str(exc), line=line_no) from None
            continue
        frame_index = _reference_int(obj, "frame_index", line_no)
        timestamp_ms = _reference_int(obj, "timestamp_ms", line_no)
        if "boxes" not in obj:
            raise InputFormatError("record missing field 'boxes'", line=line_no)
        boxes = tuple(_reference_box(raw, line_no) for raw in obj["boxes"])
        for name, value in (("frame_index", frame_index), ("timestamp_ms", timestamp_ms)):
            if value < 0:
                raise InputFormatError(f"{name} must be >= 0, got {value}", line=line_no)
            if value >= 2**63:
                raise InputFormatError(f"{name} must be <= {2**63 - 1}, got {value}", line=line_no)
        if last_index is not None:
            if frame_index == last_index:
                raise InputFormatError(f"duplicate frame_index {frame_index}", line=line_no)
            if frame_index < last_index:
                raise InputFormatError(
                    f"non-monotone frame_index {frame_index} after {last_index}", line=line_no
                )
            if frame_index > last_index + 1:
                gaps.append((last_index + 1, frame_index - 1))
        last_index = frame_index
        frames.append((frame_index, timestamp_ms, boxes))
    if header is None:  # named by the stream's last line
        raise InputFormatError("empty detections stream (no header)", line=line_no)
    return frames, header[0], header[1], tuple(gaps)


def _reference_int(obj, name, line):
    """A record's integer field; an integral float such as 1.0 counts, 0.5 does
    not, and neither does a string or a boolean."""
    try:
        value = obj[name]
    except KeyError:
        raise InputFormatError(f"record missing field {name!r}", line=line) from None
    is_number = isinstance(value, (int, float)) and not isinstance(value, bool)
    if not is_number or (isinstance(value, float) and not value.is_integer()):
        raise InputFormatError(f"{name} must be an integer, got {value!r}", line=line)
    return int(value)


def _reference_box(raw, line):
    try:
        raw_values = tuple(raw[k] for k in BOX_FIELDS)
    except KeyError as exc:
        raise InputFormatError(f"box missing field {exc.args[0]!r}", line=line) from exc
    try:
        if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw_values):
            raise TypeError
        box = tuple(float(v) for v in raw_values[:5]) + (int(raw_values[5]),)
        if not -(2**63) <= box[5] < 2**63:
            raise OverflowError
    except (TypeError, ValueError, OverflowError):
        raise InputFormatError(
            f"bad box: values must be numbers, got {dict(zip(BOX_FIELDS, raw_values))}", line=line
        ) from None
    if not float(raw_values[5]).is_integer():
        raise InputFormatError(
            f"bad box: class_id must be an integer, got {raw_values[5]!r}", line=line
        )
    w, h, score = box[2], box[3], box[4]
    if w <= 0 or h <= 0:
        raise InputFormatError(
            f"bad box: box width/height must be > 0, got w={w}, h={h}", line=line
        )
    if not 0.0 <= score <= 1.0:
        raise InputFormatError(f"bad box: score must be in [0, 1], got {score}", line=line)
    return box


def assert_matches_reference(data: bytes):
    """Every way of parsing ``data`` gives the oracle's values, float bits included."""
    frames, fps, source_id, gaps = reference_parse_detections(data)
    boxes = [box for f in frames for box in f[2]]
    expected = [np.array([b[j] for b in boxes], dtype=np.float64) for j in range(5)]
    for way in WAYS:
        with parsed_in(*way):
            detections, meta = parse_detections(data)
        assert (meta.fps, meta.source_id, meta.gaps) == (fps, source_id, gaps)
        assert meta.frame_count == len(detections) == len(frames)
        assert detections.frame_index.tolist() == [f[0] for f in frames]
        assert detections.timestamp_ms.tolist() == [f[1] for f in frames]
        assert detections.box_counts.dtype == np.int64
        assert detections.box_counts.tolist() == [len(f[2]) for f in frames]
        b = detections.boxes
        columns = (b.x, b.y, b.w, b.h, b.score, b.class_id)
        assert [c.dtype for c in columns] == [np.float64] * 5 + [np.int64]
        assert b.class_id.tolist() == [box[5] for box in boxes]
        for got, want in zip(columns, expected):
            assert got.tobytes() == want.tobytes()


def assert_same_rejection(data: bytes):
    """Every way of parsing ``data`` raises the oracle's message and line."""
    with pytest.raises(InputFormatError) as expected:
        reference_parse_detections(data)
    for way in WAYS:
        with parsed_in(*way), pytest.raises(InputFormatError) as got:
            parse_detections(data)
        assert (str(got.value), got.value.line) == (str(expected.value), expected.value.line)


def assert_like_reference(data: bytes):
    """``data`` parses as the oracle parses it, or fails as the oracle fails."""
    try:
        reference_parse_detections(data)
    except InputFormatError:
        assert_same_rejection(data)
    else:
        assert_matches_reference(data)


def random_box(rng, float_class_ids=False, short=False) -> dict:
    box = {
        "x": round(float(rng.uniform(0, 1900)), 1),
        "y": int(rng.integers(0, 1000)),  # JSON ints read as floats
        "w": float(rng.uniform(0.5, 80)),
        "h": round(float(rng.uniform(1, 200)), 2),
        "score": float(rng.choice([0.0, 1.0, rng.uniform(0, 1)])),
        "class_id": int(rng.integers(0, 4)),
    }
    if short:  # at most 15 significant digits, as a canonical scan reads them
        box["w"] = round(box["w"], int(rng.integers(0, 14)))
        box["score"] = round(box["score"], int(rng.integers(0, 15)))
    if float_class_ids:
        box["class_id"] = float(box["class_id"])
    return box


def random_records(rng, n, gaps=False, float_class_ids=False, short=False) -> list[dict]:
    records, index = [], int(rng.integers(0, 5))
    for _ in range(n):
        boxes = [
            random_box(rng, float_class_ids, short) for _ in range(int(rng.integers(0, 6)))
        ]
        records.append({"frame_index": index, "timestamp_ms": index * 33, "boxes": boxes})
        index += int(rng.integers(1, 4)) if gaps else 1
    return records


def stream(records, noisy=False, rng=None, compact=False) -> bytes:
    """A detections stream; ``compact`` writes canonical lines when the records allow."""
    dumps = (lambda r: json.dumps(r, separators=(",", ":"))) if compact else json.dumps
    lines = [HEADER] + [dumps(r) for r in records]
    if noisy:
        lines = [rng.choice(["", "  ", "\t"]) + line + rng.choice(["", " ", "\r"]) for line in lines]
        lines = [x for line in lines for x in ([line, ""] if rng.random() < 0.3 else [line])]
    return ("\n".join(lines) + "\n").encode("utf-8")


def canonical_streams(records):
    """Both canonical forms of ``records``: compact json.dumps and serialize_detections'."""
    data = stream(records, compact=True)
    yield data
    try:
        yield serialize_detections(*parse_detections(data))
    except InputFormatError:
        pass


def one_box(**values) -> bytes:
    box = {**VALID_BOX, **values}
    return stream([{"frame_index": 0, "timestamp_ms": 0, "boxes": [box]}])


class TestBoundingBox:
    """Box validation, through parse_detections."""

    def test_valid(self):
        detections, _ = parse_detections(one_box())
        assert detections.boxes.w.tolist() == [3.0]

    @pytest.mark.parametrize("w,h", [(0.0, 4.0), (3.0, 0.0), (-1.0, 4.0)])
    def test_degenerate_size_rejected(self, w, h):
        with pytest.raises(InputFormatError, match="line 2: bad box: box width/height"):
            parse_detections(one_box(w=w, h=h))

    @pytest.mark.parametrize("score", [-0.1, 1.1])
    def test_score_out_of_range(self, score):
        with pytest.raises(InputFormatError, match=r"line 2: bad box: score must be in \[0, 1\]"):
            parse_detections(one_box(score=score))


class TestParseDetections:
    def test_minimal_file(self):
        data = detections_bytes([2, 0], fps=30)
        detections, meta = parse_detections(data)
        assert len(detections) == 2
        assert meta.fps == Fraction(30)
        assert meta.source_id == "cam1"
        assert detections.box_counts.tolist() == [2, 0]
        assert len(detections.boxes) == 2

    def test_rational_fps(self):
        header = json.dumps({"fps": "30000/1001", "source_id": "s"})
        frames, meta = parse_detections((header + "\n").encode())
        assert meta.fps == Fraction(30000, 1001)

    def test_zero_width_box_names_line(self):
        data = detections_bytes([1]).decode().replace('"w": 8.0', '"w": 0.0')
        with pytest.raises(InputFormatError, match="line 2.*width"):
            parse_detections(data.encode())

    def test_duplicate_frame_index(self):
        record = json.dumps({"frame_index": 0, "timestamp_ms": 0, "boxes": []})
        data = ('{"fps":30,"source_id":"s"}\n' + record + "\n" + record + "\n").encode()
        with pytest.raises(InputFormatError, match="line 3.*duplicate"):
            parse_detections(data)

    def test_non_monotone_frame_index(self):
        lines = ['{"fps":30,"source_id":"s"}']
        for i in (5, 3):
            lines.append(json.dumps({"frame_index": i, "timestamp_ms": 0, "boxes": []}))
        with pytest.raises(InputFormatError, match="non-monotone"):
            parse_detections("\n".join(lines).encode())

    @pytest.mark.parametrize("fps", [0, -1, "0/1"])
    def test_bad_fps(self, fps):
        data = (json.dumps({"fps": fps, "source_id": "s"}) + "\n").encode()
        with pytest.raises(InputFormatError, match="line 1: fps"):
            parse_detections(data)

    def test_missing_fps(self):
        with pytest.raises(InputFormatError, match="fps"):
            parse_detections(b'{"source_id":"s"}\n')

    def test_gaps_recorded(self):
        lines = ['{"fps":30,"source_id":"s"}']
        for i in (0, 3, 4, 9):
            lines.append(json.dumps({"frame_index": i, "timestamp_ms": 0, "boxes": []}))
        _, meta = parse_detections("\n".join(lines).encode())
        assert meta.gaps == ((1, 2), (5, 8))

    def test_blank_lines_and_whitespace_tolerated(self):
        data = detections_bytes([1, 2]).decode()
        noisy = "\n\n" + data.replace("\n", "   \n\n") + "\n  \n"
        detections, meta = parse_detections(noisy.encode())
        assert detections.box_counts.tolist() == [1, 2]

    def test_round_trip_random_streams(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 60))
            counts = rng.integers(0, 6, n)
            m = int(counts.sum())
            detections = Detections(
                frame_index=np.cumsum(rng.integers(1, 4, n)),
                timestamp_ms=np.arange(n, dtype=np.int64) * 33,
                box_counts=counts,
                boxes=Boxes(
                    x=rng.uniform(0, 100, m),
                    y=rng.uniform(0, 100, m),
                    w=rng.uniform(1, 50, m),
                    h=rng.uniform(1, 50, m),
                    score=rng.uniform(0, 1, m),
                    class_id=rng.integers(0, 3, m),
                ),
            )
            _, meta0 = parse_detections(serialize_detections(detections, _meta(n)))
            data = serialize_detections(detections, meta0)
            parsed, meta2 = parse_detections(data)
            for name in ("frame_index", "timestamp_ms", "box_counts"):
                np.testing.assert_array_equal(getattr(parsed, name), getattr(detections, name))
            for name in BOX_FIELDS:
                np.testing.assert_array_equal(
                    getattr(parsed.boxes, name), getattr(detections.boxes, name)
                )
            assert serialize_detections(parsed, meta2) == data

    def test_path_and_file_object_sources(self, tmp_path):
        # The parse cuts the whole buffer into blocks: bytes or a mapping of a file.
        rng = np.random.default_rng(4)
        spaced = stream(random_records(rng, 10))
        canonical = stream(random_records(rng, 10, short=True), compact=True)
        for data in (spaced, canonical):
            path = tmp_path / "d.jsonl"
            path.write_bytes(data)
            expected = serialize_detections(*parse_detections(data))
            with open(path, "rb") as fh, \
                    mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as mapped:
                assert serialize_detections(*parse_detections(mapped)) == expected
                assert serialize_detections(*parse_detections(bytearray(data))) == expected


class TestMalformedInput:
    """Every rejected input is an InputFormatError naming its line."""

    @pytest.mark.parametrize(
        "line,message",
        [
            ('{"frame_index":0,"timestamp_ms":0,"boxes":5}', "boxes must be a JSON array"),
            ('{"frame_index":0,"timestamp_ms":0,"boxes":[5]}', "box must be a JSON object"),
            ("[1,2]", "record must be a JSON object"),
            ('{"frame_index":null,"timestamp_ms":0,"boxes":[]}', "frame_index must be an integer"),
            ('{"frame_index":"abc","timestamp_ms":0,"boxes":[]}', "frame_index must be an integer"),
            ('{"frame_index":1e400,"timestamp_ms":0,"boxes":[]}', "frame_index must be an integer"),
            ('{"frame_index":0,"timestamp_ms":9223372036854775808,"boxes":[]}', "timestamp_ms must be <="),
            ('{"frame_index":"1_000","timestamp_ms":7,"boxes":[]}', "frame_index must be an integer"),
            ('{"frame_index":"1","timestamp_ms":7,"boxes":[]}', "frame_index must be an integer"),
            ('{"frame_index":1,"timestamp_ms":" 7 ","boxes":[]}', "timestamp_ms must be an integer"),
            ('{"frame_index":true,"timestamp_ms":0,"boxes":[]}', "frame_index must be an integer"),
            ('{"frame_index":0,"timestamp_ms":false,"boxes":[]}', "timestamp_ms must be an integer"),
        ],
    )
    def test_record_shapes(self, line, message):
        data = f"{HEADER}\n{line}\n".encode()
        with pytest.raises(InputFormatError, match=f"line 2: {message}"):
            parse_detections(data)

    def test_header_not_an_object(self):
        with pytest.raises(InputFormatError, match="line 1: header must be a JSON object"):
            parse_detections(b"5\n")

    def test_invalid_utf8_names_line(self):
        data = f"{HEADER}\n{json.dumps(random_records(np.random.default_rng(5), 1)[0])}\n".encode()
        data += b'{"frame_index":1,"timestamp_ms":33,"boxes":[],"note":"\xff"}\n'
        with pytest.raises(InputFormatError, match="line 3: invalid UTF-8"):
            parse_detections(data)

    @pytest.mark.parametrize(
        "values",
        [{"x": "abc"}, {"w": None}, {"score": "0.5"}, {"h": [1, 2]}, {"y": {}},
         {"x": 10**400}, {"class_id": float("nan")}, {"class_id": 2**63},
         {"score": True, "class_id": False}, {"score": True}, {"class_id": False},
         {"x": True, "y": False, "w": True, "h": True, "score": True, "class_id": False}],
    )
    def test_non_number_box_value_names_box(self, values):
        records = [
            {"frame_index": 0, "timestamp_ms": 0, "boxes": [random_box(np.random.default_rng(6))]},
            {"frame_index": 1, "timestamp_ms": 33, "boxes": [{**VALID_BOX, **values}]},
        ]
        with pytest.raises(InputFormatError, match="line 3: bad box: values must be numbers"):
            parse_detections(stream(records))


class TestReferenceParity:
    """The columns equal the object-per-box parser's output, field for field.

    Each stream is parsed in blocks of one line, of a few lines and of the
    default size, on one thread and on two. Spaced streams (``json.dumps``
    defaults) are parsed line by line; compact ones with short floats are
    canonical, so most of their blocks are scanned.
    """

    def test_random_streams(self, rng):
        for _ in range(30):
            records = random_records(rng, int(rng.integers(0, 40)))
            assert_matches_reference(stream(records))
            records = random_records(rng, int(rng.integers(0, 40)), short=True)
            for data in canonical_streams(records):
                assert_matches_reference(data)

    def test_gaps_blank_lines_and_whitespace(self, rng):
        for _ in range(30):
            records = random_records(rng, int(rng.integers(1, 40)), gaps=True)
            assert_matches_reference(stream(records, noisy=True, rng=rng))
            records = random_records(rng, int(rng.integers(1, 40)), gaps=True, short=True)
            assert_matches_reference(stream(records, noisy=True, rng=rng, compact=True))

    def test_float_class_ids(self, rng):
        for _ in range(10):
            records = random_records(rng, int(rng.integers(1, 20)), float_class_ids=True)
            assert_matches_reference(stream(records))
            assert_matches_reference(stream(records, compact=True))

    @pytest.mark.parametrize(
        "mutation",
        ["zero_w", "negative_h", "score_high", "score_low", "missing_field", "duplicate_index"],
    )
    def test_mutated_streams_rejected_alike(self, mutation, rng):
        for compact in (False, True) * 10:
            records = random_records(rng, int(rng.integers(2, 30)), short=compact)
            with_boxes = [r for r in records if r["boxes"]]
            if not with_boxes:
                continue
            box = rng.choice(with_boxes)["boxes"]
            box = box[int(rng.integers(0, len(box)))]
            if mutation == "zero_w":
                box["w"] = 0
            elif mutation == "negative_h":
                box["h"] = -1.5
            elif mutation == "score_high":
                box["score"] = 1.0000001
            elif mutation == "score_low":
                box["score"] = -0.25
            elif mutation == "missing_field":
                del box[BOX_FIELDS[int(rng.integers(0, 6))]]
            else:
                k = int(rng.integers(1, len(records)))
                records[k]["frame_index"] = records[k - 1]["frame_index"]
            assert_same_rejection(stream(records, compact=compact))

    def test_first_error_in_file_order(self, rng):
        for compact in (False, True):
            records = random_records(rng, 8, short=compact)
            for r in records:
                r["boxes"] += [random_box(rng, short=compact), random_box(rng, short=compact)]
            records[2]["boxes"][0]["w"] = 0.0  # an earlier bad box in the same block ...
            del records[5]["boxes"][0]["score"]  # ... comes before a later missing field
            records[6]["boxes"][0]["h"] = 0.0  # and a bad box before a missing field on one line
            del records[6]["boxes"][-1]["x"]
            assert_same_rejection(stream(records, compact=compact))
            records[2]["boxes"][0]["w"] = 1.0
            records[5]["boxes"][0]["score"] = 0.5
            assert_same_rejection(stream(records, compact=compact))

    def test_canonical_blocks_are_scanned(self, rng, monkeypatch):
        per_line = []
        real = ingest._parse_lines
        monkeypatch.setattr(
            ingest, "_parse_lines", lambda *args: per_line.append(args) or real(*args)
        )
        for _ in range(10):
            records = random_records(rng, int(rng.integers(1, 40)), gaps=True, short=True)
            for data in canonical_streams(records):
                assert_matches_reference(data)
                assert_matches_reference(data[:-1])  # no line end after the last line
        assert per_line == []
        assert_matches_reference(stream(records))  # spaced: every block line by line
        assert per_line


def canonical_lines(n, box=None, **record) -> list[str]:
    """``n`` canonical record lines, each with one box; ``record`` overrides fields of line 2."""
    lines = []
    for i in range(n):
        fields = {"frame_index": i, "timestamp_ms": 33 * i, "boxes": [box or VALID_BOX]}
        if i == 1:
            fields.update(record)
        lines.append(json.dumps(fields, separators=(",", ":")))
    return lines


def with_value(field, token, n=6) -> bytes:
    """A canonical stream whose line 3 (record 1) holds ``token`` as the text of ``field``."""
    lines = canonical_lines(n)
    key = f'"{field}":'
    head, tail = lines[1].split(key, 1)
    rest = tail[len(tail) - len(tail.lstrip("-.0123456789")) :]
    lines[1] = head + key + token + rest
    return ("\n".join([HEADER] + lines) + "\n").encode()


class TestScanSeam:
    """Inputs at the edge of the canonical scan parse as the oracle parses them."""

    @pytest.mark.parametrize(
        "token",
        ["-0.0", "0", "-0", "0.0", "01", "1.", ".5", "-", "1.2.3", "1e5", "1E-7", "--1", "1-2",
         "1/2", "/", "0.5", "7", "true", "null", '"1.5"', "[]", "-01", "-00.5", "-0.05"],
    )
    @pytest.mark.parametrize(
        "field", ["x", "y", "score", "class_id", "frame_index", "timestamp_ms"]
    )
    def test_number_forms(self, field, token):
        assert_like_reference(with_value(field, token))

    @pytest.mark.parametrize(
        "token",
        [
            "123456789012345", "1234567890123456", "12345678901234567",  # 15-17 digits
            "1.23456789012345", "1.234567890123456", "1.2345678901234567",
            "0.1234567890123456789012", "0.0000000000000000000001",  # 22 fraction digits
            "0.00000000000000000000012", "0.12345678901234567890123",  # 23
            "123456789012.5", "99999999.99999", "12345678.9", "9007199254740993",
            "-1234567.25", "0.30000000000000004", "1e-05",
        ],
    )
    @pytest.mark.parametrize("field", ["x", "h"])
    def test_significant_and_fraction_digits(self, field, token):
        assert_like_reference(with_value(field, token))

    @pytest.mark.parametrize(
        "token", [str(2**63 - 1), str(2**63), str(10**19), "99999999999999999999", "1.0", "2.7"]
    )
    @pytest.mark.parametrize("field", ["frame_index", "timestamp_ms", "class_id"])
    def test_integer_limits(self, field, token):
        assert_like_reference(with_value(field, token, n=2))

    def test_frame_index_int64_max_is_scanned(self, monkeypatch):
        data = with_value("frame_index", str(2**63 - 1), n=2)
        monkeypatch.setattr(ingest, "_parse_lines", None)  # any fallback would fail
        detections, _ = parse_detections(data)
        assert detections.frame_index.tolist() == [0, 2**63 - 1]

    def test_every_skeleton_byte(self):
        # Each byte between numbers, in turn, made "Q": the scan must not
        # read a line whose skeleton differs from the canonical one anywhere.
        box = json.dumps(VALID_BOX, separators=(",", ":"))
        body = "\n".join(
            [
                canonical_lines(1)[0].replace("}]}", f"}},{box}]}}"),  # two boxes
                '{"frame_index":1,"timestamp_ms":33,"boxes":[]}',
                canonical_lines(1)[0].replace('"frame_index":0', '"frame_index":2'),
            ]
        )
        for p, char in enumerate(body):
            if char not in "-.0123456789":
                mutated = body[:p] + "Q" + body[p + 1 :]
                assert_like_reference(f"{HEADER}\n{mutated}\n".encode())

    def test_random_byte_edits(self, rng):
        # One to three bytes of a canonical stream replaced, inserted or
        # deleted: the edited stream parses or fails as the oracle's does.
        alphabet = b'0123456789-.eE+,:{}[]"\n\r xyhQ/\xff'
        for _ in range(200):
            records = random_records(rng, int(rng.integers(1, 8)), gaps=True, short=True)
            data = bytearray(stream(records, compact=True))
            for _ in range(int(rng.integers(1, 4))):
                at = int(rng.integers(0, len(data)))
                byte = alphabet[int(rng.integers(0, len(alphabet)))]
                edit = rng.integers(0, 3)
                if edit == 0:
                    data[at] = byte
                elif edit == 1:
                    data.insert(at, byte)
                else:
                    del data[at]
            assert_like_reference(bytes(data))

    @pytest.mark.parametrize(
        "edits",
        [
            # a digit inside a key, and a number left out of the same line
            [('"score":', '"s1core":'), ('"x":1.0', '"x":')],
            [('"class_id":0', '"class_id":'), ('"timestamp_ms":', '"timestamp_0ms":')],
            # a number moved to the wrong side of its colon or comma
            [('"x":1.0', '"x"1.0:')],
            [('"frame_index":1,', '"frame_index":,1')],
            [('"h":4.0,"score":0.5', '"h":4.0,0.5"score":')],
        ],
    )
    def test_numbers_out_of_place_around_a_canonical_skeleton(self, edits):
        # The bytes outside the numbers stay a canonical stream's, so only
        # the gap lengths tell these lines from canonical ones.
        lines = canonical_lines(6)
        for old, new in edits:
            assert old in lines[1]
            lines[1] = lines[1].replace(old, new)
        data = ("\n".join([HEADER] + lines) + "\n").encode()
        canonical = ("\n".join([HEADER] + canonical_lines(6)) + "\n").encode()
        digits = b"-.0123456789"
        assert data.translate(None, digits) == canonical.translate(None, digits)
        assert scan.scan_block(data, len(HEADER) + 1, len(data)) is None
        assert_like_reference(data)

    def test_long_block_parsed_line_by_line(self, monkeypatch):
        # A block over scan._SCAN_BYTES_MAX, one very long line, is not scanned.
        data = ("\n".join([HEADER] + canonical_lines(6)) + "\n").encode()
        per_line = []
        real = ingest._parse_lines
        monkeypatch.setattr(
            ingest, "_parse_lines", lambda *args: per_line.append(args) or real(*args)
        )
        monkeypatch.setattr(scan, "_SCAN_BYTES_MAX", 200)
        assert_matches_reference(data)
        assert per_line

    def test_default_blocks_are_all_scanned(self, monkeypatch):
        # Every block is cut at the first line end past _BLOCK_BYTES, so at
        # the default size none is over scan._SCAN_BYTES_MAX.
        n = 3 * ingest._BLOCK_BYTES // len(canonical_lines(1)[0]) + 1
        data = ("\n".join([HEADER] + canonical_lines(n)) + "\n").encode()
        assert len(ingest._line_blocks(data, len(HEADER) + 1)) > 3
        monkeypatch.setattr(ingest, "_parse_lines", None)  # any fallback would fail
        assert len(parse_detections(data)[0]) == n

    def test_negative_class_id(self):
        assert_like_reference(with_value("class_id", "-1"))

    @pytest.mark.parametrize("newline", ["\r\n", "\n\n", "\n \n", "\n"])
    @pytest.mark.parametrize("last_newline", [True, False])
    def test_line_ends(self, newline, last_newline):
        text = newline.join([HEADER] + canonical_lines(7))
        assert_like_reference((text + ("\n" if last_newline else "")).encode())

    def test_canonical_and_spaced_lines_mixed(self, rng):
        records = random_records(rng, 40, gaps=True, short=True)
        lines = [
            json.dumps(r, separators=(",", ":")) if rng.random() < 0.7 else json.dumps(r)
            for r in records
        ]
        assert_matches_reference(("\n".join([HEADER] + lines) + "\n").encode())

    @pytest.mark.parametrize("repeat", ["duplicate", "earlier"])
    def test_frame_order_across_blocks(self, repeat):
        lines = canonical_lines(12)
        # record 6 repeats or undercuts record 5; blocks of one line or of
        # 300 bytes (records 3-5, 6-8) put the two in different blocks
        index = 5 if repeat == "duplicate" else 2
        lines[6] = lines[6].replace('"frame_index":6', f'"frame_index":{index}')
        assert_same_rejection(("\n".join([HEADER] + lines) + "\n").encode())

    def test_bad_box_after_frame_order_error_in_later_block(self):
        lines = canonical_lines(12)
        lines[3] = lines[3].replace('"frame_index":3', '"frame_index":1')
        lines[9] = lines[9].replace('"w":3.0', '"w":0.0')
        assert_same_rejection(("\n".join([HEADER] + lines) + "\n").encode())


class TestIntegerFields:
    """frame_index, timestamp_ms and class_id must be integral; 1.0 counts, 0.5 does not."""

    @pytest.mark.parametrize(
        "field,token,message",
        [
            ("frame_index", "2.7", "frame_index must be an integer, got 2.7"),
            ("timestamp_ms", "0.9", "timestamp_ms must be an integer, got 0.9"),
            ("class_id", "0.5", "bad box: class_id must be an integer, got 0.5"),
            ("class_id", "-1.5", "bad box: class_id must be an integer, got -1.5"),
        ],
    )
    def test_fraction_rejected(self, field, token, message):
        data = with_value(field, token)
        for way in WAYS:
            with parsed_in(*way), pytest.raises(InputFormatError) as info:
                parse_detections(data)
            assert str(info.value) == f"line 3: {message}"
        assert_same_rejection(data)

    @pytest.mark.parametrize("field", ["frame_index", "timestamp_ms", "class_id"])
    def test_integral_float_accepted(self, field):
        detections, _ = parse_detections(with_value(field, "1.0"))
        assert getattr(detections.boxes if field == "class_id" else detections, field)[1] == 1


def random_canonical_stream(size, seed=8) -> tuple[bytes, int]:
    """(A canonical stream of at least ``size`` bytes, its record count); each
    record has 0 to 19 boxes of one- and two-digit values."""
    rng = np.random.default_rng(seed)
    lines, i = [HEADER], 0
    while sum(map(len, lines)) < size:
        boxes = ",".join(
            f'{{"x":{x / 10},"y":{y / 10},"w":{w / 10},"h":{h / 10},'
            f'"score":{s / 100},"class_id":{c}}}'
            for x, y, w, h, s, c in rng.integers(1, 100, (int(rng.integers(0, 20)), 6))
        )
        lines.append(f'{{"frame_index":{i},"timestamp_ms":{33 * i},"boxes":[{boxes}]}}')
        i += 1
    return ("\n".join(lines) + "\n").encode(), i


class TestParseMemory:
    def test_one_scan_peaks_under_five_blocks(self):
        # One block's scan holds its padded copy, a number mask, a byte mask
        # and int32 offsets of its numbers, or the words of its numbers and a
        # few arrays of one word per number, at once: measured 4.3 times the
        # block's bytes.
        data, _ = random_canonical_stream(3 << 20)
        body = len(HEADER) + 1
        start, end = ingest._line_blocks(data, body)[1]  # a whole block of about 512 KiB
        assert end - start >= ingest._BLOCK_BYTES
        assert scan.scan_block(data, start, end) is not None
        tracemalloc.start()
        try:
            scan.scan_block(data, start, end)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 5 * (end - start)

    @pytest.mark.parametrize("cpus", [2, 8])
    def test_peak_is_columns_plus_blocks(self, monkeypatch, cpus):
        # A 3 MiB canonical stream, scanned in 6 blocks of 512 KiB. Each
        # scan running at once holds up to 2.2 MiB: measured 1.8 MiB above
        # the output columns on one thread, 2.9-3.5 on two and, with eight
        # CPUs patched in, 5.6-6.2 with the scans capped at four; scanning
        # the whole buffer at once, 10.6 MiB.
        data, records = random_canonical_stream(3 << 20)
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            detections, _ = parse_detections(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        b = detections.boxes
        columns = (detections.frame_index, detections.timestamp_ms, detections.box_counts,
                   b.x, b.y, b.w, b.h, b.score, b.class_id)
        assert len(detections) == records
        scans = min(cpus, 4)  # at most four scans at once, on any CPU count
        assert peak < sum(c.nbytes for c in columns) + scans * (1 << 21) + (3 << 20)

    def test_scans_run_on_at_most_scan_threads(self, monkeypatch):
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(ingest.threading, "Thread", CountingThread)
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: 8)
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1)
        monkeypatch.setattr(ingest, "_WINDOW_BLOCKS", 10)
        data = ("\n".join([HEADER] + canonical_lines(20)) + "\n").encode()
        assert len(parse_detections(data)[0]) == 20
        # one pool per window of ten blocks; the calling thread is one of
        # its workers
        assert len(started) == 2 * (ingest._SCAN_THREADS - 1)


class TestFirstBlockDecides:
    """The first block decides: the others are scanned only if it is canonical."""

    def scans(self, monkeypatch, data):
        calls = []
        real = scan.scan_block
        monkeypatch.setattr(
            scan, "scan_block", lambda *args: calls.append(args[1:]) or real(*args)
        )
        with parsed_in(300, 2), contextlib.suppress(InputFormatError):
            parse_detections(data)
        return calls

    def test_canonical_stream_scans_every_block(self, monkeypatch):
        data = ("\n".join([HEADER] + canonical_lines(12)) + "\n").encode()
        assert len(self.scans(monkeypatch, data)) == 4

    @pytest.mark.parametrize("form", ["spaced", "17 digits", "bad first line"])
    def test_other_first_block_is_the_only_scan(self, monkeypatch, form):
        lines = canonical_lines(12)
        if form == "spaced":
            lines = [json.dumps(json.loads(line)) for line in lines]
        elif form == "17 digits":
            lines = canonical_lines(12, box={**VALID_BOX, "x": 0.30000000000000004})
        else:
            lines[0] = lines[0].replace('"w":3.0', '"w":0.0')
        data = ("\n".join([HEADER] + lines) + "\n").encode()
        assert len(self.scans(monkeypatch, data)) == 1
        assert_like_reference(data)

    def test_later_blocks_in_another_form_fall_back(self, monkeypatch):
        lines = canonical_lines(12)
        lines[7:] = [json.dumps(json.loads(line)) for line in lines[7:]]
        data = ("\n".join([HEADER] + lines) + "\n").encode()
        assert len(self.scans(monkeypatch, data)) > 1
        assert_matches_reference(data)

    def test_canonical_blocks_after_another_form_are_scanned(self, monkeypatch):
        # Mostly canonical frames with a few blocks in another form: every
        # block is scanned, and only the odd ones go to the per-line parse.
        lines = canonical_lines(24)
        lines[5:7] = [json.dumps(json.loads(line)) for line in lines[5:7]]
        data = ("\n".join([HEADER] + lines) + "\n").encode()
        with parsed_in(300, 2):
            blocks = ingest._line_blocks(data, len(HEADER) + 1)
        assert sorted(self.scans(monkeypatch, data)) == blocks
        assert_matches_reference(data)

    def test_many_threads_switching_often(self):
        # More workers than cores, switching often, with the later blocks in
        # another form: every parse gives the columns of a one-thread parse.
        lines = canonical_lines(60)
        lines[30:] = [json.dumps(json.loads(line)) for line in lines[30:]]
        data = ("\n".join([HEADER] + lines) + "\n").encode()
        with parsed_in(300, 1):
            want, _ = parse_detections(data)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with parsed_in(300, 8):
                for _ in range(20):
                    got, _ = parse_detections(data)
                    for name in ("frame_index", "timestamp_ms", "box_counts"):
                        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
                    for name in ("x", "y", "w", "h", "score", "class_id"):
                        assert getattr(got.boxes, name).tobytes() == getattr(want.boxes, name).tobytes()
        finally:
            sys.setswitchinterval(interval)

    def test_first_block_decides_on_many_threads(self, monkeypatch):
        # The blocks past the first wait on the pool for the first block's
        # scan. With more workers than cores, switching often, a first block
        # in another form is still the only one scanned, and a canonical one
        # lets every block be scanned once.
        lines = canonical_lines(60)
        spaced = [json.dumps(json.loads(line)) for line in lines]
        calls = []
        real = scan.scan_block
        monkeypatch.setattr(
            scan, "scan_block", lambda *args: calls.append(args[1:]) or real(*args)
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with parsed_in(300, 8, 3):
                for body, canonical in ((spaced, False), (lines, True)):
                    data = ("\n".join([HEADER] + body) + "\n").encode()
                    blocks = ingest._line_blocks(data, len(HEADER) + 1)
                    for _ in range(10):
                        calls.clear()
                        parse_detections(data)
                        assert sorted(calls) == (blocks if canonical else blocks[:1])
        finally:
            sys.setswitchinterval(interval)


def _meta(n):
    return StreamMeta(fps=Fraction(30000, 1001), frame_count=n, source_id="rt")


def gray_header(width, height, count):
    return b"CGRY" + b"".join(v.to_bytes(4, "little") for v in (width, height, count))


class TestGrayContainer:
    def test_single_frame(self):
        frames = load_gray_frames(gray_header(4, 4, 1) + bytes(range(16)))
        assert frames.shape == (1, 4, 4) and frames.dtype == np.uint8
        assert frames[0, 3, 3] == 15

    def test_rows_of_width_pixels(self):
        frames = load_gray_frames(gray_header(3, 2, 2) + bytes(range(12)))
        assert frames.shape == (2, 2, 3)
        assert frames[1].tolist() == [[6, 7, 8], [9, 10, 11]]

    def test_read_only_view_of_the_container(self):
        payload = gray_header(2, 2, 1) + bytes(4)
        frames = load_gray_frames(payload)
        assert not frames.flags.writeable
        with pytest.raises(ValueError):
            frames[0, 0, 0] = 1

    def test_mapped_container_is_not_copied(self, tmp_path):
        path = tmp_path / "g.cgry"
        pixels = (bytes(range(256)) * 39_063)[:10_000_000]
        path.write_bytes(gray_header(1000, 1000, 10) + pixels)
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ) as data:
            tracemalloc.start()
            try:
                frames = load_gray_frames(data)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert frames.shape == (10, 1000, 1000)
            assert frames[9, 999, 999] == 9_999_999 % 256 and not frames.flags.writeable
            del frames  # a mapping with a live view cannot be closed
        assert peak < 1 << 20

    def test_writable_mapping_loads_read_only(self, tmp_path):
        path = tmp_path / "g.cgry"
        path.write_bytes(gray_header(2, 2, 1) + bytes(4))
        with open(path, "rb") as fh, mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_COPY) as data:
            frames = load_gray_frames(data)
            assert not frames.flags.writeable
            del frames

    def test_zero_frames(self):
        frames = load_gray_frames(gray_header(5, 3, 0))
        assert frames.shape == (0, 3, 5)

    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"CGRY" + bytes(11), "shorter than its 16-byte header"),
            (gray_header(0, 4, 1), "zero frame dimension 0x4"),
            (gray_header(4, 0, 1), "zero frame dimension 4x0"),
            (gray_header(4, 4, 1) + bytes(17), "1 trailing bytes after last frame"),
        ],
        ids=["short-header", "zero-width", "zero-height", "trailing"],
    )
    def test_rejected_container(self, payload, message):
        with pytest.raises(InputFormatError, match=message):
            load_gray_frames(payload)

    def test_truncated_payload(self):
        with pytest.raises(InputFormatError, match="truncated"):
            load_gray_frames(gray_header(4, 4, 2) + bytes(16))

    def test_bad_magic(self):
        with pytest.raises(InputFormatError, match="magic"):
            load_gray_frames(b"XGRY" + bytes(12))

    def test_round_trip_bit_exact(self, rng):
        frames = rng.integers(0, 256, (100, 48, 64)).astype(np.uint8)
        data = save_gray_frames(frames)
        loaded = load_gray_frames(data)
        assert save_gray_frames(loaded) == data
        assert np.array_equal(loaded, frames)

    @pytest.mark.parametrize(
        "frames",
        [
            np.zeros((2, 2, 2), dtype=np.int64),
            [[[0, 1], [2, 3]], [[4, 5], [6, 7]]],
            np.zeros((2, 2), dtype=np.uint8),
            np.zeros((0, 2, 2), dtype=np.uint8),
            np.zeros((2, 0, 2), dtype=np.uint8),
        ],
        ids=["int64", "nested-lists", "2-d", "no-frames", "zero-height"],
    )
    def test_save_rejects_what_load_would(self, frames):
        with pytest.raises(ValueError, match=r"non-empty \(n, height, width\) uint8 array"):
            save_gray_frames(frames)


def test_parse_fps_forms():
    assert parse_fps(30) == Fraction(30)
    assert parse_fps(29.97) == Fraction("29.97")
    assert parse_fps("24000/1001") == Fraction(24000, 1001)
    with pytest.raises(InputFormatError):
        parse_fps(True)


def names_outside_ingest():
    """("module:line", name) of each module imported, name imported from a
    module and function called in the package's modules but ``ingest``."""
    for path in sorted(Path(ingest.__file__).parent.glob("*.py")):
        if path.name == "ingest.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""] + [alias.name for alias in node.names]
            elif isinstance(node, ast.Call):
                func = node.func
                names = [getattr(func, "attr", getattr(func, "id", ""))]
            else:
                continue
            yield from ((f"{path.name}:{node.lineno}", name) for name in names)


def test_only_ingest_maps_and_releases():
    # One module owns the mapped-input rule (``_map_bytes``, ``_releaser``):
    # no other module of the package imports mmap or calls madvise.
    found = [
        f"{place} {name}"
        for place, name in names_outside_ingest()
        if name.split(".")[0] == "mmap" or name == "madvise"
    ]
    assert found == []


def test_only_ingest_cuts_blocks():
    # One walk cuts and scans the blocks of both text formats (``_walk``):
    # no other module of the package cuts blocks (``_line_blocks``) or
    # sizes a pool of scans (``_SCAN_THREADS``).
    found = [
        f"{place} {name}"
        for place, name in names_outside_ingest()
        if name in ("_line_blocks", "_SCAN_THREADS")
    ]
    assert found == []


def test_no_constant_defined_twice():
    # A module-level name is bound in one module of the package; another
    # module that needs it imports it (``_INT64_MAX`` from ``ingest``).
    owners = {}
    for path in sorted(Path(ingest.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8"), str(path)).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            for name in names:
                owners.setdefault(name, set()).add(path.name)
    assert {name: sorted(paths) for name, paths in owners.items() if len(paths) > 1} == {}


def _imported_modules(node):
    """The top-level modules an import statement loads, with ``crowdgate.``
    dropped from a package module's name and a relative one taken as the
    package's."""
    if isinstance(node, ast.Import):
        names = [alias.name for alias in node.names]
    elif node.level:
        return [node.module] if node.module else [alias.name for alias in node.names]
    else:
        names = [node.module]
    return [name.removeprefix("crowdgate.") for name in names]


def test_package_imports_at_module_top_and_no_scan_cycle():
    # Only the detections read defers an import, so that the commands that
    # read no detections do not compile the detections scan. The two scans
    # share their word arithmetic through ``words``, not through each other.
    package = Path(ingest.__file__).parent
    modules = {path.stem for path in package.glob("*.py")}
    deferred, imported = set(), {}
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                imported.setdefault(path.stem, set()).update(_imported_modules(node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                deferred |= {
                    (path.stem, node.name, module)
                    for inner in ast.walk(node)
                    if isinstance(inner, (ast.Import, ast.ImportFrom))
                    for module in _imported_modules(inner)
                    if module in modules
                }
    assert deferred == {("ingest", "_read_detections", "scan")}
    assert "scan" not in imported["counting"] and "counting" not in imported["scan"]
    assert imported["words"] == {"__future__", "numpy"}


@pytest.mark.parametrize("data", [b"", b"  ", b"\n", b"\n  ", b" \n\r\n"])
def test_blank_stream_names_its_last_line(data):
    assert_same_rejection(data)
