import json
from fractions import Fraction

import numpy as np
import pytest

from crowdgate import ingest
from crowdgate.errors import InputFormatError
from crowdgate.ingest import (
    Boxes,
    Detections,
    StreamMeta,
    load_gray_frames,
    parse_detections,
    parse_fps,
    save_gray_frames,
    serialize_detections,
)

from conftest import detections_bytes

HEADER = '{"fps":30,"source_id":"s"}'
BOX_FIELDS = ("x", "y", "w", "h", "score", "class_id")
VALID_BOX = {"x": 1.0, "y": 2.0, "w": 3.0, "h": 4.0, "score": 0.5, "class_id": 0}


def reference_parse_detections(data: bytes):
    """The object-per-box parser the columnar one replaced, kept as the oracle.

    Returns (frames, fps, source_id, gaps) with one (frame_index,
    timestamp_ms, boxes) tuple per frame and one (x, y, w, h, score,
    class_id) tuple per box.
    """
    header = None
    frames = []
    last_index = None
    gaps = []
    for line_no, line in enumerate(data.decode("utf-8").splitlines(), start=1):
        stripped = line.strip()
        if not stripped:
            continue
        try:
            obj = json.loads(stripped)
        except json.JSONDecodeError as exc:
            raise InputFormatError(f"invalid JSON: {exc.msg}", line=line_no) from exc
        if header is None:
            if "fps" not in obj:
                raise InputFormatError("header missing 'fps'", line=line_no)
            header = (parse_fps(obj["fps"]), str(obj.get("source_id", "")))
            continue
        try:
            frame_index = int(obj["frame_index"])
            timestamp_ms = int(obj["timestamp_ms"])
            raw_boxes = obj["boxes"]
        except KeyError as exc:
            raise InputFormatError(f"record missing field {exc.args[0]!r}", line=line_no) from exc
        boxes = tuple(_reference_box(raw, line_no) for raw in raw_boxes)
        for name, value in (("frame_index", frame_index), ("timestamp_ms", timestamp_ms)):
            if value < 0:
                raise InputFormatError(f"{name} must be >= 0, got {value}", line=line_no)
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
    if header is None:
        raise InputFormatError("empty detections stream (no header)")
    return frames, header[0], header[1], tuple(gaps)


def _reference_box(raw, line):
    try:
        box = tuple(float(raw[k]) for k in BOX_FIELDS[:5]) + (int(raw["class_id"]),)
    except KeyError as exc:
        raise InputFormatError(f"box missing field {exc.args[0]!r}", line=line) from exc
    except (TypeError, ValueError) as exc:
        raise InputFormatError(f"bad box: {exc}", line=line) from exc
    w, h, score = box[2], box[3], box[4]
    if w <= 0 or h <= 0:
        raise InputFormatError(
            f"bad box: box width/height must be > 0, got w={w}, h={h}", line=line
        )
    if not 0.0 <= score <= 1.0:
        raise InputFormatError(f"bad box: score must be in [0, 1], got {score}", line=line)
    return box


def assert_matches_reference(data: bytes):
    frames, fps, source_id, gaps = reference_parse_detections(data)
    detections, meta = parse_detections(data)
    assert (meta.fps, meta.source_id, meta.gaps) == (fps, source_id, gaps)
    assert meta.frame_count == len(detections) == len(frames)
    assert detections.frame_index.tolist() == [f[0] for f in frames]
    assert detections.timestamp_ms.tolist() == [f[1] for f in frames]
    assert detections.offsets.tolist() == np.cumsum([0] + [len(f[2]) for f in frames]).tolist()
    b = detections.boxes
    columns = (b.x, b.y, b.w, b.h, b.score, b.class_id)
    assert [c.dtype for c in columns] == [np.float64] * 5 + [np.int64]
    assert list(zip(*(c.tolist() for c in columns))) == [box for f in frames for box in f[2]]


def assert_same_rejection(data: bytes):
    with pytest.raises(InputFormatError) as expected:
        reference_parse_detections(data)
    with pytest.raises(InputFormatError) as got:
        parse_detections(data)
    assert str(got.value) == str(expected.value)
    assert got.value.line == expected.value.line


def random_box(rng, float_class_ids=False) -> dict:
    box = {
        "x": round(float(rng.uniform(0, 1900)), 1),
        "y": int(rng.integers(0, 1000)),  # JSON ints read as floats
        "w": float(rng.uniform(0.5, 80)),
        "h": round(float(rng.uniform(1, 200)), 2),
        "score": float(rng.choice([0.0, 1.0, rng.uniform(0, 1)])),
        "class_id": int(rng.integers(0, 4)),
    }
    if float_class_ids:
        box["class_id"] = float(box["class_id"])
    return box


def random_records(rng, n, gaps=False, float_class_ids=False) -> list[dict]:
    records, index = [], int(rng.integers(0, 5))
    for _ in range(n):
        boxes = [random_box(rng, float_class_ids) for _ in range(int(rng.integers(0, 6)))]
        records.append({"frame_index": index, "timestamp_ms": index * 33, "boxes": boxes})
        index += int(rng.integers(1, 4)) if gaps else 1
    return records


def stream(records, noisy=False, rng=None) -> bytes:
    lines = [HEADER] + [json.dumps(r) for r in records]
    if noisy:
        lines = [rng.choice(["", "  ", "\t"]) + line + rng.choice(["", " ", "\r"]) for line in lines]
        lines = [x for line in lines for x in ([line, ""] if rng.random() < 0.3 else [line])]
    return ("\n".join(lines) + "\n").encode("utf-8")


def one_box(**values) -> bytes:
    box = {**VALID_BOX, **values}
    return stream([{"frame_index": 0, "timestamp_ms": 0, "boxes": [box]}])


@pytest.fixture
def small_blocks(monkeypatch):
    # a few frames per block, so streams cross block boundaries
    monkeypatch.setattr(ingest, "_BLOCK_FRAMES", 4)


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
        frames, meta = parse_detections(data)
        assert len(frames) == 2
        assert meta.fps == Fraction(30)
        assert meta.source_id == "cam1"
        assert len(frames[0].boxes) == 2
        assert len(frames[1].boxes) == 0

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
        frames, meta = parse_detections(noisy.encode())
        assert [len(f.boxes) for f in frames] == [1, 2]

    def test_round_trip_random_streams(self, rng):
        for _ in range(20):
            n = int(rng.integers(1, 60))
            counts = rng.integers(0, 6, n)
            m = int(counts.sum())
            detections = Detections(
                frame_index=np.cumsum(rng.integers(1, 4, n)),
                timestamp_ms=np.arange(n, dtype=np.int64) * 33,
                offsets=np.concatenate(([0], np.cumsum(counts))),
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
            for name in ("frame_index", "timestamp_ms", "offsets"):
                np.testing.assert_array_equal(getattr(parsed, name), getattr(detections, name))
            for name in BOX_FIELDS:
                np.testing.assert_array_equal(
                    getattr(parsed.boxes, name), getattr(detections.boxes, name)
                )
            assert serialize_detections(parsed, meta2) == data

    def test_frames_view_box_rows(self):
        data = stream(random_records(np.random.default_rng(3), 30))
        detections, _ = parse_detections(data)
        frames = list(detections)
        assert sum(len(f.boxes) for f in frames) == len(detections.boxes)
        for i, frame in enumerate(frames):
            lo, hi = detections.offsets[i], detections.offsets[i + 1]
            assert frame.frame_index == detections.frame_index[i]
            np.testing.assert_array_equal(frame.boxes.score, detections.boxes.score[lo:hi])
        assert detections[-1].frame_index == frames[-1].frame_index

    def test_path_and_file_object_sources(self, tmp_path):
        data = stream(random_records(np.random.default_rng(4), 10))
        path = tmp_path / "d.jsonl"
        path.write_bytes(data)
        expected = serialize_detections(*parse_detections(data))
        with open(path, "rb") as binary, open(path, encoding="utf-8") as text:
            for source in (str(path), binary, text):
                assert serialize_detections(*parse_detections(source)) == expected


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
         {"x": 10**400}, {"class_id": float("nan")}, {"class_id": 2**63}],
    )
    def test_non_number_box_value_names_box(self, values):
        records = [
            {"frame_index": 0, "timestamp_ms": 0, "boxes": [random_box(np.random.default_rng(6))]},
            {"frame_index": 1, "timestamp_ms": 33, "boxes": [{**VALID_BOX, **values}]},
        ]
        with pytest.raises(InputFormatError, match="line 3: bad box: values must be numbers"):
            parse_detections(stream(records))


@pytest.mark.usefixtures("small_blocks")
class TestReferenceParity:
    """The columns equal the object-per-box parser's output, field for field."""

    def test_random_streams(self, rng):
        for _ in range(30):
            assert_matches_reference(stream(random_records(rng, int(rng.integers(0, 40)))))

    def test_gaps_blank_lines_and_whitespace(self, rng):
        for _ in range(30):
            records = random_records(rng, int(rng.integers(1, 40)), gaps=True)
            assert_matches_reference(stream(records, noisy=True, rng=rng))

    def test_float_class_ids(self, rng):
        for _ in range(10):
            records = random_records(rng, int(rng.integers(1, 20)), float_class_ids=True)
            assert_matches_reference(stream(records))

    @pytest.mark.parametrize(
        "mutation",
        ["zero_w", "negative_h", "score_high", "score_low", "missing_field", "duplicate_index"],
    )
    def test_mutated_streams_rejected_alike(self, mutation, rng):
        for _ in range(20):
            records = random_records(rng, int(rng.integers(2, 30)))
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
            assert_same_rejection(stream(records))

    def test_first_error_in_file_order(self, rng):
        records = random_records(rng, 8)
        for r in records:
            r["boxes"] += [random_box(rng), random_box(rng)]
        records[2]["boxes"][0]["w"] = 0.0  # an earlier bad box in the same block ...
        del records[5]["boxes"][0]["score"]  # ... comes before a later missing field
        records[6]["boxes"][0]["h"] = 0.0  # and a bad box before a missing field on one line
        del records[6]["boxes"][-1]["x"]
        data = stream(records)
        assert_same_rejection(data)
        records[2]["boxes"][0]["w"] = 1.0
        records[5]["boxes"][0]["score"] = 0.5
        assert_same_rejection(stream(records))


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
