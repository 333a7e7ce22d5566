"""stage_count walks the detections stream a window of blocks at a time.

What it returns must not depend on where the blocks and windows fall, and
its memory must grow with the frames, not with the boxes or the bytes.
The oracle is ``parse_detections`` on the whole stream as one block, plus
``count_series``: the parse that ``crowdgate ingest`` runs.
"""

import functools
import hashlib
import itertools
import json
import mmap
import threading
import time
import tracemalloc

import numpy as np
import pytest

from crowdgate import cli, counting, ingest
from crowdgate.cli import PipelineConfig, stage_count
from crowdgate.counting import count_detections, count_series, write_count_series
from crowdgate.errors import InputFormatError
from crowdgate.ingest import parse_detections

from conftest import WAYS, parsed_in

CONFIG = PipelineConfig()
HEADER = '{"fps":30,"source_id":"s"}'
WHOLE = (1 << 30, 1)  # one block, whatever the stream's size


def box(k, score=0.9, class_id=0):
    return {"x": 1.5 * k, "y": 2.0, "w": 3.0, "h": 4.25, "score": score, "class_id": class_id}


def record(index, boxes, spaced=False):
    obj = {"frame_index": index, "timestamp_ms": 33 * index, "boxes": boxes}
    return json.dumps(obj) if spaced else json.dumps(obj, separators=(",", ":"))


def mixed_records(n, rng, start=0, gaps=False):
    """Canonical lines with persons, persons under the score floor and other
    classes, so a frame's count is not its number of boxes."""
    lines, index = [], start
    for _ in range(n):
        boxes = [
            box(k, score=float(rng.choice([0.25, 0.5, 0.75])), class_id=int(rng.integers(0, 3)))
            for k in range(int(rng.integers(0, 8)))
        ]
        lines.append(record(index, boxes))
        index += int(rng.integers(1, 4)) if gaps else 1
    return lines


def stream(lines, end="\n") -> bytes:
    return ("\n".join(lines) + end).encode()


def whole_parse_and_count(data):
    """(series, raw-counts CSV, StreamMeta, SHA-256) from one whole-bytes parse."""
    policy = CONFIG.routing_policy()
    with parsed_in(*WHOLE):
        detections, meta = parse_detections(bytes(data))
    series = count_series(detections, meta, policy)
    sha256 = hashlib.sha256(data).hexdigest()
    csv = write_count_series(series, comments=cli._provenance(policy, sha256))
    return series, csv, meta, sha256


def sources(data, tmp_path):
    """``data`` as bytes and as the mapping ``run`` and ``count`` make of a file."""
    path = tmp_path / "d.jsonl"
    path.write_bytes(data)
    return [data, cli._map_bytes(path)]


def assert_counts_like_parse(data, tmp_path):
    want_series, want_csv, want_meta, want_sha256 = whole_parse_and_count(data)
    for source in sources(data, tmp_path):
        for way in WAYS:
            with parsed_in(*way):
                series, csv, meta = stage_count(source, CONFIG)
            assert series.counts.tobytes() == want_series.counts.tobytes(), way
            assert series.provenance.tobytes() == want_series.provenance.tobytes()
            assert series.fps == want_series.fps
            assert csv == want_csv, way
            assert meta == want_meta, way
            assert meta.sha256 == want_sha256
    return want_series


def assert_same_rejection(data, tmp_path):
    with parsed_in(*WHOLE), pytest.raises(InputFormatError) as want:
        parse_detections(data)
    for source in sources(data, tmp_path):
        for way in WAYS:
            with parsed_in(*way), pytest.raises(InputFormatError) as got:
                stage_count(source, CONFIG)
            assert (str(got.value), got.value.line) == (str(want.value), want.value.line), way
    return want.value


class TestWindowBoundaries:
    """stage_count in every way of WAYS, from bytes and from a mapping."""

    def test_mixed_stream(self, tmp_path):
        series = assert_counts_like_parse(
            stream([HEADER] + mixed_records(40, np.random.default_rng(1))), tmp_path
        )
        assert len(series) == 40 and series.counts.any()

    def test_gaps_across_windows(self, tmp_path):
        data = stream([HEADER] + mixed_records(40, np.random.default_rng(2), start=3, gaps=True))
        assert_counts_like_parse(data, tmp_path)
        assert len(whole_parse_and_count(data)[2].gaps) > 10

    def test_header_after_blank_lines_across_a_window(self, tmp_path):
        lines = ["", "  ", "\t"] * 30 + [HEADER] + [""] * 40
        lines += [x for line in mixed_records(30, np.random.default_rng(3)) for x in (line, "", " ")]
        assert_counts_like_parse(stream(lines), tmp_path)

    def test_line_longer_than_a_window(self, tmp_path):
        # a frame of 400 boxes, about 38 KB, 20 of them persons, among short ones
        lines = mixed_records(30, np.random.default_rng(4))
        lines[12] = record(12, [box(k, class_id=int(k >= 20)) for k in range(400)])
        series = assert_counts_like_parse(stream([HEADER] + lines), tmp_path)
        assert series.counts[12] == 20

    def test_no_final_newline(self, tmp_path):
        data = stream([HEADER] + mixed_records(30, np.random.default_rng(5)), end="")
        assert_counts_like_parse(data, tmp_path)

    def test_header_only(self, tmp_path):
        for data in (HEADER.encode(), stream([HEADER, "", ""])):
            assert len(assert_counts_like_parse(data, tmp_path)) == 0

    def test_non_canonical_first_block(self, tmp_path):
        lines = mixed_records(40, np.random.default_rng(6))
        lines[:3] = [json.dumps(json.loads(line)) for line in lines[:3]]
        assert_counts_like_parse(stream([HEADER] + lines), tmp_path)

    def test_odd_later_block(self, tmp_path):
        lines = mixed_records(40, np.random.default_rng(7))
        lines[25] = json.dumps(json.loads(lines[25]))
        lines[26] = lines[26].replace('"score":0.5', '"score":0.50000000000000001')
        assert_counts_like_parse(stream([HEADER] + lines), tmp_path)

    @pytest.mark.parametrize("kind", ["duplicate", "decreasing"])
    @pytest.mark.parametrize("at", range(1, 8))
    def test_frame_order_across_a_window(self, tmp_path, kind, at):
        # line `at` repeats or undercuts the frame before it; with blocks of
        # one line and windows of one and three blocks, some ways put a
        # window boundary right before it
        lines = mixed_records(20, np.random.default_rng(8))
        index = at - 1 if kind == "duplicate" else at - 2
        lines[at] = lines[at].replace(f'"frame_index":{at},', f'"frame_index":{index},', 1)
        error = assert_same_rejection(stream([HEADER] + lines), tmp_path)
        assert error.line == at + 2

    def test_bad_box_in_a_late_window(self, tmp_path):
        lines = mixed_records(40, np.random.default_rng(9))
        lines[33] = record(33, [box(0), {**box(1), "w": 0.0}])
        error = assert_same_rejection(stream([HEADER] + lines), tmp_path)
        assert str(error) == "line 35: bad box: box width/height must be > 0, got w=0.0, h=4.25"


@functools.cache
def canonical_stream(frames, boxes_per_frame=12) -> bytes:
    rng = np.random.default_rng(10)
    lines = [HEADER]
    for i in range(frames):
        boxes = ",".join(
            f'{{"x":{x / 10},"y":{y / 10},"w":{w / 10},"h":{h / 10},'
            f'"score":{s / 100},"class_id":{c % 2}}}'
            for x, y, w, h, s, c in rng.integers(1, 100, (boxes_per_frame, 6))
        )
        lines.append(f'{{"frame_index":{i},"timestamp_ms":{33 * i},"boxes":[{boxes}]}}')
    return stream(lines)


class TestBoundedMemory:
    FRAMES = 1000  # about 770 bytes of text per frame

    def peak(self, data):
        tracemalloc.start()
        try:
            series = stage_count(data, CONFIG)[0]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak, series

    def test_peak_grows_with_the_frames_not_the_boxes(self, monkeypatch):
        # Windows of 64 KiB, so the 1x stream (0.77 MB) is walked in 12.
        # Four times the frames may add the per-frame columns and the
        # raw-counts CSV: 200 bytes for each frame added, against the 48
        # bytes per box (576 per frame here) that holding the boxes costs.
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 12)
        small = canonical_stream(self.FRAMES)
        large = canonical_stream(4 * self.FRAMES)
        assert len(small) > 8 * ingest._WINDOW_BLOCKS * ingest._BLOCK_BYTES
        small_peak, small_series = self.peak(small)
        large_peak, large_series = self.peak(large)
        assert (len(small_series), len(large_series)) == (self.FRAMES, 4 * self.FRAMES)
        assert large_peak < small_peak + 3 * self.FRAMES * 200

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_peak_is_the_running_scans_plus_a_block(self, cpus):
        # Three windows and more of default blocks. Each block's person
        # boxes are counted on the thread that scanned it, so a window
        # holds its blocks' frame indices and counts, not their box
        # columns. Allowed above the output: 4.5 blocks per scan running
        # at once (one scan peaks under 5, TestParseMemory), plus one block.
        # Measured 4.4 blocks on one CPU and 8.2 on two; holding each
        # window's box columns until it was counted, 10.5 and 13.5.
        data = canonical_stream(17 * self.FRAMES)
        assert len(data) > 3 * ingest._WINDOW_BLOCKS * ingest._BLOCK_BYTES
        with parsed_in(ingest._BLOCK_BYTES, cpus):
            tracemalloc.start()
            try:
                series, meta = count_detections(data, CONFIG.routing_policy())
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert meta.frame_count == len(series) == 17 * self.FRAMES
        scans = min(cpus, ingest._SCAN_THREADS)
        output = series.counts.nbytes + series.provenance.nbytes
        assert peak - output <= (4.5 * scans + 1) * ingest._BLOCK_BYTES

    @pytest.mark.parametrize("fault", ["bad line", "hash", "count"])
    def test_errors_reach_the_caller_once_the_workers_stop(self, monkeypatch, fault):
        # On two CPUs, a late block's bad line (read on the calling thread),
        # the hash and a scanned block's count (both on the window's pool)
        # each raise to the caller as themselves, and no worker outlives
        # the call.
        class Fault(Exception):
            pass

        data = canonical_stream(self.FRAMES)
        if fault == "bad line":  # on line 953 of 1001, frame 951's
            lines = data.decode().split("\n")
            lines[-50] = record(self.FRAMES - 49, [box(0, score=2.0)])
            data = "\n".join(lines).encode()
        if fault == "hash":
            class Sha256:
                def update(self, chunk):
                    raise Fault

            monkeypatch.setattr(hashlib, "sha256", Sha256)
        if fault == "count":
            calls = itertools.count()
            person_counts = counting._person_counts

            def late_fault(*args):
                if next(calls) == 100:
                    raise Fault
                return person_counts(*args)

            monkeypatch.setattr(counting, "_person_counts", late_fault)
        before = set(threading.enumerate())
        error = InputFormatError if fault == "bad line" else Fault
        with parsed_in(1 << 12, 2), pytest.raises(error) as got:
            count_detections(data, CONFIG.routing_policy())
        assert set(threading.enumerate()) == before
        if fault == "bad line":
            assert str(got.value) == "line 953: bad box: score must be in [0, 1], got 2.0"

    def test_mapped_bytes_are_hashed_before_release(self, monkeypatch, tmp_path):
        # Every madvise range is whole pages (the last may end at the end of
        # the file), follows the one before, and lies in the bytes the hash
        # has taken in; together the ranges cover the file.
        monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 12)
        data = canonical_stream(self.FRAMES)
        path = tmp_path / "d.jsonl"
        path.write_bytes(data)
        hashed, released = [0], []
        real_sha256 = hashlib.sha256

        class Sha256:
            def __init__(self, chunk=b""):
                self.real = real_sha256(chunk)
                hashed[0] += len(chunk)

            def update(self, chunk):
                time.sleep(0.01)  # a slow hash: a release that does not wait for it shows
                self.real.update(chunk)
                hashed[0] += len(chunk)

            def hexdigest(self):
                return self.real.hexdigest()

        class Mapping(mmap.mmap):
            def madvise(self, option, start, length):
                released.append((option, start, length, hashed[0]))
                return super().madvise(option, start, length)

        monkeypatch.setattr(hashlib, "sha256", Sha256)
        with open(path, "rb") as fh:
            mapped = Mapping(fh.fileno(), 0, access=mmap.ACCESS_READ)
        csv = stage_count(mapped, CONFIG)[1]
        monkeypatch.undo()
        assert f"# input_sha256={hashlib.sha256(data).hexdigest()}\n".encode() in csv
        assert csv == stage_count(data, CONFIG)[1]
        assert len(released) > 10
        end = 0
        for option, start, length, hashed_then in released:
            assert option == mmap.MADV_DONTNEED
            assert start == end and start % mmap.PAGESIZE == 0
            end = start + length
            assert end % mmap.PAGESIZE == 0 or end == len(data)
            assert end <= hashed_then
        assert end == len(data)

    def test_hash_error_reaches_the_caller(self, monkeypatch):
        # A window is hashed on the pool that scans its blocks: an error
        # while hashing is raised to the caller as itself, once every worker
        # has stopped.
        class HashError(Exception):
            pass

        class Sha256:
            def __init__(self, chunk=b""):
                if chunk:
                    self.update(chunk)

            def update(self, chunk):
                raise HashError

        data = canonical_stream(self.FRAMES)
        before = set(threading.enumerate())
        monkeypatch.setattr(hashlib, "sha256", Sha256)
        with parsed_in(1 << 12, 2), pytest.raises(HashError):
            stage_count(data, CONFIG)
        assert len(data) > 2 * ingest._WINDOW_BLOCKS * (1 << 12)
        assert set(threading.enumerate()) == before
