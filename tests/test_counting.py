import csv
import hashlib
import mmap
import sys
import tracemalloc
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crowdgate import counting, ingest
from crowdgate.counting import (
    CODE_DENSITY,
    CODE_DETECTOR,
    CODE_SMOOTHED,
    PROV_DENSITY,
    PROV_DETECTOR,
    PROV_SMOOTHED,
    CountSeries,
    RoutingPolicy,
    count_series,
    frames_needing_density,
    read_count_series,
    route_counts,
    write_count_series,
)
from crowdgate.errors import InputFormatError, RoutingError
from crowdgate.ingest import Boxes, Detections, StreamMeta, format_fps, parse_fps

from conftest import WAYS, parsed_in, series

PROVENANCES = (PROV_DETECTOR, PROV_DENSITY, PROV_SMOOTHED)
INT64_MAX = 2**63 - 1
HEADER = "frame_index,count,provenance"


def reference_write_count_series(series, comments=()) -> bytes:
    """The row-by-row f-string writer the numpy one replaced, kept as the oracle."""
    head = [f"# fps={format_fps(series.fps)}\n"]
    head += [f"# {comment}\n" for comment in comments]
    head.append(HEADER + "\n")
    rows = zip(series.counts.tolist(), series.provenance.tolist())
    body = "".join([f"{i},{count},{PROVENANCES[code]}\n" for i, (count, code) in enumerate(rows)])
    return ("".join(head) + body).encode("utf-8")


def reference_read_count_series(data: bytes, fps=None) -> CountSeries:
    """The row-by-row csv-module reader the columnar one replaced, kept as the oracle."""
    rows = []
    file_fps = None
    header_seen = False
    for line_no, line in enumerate(data.decode("utf-8").splitlines(), start=1):
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
                raise InputFormatError(f"bad count-series header {stripped!r}", line=line_no)
            header_seen = True
            continue
        try:
            index, count, prov = int(fields[0]), int(fields[1]), fields[2]
        except (IndexError, ValueError) as exc:
            raise InputFormatError(f"bad count row {stripped!r}", line=line_no) from exc
        if count < 0:
            raise InputFormatError(f"negative count {count}", line=line_no)
        if prov not in PROVENANCES:
            raise InputFormatError(f"unknown provenance {prov!r}", line=line_no)
        if index != len(rows):
            raise InputFormatError(f"expected frame_index {len(rows)}, got {index}", line=line_no)
        rows.append((count, prov))
    if not header_seen:
        raise InputFormatError("count-series file has no header row")
    effective_fps = parse_fps(fps) if fps is not None else file_fps
    if effective_fps is None:
        raise InputFormatError("no fps available: file carries no '# fps=' and none was supplied")
    counts = np.array([r[0] for r in rows], dtype=np.int64)
    codes = np.array([PROVENANCES.index(r[1]) for r in rows], dtype=np.uint8)
    return CountSeries(counts, effective_fps, codes)


def random_series(rng, n=None) -> CountSeries:
    n = int(rng.integers(0, 301)) if n is None else n
    scale = rng.choice([50, 10**6, INT64_MAX])
    counts = rng.integers(0, scale, n, dtype=np.int64, endpoint=True)
    codes = rng.integers(0, 3, n).astype(np.uint8)
    fps = rng.choice([Fraction(30), Fraction(25), Fraction(30000, 1001)])
    return CountSeries(counts, fps, codes)


def csv_lines(series, rng, fps_comment=True) -> list[str]:
    """The lines of a count CSV for ``series``, with blank and comment lines mixed in."""
    lines = [f"# fps={format_fps(series.fps)}"] if fps_comment else []
    lines += ["# seed=7", HEADER]
    for i, (count, code) in enumerate(zip(series.counts.tolist(), series.provenance.tolist())):
        if rng.random() < 0.1:
            lines.append(str(rng.choice(["", "  ", "\t", "# note, with a comma", " # indented"])))
        lines.append(f"{i},{count},{PROVENANCES[code]}")
    return lines


def csv_bytes(lines, rng) -> bytes:
    """Join ``lines`` with LF or CRLF, with or without a final line end."""
    end = str(rng.choice(["\n", "\r\n"]))
    text = end.join(lines) + (end if rng.random() < 0.7 else "")
    return text.encode("utf-8")


def assert_same_series(got: CountSeries, expected: CountSeries):
    assert got.counts.dtype == np.int64 and got.provenance.dtype == np.uint8
    assert got.counts.tolist() == expected.counts.tolist()
    assert got.provenance.tolist() == expected.provenance.tolist()
    assert got.fps == expected.fps


def assert_reads_as_reference(data: bytes, fps=None) -> CountSeries:
    """Every way of reading ``data`` gives the oracle's series."""
    expected = reference_read_count_series(data, fps=fps)
    for way in WAYS:
        with parsed_in(*way):
            assert_same_series(read_count_series(data, fps=fps), expected)
    return expected


def assert_same_rejection(data: bytes, fps=None):
    """Every way of reading ``data`` raises the oracle's message and line."""
    with pytest.raises(InputFormatError) as expected:
        reference_read_count_series(data, fps=fps)
    for way in WAYS:
        with parsed_in(*way), pytest.raises(InputFormatError) as got:
            read_count_series(data, fps=fps)
        assert (str(got.value), got.value.line) == (str(expected.value), expected.value.line)


def assert_rejected(data: bytes, message: str, line: int):
    """Every way of reading ``data`` raises ``message`` naming ``line``."""
    for way in WAYS:
        with parsed_in(*way), pytest.raises(InputFormatError) as got:
            read_count_series(data)
        assert (str(got.value), got.value.line) == (f"line {line}: {message}", line)


def stream(frames):
    """Detections whose i-th frame holds the (score, class_id) boxes ``frames[i]``."""
    rows = [box for boxes in frames for box in boxes]
    m = len(rows)
    n = len(frames)
    return Detections(
        frame_index=np.arange(n, dtype=np.int64),
        timestamp_ms=np.zeros(n, dtype=np.int64),
        box_counts=np.array([len(boxes) for boxes in frames], dtype=np.int64),
        boxes=Boxes(
            x=np.zeros(m),
            y=np.zeros(m),
            w=np.ones(m),
            h=np.ones(m),
            score=np.array([s for s, _ in rows], dtype=np.float64),
            class_id=np.array([c for _, c in rows], dtype=np.int64),
        ),
    )


def counts(frames, policy):
    meta = StreamMeta(fps=Fraction(30), frame_count=len(frames), source_id="t")
    out = count_series(stream(frames), meta, policy)
    assert out.counts.dtype == np.int64
    assert out.fps == 30
    return out.counts.tolist()


class TestCountFrame:
    """Per-frame counts, through count_series."""

    def test_empty(self):
        assert counts([[]], RoutingPolicy()) == [0]
        assert counts([], RoutingPolicy()) == []

    def test_score_filter(self):
        f = [(0.9, 0)] * 3 + [(0.3, 0)] + [(0.5, 0)]
        assert counts([f], RoutingPolicy(min_score=0.5)) == [4]

    def test_class_filter(self):
        f = [(0.9, 0), (0.9, 1), (0.9, 0)]
        assert counts([f], RoutingPolicy(person_class_id=0)) == [2]

    def test_brute_force_oracle(self, rng):
        # many frames are empty, including the first and last: a per-frame
        # reduction that mishandles empty frames shifts or merges counts
        policy = RoutingPolicy(min_score=0.6, person_class_id=2)
        for _ in range(50):
            frames = [
                [
                    (float(rng.uniform(0, 1)), int(rng.integers(0, 4)))
                    for _ in range(int(rng.choice([0, 0, rng.integers(1, 30)])))
                ]
                for _ in range(int(rng.integers(1, 40)))
            ]
            expected = [sum(1 for s, c in f if c == 2 and s >= 0.6) for f in frames]
            assert counts(frames, policy) == expected

    def test_monotone_in_min_score(self, rng):
        f = [(float(rng.uniform(0, 1)), 0) for _ in range(40)]
        by_floor = [counts([f], RoutingPolicy(min_score=t))[0] for t in np.linspace(0, 1, 21)]
        assert by_floor == sorted(by_floor, reverse=True)


class TestRouteCounts:
    def test_identity_below_ceiling(self):
        s = series([3, 5, 4])
        out = route_counts(s, RoutingPolicy(count_ceiling=25))
        assert np.array_equal(out.counts, [3, 5, 4])
        assert out.provenance.tolist() == [CODE_DETECTOR] * 3

    def test_at_ceiling_not_routed(self):
        # 25 boxes equals the ceiling; routing triggers strictly above
        s = series([25])
        assert frames_needing_density(s, RoutingPolicy(count_ceiling=25)).tolist() == []
        out = route_counts(s, RoutingPolicy(count_ceiling=25))
        assert out.counts[0] == 25 and out.provenance[0] == CODE_DETECTOR

    def test_routes_over_ceiling(self):
        s = series([20, 30, 22, 40])
        needed = frames_needing_density(s, RoutingPolicy(count_ceiling=25))
        assert needed.dtype == np.int64 and needed.tolist() == [1, 3]
        out = route_counts(s, RoutingPolicy(count_ceiling=25), np.array([28, 33]))
        assert np.array_equal(out.counts, [20, 28, 22, 33])
        assert out.provenance.tolist() == [CODE_DETECTOR, CODE_DENSITY, CODE_DETECTOR, CODE_DENSITY]

    def test_missing_density_names_frames(self):
        with pytest.raises(RoutingError, match="frames: 0") as exc:
            route_counts(series([30]), RoutingPolicy(count_ceiling=25))
        assert exc.value.frame_indices == [0]

    def test_count_array_of_wrong_length_rejected(self):
        s = series([30, 3, 40])
        for density in ([], [28], [28, 29, 30], [[28, 29]]):
            with pytest.raises(ValueError, match="for 2 over-ceiling frame"):
                route_counts(s, RoutingPolicy(count_ceiling=25), np.array(density, np.int64))

    def test_first_negative_count_names_its_frame(self):
        s = series([30, 3, 40, 50])
        with pytest.raises(ValueError, match="^density count for frame 2 is negative: -1$"):
            route_counts(s, RoutingPolicy(count_ceiling=25), np.array([28, -1, -5]))

    def test_length_preserved(self, rng):
        policy = RoutingPolicy(count_ceiling=25)
        for _ in range(20):
            counts = rng.integers(0, 50, int(rng.integers(1, 100)))
            s = series(counts)
            density = rng.integers(0, 50, len(frames_needing_density(s, policy)))
            out = route_counts(s, policy, density)
            assert len(out) == len(s)


class TestCountSeriesCsv:
    def test_round_trip(self):
        s = CountSeries(
            np.array([3, 28, 4], dtype=np.int64),
            30,
            np.array([CODE_DETECTOR, CODE_DENSITY, CODE_SMOOTHED], dtype=np.uint8),
        )
        data = write_count_series(s)
        back = read_count_series(data)
        assert np.array_equal(back.counts, s.counts)
        assert back.fps == s.fps
        assert np.array_equal(back.provenance, s.provenance)

    def test_header_and_rows(self):
        text = write_count_series(series([1, 2], fps=30)).decode()
        lines = text.splitlines()
        assert lines[0] == "# fps=30"
        assert lines[1] == "frame_index,count,provenance"
        assert lines[2] == "0,1,Detector"

    def test_fps_override(self):
        # read as a header's fps is: a float by its repr, not its binary value
        data = write_count_series(series([1], fps=30))
        for fps, expected in [(24, Fraction(24)), (29.97, Fraction(2997, 100)),
                              ("25", Fraction(25)), ("30000/1001", Fraction(30000, 1001)),
                              (Fraction(30000, 1001), Fraction(30000, 1001))]:
            got = read_count_series(data, fps=fps)
            assert got.fps == expected
            assert write_count_series(got).startswith(f"# fps={format_fps(expected)}\n".encode())

    @pytest.mark.parametrize("fps", [0, -1.5, "0/5", "-3", Fraction(0), "abc", True])
    def test_bad_fps_override_rejected(self, fps):
        data = write_count_series(series([1], fps=30))
        with pytest.raises(InputFormatError, match="fps"):
            read_count_series(data, fps=fps)

    def test_missing_fps_rejected(self):
        data = b"frame_index,count,provenance\n0,1,Detector\n"
        with pytest.raises(Exception, match="fps"):
            read_count_series(data)
        assert read_count_series(data, fps=30).fps == 30

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            series([1, -1])

    @pytest.mark.parametrize("word", ["Manual", "Detectors", "detector", ""])
    def test_unknown_provenance_rejected(self, word):
        with pytest.raises(ValueError, match=f"unknown provenance '{word}'"):
            CountSeries.from_counts([1, 2], 30, provenance=word)

    @pytest.mark.parametrize(
        "prov,message",
        [
            (np.array(["Detector", "Manual", "Density"], dtype="<U8"), "must be uint8 codes"),
            (np.array(["Detector", "Dénsity", "Density"], dtype="<U8"), "must be uint8 codes"),
            (np.array(["Detector", "Detecto", "Density"], dtype="<U8"), "must be uint8 codes"),
            (np.array(["Detector", "Detector2", "Density"]), "must be uint8 codes"),
            (np.array(["Detector", "Manual", "Density"], dtype=object), "must be uint8 codes"),
            (np.array(["Detector", "Density", "Smoothed"], dtype="<U8"), "must be uint8 codes"),
            (np.array([0, 1, 2], dtype=np.int64), "must be uint8 codes, got int64"),
            (np.array([0, 3, 1], dtype=np.uint8), "unknown provenance code 3"),
            (np.array([255, 0, 1], dtype=np.uint8), "unknown provenance code 255"),
        ],
        ids=["ascii", "non-ascii", "prefix", "wider-dtype", "object", "known-words",
             "int64-codes", "code-3", "code-255"],
    )
    def test_constructor_rejects_unknown_provenance(self, prov, message):
        with pytest.raises(ValueError, match=message):
            CountSeries(np.zeros(3, dtype=np.int64), 30, prov)

    @pytest.mark.parametrize("dtype", [np.float64, np.int32, np.uint64])
    def test_counts_must_be_int64(self, dtype):
        # the writer renders int64 digits; a float count would lose its fraction
        with pytest.raises(ValueError, match="counts must be int64"):
            CountSeries(np.ones(3, dtype=dtype), 30, np.zeros(3, dtype=np.uint8))

    def test_codes_kept_as_given(self):
        codes = np.array([CODE_DENSITY, CODE_SMOOTHED, CODE_DETECTOR], dtype=np.uint8)
        assert CountSeries(np.zeros(3, dtype=np.int64), 30, codes).provenance is codes
        for word, code in zip(PROVENANCES, (CODE_DETECTOR, CODE_DENSITY, CODE_SMOOTHED)):
            got = CountSeries.from_counts([1, 2], 30, provenance=word).provenance
            assert got.dtype == np.uint8 and got.tolist() == [code, code]

    def test_empty_body(self):
        data = b"# fps=30\nframe_index,count,provenance\n"
        for body in (b"", b"\n\n# only a comment\n", b"\r\n"):
            got = read_count_series(data + body)
            assert len(got) == 0 and got.counts.dtype == np.int64
            assert got.provenance.dtype == np.uint8

    def test_header_with_spaces(self):
        data = b"# fps=30\n frame_index , count,provenance \n0,3,Density\n"
        assert read_count_series(data).counts.tolist() == [3]

    def test_later_fps_comment_wins(self):
        data = b"# fps=30\nframe_index,count,provenance\n0,3,Density\n# fps=25\n1,4,Smoothed"
        got = read_count_series(data)
        assert got.fps == 25 and got.counts.tolist() == [3, 4]


@st.composite
def count_series_values(draw):
    n = draw(st.integers(0, 40))
    counts = draw(arrays(np.int64, n, elements=st.integers(0, INT64_MAX)))
    codes = draw(arrays(np.uint8, n, elements=st.integers(0, 2)))
    fps = draw(
        st.sampled_from([Fraction(30), Fraction(30000, 1001), Fraction(2997, 100)])
        | st.fractions(min_value=Fraction(1, 1000), max_value=1000, max_denominator=10**6)
    )
    return CountSeries(counts, fps, codes)


class TestWriteReadRoundTrip:
    """``run`` hands series from stage to stage in memory while the subcommands
    read them back from the CSVs; both give the same artifacts only if
    reading what was written gives the series back."""

    @settings(max_examples=200, deadline=None)
    @given(s=count_series_values())
    @example(s=CountSeries.from_counts([7], Fraction(30000, 1001), PROV_DENSITY))
    @example(s=CountSeries.from_counts([], Fraction(30000, 1001)))
    def test_read_inverts_write(self, s):
        data = write_count_series(s, comments=['config={"divisor":3}', "input_sha256=ab"])
        assert_same_series(read_count_series(data), s)


class TestReferenceParity:
    """The columnar reader and joined writer against the csv-module oracles."""

    def test_random_series(self, rng):
        for _ in range(200):
            s = random_series(rng)
            data = csv_bytes(csv_lines(s, rng), rng)
            fps = rng.choice([None, None, Fraction(24)])
            expected = reference_read_count_series(data, fps=fps)
            assert_same_series(read_count_series(data, fps=fps), expected)

    def test_fps_comment_in_body_overrides(self, rng):
        s = random_series(rng, n=20)
        lines = csv_lines(s, rng)
        lines.insert(int(rng.integers(3, len(lines))), "# fps=12")
        data = csv_bytes(lines, rng)
        got = read_count_series(data)
        assert got.fps == 12
        assert_same_series(got, reference_read_count_series(data))

    def test_writer_byte_identical(self, rng):
        for _ in range(100):
            s = random_series(rng)
            comments = [f"seed={int(rng.integers(0, 100))}", 'config={"a":1,"b":"x y"}']
            comments = comments[: int(rng.integers(0, 3))]
            data = write_count_series(s, comments=comments)
            assert data == reference_write_count_series(s, comments=comments)
            assert_same_series(read_count_series(data), s)

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda i, c, p: f"{i + 1},{c},{p}",
            lambda i, c, p: f"{i - 1},{c},{p}",
            lambda i, c, p: f"{i},-{c + 1},{p}",
            lambda i, c, p: f"{i},{c},Bogus",
            lambda i, c, p: f"{i},{c}",
            lambda i, c, p: f"{i},x{c},{p}",
            lambda i, c, p: f"{i}a,{c},{p}",
        ],
        ids=["gap", "duplicate", "negative-count", "unknown-provenance",
             "two-fields", "non-digit-count", "non-digit-index"],
    )
    def test_row_mutation_same_error(self, rng, mutate):
        for _ in range(30):
            s = random_series(rng, n=int(rng.integers(2, 40)))
            lines = csv_lines(s, rng)
            rows = [k for k, line in enumerate(lines) if line[:1].isdigit()]
            k = rows[int(rng.integers(1, len(rows)))]
            i, c, p = lines[k].split(",")
            lines[k] = mutate(int(i), int(c), p)
            assert_same_rejection(csv_bytes(lines, rng))

    def test_bad_header_same_error(self, rng):
        lines = csv_lines(random_series(rng, n=5), rng)
        lines[lines.index(HEADER)] = "frame,count,provenance"
        assert_same_rejection(csv_bytes(lines, rng))
        assert_same_rejection(b"# fps=30\n\n")

    def test_missing_fps_same_error(self, rng):
        lines = csv_lines(random_series(rng, n=5), rng, fps_comment=False)
        assert_same_rejection(csv_bytes(lines, rng))

    def test_scan_and_line_check_agree(self, rng):
        # 1 to 3 bytes replaced, inserted or deleted either leave a file the
        # oracle reads the same way, or one rejected with a line-numbered
        # error; and every block the scan takes, the line parser reads the same
        for _ in range(300):
            s = random_series(rng, n=int(rng.integers(1, 80)))
            data = hostile_edit(write_count_series(s), rng)
            try:
                got = read_count_series(data)
            except InputFormatError as exc:
                assert exc.line is not None or "fps" in str(exc) or "header" in str(exc)
            else:
                assert_same_series(got, reference_read_count_series(data))
            assert_scan_agrees(data)

    def test_non_digit_in_a_number_and_digit_in_a_word(self):
        # the block's digits still number the fields' summed widths
        prefix = b"# fps=30\nframe_index,count,provenance\n0,1,Detector\n"
        for row in (b"1,x,Detect0r", b"x,7,Densit5", b"1,2x,Smoothe1", b"1?,7,Dens1ty"):
            data = prefix + row + b"\n2,3,Smoothed\n"
            _, _, offset = counting._read_preamble(data)
            assert counting._scan_body(data, offset, len(data)) is None
            assert_scan_agrees(data)
            assert_rejected(data, f"bad count row {row.decode()!r}", 4)


# Bytes a hostile edit writes: the neighbours of the digit range and of the
# separator cut at "0", a word's first letter, and bytes outside ASCII.
HOSTILE = list(b'07,- #x\xff"\n\x00\r/:.+D\x80')


def hostile_edit(data: bytes, rng) -> bytes:
    """``data`` with 1 to 3 bytes past its first third replaced, inserted or
    deleted, the new bytes drawn from HOSTILE."""
    data = bytearray(data)
    size = int(rng.integers(1, 4))
    pos = int(rng.integers(len(data) // 3, len(data)))
    new = bytes(rng.choice(HOSTILE, size=size).tolist())
    edit = rng.integers(3)
    if edit == 0:
        data[pos : pos + size] = new
    elif edit == 1:
        data[pos:pos] = new
    else:
        del data[pos : pos + size]
    return bytes(data)


def assert_scan_agrees(data: bytes):
    """Cut into blocks of every size of WAYS, each block ``_scan_body``
    takes is one ``_parse_rows`` reads the same: rows, codes and line ends,
    and no '# fps=' line."""
    try:
        _, _, offset = counting._read_preamble(data)
    except InputFormatError:
        return
    for block in sorted({block for block, *_ in WAYS}):
        with parsed_in(block, 1):
            blocks = ingest._line_blocks(data, offset)
        for start, end in blocks:
            assert_block_agrees(data, start, end)


def assert_block_agrees(data: bytes, start: int, end: int):
    """``_scan_body`` of the block ``data[start:end]`` as one tuple (first
    frame_index, counts, codes, line ends), or None, after checking that it
    is None or the rows, codes and line ends ``_parse_rows`` reads there,
    with no '# fps=' line."""
    scanned = counting._scan_body(data, start, end)
    if scanned is not None:
        (first, counts, codes), line_ends = scanned
        scanned = first, counts, codes, line_ends
        assert (first is None) == (len(counts) == 0)
        parsed = counting._parse_rows(data, start, end, 1, first or 0)
        assert counts.dtype == np.int64 and codes.dtype == np.uint8
        assert (None, counts.tolist(), codes.tolist(), line_ends) == (
            parsed[0], parsed[1].tolist(), parsed[2].tolist(), parsed[3])
    return scanned


EDGE_COUNTS = [0, 9, 10, 99, 100, 10**18 - 1, 10**18, INT64_MAX]


@st.composite
def writer_cases(draw):
    """A series and comments, with counts at digit-width edges and lengths
    on either side of 10, 100 and 1000 rows, where the index gets wider."""
    n = draw(st.sampled_from([0, 1, 9, 10, 11, 99, 100, 101, 999, 1000, 1001]) | st.integers(0, 120))
    edges = st.sampled_from(EDGE_COUNTS)
    counts = draw(arrays(np.int64, n, elements=edges | st.integers(0, INT64_MAX), fill=edges))
    codes = draw(arrays(np.uint8, n, elements=st.integers(0, 2), fill=st.integers(0, 2)))
    comments = draw(st.sampled_from([(), ("seed=7",), ('config={"divisor":3}', "input_sha256=ab")]))
    return CountSeries(counts, Fraction(30), codes), comments


class TestNumpyWriter:
    @settings(max_examples=150, deadline=None)
    @given(case=writer_cases())
    @example(case=(CountSeries.from_counts(EDGE_COUNTS, 30, PROV_SMOOTHED), ()))
    @example(case=(CountSeries.from_counts([INT64_MAX], 30, PROV_DENSITY), ("seed=7",)))
    @example(case=(CountSeries.from_counts([], 30), ()))
    @example(case=(CountSeries(np.arange(3), Fraction(30), np.arange(3, dtype=np.uint8)), ()))
    def test_byte_identical_to_oracle(self, case):
        s, comments = case
        data = write_count_series(s, comments=comments)
        assert data == reference_write_count_series(s, comments=comments)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_rows_rendered_in_blocks(self, monkeypatch, rows):
        # blocks whose indices and counts change width within and between them
        monkeypatch.setattr(counting, "_RENDER_ROWS", rows)
        counts = np.arange(250) ** 3 % 1009
        counts[[3, 99, 200]] = EDGE_COUNTS[-3:]
        codes = (np.arange(250) % 3).astype(np.uint8)
        for n in (0, 1, 7, 10, 11, 101, 250):
            s = CountSeries(counts[:n], Fraction(30), codes[:n])
            assert write_count_series(s, ("x",)) == reference_write_count_series(s, ("x",))


class TestCommaPairing:
    """The scan pairs the rows' commas by position; a block with comment
    lines is read a line at a time."""

    PREFIX = b"# fps=30\nframe_index,count,provenance\n0,1,Detector\n"

    def test_one_comma_next_to_three(self):
        # 2 commas a row in all, but not 2 in each row
        assert_same_rejection(self.PREFIX + b"1,2Detector\n2,3,4,Density\n")
        with pytest.raises(InputFormatError, match="line 4: bad count row '1,2,3,Density'"):
            read_count_series(self.PREFIX + b"1,2,3,Density\n2,3Detector\n")

    def test_comment_with_commas_after_header(self):
        for comment in (b"# a,b", b"# ,", b"#,,,", b"  # x, y, z"):
            data = self.PREFIX + comment + b"\n1,2,Density\n" + comment + b"\n2,3,Smoothed\n"
            got = read_count_series(data)
            assert got.counts.tolist() == [1, 2, 3]
            assert got.provenance.tolist() == [CODE_DETECTOR, CODE_DENSITY, CODE_SMOOTHED]
            assert_same_series(got, reference_read_count_series(data))

    def test_crlf_rows(self):
        data = b"# fps=30\r\nframe_index,count,provenance\r\n0,1,Detector\r\n1,22,Smoothed\r\n"
        got = read_count_series(data)
        assert got.counts.tolist() == [1, 22]
        assert got.provenance.tolist() == [CODE_DETECTOR, CODE_SMOOTHED]


class TestRejectedCsvInput:
    """Line-numbered rejections, including inputs the csv-module reader took."""

    PREFIX = b"# fps=30\nframe_index,count,provenance\n0,1,Detector\n"

    @pytest.mark.parametrize(
        "row",
        [b'1,2,"Detector"', b'"1",2,Detector', b" 1,2,Detector", b"1, 2,Detector",
         b"1,2,Detector ", b"1,+2,Detector", b"1,1_0,Detector", "1,\u0662,Detector".encode(),
         b"1,2,Detector,x", b"1,2,Detecto", b"1,2,Detectors", b"1,2,Density\x00",
         b"-1,2,Detector", b"1,,Detector", b",2,Detector", b"1,2,", b"1,2:,Detector",
         b"1/,2,Detector"],
        ids=["quoted-provenance", "quoted-index", "padded-index", "padded-count",
             "padded-provenance", "plus-sign", "underscore", "non-ascii-digit",
             "fourth-field", "short-word", "long-word", "nul-padded-word",
             "negative-index", "empty-count", "empty-index", "empty-provenance",
             "byte-after-nine", "byte-before-zero"],
    )
    def test_row_outside_writer_syntax(self, row):
        with pytest.raises(InputFormatError) as exc:
            read_count_series(self.PREFIX + row + b"\n")
        assert exc.value.line == 4

    def test_invalid_utf8_names_line(self):
        data = self.PREFIX + b"1,2,Detector\n2,\xff,Detector\n"
        with pytest.raises(InputFormatError, match="line 5: invalid UTF-8"):
            read_count_series(data)
        with pytest.raises(InputFormatError, match="line 2: invalid UTF-8"):
            read_count_series(b"# fps=30\n# \xff\nframe_index,count,provenance\n")

    @pytest.mark.parametrize(
        "row,message",
        [
            (b"1,99999999999999999999,Detector", "count [0-9]+ is over 9223372036854775807"),
            (b"1,9223372036854775808,Detector", "count [0-9]+ is over 9223372036854775807"),
            (b"99999999999999999999,2,Detector", "expected frame_index 1"),
        ],
    )
    def test_out_of_range_integer_names_line(self, row, message):
        with pytest.raises(InputFormatError, match=f"line 4: {message}"):
            read_count_series(self.PREFIX + row + b"\n")

    def test_int64_max_count_accepted(self):
        got = read_count_series(self.PREFIX + b"1,9223372036854775807,Smoothed")
        assert got.counts.tolist() == [1, INT64_MAX]

    def test_bad_fps_comment_names_line(self):
        with pytest.raises(InputFormatError, match="line 1: cannot parse fps 'abc'"):
            read_count_series(b"# fps=abc\nframe_index,count,provenance\n0,1,Detector\n")
        with pytest.raises(InputFormatError, match="line 4: fps must be > 0"):
            read_count_series(self.PREFIX + b"# fps=0\n")

    def test_first_error_in_file_order(self):
        data = self.PREFIX + b"1,2,Bogus\n# fps=abc\n 2,3,Detector\n"
        with pytest.raises(InputFormatError, match="line 4: unknown provenance"):
            read_count_series(data)
        data = self.PREFIX + b"# fps=abc\n1,2,Bogus\n"
        with pytest.raises(InputFormatError, match="line 4: cannot parse fps"):
            read_count_series(data)


class TestBlocks:
    """The body read in every way of WAYS, in blocks and windows of every
    size on one thread and on two: the same series as the oracle reads, and
    the same errors at the same lines."""

    def lines(self, rows=100):
        """A header and ``rows`` rows, with comments holding commas, a
        '# fps=' comment every 20 rows and blank lines among them."""
        lines = ["# fps=30", "# seed=7, with a comma", HEADER]
        for i in range(rows):
            if i % 7 == 3:
                lines.append("# note, a, b,")
            if i % 20 == 10:
                lines.append(f"# fps={i}")
            if i % 9 == 5:
                lines.append("")
            lines.append(f"{i},{i * 37 % 1000},{PROVENANCES[i % 3]}")
        return lines

    @pytest.mark.parametrize("end", ["\n", "\r\n"])
    @pytest.mark.parametrize("last_end", [True, False])
    def test_read(self, end, last_end):
        data = (end.join(self.lines()) + (end if last_end else "")).encode()
        assert len(data) > 4 * 300  # several 300-byte blocks
        got = assert_reads_as_reference(data)
        assert got.fps == 90 and len(got) == 100  # the last '# fps=' wins
        assert_reads_as_reference(data, fps=Fraction(24))

    def test_random_series(self, rng):
        for _ in range(20):
            s = random_series(rng)
            assert_reads_as_reference(csv_bytes(csv_lines(s, rng), rng))

    @pytest.mark.parametrize(
        "body", [b"", b"\n\n# only, a comment\n# fps=12\n", b"\r\n", b"# fps=12"]
    )
    def test_empty_body(self, body):
        data = f"# fps=30\n{HEADER}\n".encode() + body
        got = assert_reads_as_reference(data)
        assert len(got) == 0 and got.fps == (12 if b"12" in body else 30)

    @pytest.mark.parametrize(
        "row,replacement,message",
        [
            ("90,", "90,x", "bad count row '90,x330,Detector'"),
            ("90,", "91,", "expected frame_index 90, got 91"),
            ("90,", "89,", "expected frame_index 90, got 89"),
            ("90,", "# fps=abc\n90,", "cannot parse fps 'abc'"),
            ("# fps=90", "# fps=0", "fps must be > 0, got '0'"),
            ("90,", "9O,", "bad count row '9O,330,Detector'"),
        ],
        ids=["bad-row", "gap", "repeat", "bad-fps-before-row", "zero-fps", "letter-index"],
    )
    def test_error_in_a_late_block(self, row, replacement, message):
        text = "\n".join(self.lines()) + "\n"
        at = text.index("\n" + row) + 1
        data = (text[:at] + replacement + text[at + len(row) :]).encode()
        line = text[:at].count("\n") + 1
        assert at > 3 * 300  # past the third 300-byte block
        assert_rejected(data, message, line)
        # an error in an earlier block comes first
        early = text.index("\n5,") + 1
        data = (text[:early] + "6" + text[early + 1 : at] + replacement + text[at + len(row) :])
        assert_rejected(data.encode(), "expected frame_index 5, got 6", text[:early].count("\n") + 1)

    def test_counts_of_many_widths(self, rng):
        # counts of other digit widths in some blocks than in others
        for n in (1, 2, 13, 100, 1001):
            counts = rng.integers(0, 10, n)
            counts[rng.integers(0, n, 3)] = [INT64_MAX, 10**9, 12345]
            s = CountSeries(counts, Fraction(30000, 1001), rng.integers(0, 3, n).astype(np.uint8))
            assert_same_series(assert_reads_as_reference(reference_write_count_series(s)), s)

    def test_many_threads_switching_often(self):
        # More workers than cores, switching often: a block's part lost or
        # joined out of place would change the series.
        data = ("\n".join(self.lines(400)) + "\n").encode()
        expected = reference_read_count_series(data)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with parsed_in(300, 8):
                for _ in range(20):
                    assert_same_series(read_count_series(data), expected)
        finally:
            sys.setswitchinterval(interval)


class TestCommentBlock:
    """A '# fps=' line in one block of a body of many: that block alone is
    read a line at a time, and the blocks scanned after it keep their line
    numbers."""

    def text(self, rows=200):
        lines = ["# fps=30", HEADER]
        lines += [f"{i},{i * 37 % 1000},{PROVENANCES[i % 3]}" for i in range(rows)]
        lines.insert(60, "# fps=12")
        return "\n".join(lines) + "\n"

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_only_that_block_is_parsed(self, cpus):
        data = self.text().encode()
        spy = mock.patch.object(counting, "_parse_rows", wraps=counting._parse_rows)
        with parsed_in(300, cpus), spy as parse:
            got = read_count_series(data)
        assert_same_series(got, reference_read_count_series(data))
        assert got.fps == 12
        (call,) = parse.call_args_list
        _, start, end, *_ = call.args
        assert len(data) > 8 * 300 and b"\n# fps=12\n" in data[start - 1 : end]

    @pytest.mark.parametrize("cpus", [1, 2])
    @pytest.mark.parametrize(
        "row,replacement,message",
        [
            ("150,", "150,x", "bad count row '150,x550,Detector'"),
            ("150,", "151,", "expected frame_index 150, got 151"),
            ("150,", "# fps=0\n150,", "fps must be > 0, got '0'"),
        ],
        ids=["bad-row", "gap", "bad-fps"],
    )
    def test_error_in_a_later_block(self, cpus, row, replacement, message):
        text = self.text()
        at = text.index("\n" + row) + 1
        assert at > text.index("# fps=12") + 4 * 300  # blocks past the comment's
        data = (text[:at] + replacement + text[at + len(row) :]).encode()
        line = text[:at].count("\n") + 1
        with parsed_in(300, cpus), pytest.raises(InputFormatError) as got:
            read_count_series(data)
        assert (str(got.value), got.value.line) == (f"line {line}: {message}", line)


def read_or_rejection(data):
    """The series ``read_count_series`` reads from ``data``, or the
    (message, line) of its rejection."""
    try:
        return read_count_series(data)
    except InputFormatError as exc:
        return str(exc), exc.line


class TestWindows:
    """A count CSV walked a window of blocks at a time (``ingest._walk``)."""

    @pytest.mark.parametrize("hashed", [False, True])
    def test_where_the_first_block_ends(self, hashed):
        # The other blocks wait for the first one's scan: without a hash
        # beside it, it ends at the first line end past an eighth of a block.
        data = write_count_series(random_series(np.random.default_rng(3), n=100_000))
        _, _, body = counting._read_preamble(data)
        spy = mock.patch.object(counting, "_scan_body", wraps=counting._scan_body)
        with spy as scanned:
            read_count_series(data, digest=hashlib.sha256() if hashed else None)
        blocks = sorted(call.args[1:] for call in scanned.call_args_list)
        first = ingest._BLOCK_BYTES if hashed else ingest._BLOCK_BYTES // 8
        assert blocks[0] == (body, data.index(b"\n", body + first - 1) + 1)
        assert blocks == ingest._line_blocks(data, body, short_first=not hashed)
        assert len(blocks) > 3

    @pytest.mark.parametrize("block", [300, 4096])
    def test_hostile_edits_read_alike_in_windows(self, rng, block):
        # Each edited CSV, of up to six 4096-byte blocks, reads in small
        # blocks and windows as in one block: the same series, or the same
        # message at the same line.
        for _ in range(100):
            s = random_series(rng, n=int(rng.integers(1, 1000)))
            data = hostile_edit(write_count_series(s), rng)
            whole = read_or_rejection(data)
            for cpus, window in ((1, 1), (2, 3)):
                with parsed_in(block, cpus, window):
                    got = read_or_rejection(data)
                if isinstance(whole, CountSeries):
                    assert_same_series(got, whole)
                else:
                    assert got == whole

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_bad_row_in_the_last_window(self, cpus):
        lines = ["# fps=30", HEADER] + [f"{i},{i % 50},{PROVENANCES[i % 3]}" for i in range(600)]
        at = len(lines) - 5
        lines[at] = lines[at].replace(",", ",x", 1)
        data = ("\n".join(lines) + "\n").encode()
        with parsed_in(300, cpus, 3):
            _, _, offset = counting._read_preamble(data)
            blocks = ingest._line_blocks(data, offset)
            last_window = blocks[(len(blocks) - 1) // 3 * 3][0]
            with pytest.raises(InputFormatError) as got:
                read_count_series(data)
        assert len(blocks) > 2 * 3 and last_window < data.index(lines[at].encode())
        message = f"bad count row {lines[at]!r}"
        assert (str(got.value), got.value.line) == (f"line {at + 1}: {message}", at + 1)
        assert_same_rejection(data)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_comment_in_the_first_block_sends_the_body_to_the_line_parser(self, cpus):
        # The first block decides, as for a detections stream: it holds a
        # '#' line, so no other block is scanned.
        lines = ["# fps=30", HEADER, "# seed=7"]
        lines += [f"{i},{i % 50},{PROVENANCES[i % 3]}" for i in range(200)]
        data = ("\n".join(lines) + "\n").encode()
        scan = mock.patch.object(counting, "_scan_body", wraps=counting._scan_body)
        parse = mock.patch.object(counting, "_parse_rows", wraps=counting._parse_rows)
        with parsed_in(300, cpus, 3), scan as scanned, parse as parsed:
            got = read_count_series(data)
        assert_same_series(got, reference_read_count_series(data))
        assert scanned.call_count == 1 and parsed.call_count > 6

    def test_mapped_csv_released_window_by_window(self, tmp_path):
        # Windows of two one-page blocks: each window's whole pages are
        # released once it is read and hashed, on from where the release
        # before stopped, up to the end of the file.
        data = write_count_series(random_series(np.random.default_rng(5), n=3000))
        path = tmp_path / "c.csv"
        path.write_bytes(data)
        released = []

        class Digest:
            def __init__(self):
                self.real, self.taken = hashlib.sha256(), 0

            def update(self, chunk):
                self.real.update(chunk)
                self.taken += len(chunk)

        class Mapping(mmap.mmap):
            def madvise(self, option, start, length):
                released.append((option, start, length, digest.taken))
                return super().madvise(option, start, length)

        digest = Digest()
        with open(path, "rb") as fh:
            mapped = Mapping(fh.fileno(), 0, access=mmap.ACCESS_READ)
        with parsed_in(mmap.PAGESIZE, 2, 2):
            _, _, offset = counting._read_preamble(data)
            windows = -(-len(ingest._line_blocks(data, offset)) // 2)
            got = read_count_series(mapped, digest=digest)
        assert_same_series(got, read_count_series(data))
        assert digest.real.hexdigest() == hashlib.sha256(data).hexdigest()
        assert windows >= 3 and len(released) == windows
        end = 0
        for option, start, length, hashed in released:
            assert option == mmap.MADV_DONTNEED
            assert start == end and start % mmap.PAGESIZE == 0
            end = start + length
            assert end % mmap.PAGESIZE == 0 or end == len(data)
            assert end <= hashed
        assert end == len(data)


class TestScanEdges:
    """Blocks at the edges of the scan's line and comma rules: each is
    scanned as the line parser reads it, or left to the line parser."""

    @pytest.mark.parametrize("word", PROVENANCES)
    def test_last_row_without_line_end(self, word):
        # The block ends in the word, and the bytes after it in ``data`` are
        # another row; the word's 8-byte key is read from the block's padding.
        data = f"0,1,Detector\n1,22,{word}".encode()
        for tail in (b"", b"\n2,3,Smoothed\n", b"Density"):
            got = assert_block_agrees(data + tail, 0, len(data))
            assert got[0] == 0 and got[3] == 1
            assert got[1].tolist() == [1, 22]
            assert got[2].tolist() == [CODE_DETECTOR, PROVENANCES.index(word)]
        got = read_count_series(f"# fps=30\n{HEADER}\n".encode() + data)
        assert got.counts.tolist() == [1, 22]

    @pytest.mark.parametrize(
        "block,rows,line_ends",
        [
            (b"0,1,Detector\r\n1,22,Density\r\n2,3,Smoothed\r\n", [1, 22, 3], 3),
            (b"0,1,Detector\r\n1,22,Density\r", [1, 22], 1),
            (b"\n0,1,Detector\n1,22,Density\n", [1, 22], 3),
            (b"\r\n\n0,1,Detector\n\n1,22,Density\r\n\r\n", [1, 22], 6),
            (b"\n\r\n\n", [], 3),
            (b"\n", [], 1),
        ],
        ids=["crlf", "crlf-last-without-lf", "leading-empty-line", "empty-lines-between",
             "only-empty-lines", "one-empty-line"],
    )
    def test_scanned(self, block, rows, line_ends):
        got = assert_block_agrees(block, 0, len(block))
        assert got is not None
        assert got[1].tolist() == rows and got[3] == line_ends

    def test_three_digit_counts_do_not_wrap(self):
        # Counts of at most 3 digits are summed a byte at a time; each digit
        # must be widened before it is scaled, or 900 reads as 900 % 256.
        counts = [0, 9, 10, 99, 100, 255, 256, 300, 900, 999]
        block = "".join(f"{i},{c},Detector\n" for i, c in enumerate(counts)).encode()
        got = assert_block_agrees(block, 0, len(block))
        assert got[1].tolist() == counts

    @pytest.mark.parametrize("byte", list(b' -#"\x00/.+\t'))
    def test_other_separator_for_a_comma(self, byte):
        for row in (b"1%c2,Density", b"1,2%cDensity", b"1,2,Dens%cty"):
            data = b"# fps=30\n" + HEADER.encode() + b"\n0,1,Detector\n" + row % byte + b"\n"
            _, _, offset = counting._read_preamble(data)
            assert counting._scan_body(data, offset, len(data)) is None
            with pytest.raises(InputFormatError) as got:
                read_count_series(data)
            assert got.value.line == 4

    @pytest.mark.parametrize(
        "row",
        [b"1,2\r,Density", b"1\r,2,Density", b"1,2,Den\rsity", b"\r1,2,Density",
         b"1,2,Density\r\r", b"1,2,\rDensity"],
        ids=["after-count", "after-index", "in-word", "row-start", "two-crs", "word-start"],
    )
    def test_lone_cr_is_left_to_the_line_parser(self, row):
        data = b"# fps=30\n" + HEADER.encode() + b"\n0,1,Detector\n" + row + b"\n2,3,Smoothed\n"
        _, _, offset = counting._read_preamble(data)
        assert counting._scan_body(data, offset, len(data)) is None
        with pytest.raises(InputFormatError) as got:
            read_count_series(data)
        assert got.value.line == 4


def rows_block(first: int, counts) -> bytes:
    """LF rows of ``counts`` from frame_index ``first`` on, as the writer
    renders them, with the three words in turn."""
    rows = (f"{first + k},{c},{PROVENANCES[k % 3]}\n" for k, c in enumerate(counts))
    return "".join(rows).encode()


class TestPlacedFields:
    """Blocks at the edges of the placed fields and of the frame_index's
    word differences: each is scanned as the line parser reads it, or left
    to the line parser, and read alike with the scan off."""

    def assert_rows(self, block: bytes, first: int, counts, scanned=True):
        """The block read as ``counts`` from ``first`` on by the line parser
        and, if ``scanned`` and the scan is on, by the scan."""
        got = assert_block_agrees(block, 0, len(block))
        if scanned and counting._scan_body is not refuse_every_block:
            assert got is not None and got[0] == first
        parsed = counting._parse_rows(block, 0, len(block), 1, first)
        assert parsed[1].tolist() == counts

    def assert_file_rejected(self, rows: bytes, message: str, line: int):
        """A file of ``rows`` after its header is rejected alike, and its
        blocks are scanned only as the line parser reads them."""
        data = f"# fps=30\n{HEADER}\n".encode() + rows
        assert_scan_agrees(data)
        assert_rejected(data, message, line)

    @pytest.mark.parametrize("power", [10, 100, 10**7])
    @pytest.mark.parametrize("before", [7, 1, 0], ids=["inside", "second-row", "first-row"])
    def test_index_widens(self, power, before):
        counts = list(range(20))
        self.assert_rows(rows_block(power - before, counts), power - before, counts)

    @pytest.mark.parametrize("first", [99_999_998, 99_999_999, 10**8])
    def test_index_past_eight_digits(self, first):
        counts = [5, 0, 12, 7][: 10**8 + 2 - first]
        self.assert_rows(rows_block(first, counts), first, counts)
        # a wrong digit before the last 8, in a row after no carry
        block = rows_block(first, counts).replace(b"\n100000001,", b"\n200000001,")
        assert counting._scan_body(block, 0, len(block)) is None

    @pytest.mark.parametrize(
        "index,wrong", [(20, 21), (30, 20), (19, 20)],
        ids=["19-then-21", "29-then-20", "18-then-20"],
    )
    def test_wrong_digit_near_a_carry(self, index, wrong):
        # the rows after it count up from the wrong frame_index
        rows = rows_block(0, range(index)) + rows_block(wrong, range(index, 40))
        self.assert_file_rejected(rows, f"expected frame_index {index}, got {wrong}", index + 3)
        for first in (0, 8, 17, index - 1):
            block = rows[rows.index(b"%d," % first) :]
            assert counting._scan_body(block, 0, len(block)) is None

    def test_index_with_a_leading_zero(self):
        # the line parser takes "07" as 7; the scan leaves it to the line parser
        rows = rows_block(0, list(range(12))).replace(b"\n7,", b"\n07,")
        data = f"# fps=30\n{HEADER}\n".encode() + rows
        assert_scan_agrees(data)
        assert assert_reads_as_reference(data).counts.tolist() == list(range(12))
        self.assert_rows(rows[rows.index(b"07,") :], 7, list(range(7, 12)), scanned=False)

    @pytest.mark.parametrize(
        "row,message",
        [(b"5,1,Densit", "unknown provenance 'Densit'"),
         (b"5,1,Densityy", "unknown provenance 'Densityy'"),
         (b"5,1,Detectors", "unknown provenance 'Detectors'"),
         (b"5,1,Smoothed,", "bad count row '5,1,Smoothed,'"),
         (b"5,1,,Density", "bad count row '5,1,,Density'"),
         (b"5,,1,Density", "bad count row '5,,1,Density'")],
    )
    def test_row_end_not_a_word(self, row, message):
        rows = rows_block(0, list(range(10))).replace(b"5,5,Smoothed", row)
        self.assert_file_rejected(rows, message, 8)
        block = rows[rows.index(b"\n4,") + 1 :]
        assert counting._scan_body(block, 0, len(block)) is None

    def test_widest_counts(self):
        counts = [10**18, INT64_MAX, 0, 10**18 + 7]
        self.assert_rows(rows_block(3, counts), 3, counts)
        block = rows_block(3, [1, 2**63, 3])
        assert counting._scan_body(block, 0, len(block)) is None
        over = f"count {2**63} is over {INT64_MAX} or longer than 19 digits"
        self.assert_file_rejected(rows_block(0, [1, 2**63, 3]), over, 4)


class TestScanTakesWrittenFiles:
    """Every block of a file that write_count_series writes is scanned:
    the line parser reads none of them."""

    @pytest.mark.parametrize("way", WAYS)
    def test_index_widths(self, rng, way):
        for n in (9, 10, 11, 99, 100, 101, 999, 1000, 1001):
            s = random_series(rng, n)
            self.assert_scanned(write_count_series(s, ("seed=7",)), s, way)

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_long_series(self, rng, cpus):
        s = random_series(rng, 150_000)
        self.assert_scanned(write_count_series(s), s, (ingest._BLOCK_BYTES, cpus))

    def assert_scanned(self, data, s, way):
        spy = mock.patch.object(counting, "_parse_rows", wraps=counting._parse_rows)
        with parsed_in(*way), spy as parse:
            assert_same_series(read_count_series(data), s)
        assert parse.call_count == 0


def refuse_every_block(data, start, end):
    return None


class ScanOff:
    """The reader's tests once more with the scan refusing every block, so
    that the line parser reads every body: the scan may only speed a read
    up, never change its series, frame rate, message or line."""

    @pytest.fixture(autouse=True, scope="class")
    def scan_off(self):
        with mock.patch.object(counting, "_scan_body", refuse_every_block):
            yield

    def test_scan_is_off(self):
        data = write_count_series(series([1, 2, 3]))
        spy = mock.patch.object(counting, "_parse_rows", wraps=counting._parse_rows)
        with spy as parse:
            assert read_count_series(data).counts.tolist() == [1, 2, 3]
        assert parse.call_count == 1


class TestCountSeriesCsvScanOff(ScanOff, TestCountSeriesCsv):
    pass


class TestWriteReadRoundTripScanOff(ScanOff):
    # not a subclass: hypothesis wants each test function run by one class
    @settings(max_examples=200, deadline=None)
    @given(s=count_series_values())
    @example(s=CountSeries.from_counts([], Fraction(30000, 1001)))
    def test_read_inverts_write(self, s):
        data = write_count_series(s, comments=['config={"divisor":3}', "input_sha256=ab"])
        assert_same_series(read_count_series(data), s)


class TestReferenceParityScanOff(ScanOff, TestReferenceParity):
    pass


class TestCommaPairingScanOff(ScanOff, TestCommaPairing):
    pass


class TestRejectedCsvInputScanOff(ScanOff, TestRejectedCsvInput):
    pass


class TestBlocksScanOff(ScanOff, TestBlocks):
    pass


class TestPlacedFieldsScanOff(ScanOff, TestPlacedFields):
    pass


def seed7_csv() -> tuple[bytes, CountSeries]:
    """(A 150k-row count CSV of 2.6 MB, its series)."""
    rng = np.random.default_rng(7)
    n = 150_000
    s = CountSeries(rng.integers(0, 40, n), 30, rng.integers(0, 3, n).astype(np.uint8))
    return write_count_series(s), s


class TestReadMemory:
    def test_one_scan_peaks_under_four_blocks(self):
        # One block's scan holds its padded copy, a digit mask and a few
        # arrays of an int32 per row at once: measured 3.4 times the block.
        data, _ = seed7_csv()
        _, _, body = counting._read_preamble(data)
        start, end = ingest._line_blocks(data, body)[1]  # a whole block of about 512 KiB
        assert end - start >= ingest._BLOCK_BYTES
        assert counting._scan_body(data, start, end) is not None
        tracemalloc.start()
        try:
            counting._scan_body(data, start, end)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * (end - start)

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    def test_peak_is_columns_plus_blocks(self, monkeypatch, cpus):
        # The CSV is read in 6 blocks, the first of 64 KiB and the others of
        # 512 KiB. Each block being scanned holds up to 1.7 MiB, and joining
        # the blocks' counts holds a second copy of the counts. Measured
        # above the output columns: 1.3 MiB on one thread, 2.3-2.6 on two
        # and, with eight CPUs patched in, 4.1-5.5 with the scans capped at
        # four; scanning the whole body at once, 7.2 MiB.
        data, s = seed7_csv()
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            got = read_count_series(data)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert_same_series(got, s)
        columns = got.counts.nbytes + got.provenance.nbytes
        scans = min(cpus, ingest._SCAN_THREADS)
        assert peak < columns + got.counts.nbytes + scans * (2 << 20)
