import json
import shlex

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from crowdgate.segmenting import (
    Segment,
    SegmentPolicy,
    emit_cutlist,
    extract_segments,
    frame_to_ms,
)

from conftest import series


def naive_segments(counts, threshold):
    """Linear-scan oracle: maximal strict-exceedance runs, no merging/filtering."""
    runs = []
    start = None
    for i, c in enumerate(counts):
        if c > threshold and start is None:
            start = i
        elif c <= threshold and start is not None:
            runs.append((start, i - 1))
            start = None
    if start is not None:
        runs.append((start, len(counts) - 1))
    return runs


def loop_segments(counts, policy):
    """(start, end) of each segment, found frame by frame as extract_segments
    did before it took its runs from numpy: the oracle of its run edges."""
    merged = []
    for start, end in naive_segments(counts, policy.abnormal_threshold):
        if merged and start - merged[-1][1] - 1 <= policy.merge_gap_frames:
            merged[-1][1] = end
        else:
            merged.append([start, end])
    return [(s, e) for s, e in merged if e - s + 1 >= policy.min_duration_frames]


class TestExtractSegments:
    def test_all_below_threshold(self):
        policy = SegmentPolicy(5, min_duration_frames=1, merge_gap_frames=0)
        assert extract_segments(series([1, 2, 5, 3]), policy) == []

    def test_single_run(self):
        policy = SegmentPolicy(5, min_duration_frames=1, merge_gap_frames=0)
        segs = extract_segments(series([1, 1, 9, 9, 9, 1, 1], fps=1), policy)
        assert len(segs) == 1
        seg = segs[0]
        assert (seg.start_frame, seg.end_frame) == (2, 4)
        assert seg.peak_count == 9 and seg.mean_count == 9.0
        assert (seg.start_ms, seg.end_ms) == (2000, 5000)

    def test_gap_merging(self):
        policy = SegmentPolicy(5, min_duration_frames=1, merge_gap_frames=1)
        segs = extract_segments(series([9, 9, 1, 9, 9]), policy)
        assert len(segs) == 1
        assert (segs[0].start_frame, segs[0].end_frame) == (0, 4)

    def test_gap_too_wide_not_merged(self):
        policy = SegmentPolicy(5, min_duration_frames=1, merge_gap_frames=1)
        segs = extract_segments(series([9, 9, 1, 1, 9, 9]), policy)
        assert [(s.start_frame, s.end_frame) for s in segs] == [(0, 1), (4, 5)]

    def test_min_duration_filter(self):
        policy = SegmentPolicy(5, min_duration_frames=3, merge_gap_frames=0)
        segs = extract_segments(series([9, 1, 9, 9, 9, 1]), policy)
        assert [(s.start_frame, s.end_frame) for s in segs] == [(2, 4)]

    def test_strict_exceedance(self):
        policy = SegmentPolicy(5, min_duration_frames=1, merge_gap_frames=0)
        assert extract_segments(series([5, 5, 5]), policy) == []
        assert len(extract_segments(series([6]), policy)) == 1

    def test_segments_start_and_end_above_threshold(self, rng):
        policy = SegmentPolicy(10, min_duration_frames=2, merge_gap_frames=3)
        for _ in range(50):
            counts = rng.integers(0, 20, 100)
            for seg in extract_segments(series(counts), policy):
                assert counts[seg.start_frame] > 10
                assert counts[seg.end_frame] > 10

    def test_naive_oracle(self, rng):
        policy = SegmentPolicy(8, min_duration_frames=1, merge_gap_frames=0)
        for _ in range(200):
            counts = rng.integers(0, 16, int(rng.integers(1, 200)))
            segs = extract_segments(series(counts), policy)
            assert [(s.start_frame, s.end_frame) for s in segs] == naive_segments(counts, 8)

    def test_runs_match_the_frame_loop(self, rng):
        for _ in range(3000):
            counts = rng.integers(0, int(rng.integers(1, 12)), int(rng.integers(1, 120)))
            policy = SegmentPolicy(*(int(v) for v in rng.integers([1, 0, 0], [10, 6, 6])))
            segs = extract_segments(series(counts), policy)
            assert [(s.start_frame, s.end_frame) for s in segs] == loop_segments(counts, policy)

    @given(
        runs=st.lists(st.tuples(st.integers(0, 9), st.integers(1, 4)), min_size=1, max_size=40),
        threshold=st.integers(1, 8),
        min_duration=st.none() | st.integers(0, 4),
        merge_gap=st.none() | st.integers(0, 4),
    )
    def test_unset_settings_are_zero(self, runs, threshold, min_duration, merge_gap):
        # runs of counts 1 to 4 frames long, so that short runs and gaps
        # decide; an unset setting is 0
        counts = np.repeat(*np.array(runs).T)
        unset = SegmentPolicy(threshold, min_duration, merge_gap)
        zero = SegmentPolicy(threshold, min_duration or 0, merge_gap or 0)
        assert extract_segments(series(counts), unset) == extract_segments(series(counts), zero)

    def test_threshold_anti_monotone(self, rng):
        for _ in range(30):
            counts = rng.integers(0, 30, 150)
            s = series(counts)
            covered = []
            for threshold in (5, 10, 15, 20):
                policy = SegmentPolicy(threshold, min_duration_frames=1, merge_gap_frames=0)
                segs = extract_segments(s, policy)
                covered.append(sum(g.end_frame - g.start_frame + 1 for g in segs))
            assert covered == sorted(covered, reverse=True)

    def test_rational_fps_timestamps(self):
        from fractions import Fraction

        fps = Fraction(30000, 1001)
        assert frame_to_ms(30, fps) == 1001
        assert frame_to_ms(0, fps) == 0


class TestEmitCutlist:
    def test_empty(self):
        report, sheet = emit_cutlist([], "video.mp4")
        assert json.loads(report) == []
        assert sheet == ""

    def test_single_segment_times(self):
        seg = Segment(2, 4, 2000, 5000, 9, 9.0)
        report, sheet = emit_cutlist([seg], "video.mp4")
        assert sheet == (
            "ffmpeg -i video.mp4 -ss 2.000 -to 5.000 -c copy video.mp4_seg0.mp4\n"
        )
        assert json.loads(report) == [
            {
                "start_frame": 2,
                "end_frame": 4,
                "start_ms": 2000,
                "end_ms": 5000,
                "peak_count": 9,
                "mean_count": 9.0,
            }
        ]

    def test_two_segments_ascending(self):
        segs = [Segment(0, 1, 0, 2000, 7, 7.0), Segment(5, 6, 5000, 7000, 8, 8.0)]
        _, sheet = emit_cutlist(segs, "v.mp4")
        lines = sheet.splitlines()
        assert len(lines) == 2
        assert "-ss 0.000" in lines[0] and "-ss 5.000" in lines[1]
        assert lines[0].endswith("v.mp4_seg0.mp4") and lines[1].endswith("v.mp4_seg1.mp4")

    @pytest.mark.parametrize(
        "source", ["cam 1; echo INJECTED", "it's \"a\" $(clip) `x`.mp4", "caf\u00e9 *.mp4"]
    )
    def test_names_are_one_shell_word(self, source):
        segs = [Segment(0, 1, 0, 2000, 7, 7.0), Segment(5, 6, 5000, 7000, 8, 8.0)]
        _, sheet = emit_cutlist(segs, source)
        for k, line in enumerate(sheet.splitlines()):
            words = shlex.split(line)
            assert len(words) == 10
            assert words[2] == source and words[-1] == f"{source}_seg{k}.mp4"

    @pytest.mark.parametrize("source", ["cam1", "bench-detector", "bench-dense", "bench-series"])
    def test_shell_safe_names_unquoted(self, source):
        _, sheet = emit_cutlist([Segment(2, 4, 2000, 5000, 9, 9.0)], source)
        assert sheet == (
            f"ffmpeg -i {source} -ss 2.000 -to 5.000 -c copy {source}_seg0.mp4\n"
        )

    def test_overlap_rejected(self):
        segs = [Segment(0, 5, 0, 6000, 7, 7.0), Segment(3, 8, 3000, 9000, 8, 8.0)]
        with pytest.raises(ValueError, match="overlap"):
            emit_cutlist(segs, "v.mp4")


def test_segment_invariants():
    with pytest.raises(ValueError):
        Segment(5, 4, 0, 0, 1, 1.0)
    with pytest.raises(ValueError):
        Segment(0, 1, 0, 1000, 3, 4.0)  # peak below mean


def test_peak_checked_against_rounded_mean():
    # the mean of [2**53 + 3] * 2 is exactly the peak, whose nearest float is 2**53 + 4
    assert Segment(0, 1, 0, 1000, 2**53 + 3, float(2**53 + 4)).mean_count == 2**53 + 4
    with pytest.raises(ValueError, match="peak_count 9007199254740993 < mean_count"):
        Segment(0, 1, 0, 1000, 2**53 + 1, float(2**53 + 2))  # 2**53 + 1 rounds to 2**53


class TestMeanCount:
    @pytest.mark.parametrize(
        "counts",
        [[2**53 + 3, 2**53 + 3], [2**63 - 1], [2**63 - 1, 2**63 - 1, 2**62], [2**53, 7, 7]],
    )
    def test_nearest_float_to_exact_mean(self, counts):
        (seg,) = extract_segments(series(counts, fps=1), SegmentPolicy(5, 0, 0))
        assert seg.mean_count == sum(counts) / len(counts)
        assert seg.peak_count == max(counts)

    def test_numpy_mean_below_2_53(self, rng):
        # below 2**53 numpy sums exactly too, so segments.json keeps its bytes
        for _ in range(200):
            n = int(rng.integers(1, 400))
            counts = rng.integers(6, rng.choice([50, 10**6, 2**53 // n]), n)
            (seg,) = extract_segments(series(counts, fps=1), SegmentPolicy(5, 0, 0))
            assert repr(seg.mean_count) == repr(float(counts.mean()))


def test_policy_resolution_defaults():
    policy = SegmentPolicy(5).resolved(10)
    assert policy.min_duration_frames == 10
    assert policy.merge_gap_frames == 10
    explicit = SegmentPolicy(5, min_duration_frames=2, merge_gap_frames=0).resolved(10)
    assert explicit.min_duration_frames == 2
    assert explicit.merge_gap_frames == 0


@pytest.mark.parametrize("field", ["min_duration_frames", "merge_gap_frames"])
def test_policy_rejects_negative_frames(field):
    with pytest.raises(ValueError, match=f"{field} must be >= 0, got -1"):
        SegmentPolicy(5, **{field: -1})
    assert getattr(SegmentPolicy(5, **{field: 0}), field) == 0
