from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crowdgate.counting import CODE_DETECTOR, CODE_SMOOTHED
from crowdgate.smoothing import SmoothingParams, TieBreak, smooth_series, window_length

from conftest import series


class TestWindowLength:
    @pytest.mark.parametrize(
        "fps,expected", [(30, 10), (24, 8), (25, 8), (2, 1), (1, 1)]
    )
    def test_third_of_frame_rate(self, fps, expected):
        assert window_length(fps, 3) == expected

    def test_rational_fps_floors(self):
        assert window_length(Fraction(30000, 1001), 3) == 9

    def test_other_divisor(self):
        assert window_length(30, 5) == 6

    def test_invalid(self):
        with pytest.raises(ValueError):
            window_length(0)
        with pytest.raises(ValueError):
            window_length(30, 0)


def smoothed(values, half_length, tie_break=TieBreak.PREFER_LAST_VALUE):
    out = smooth_series(series(values), SmoothingParams(half_length, tie_break=tie_break))
    return out.counts.tolist(), [x for x, p in enumerate(out.provenance) if p == CODE_SMOOTHED]


class TestWindowHistogram:
    """A change point's window is the frames within half-length, clipped at both ends."""

    def test_single_element(self):
        assert smoothed([7], 5) == ([7], [])

    def test_left_clamp(self):
        # frame 1's window is frames 0..4: three 4s against two 6s
        assert smoothed([4, 6, 6, 4, 4, 4, 4], 3) == ([4] * 7, [1, 2])

    def test_right_clamp(self):
        # frame 3's window is frames 0..5, a 3:3 tie that goes to 4 either way;
        # a final run no longer than the half-length is a spike
        for tie in TieBreak:
            assert smoothed([4, 4, 4, 6, 6, 6], 3, tie) == ([4] * 6, [3, 4, 5])


class TestWindowMode:
    """The replacement value: the window's mode, ties broken by TieBreak."""

    def test_unique_max(self):
        for tie in TieBreak:
            assert smoothed([5, 5, 6, 5, 5], 2, tie) == ([5] * 5, [2])

    def test_tie_prefers_last_value(self):
        # frames 1 and 2 see a tie that holds the last accepted 5
        assert smoothed([5, 4, 6], 1) == ([5, 5, 5], [1, 2])

    def test_prefer_smallest(self):
        # frame 1's three-way tie goes to 4, which keeps it; frame 2 ties 4 and 6
        assert smoothed([5, 4, 6], 1, TieBreak.PREFER_SMALLEST) == ([5, 4, 4], [2])

    def test_tie_last_value_absent_falls_back_smallest(self):
        # at frame 1, 2 and 3 tie and the last value 1 is not among them
        assert smoothed([1, 3, 2, 3, 2], 3) == ([1, 2, 2, 2, 2], [1, 3])


class TestSmoothSeries:
    def test_constant_fixed_point(self):
        out = smooth_series(series([7, 7, 7, 7]), SmoothingParams(3))
        assert np.array_equal(out.counts, [7, 7, 7, 7])
        assert out.provenance.tolist() == [CODE_DETECTOR] * len(out)

    def test_isolated_spike_removed(self):
        out = smooth_series(series([7, 7, 7, 9, 7, 7, 7]), SmoothingParams(3))
        assert np.array_equal(out.counts, [7] * 7)
        assert out.provenance.tolist() == [CODE_DETECTOR] * 3 + [CODE_SMOOTHED] + [CODE_DETECTOR] * 3

    def test_genuine_step_preserved(self):
        values = [3, 3, 3, 8, 8, 8, 8, 8, 8]
        out = smooth_series(series(values), SmoothingParams(3))
        assert np.array_equal(out.counts, values)

    def test_multi_frame_spike_collapses(self):
        # in-place pass: the second spike frame's window already holds the
        # first correction, so the whole run collapses
        values = [5] * 6 + [9, 9, 9] + [5] * 6
        out = smooth_series(series(values), SmoothingParams(4))
        assert np.array_equal(out.counts, [5] * 15)

    def test_empty_rejected(self):
        import crowdgate.counting as counting

        empty = counting.CountSeries.from_counts([], 30)
        with pytest.raises(ValueError, match="empty"):
            smooth_series(empty, SmoothingParams(3))

    def test_fps_preserved(self):
        out = smooth_series(series([1, 2, 1], fps=Fraction(24000, 1001)), SmoothingParams(2))
        assert out.fps == Fraction(24000, 1001)

    @given(
        values=st.lists(st.integers(0, 30), min_size=1, max_size=80),
        half_length=st.integers(1, 10),
        tie=st.sampled_from(list(TieBreak)),
    )
    @settings(max_examples=200, deadline=None)
    def test_replaced_values_stay_within_window(self, values, half_length, tie):
        s = series(values)
        out = smooth_series(s, SmoothingParams(half_length, tie_break=tie))
        assert len(out) == len(s)
        # replay the pass to check each replacement against its window on the
        # evolving working copy
        work = np.array(values, dtype=np.int64)
        for x in range(len(values)):
            if out.provenance[x] == CODE_SMOOTHED:
                lo = max(0, x - half_length)
                hi = min(len(values) - 1, x + half_length)
                window = work[lo : hi + 1]
                assert out.counts[x] in window
                assert window.min() <= out.counts[x] <= window.max()
            work[x] = out.counts[x]

    @given(
        value=st.integers(0, 100),
        n=st.integers(1, 120),
        half_length=st.integers(1, 20),
    )
    @settings(max_examples=100, deadline=None)
    def test_identity_on_constants(self, value, n, half_length):
        out = smooth_series(series([value] * n), SmoothingParams(half_length))
        assert np.array_equal(out.counts, [value] * n)

    def test_spike_suppression_randomized(self, rng):
        for _ in range(100):
            length = int(rng.integers(1, 15))
            v = int(rng.integers(0, 100))
            w = int(rng.integers(0, 100))
            if w == v:
                w = v + 1
            run = int(rng.integers(1, length + 1))
            pad = int(rng.integers(length, length + 20))
            values = [v] * pad + [w] * run + [v] * pad
            out = smooth_series(series(values), SmoothingParams(length))
            assert np.array_equal(out.counts, [v] * len(values)), (
                f"spike survived: v={v} w={w} run={run} pad={pad} length={length}"
            )

    def test_step_preservation_randomized(self, rng):
        for _ in range(100):
            length = int(rng.integers(1, 15))
            v = int(rng.integers(0, 100))
            w = int(rng.integers(0, 100))
            if w == v:
                w = v + 1
            old = int(rng.integers(length, length + 30))
            new = int(rng.integers(length + 1, length + 30))
            values = [v] * old + [w] * new
            out = smooth_series(series(values), SmoothingParams(length))
            assert np.array_equal(out.counts, values)
