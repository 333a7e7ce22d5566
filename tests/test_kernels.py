"""The smoothing kernel against a literal frame-by-frame reference pass."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import crowdgate
from crowdgate import kernels
from crowdgate.evaluation import JitterSpec, generate_synthetic
from crowdgate.smoothing import SmoothingParams, smooth_series

from conftest import series


def reference_smooth_counts(values, half_length, prefer_last):
    """The jitter-correction pass written out frame by frame, as specified."""
    buf = np.asarray(values, dtype=np.int64).copy()
    n = len(buf)
    replaced = np.zeros(n, dtype=bool)
    last = int(buf[0])
    for x in range(1, n):
        value = int(buf[x])
        if value == last:
            continue
        lo = max(0, x - half_length)
        hi = min(n - 1, x + half_length)
        hist = Counter(int(v) for v in buf[lo : hi + 1])
        best_freq = max(hist.values())
        tied = [v for v, c in hist.items() if c == best_freq]
        if prefer_last and last in tied:
            mode = last
        else:
            mode = min(tied)
        if mode != value:
            buf[x] = mode
            replaced[x] = True
        last = int(buf[x])
    return buf, replaced


def assert_matches_reference(values, half_length, prefer_last):
    out, rep = kernels.smooth_counts(values, half_length, prefer_last)
    ref_out, ref_rep = reference_smooth_counts(values, half_length, prefer_last)
    assert out.dtype == np.int64
    np.testing.assert_array_equal(out, ref_out)
    np.testing.assert_array_equal(rep, ref_rep)


@pytest.mark.parametrize("half_length", [1, 2, 5, 10])
@pytest.mark.parametrize("prefer_last", [True, False])
def test_random_series_parity(half_length, prefer_last, rng):
    for _ in range(30):
        values = rng.integers(0, 12, int(rng.integers(1, 200)))
        assert_matches_reference(values, half_length, prefer_last)


@pytest.mark.parametrize("half_length", [1, 3, 10])
def test_low_cardinality_parity(half_length, rng):
    # binary series maximize mode ties, stressing the tie-break paths
    for prefer_last in (True, False):
        for _ in range(50):
            values = rng.integers(0, 2, int(rng.integers(1, 100)))
            assert_matches_reference(values, half_length, prefer_last)


@pytest.mark.parametrize("half_length", [1, 2, 5])
def test_leading_change_points_parity(half_length, rng):
    # the first frames differ from frame 0, so windows are clipped at the start
    for prefer_last in (True, False):
        for _ in range(50):
            head = rng.integers(0, 4, int(rng.integers(2, 2 * half_length + 3)))
            head[1:] = (head[0] + 1 + head[1:]) % 5
            tail = np.repeat(rng.integers(0, 4, 8), rng.integers(1, 6, 8))
            values = np.concatenate([head, tail])
            assert_matches_reference(values, half_length, prefer_last)


@pytest.mark.parametrize("half_length", [1, 3, 10])
def test_jittered_trace_parity(half_length):
    # long steps under spike jitter, as the pipeline sees them
    for seed in range(4):
        rng = np.random.default_rng(seed)
        profile = [(int(rng.integers(5, 300)), int(rng.integers(0, 15))) for _ in range(20)]
        _, jittered = generate_synthetic(
            profile, JitterSpec(0.1 + 0.1 * seed, 3, 2, rng_seed=seed), fps=30
        )
        for prefer_last in (True, False):
            assert_matches_reference(jittered.counts, half_length, prefer_last)


def level_trace(frames, seed):
    """A trace of levels held 300-3,000 frames under spikes at p=0.2, magnitude 3, run 3."""
    rng = np.random.default_rng(seed)
    profile, total = [], 0
    while total < frames:
        run = min(int(rng.integers(300, 3001)), frames - total)
        profile.append((run, int(rng.integers(0, 30))))
        total += run
    _, jittered = generate_synthetic(profile, JitterSpec(0.2, 3, 3, rng_seed=seed), fps=30)
    return jittered.counts


@pytest.mark.parametrize("half_length", [2, 3, 6])
def test_series_shorter_than_a_full_window(half_length, rng):
    # no frame has a full window, so the kernel never skips
    for prefer_last in (True, False):
        for n in range(1, 2 * half_length + 1):
            for _ in range(10):
                assert_matches_reference(rng.integers(0, 3, n), half_length, prefer_last)


@pytest.mark.parametrize("half_length", [2, 3, 5])
@pytest.mark.parametrize("prefer_last", [True, False])
def test_change_within_first_and_last_h_frames(half_length, prefer_last):
    h = half_length
    # frame 1 takes the level of the h + 1 frames after it
    values = [9] + [3] * (3 * h + 2)
    out, _ = kernels.smooth_counts(values, h, prefer_last)
    assert out[1] == 3
    assert_matches_reference(values, h, prefer_last)
    # the last h frames: a tie of h against h, which only prefer-smallest breaks
    for k in range(1, h + 1):
        values = [8] * (3 * h + 2) + [3] * k
        out, _ = kernels.smooth_counts(values, h, prefer_last)
        changed = not prefer_last and k == h
        assert out[-1] == (3 if changed else 8)
        assert_matches_reference(values, h, prefer_last)


@pytest.mark.parametrize("half_length", [1, 2, 4])
@pytest.mark.parametrize("prefer_last", [True, False])
def test_stretch_of_held_value_then_one_that_differs(half_length, prefer_last):
    # the skip passes over a stretch of the held 5 and stops at the 9s
    h = half_length
    values = [5] * (2 * h + 2) + [6] + [5] * (h + 1) + [7] + [9] * (h + 1) + [5] * (2 * h + 2)
    out, _ = kernels.smooth_counts(values, h, prefer_last)
    start = values.index(9)
    assert out[start - 1] == 5 and out[start] == 9
    assert_matches_reference(values, h, prefer_last)


@pytest.mark.parametrize("half_length", [2, 3, 5])
def test_prefer_smallest_h_of_h_plus_1_slots(half_length):
    # raw[f..f+h] holds v in all slots but one; the held value is 5
    h = half_length
    for v in (2, 8):
        for odd in (5, 0, 9):
            for j in range(h + 1):
                slots = [v] * (h + 1)
                slots[j] = odd
                for after in ([5] * (3 * h), [v] * (3 * h), [odd] * (3 * h)):
                    values = [5] * (2 * h + 1) + slots + after
                    assert_matches_reference(values, h, False)
                    assert_matches_reference(values, h, True)
                out, _ = kernels.smooth_counts([5] * (2 * h + 1) + slots + [5] * (3 * h), h, False)
                # v ties the held 5 only when the odd slot is neither of them
                assert out[2 * h + 1] == (v if v < 5 and odd != 5 else 5)


@pytest.mark.parametrize("half_length", [1, 2, 3, 10, 30, 100])
def test_long_trace_parity(half_length):
    values = level_trace(30_000, seed=half_length)
    for prefer_last in (True, False):
        assert_matches_reference(values, half_length, prefer_last)


@st.composite
def stepped_series(draw):
    """Runs of 1-8 frames over a few levels, so h + 1 equal values occur often."""
    runs = draw(st.lists(st.tuples(st.integers(0, 3), st.integers(1, 8)), min_size=1, max_size=25))
    return np.repeat([v for v, _ in runs], [r for _, r in runs]).astype(np.int64)


@settings(max_examples=300, deadline=None)
@given(raw=stepped_series(), half_length=st.integers(1, 6))
def test_skip_rule(raw, half_length):
    # at an interior frame f with h frames since the last change p, prefer-last
    # changes the output iff raw[f..f+h] is h + 1 copies of a value other than
    # c[f-1]; prefer-smallest changes it only if such a value fills h slots
    h, n = half_length, len(raw)
    for prefer_last in (True, False):
        out, _ = reference_smooth_counts(raw, h, prefer_last)
        assert_matches_reference(raw, h, prefer_last)
        p = 0
        for f in range(1, n):
            changed = out[f] != out[f - 1]
            if f >= p + h and h <= f < n - h:
                slots = raw[f : f + h + 1]
                others = slots[slots != out[f - 1]]
                fills = np.bincount(others).max() if len(others) else 0
                if prefer_last:
                    assert changed == (fills == h + 1)
                else:
                    assert not changed or fills >= h
            if changed:
                p = f


def test_exact_steps_bounded_on_a_jittered_trace(monkeypatch):
    # the skip takes well under 1,000 exact steps where the frame-by-frame
    # pass visits every raw change point, about 50,000 here
    steps = []
    original = kernels._exact_step

    def counted(*args):
        steps.append(args[1])
        return original(*args)

    monkeypatch.setattr(kernels, "_exact_step", counted)
    values = level_trace(150_000, seed=7)
    kernels.smooth_counts(values, 10, True)
    assert np.count_nonzero(values[1:] != values[:-1]) > 40_000
    assert len(steps) < 1_000


def test_both_reject_empty_and_bad_window():
    with pytest.raises(ValueError):
        kernels.smooth_counts(np.array([], dtype=np.int64), 3, True)
    with pytest.raises(ValueError):
        kernels.smooth_counts(np.array([1, 2], dtype=np.int64), 0, True)


def test_input_not_mutated():
    values = np.array([5, 9, 5, 5, 5], dtype=np.int64)
    kernels.smooth_counts(values, 2, True)
    np.testing.assert_array_equal(values, [5, 9, 5, 5, 5])


def test_smooth_series_calls_kernel_through_module(monkeypatch):
    # smooth_series must look smooth_counts up on crowdgate.kernels at call
    # time: the benchmark's tracer times the kernel by wrapping it there
    calls = []
    original = kernels.smooth_counts

    def spy(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(kernels, "smooth_counts", spy)
    out = smooth_series(series([5, 9, 5, 5, 5]), SmoothingParams(2))
    assert len(calls) == 1
    assert out.counts.tolist() == [5, 5, 5, 5, 5]


def test_kernel_backend_constant():
    # benchmark results record it and compare it with their baseline's
    assert crowdgate.KERNEL_BACKEND == "pure"
