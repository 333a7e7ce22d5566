"""The smoothing kernel against a literal frame-by-frame reference pass."""

from collections import Counter

import numpy as np
import pytest

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
