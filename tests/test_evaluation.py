from collections import Counter

import numpy as np
import pytest

from crowdgate.evaluation import (
    JitterSpec,
    ap_d,
    evaluate,
    generate_synthetic,
    matched_ap_d,
    per_count_table,
    render_table,
)

from conftest import series

INT64_MAX = 2**63 - 1


def reference_ap_d(detected, truth) -> float:
    """The grouped form over a Counter of each series, in Python ints."""
    det, tru = Counter(detected.tolist()), Counter(truth.tolist())
    return sum(c * m for c, m in det.items()) / sum(c * m for c, m in tru.items())


def reference_per_count_table(detected, truth) -> dict[int, tuple[int, int]]:
    det, tru = Counter(detected.tolist()), Counter(truth.tolist())
    return {c: (det[c], tru[c]) for c in sorted(det.keys() | tru.keys())}


def random_counts(rng, n):
    """Counts of one of several scales, up to and just below INT64_MAX."""
    if rng.random() < 0.3:
        return INT64_MAX - rng.integers(0, 4, n)
    return rng.integers(0, rng.choice([5, 50, 10**6, INT64_MAX]), n, endpoint=True)


class TestApD:
    def test_perfect_detection(self):
        assert ap_d(series([3, 1, 4]), series([3, 1, 4])) == 1.0

    def test_over_detection_exceeds_one(self):
        # grouped form: (1*2 + 1*3) / (2*2) = 1.25
        assert ap_d(series([2, 3]), series([2, 2])) == 1.25

    def test_nothing_detected(self):
        assert ap_d(series([0, 0]), series([1, 1])) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            ap_d(series([1]), series([1, 1]))

    def test_zero_truth_rejected(self):
        with pytest.raises(ValueError, match="zero"):
            ap_d(series([1]), series([0]))

    def test_identity_property(self, rng):
        for _ in range(50):
            counts = rng.integers(0, 40, int(rng.integers(1, 100)))
            if counts.sum() == 0:
                counts[0] = 1
            assert ap_d(series(counts), series(counts)) == 1.0

    def test_scale_aware_frame_duplication(self, rng):
        det = rng.integers(0, 20, 60)
        tru = rng.integers(1, 20, 60)
        doubled_det = np.repeat(det, 2)
        doubled_tru = np.repeat(tru, 2)
        assert ap_d(series(doubled_det), series(doubled_tru)) == pytest.approx(
            ap_d(series(det), series(tru)), abs=1e-15
        )

    def test_accepts_plain_arrays(self):
        assert ap_d([2, 3], [2, 2]) == 1.25


class TestMatchedApD:
    def test_only_matching_frames_credited(self):
        # frame 0 matches (2 objects), frame 1 does not
        assert matched_ap_d(series([2, 3]), series([2, 2])) == 0.5

    def test_perfect(self):
        assert matched_ap_d(series([4, 4]), series([4, 4])) == 1.0


class TestPerCountTable:
    def test_counts_per_value(self):
        table = per_count_table(series([2, 3, 3]), series([2, 2, 3]))
        assert table == {2: (1, 2), 3: (2, 1)}


class TestCounterOracle:
    """The np.unique tables and exact totals against Counter over lists."""

    def test_random_series(self, rng):
        for _ in range(200):
            n = int(rng.integers(1, 200))
            det, tru = random_counts(rng, n), random_counts(rng, n)
            tru[0] = max(tru[0], 1)
            assert ap_d(series(det), series(tru)) == reference_ap_d(det, tru)
            assert per_count_table(series(det), series(tru)) == reference_per_count_table(det, tru)
            raw = random_counts(rng, n)
            report = evaluate(series(tru), series(raw), series(det))
            assert report.ap_d_raw == reference_ap_d(raw, tru)
            assert report.ap_d_smoothed == reference_ap_d(det, tru)
            assert report.per_count_table == reference_per_count_table(det, tru)
            assert report.total_detected_objects == sum(det.tolist())
            assert report.total_true_objects == sum(tru.tolist())
            matched = sum(d for d, t in zip(det.tolist(), tru.tolist()) if d == t)
            assert matched_ap_d(series(det), series(tru)) == matched / sum(tru.tolist())


class TestEvaluate:
    @pytest.mark.parametrize(
        "truth,raw,smoothed,message",
        [
            ([1, 1], [1], [1, 1], "length mismatch: detected 1, truth 2"),
            ([0, 0], [1, 1], [1], "truth series has no objects"),
            ([1, 1], [1, 1], [1, 1, 1], "length mismatch: detected 3, truth 2"),
        ],
        ids=["raw-length", "zero-truth-before-smoothed-length", "smoothed-length"],
    )
    def test_errors_as_ap_d_raises_them(self, truth, raw, smoothed, message):
        # the first error of ap_d(raw, truth), then of ap_d(smoothed, truth)
        with pytest.raises(ValueError, match=message):
            evaluate(series(truth), series(raw), series(smoothed))


class TestCompareMethods:
    def test_render_table_layout(self):
        text = render_table(
            {"raw": {"scene1": 0.9, "scene2": 1.1}, "smoothed": {"scene1": 1.0}}
        )
        lines = text.splitlines()
        assert lines[0].split() == ["method", "scene1", "scene2"]
        assert lines[1].split() == ["raw", "0.9000", "1.1000"]
        assert lines[2].split() == ["smoothed", "1.0000", "-"]


class TestGenerateSynthetic:
    def test_zero_probability_identity(self):
        truth, jittered = generate_synthetic(
            [(20, 5), (10, 8)], JitterSpec(0.0, 3, 2, 7)
        )
        np.testing.assert_array_equal(truth.counts, jittered.counts)
        np.testing.assert_array_equal(truth.counts, [5] * 20 + [8] * 10)

    def test_deterministic_per_seed(self):
        spec = JitterSpec(0.3, 3, 2, 42)
        _, a = generate_synthetic([(200, 10)], spec)
        _, b = generate_synthetic([(200, 10)], spec)
        np.testing.assert_array_equal(a.counts, b.counts)
        _, c = generate_synthetic([(200, 10)], JitterSpec(0.3, 3, 2, 43))
        assert not np.array_equal(a.counts, c.counts)

    def test_counts_clamped_at_zero(self):
        _, jittered = generate_synthetic([(500, 1)], JitterSpec(0.5, 3, 2, 1))
        assert jittered.counts.min() >= 0

    def test_spike_count_in_binomial_interval(self):
        # run length 1 and truth far from zero: each trigger flips exactly
        # one frame, so differing frames ~ Binomial(100, 0.1)
        truth, jittered = generate_synthetic(
            [(100, 5)], JitterSpec(0.1, 2, 1, 42)
        )
        diffs = int((truth.counts != jittered.counts).sum())
        # central 99.9% of Binomial(100, 0.1)
        assert 1 <= diffs <= 22

    def test_int64_bounds(self):
        top = 2**63 - 1
        # without spikes a count may reach int64's top
        truth, jittered = generate_synthetic([(3, top)], JitterSpec(0.0, 3, 2, 1))
        assert truth.counts.tolist() == jittered.counts.tolist() == [top] * 3
        # three frames stack at most two 2-frame spikes of up to 5
        generate_synthetic([(3, top - 10)], JitterSpec(1.0, 5, 2, 1))
        with pytest.raises(ValueError, match="count 9223372036854775798 plus 2 overlapping"):
            generate_synthetic([(3, top - 9)], JitterSpec(1.0, 5, 2, 1))
        # one frame stacks at most one spike
        generate_synthetic([(1, top - 5)], JitterSpec(1.0, 5, 9, 1))
        with pytest.raises(ValueError, match=f"count {top + 1} exceeds int64"):
            generate_synthetic([(1, top + 1)], JitterSpec(0.0, 1, 1, 0))
        for args in [(0.1, top + 1, 1, 0), (0.1, 1, top + 1, 0)]:
            with pytest.raises(ValueError, match="exceeds int64"):
                JitterSpec(*args)

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic([], JitterSpec(0.1, 1, 1, 0))
