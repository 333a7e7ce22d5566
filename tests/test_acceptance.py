"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines. All checks are deterministic (seeded RNG throughout).
"""

import time
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from crowdgate import KERNEL_BACKEND
from crowdgate.cli import main
from crowdgate.counting import CountSeries, read_count_series
from crowdgate.density import (
    BackgroundModel,
    ForegroundFeatures,
    fit_regressor,
    update_background,
)
from crowdgate.evaluation import JitterSpec, ap_d, generate_synthetic
from crowdgate.ingest import GrayFrame
from crowdgate.segmenting import SegmentPolicy, extract_segments
from crowdgate.smoothing import SmoothingParams, smooth_series, window_length

from conftest import detections_bytes, series


def report(criterion, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"{status}  criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def test_criterion_1_window_length_exact():
    expected = {(30, 3): 10, (24, 3): 8, (25, 3): 8, (2, 3): 1}
    results = {key: window_length(*key) for key in expected}
    start = time.perf_counter()
    for key in expected:
        window_length(*key)
    elapsed = time.perf_counter() - start
    ok = results == expected and elapsed < 1e-3
    report(1, ok, f"window lengths {results}, runtime {elapsed * 1e6:.1f} us")


def test_criterion_2_constant_series_fixed_point():
    rng = np.random.default_rng(2)
    failures = 0
    for _ in range(1000):
        n = int(rng.integers(1, 501))
        value = int(rng.integers(0, 101))
        length = int(rng.integers(1, 21))
        out = smooth_series(series([value] * n), SmoothingParams(length))
        if not np.array_equal(out.counts, np.full(n, value)):
            failures += 1
    report(2, failures == 0, f"{1000 - failures}/1000 constant series unchanged")


def test_criterion_3_spike_suppression():
    rng = np.random.default_rng(3)
    failures = 0
    for _ in range(500):
        length = int(rng.integers(1, 21))
        v = int(rng.integers(0, 101))
        w = (v + 1 + int(rng.integers(0, 100))) % 101
        if w == v:
            w = (v + 1) % 101
        run = int(rng.integers(1, length + 1))
        pad = int(rng.integers(length, length + 30))
        values = [v] * pad + [w] * run + [v] * pad
        out = smooth_series(series(values), SmoothingParams(length))
        if not np.array_equal(out.counts, np.full(len(values), v)):
            failures += 1
    report(3, failures == 0, f"{500 - failures}/500 spikes suppressed")


def test_criterion_4_step_preservation():
    rng = np.random.default_rng(4)
    failures = 0
    for _ in range(500):
        length = int(rng.integers(1, 21))
        v = int(rng.integers(0, 101))
        w = (v + 1 + int(rng.integers(0, 100))) % 101
        if w == v:
            w = (v + 1) % 101
        old = length + int(rng.integers(0, 30))
        new = length + 1 + int(rng.integers(0, 30))
        values = [v] * old + [w] * new
        out = smooth_series(series(values), SmoothingParams(length))
        if not np.array_equal(out.counts, values):
            failures += 1
    report(4, failures == 0, f"{500 - failures}/500 steps preserved")


def test_criterion_5_metric_algebraic_identity():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(1, 200))
        detected = rng.integers(0, 40, n)
        truth = rng.integers(0, 40, n)
        if truth.sum() == 0:
            truth[0] = 1
        value = ap_d(detected, truth)
        # independent literal evaluation of the grouped-by-value form
        grouped = sum(c * m for c, m in Counter(detected.tolist()).items()) / sum(
            c * m for c, m in Counter(truth.tolist()).items()
        )
        worst = max(worst, abs(value - grouped))
        assert ap_d(truth, truth) == 1.0
    report(5, worst <= 1e-12, f"max |grouped - totals| = {worst:.2e}")


def test_criterion_6_golden_cli_run(tmp_path):
    det = tmp_path / "d.jsonl"
    det.write_bytes(detections_bytes([7, 7, 7, 9, 7, 7, 7], fps=9))
    runner = CliRunner()
    artifacts = ("raw_counts.csv", "smoothed_counts.csv", "segments.json", "cutlist.txt", "run_manifest.json")
    outputs = []
    for out in ("run1", "run2"):
        result = runner.invoke(
            main,
            ["run", str(det), "--out", str(tmp_path / out), "--threshold", "5"],
            catch_exceptions=False,
        )
        assert result.exit_code == 0
        outputs.append({a: (tmp_path / out / a).read_bytes() for a in artifacts})
    smoothed = read_count_series(outputs[0]["smoothed_counts.csv"])
    ok = smoothed.counts.tolist() == [7] * 7 and outputs[0] == outputs[1]
    report(6, ok, f"smoothed {smoothed.counts.tolist()}, two runs byte-identical: {outputs[0] == outputs[1]}")


def test_criterion_7_segment_oracle():
    rng = np.random.default_rng(7)
    policy = SegmentPolicy(10, min_duration_frames=1, merge_gap_frames=0)
    failures = 0
    for _ in range(1000):
        counts = rng.integers(0, 20, int(rng.integers(1, 201)))
        got = [
            (s.start_frame, s.end_frame)
            for s in extract_segments(series(counts), policy)
        ]
        expected = []
        start = None
        for i, c in enumerate(counts):
            if c > 10 and start is None:
                start = i
            elif c <= 10 and start is not None:
                expected.append((start, i - 1))
                start = None
        if start is not None:
            expected.append((start, len(counts) - 1))
        if got != expected:
            failures += 1
    report(7, failures == 0, f"{1000 - failures}/1000 series match the naive scan")


def test_criterion_8_least_squares_recovery():
    rng = np.random.default_rng(8)
    # noiseless: exact coefficient recovery
    noiseless = []
    for i in range(60):
        area = int(rng.integers(0, 5000))
        edge = int(rng.integers(0, min(area, 800) + 1))
        noiseless.append(
            (ForegroundFeatures(area, edge, i), 0.01 * area + 0.5 * edge + 2.0)
        )
    reg = fit_regressor(noiseless)
    rel_errors = [
        abs(reg.coef_area - 0.01) / 0.01,
        abs(reg.coef_edge - 0.5) / 0.5,
        abs(reg.intercept - 2.0) / 2.0,
    ]
    # noisy: compare against an independent closed-form normal-equations solve
    noisy = []
    for i in range(500):
        area = int(rng.integers(0, 5000))
        edge = int(rng.integers(0, min(area, 800) + 1))
        count = 0.01 * area + 0.5 * edge + 2.0 + rng.normal(0, 1)
        noisy.append((ForegroundFeatures(area, edge, i), count))
    fitted = fit_regressor(noisy)
    design = np.array([[f.area, f.edge, 1.0] for f, _ in noisy])
    target = np.array([c for _, c in noisy])
    oracle = np.linalg.solve(design.T @ design, design.T @ target)
    diffs = np.abs(
        np.array([fitted.coef_area, fitted.coef_edge, fitted.intercept]) - oracle
    )
    ok = max(rel_errors) < 1e-9 and diffs.max() < 1e-9
    report(
        8,
        ok,
        f"noiseless rel err {max(rel_errors):.2e}, noisy vs normal-equations {diffs.max():.2e}",
    )


def test_criterion_9_background_convergence():
    scene = 255
    model = BackgroundModel(4, 4, np.zeros((4, 4)), learning_rate=0.05)
    frame = lambda i: GrayFrame(4, 4, np.full((4, 4), scene, dtype=np.uint8), i)
    bound = int(np.ceil(np.log(1 / 255) / np.log(0.95)))  # 109
    updates = 0
    while np.abs(model.background - scene).max() >= 1.0:
        model = update_background(model, frame(updates), frame(updates + 1))
        updates += 1
        assert updates <= bound + 1, "did not converge"
    report(9, updates <= bound, f"within 1 intensity unit after {updates} updates (bound {bound})")


def test_criterion_10_smoothing_benefit():
    # ap_d is a totals ratio whose ideal value is 1 (it exceeds 1 under
    # over-detection), so a trace counts as a win when smoothing brings it
    # at least as close to 1 as the raw counts are.
    # NOTE: fails as measured, for two causes. Symmetric +-jitter barely
    # moves the totals ratio, so raw already lands within a few thousandths
    # of 1. And the in-place pass with the prefer-last tie-break holds the
    # old value at a step until h+1 clean frames follow it, which moves the
    # smoothed totals further from 1 than the jitter did. The matched-frame
    # metric (reported below) sees the jitter, but the step lag costs it
    # some traces too.
    rng = np.random.default_rng(10)
    params = SmoothingParams.from_fps(30)
    wins = 0
    matched_wins = 0
    raw_dev, smoothed_dev = [], []
    from crowdgate.evaluation import matched_ap_d

    start = time.perf_counter()
    for k in range(100):
        npieces = int(rng.integers(3, 7))
        profile = [
            (int(rng.integers(60, 201)), int(rng.integers(0, 31)))
            for _ in range(npieces)
        ]
        if all(c == 0 for _, c in profile):
            profile[0] = (profile[0][0], 5)
        truth, jittered = generate_synthetic(
            profile, JitterSpec(0.1, 3, 2, rng_seed=k), fps=30
        )
        smoothed = smooth_series(jittered, params)
        raw_ap = ap_d(jittered, truth)
        smoothed_ap = ap_d(smoothed, truth)
        wins += abs(smoothed_ap - 1.0) <= abs(raw_ap - 1.0)
        matched_wins += matched_ap_d(smoothed, truth) >= matched_ap_d(jittered, truth)
        raw_dev.append(abs(raw_ap - 1.0))
        smoothed_dev.append(abs(smoothed_ap - 1.0))
    elapsed = time.perf_counter() - start
    ok = (
        wins >= 95
        and float(np.mean(smoothed_dev)) < float(np.mean(raw_dev))
        and elapsed < 5.0
    )
    report(
        10,
        ok,
        f"|smoothed-1|<=|raw-1| in {wins}/100 traces (matched-frame metric: {matched_wins}/100), "
        f"mean |smoothed-1| {np.mean(smoothed_dev):.4f} vs mean |raw-1| {np.mean(raw_dev):.4f}, "
        f"{elapsed:.2f} s",
    )


def test_criterion_11_throughput_one_million_frames():
    truth, jittered = generate_synthetic(
        [(1_000_000, 10)], JitterSpec(0.1, 3, 2, rng_seed=11), fps=30
    )
    params = SmoothingParams.from_fps(30)
    smooth_series(jittered, params)  # warm-up
    start = time.perf_counter()
    smooth_series(jittered, params)
    elapsed = time.perf_counter() - start
    report(
        11,
        elapsed < 1.0,
        f"1,000,000 frames in {elapsed:.3f} s ({KERNEL_BACKEND} kernel)",
    )
