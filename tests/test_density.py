import collections
import contextlib
import math
import mmap
import tempfile
import threading
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from crowdgate.density import (
    BackgroundModel,
    DensityRegressor,
    ForegroundFeatures,
    compute_features,
    estimate_density_counts,
    extract_foreground,
    fit_regressor,
    predict_count,
    read_calibration_csv,
    regressor_from_json,
    regressor_to_json,
    update_background,
)
from crowdgate import cli, density, ingest
from crowdgate.cli import PipelineConfig
from crowdgate.counting import count_detections
from crowdgate.density import _density_loop
from crowdgate.errors import InputFormatError, RankDeficientError
from crowdgate.ingest import load_gray_frames, save_gray_frames

from conftest import detections_bytes, gray_stream


def constant_frame(value, shape=(8, 8)):
    return np.full(shape, value, dtype=np.uint8)


def first_frame_model(frame):
    return BackgroundModel(np.asarray(frame, dtype=np.float64))


class TestUpdateBackground:
    def test_static_scene_fixed_point(self):
        model = first_frame_model(constant_frame(100))
        out = update_background(model, constant_frame(100), constant_frame(100))
        np.testing.assert_array_equal(out.background, model.background)

    def test_geometric_convergence(self):
        # constant scene v from a zero background: gap shrinks by (1-alpha) per update
        model = BackgroundModel(np.zeros((8, 8)), learning_rate=0.05)
        for k in range(1, 30):
            model = update_background(model, constant_frame(100), constant_frame(100))
            expected = 100.0 * (1.0 - 0.95**k)
            np.testing.assert_allclose(model.background, expected, atol=1e-9)

    def test_moving_pixel_never_updates(self):
        bg = np.full((4, 4), 128.0)
        model = BackgroundModel(bg, motion_threshold=15.0)
        frames = [constant_frame(value, (4, 4)) for value in [0, 255, 0, 255]]
        for prev, curr in zip(frames, frames[1:]):
            model = update_background(model, prev, curr)
        np.testing.assert_array_equal(model.background, bg)

    def test_gated_pixels_bit_identical(self, rng):
        bg = rng.uniform(0, 255, (16, 16))
        model = BackgroundModel(bg.copy())
        prev = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        curr = rng.integers(0, 256, (16, 16)).astype(np.uint8)
        out = update_background(model, prev, curr)
        moving = np.abs(curr.astype(float) - prev.astype(float)) >= model.motion_threshold
        np.testing.assert_array_equal(out.background[moving], bg[moving])
        # static pixels move toward the frame, never past it
        static = ~moving
        low = np.minimum(bg, curr.astype(float))
        high = np.maximum(bg, curr.astype(float))
        assert np.all(out.background[static] >= low[static])
        assert np.all(out.background[static] <= high[static])

    def test_dimension_mismatch(self):
        model = first_frame_model(constant_frame(0))
        for shapes in [((4, 4), (4, 4)), ((8, 8), (4, 8))]:
            prev, curr = (constant_frame(0, shape) for shape in shapes)
            with pytest.raises(ValueError, match=r"model is \(8, 8\)"):
                update_background(model, prev, curr)


class TestExtractForeground:
    def test_frame_equals_background(self):
        model = first_frame_model(constant_frame(77))
        mask = extract_foreground(model, constant_frame(77))
        assert not mask.any()

    def test_single_deviating_pixel(self):
        model = first_frame_model(constant_frame(100))
        pixels = constant_frame(100)
        pixels[2, 3] = 150
        mask = extract_foreground(model, pixels, fg_threshold=25)
        assert mask.sum() == 1 and mask[2, 3]

    def test_pixelwise_oracle(self, rng):
        bg = rng.uniform(0, 255, (12, 12))
        model = BackgroundModel(bg)
        frame = rng.integers(0, 256, (12, 12)).astype(np.uint8)
        mask = extract_foreground(model, frame, fg_threshold=25)
        for r in range(12):
            for c in range(12):
                assert mask[r, c] == (abs(float(frame[r, c]) - bg[r, c]) > 25)

    def test_dimension_mismatch(self):
        model = first_frame_model(constant_frame(0))
        with pytest.raises(ValueError, match=r"frame is \(8, 4\), model is \(8, 8\)"):
            extract_foreground(model, constant_frame(0, (8, 4)))


class TestComputeFeatures:
    def test_all_false(self):
        feats = compute_features(np.zeros((5, 5), dtype=bool))
        assert (feats.area, feats.edge) == (0, 0)

    def test_filled_block_interior(self):
        # 3x3 true block away from the border: only the center is interior
        mask = np.zeros((7, 7), dtype=bool)
        mask[2:5, 2:5] = True
        feats = compute_features(mask)
        assert (feats.area, feats.edge) == (9, 8)

    def test_one_row_image_all_edge(self):
        mask = np.ones((1, 10), dtype=bool)
        feats = compute_features(mask)
        assert (feats.area, feats.edge) == (10, 10)

    def test_edge_never_exceeds_area(self, rng):
        for _ in range(50):
            mask = rng.random((10, 10)) < rng.uniform(0, 1)
            feats = compute_features(mask)
            assert feats.edge <= feats.area

    def test_edge_equals_area_without_interior(self):
        # checkerboard has no pixel with four true neighbors
        mask = np.indices((8, 8)).sum(axis=0) % 2 == 0
        feats = compute_features(mask)
        assert feats.edge == feats.area


class TestRegressor:
    def test_noiseless_recovery(self, rng):
        samples = []
        for i in range(50):
            area = int(rng.integers(0, 5000))
            edge = int(rng.integers(0, min(area + 1, 800)))
            count = 0.01 * area + 0.5 * edge + 2.0
            samples.append((ForegroundFeatures(edge=edge, area=area, frame_index=i), count))
        reg = fit_regressor(samples)
        assert reg.coef_area == pytest.approx(0.01, rel=1e-9)
        assert reg.coef_edge == pytest.approx(0.5, rel=1e-9)
        assert reg.intercept == pytest.approx(2.0, rel=1e-9)

    def test_degenerate_design_named(self):
        samples = [
            (ForegroundFeatures(100, 20, i), i) for i in range(5)
        ]
        with pytest.raises(RankDeficientError, match="area, edge"):
            fit_regressor(samples)

    def test_too_few_samples(self):
        samples = [(ForegroundFeatures(i, i, i), i) for i in range(2)]
        with pytest.raises(ValueError, match="at least 3"):
            fit_regressor(samples)

    def test_local_optimality_spot_check(self, rng):
        samples = []
        for i in range(100):
            area = int(rng.integers(1, 3000))
            edge = int(rng.integers(0, min(area, 500) + 1))
            count = max(0.0, 0.02 * area + 0.3 * edge + rng.normal(0, 2))
            samples.append((ForegroundFeatures(area, edge, i), count))
        reg = fit_regressor(samples)
        design = np.array([[f.area, f.edge, 1.0] for f, _ in samples])
        target = np.array([c for _, c in samples])
        best = ((design @ [reg.coef_area, reg.coef_edge, reg.intercept] - target) ** 2).sum()
        for _ in range(1000):
            perturbed = np.array(
                [reg.coef_area, reg.coef_edge, reg.intercept]
            ) + rng.normal(0, 0.01, 3)
            rss = ((design @ perturbed - target) ** 2).sum()
            assert rss >= best - 1e-9

    def test_predict_examples(self):
        assert predict_count(DensityRegressor(0.0, 0.0, 0.0), ForegroundFeatures(0, 0, 0)) == 0
        reg = DensityRegressor(0.01, 0.5, 2.0)
        assert predict_count(reg, ForegroundFeatures(1000, 20, 0)) == 22
        assert predict_count(DensityRegressor(0.0, 0.0, -5.0), ForegroundFeatures(0, 0, 0)) == 0

    @pytest.mark.parametrize("coefs", [(1e308, 0.0), (1e308, -1e308)], ids=["inf", "nan"])
    def test_predict_overflow_rejected(self, coefs):
        with pytest.raises(ValueError, match="density prediction for frame 7 is"):
            predict_count(DensityRegressor(*coefs, 0.0), ForegroundFeatures(4, 4, 7))

    def test_predict_beyond_int64_rejected(self):
        below = math.nextafter(2.0**63, 0)  # the largest float under 2**63
        assert predict_count(DensityRegressor(0.0, 0.0, below), ForegroundFeatures(0, 0, 0)) == below
        with pytest.raises(ValueError, match="prediction for frame 7 is 9.2233.*e\\+18, beyond int64"):
            predict_count(DensityRegressor(0.0, 0.0, 2.0**63), ForegroundFeatures(4, 4, 7))

    def test_predict_rounds_half_up(self):
        assert predict_count(DensityRegressor(0.0, 0.0, 2.5), ForegroundFeatures(0, 0, 0)) == 3

    def test_json_round_trip(self):
        reg = DensityRegressor(0.0123, -0.5, 2.75, 30.0)
        assert regressor_from_json(regressor_to_json(reg).encode()) == reg

    @pytest.mark.parametrize(
        "values",
        [(math.inf, 0.0, 0.0, 25.0), (0.0, math.nan, 0.0, 25.0), (0.0, 0.0, -math.inf, 25.0),
         (0.0, 0.0, 0.0, math.nan), (0.0, 0.0, 0.0, math.inf), (0.0, 0.0, 0.0, -1.0)],
        ids=["inf-area", "nan-edge", "inf-intercept", "nan-threshold", "inf-threshold",
             "negative-threshold"],
    )
    def test_non_finite_or_negative_rejected(self, values):
        with pytest.raises(ValueError, match="must be finite"):
            DensityRegressor(*values)

    @pytest.mark.parametrize(
        "value", ["Infinity", "NaN", "1" + "0" * 400], ids=["infinity", "nan", "huge-int"]
    )
    def test_json_non_finite_coefficient_is_bad_file(self, value):
        text = f'{{"coef_area": {value}, "coef_edge": 0, "intercept": 0, "fg_threshold": 25}}'
        with pytest.raises(InputFormatError, match="bad density model file"):
            regressor_from_json(text.encode())


class TestCalibrationCsv:
    def test_round_trip(self):
        text = "frame_index,area,edge,true_count\n0,100,20,3\n1,250,40,7\n"
        samples = read_calibration_csv(text.encode())
        assert samples == [
            (ForegroundFeatures(100, 20, 0), 3),
            (ForegroundFeatures(250, 40, 1), 7),
        ]

    def test_invalid_utf8_names_line(self):
        data = b"frame_index,area,edge,true_count\n0,100,20,3\n1,2\xff0,40,7\n"
        with pytest.raises(InputFormatError, match="line 3: invalid UTF-8"):
            read_calibration_csv(data)

    def test_crlf_and_comments(self):
        data = b"# calibration\r\nframe_index,area,edge,true_count\r\n\r\n0,100,20,3\r\n"
        assert read_calibration_csv(data) == [(ForegroundFeatures(100, 20, 0), 3)]

    @pytest.mark.parametrize(
        "row, message",
        [
            ("-1,100,20,3", "line 3: negative frame_index -1"),
            ("1,-100,20,3", "line 3: negative area -100"),
            ("1,100,-20,3", "line 3: negative edge -20"),
            ("1,100,20,-7", "line 3: negative true_count -7"),
            ("1,100,200,3", "line 3: edge 200 exceeds area 100"),
            ("1,99999999999999999999,20,3", "line 3: area 99999999999999999999 exceeds int64"),
            ("9223372036854775808,100,20,3", "line 3: frame_index 9223372036854775808 exceeds"),
        ],
        ids=["frame-index", "area", "edge", "true-count", "edge-over-area", "area-overflow",
             "index-overflow"],
    )
    def test_out_of_range_value_names_line(self, row, message):
        data = f"frame_index,area,edge,true_count\n0,100,20,3\n{row}\n".encode()
        with pytest.raises(InputFormatError, match=message):
            read_calibration_csv(data)

    @pytest.mark.parametrize(
        "row",
        ["1,1_000,20,3", "1,+100,20,3", "1,100,20, 3", "1,100 ,20,3", "1,\u0663,0,3",
         "1,100,20,3,4", "1,100,20", '"1",100,20,3'],
        ids=["underscore", "plus-sign", "leading-space", "trailing-space", "arabic-indic-digit",
             "extra-field", "missing-field", "quoted"],
    )
    def test_non_digit_value_names_line(self, row):
        data = f"frame_index,area,edge,true_count\n0,100,20,3\n{row}\n".encode()
        with pytest.raises(InputFormatError, match="line 3: bad calibration row"):
            read_calibration_csv(data)

    @pytest.mark.parametrize("before", ["", "0,100,20,3\n"], ids=["first-row", "second-row"])
    def test_quoted_line_break_names_its_first_line(self, before):
        # No quoting: a quoted field is a bad row, and each line counts as one.
        bad = 2 + before.count("\n")
        data = f'frame_index,area,edge,true_count\n{before}"1\n",200,10,3\n'.encode()
        with pytest.raises(InputFormatError, match=f"line {bad}: bad calibration row"):
            read_calibration_csv(data)
        data = f'frame_index,area,edge,true_count\n{before}"# x\n\n\n",1\n1,2,3,x\n'.encode()
        with pytest.raises(InputFormatError, match=f"line {bad}: bad calibration row"):
            read_calibration_csv(data)

    def test_int64_max_and_edge_equal_area_accepted(self):
        top = 2**63 - 1
        data = f"frame_index,area,edge,true_count\n{top},{top},{top},{top}\n".encode()
        assert read_calibration_csv(data) == [(ForegroundFeatures(top, top, top), top)]


class TestEstimateDensityCounts:
    def test_selected_frames_only(self):
        frames = np.full((5, 8, 8), 50, dtype=np.uint8)
        reg = DensityRegressor(1.0, 0.0, 4.0)
        counts = estimate_density_counts(frames, reg, [0, 3])
        # static scene: background equals the frames, no foreground anywhere
        assert counts.dtype == np.int64 and counts.tolist() == [4, 4]

    def test_out_of_range_frame(self):
        frames = np.full((1, 8, 8), 50, dtype=np.uint8)
        with pytest.raises(ValueError, match="outside"):
            estimate_density_counts(frames, DensityRegressor(1, 0, 0), [2])

    def test_empty_stream(self):
        with pytest.raises(ValueError, match="no gray frames"):
            estimate_density_counts(
                np.empty((0, 8, 8), dtype=np.uint8), DensityRegressor(1, 0, 0), []
            )

    @pytest.mark.parametrize("indices", [[3, 0], [0, 2, 1], [1, 1], [0, 2, 2, 3]],
                             ids=["falling", "unsorted", "repeated", "repeated-inside"])
    def test_indices_must_rise_strictly(self, indices):
        frames = np.full((5, 8, 8), 50, dtype=np.uint8)
        with pytest.raises(ValueError, match=r"frame indices must rise strictly, got \["):
            estimate_density_counts(frames, DensityRegressor(1, 0, 0), indices)

    @pytest.mark.parametrize(
        "indices, message",
        [
            (np.arange(10**6)[::-1],
             "frame indices must rise strictly, got [999999, 999998, 999997, 999996, "
             "999995, 999994, 999993, 999992, 999991, 999990] (1000000 in all)"),
            (np.arange(3, 10**6),
             "frame indices outside the gray stream: [5, 6, 7, 8, 9, 10, 11, 12, 13, 14] "
             "(999995 in all)"),
            (np.arange(-10, 0),
             "frame indices outside the gray stream: [-10, -9, -8, -7, -6, -5, -4, -3, -2, -1]"),
        ],
        ids=["falling", "beyond", "ten-negative"],
    )
    def test_messages_show_the_first_ten_indices(self, indices, message):
        frames = np.full((5, 8, 8), 50, dtype=np.uint8)
        with pytest.raises(ValueError) as info:
            estimate_density_counts(frames, DensityRegressor(1, 0, 0), indices)
        assert str(info.value) == message


# Per-pixel steps between frames. +-15 is the motion threshold, which is not
# static; +-10 and +-25 land a moving pixel exactly on a foreground threshold.
_STEPS = st.one_of(
    st.sampled_from([-15, 15, -14, 14, 0, -10, 10, -25, 25]), st.integers(-255, 255)
)


@st.composite
def gray_streams(draw):
    height, width = draw(st.integers(1, 9)), draw(st.integers(1, 6))
    n = draw(st.integers(1, 12))
    first = draw(arrays(np.int16, (height, width), elements=st.integers(0, 255)))
    steps = draw(arrays(np.int16, (n - 1, height, width), elements=_STEPS))
    pixels = [first]
    for step in steps:
        pixels.append(np.clip(pixels[-1] + step, 0, 255))
    frames = gray_stream(pixels)
    wanted = draw(st.just(set(range(n))) | st.sets(st.integers(0, n - 1)))
    return frames, wanted


# Pixel (0, 0) moves by exactly the foreground threshold, (0, 1) by exactly
# the motion threshold, and (1, 0) by one less, so it is blended.
_BOUNDARY_STREAM = (
    gray_stream([np.full((2, 2), 100), [[125, 115], [114, 100]]]),
    {0, 1},
)


def reference_density(frames, regressor, wanted):
    """Fold ``update_background`` over the stream up to its last wanted frame
    (frame 0 when none is wanted); predict at the wanted frames, in rising
    order."""
    model = first_frame_model(frames[0])
    counts = []
    for i, frame in enumerate(frames[: max(wanted, default=0) + 1]):
        if i > 0:
            model = update_background(model, frames[i - 1], frame)
        if i in wanted:
            mask = extract_foreground(model, frame, regressor.fg_threshold)
            counts.append(predict_count(regressor, compute_features(mask, frame_index=i)))
    return counts, model.background


@contextlib.contextmanager
def banded(band_rows, workers, width):
    """Cut frames of ``width`` into bands of ``band_rows`` rows (None: the
    default height) and run them on ``workers`` threads."""
    pixels = density._BAND_PIXELS if band_rows is None else band_rows * width
    with mock.patch.object(density, "_BAND_PIXELS", pixels), \
            mock.patch.object(ingest, "_usable_cpus", lambda: workers):
        yield


@contextlib.contextmanager
def windowed(frames_per_window, frames):
    """Run ``frames`` in windows of ``frames_per_window`` frames (None: the
    default size, which holds every short test stream in one window)."""
    if frames_per_window is None:
        yield
        return
    frame_bytes = max(frames[0].size, 1)
    with mock.patch.object(density, "_GRAY_WINDOW_BYTES", frames_per_window * frame_bytes):
        yield


@contextlib.contextmanager
def mapped(frames, mapping=mmap.mmap):
    """``frames`` as ``load_gray_frames`` views them in a ``mapping`` of a
    container file."""
    with tempfile.TemporaryFile() as fh:
        fh.write(save_gray_frames(frames))
        fh.flush()
        yield load_gray_frames(mapping(fh.fileno(), 0, access=mmap.ACCESS_READ))


# Nine rows in bands of four: the last band is one row.
_SHORT_LAST_BAND = (
    gray_stream([np.full((9, 3), 100), np.full((9, 3), 200)]),
    {0, 1},
)


class TestInPlaceLoopParity:
    @settings(max_examples=300, deadline=None)
    @example(
        stream=_BOUNDARY_STREAM, regressor=DensityRegressor(1.0, 0.0, 0.0, 25.0),
        band_rows=None, workers=1, window=None, in_mapping=False,
    )
    @example(
        stream=_SHORT_LAST_BAND, regressor=DensityRegressor(1.0, 0.4, 0.0, 25.0),
        band_rows=4, workers=2, window=2, in_mapping=True,
    )
    @given(
        stream=gray_streams(),
        regressor=st.builds(
            DensityRegressor,
            coef_area=st.sampled_from([0.0, 0.7, 1.3]),
            coef_edge=st.sampled_from([0.0, 0.4, -0.2]),
            intercept=st.sampled_from([0.0, 0.5, 2.0]),
            fg_threshold=st.sampled_from([25.0, 10.0, 0.5]),
        ),
        band_rows=st.sampled_from([None, 1, 2, 3, 4]),
        workers=st.sampled_from([1, 2]),
        window=st.sampled_from([None, 2, 3, 4, 5]),
        in_mapping=st.booleans(),
    )
    def test_counts_and_background_match_fold(
        self, stream, regressor, band_rows, workers, window, in_mapping
    ):
        # ``window`` frames a window: the short streams run through several
        # windows, from memory or from a mapped container.
        frames, wanted = stream
        expected_counts, expected_background = reference_density(frames, regressor, wanted)
        order = sorted(wanted)
        source = mapped(frames) if in_mapping else contextlib.nullcontext(frames)
        with banded(band_rows, workers, frames.shape[2]), windowed(window, frames), \
                source as frames:
            estimated = estimate_density_counts(frames, regressor, order)
            counts, background = _density_loop(frames, regressor, order)
        assert estimated.dtype == counts.dtype == np.int64
        assert estimated.tolist() == expected_counts
        assert counts.tolist() == expected_counts
        assert background.dtype == np.float64
        assert background.tobytes() == expected_background.tobytes()  # bit for bit

    @pytest.mark.parametrize("workers", [1, 2])
    def test_blob_across_band_seam(self, workers):
        # A 4x4 blob over rows 1-4 of an 8-row frame in bands of three rows:
        # the seam between rows 2 and 3 cuts it, and its interior pixels at
        # rows 2 and 3 need the other band's row as their neighbour.
        still = np.full((8, 10), 100)
        blob = still.copy()
        blob[1:5, 3:7] = 200
        frames = gray_stream([still, blob])
        regressor = DensityRegressor(1.0, 1000.0, 0.0)
        with banded(3, workers, 10):
            counts, background = _density_loop(frames, regressor, [1])
        assert counts.tolist() == [16 + 1000 * 12]  # area 16, edge 12
        expected_counts, expected_background = reference_density(frames, regressor, {1})
        assert counts.tolist() == expected_counts
        assert background.tobytes() == expected_background.tobytes()

    @pytest.mark.parametrize("workers", [1, 2])
    def test_default_band_height_on_wide_frames(self, workers):
        # Three bands of the default height on 640-wide frames, the last one
        # short. Blobs cross both seams and walk 2 px a frame (moving, as
        # stripes of period 2 flip every pixel); the scene drifts by less
        # than the motion threshold in its top rows (blended) and by more in
        # its left columns (moving). The last frame is not wanted, so the
        # loop stops one frame early.
        rows = density._BAND_PIXELS // 640
        height = 2 * rows + 7
        rng = np.random.default_rng(16)
        scene = rng.integers(20, 91, (height, 640)).astype(np.int16)
        stripes = np.where(np.arange(24) % 2 == 0, 160, 255)
        pixels = []
        for i in range(8):
            frame = scene.copy()
            frame[:10] += 3 * i
            frame[:, :12] += 16 * (i % 2)
            for seam in (rows, 2 * rows):
                x = 100 + 2 * i + seam
                frame[seam - 9 : seam + 12, x : x + 24] = stripes[(np.arange(24) + i) % 24]
            frame[-1:, 300 + 2 * i : 320 + 2 * i] = 230
            pixels.append(frame)
        frames = gray_stream(pixels)
        regressor = DensityRegressor(0.7, 0.4, 0.5)
        wanted = [0, 2, 3, 6]
        with banded(None, workers, 640):
            counts, background = _density_loop(frames, regressor, wanted)
        expected_counts, expected_background = reference_density(frames, regressor, wanted)
        assert counts.tolist() == expected_counts
        assert len(set(counts.tolist())) > 1
        assert background.tobytes() == expected_background.tobytes()

    @pytest.mark.parametrize("shape", [(0, 0), (0, 5), (5, 0)])
    def test_empty_frames(self, shape):
        frames = np.zeros((3, *shape), dtype=np.uint8)
        counts, background = _density_loop(frames, DensityRegressor(1.0, 0.0, 2.0), [0, 2])
        assert counts.tolist() == [2, 2]
        assert background.shape == shape


def walking_stream(n, height, width, seed):
    """``n`` frames of a scene that drifts by less than the motion threshold
    (blended), with a bright block walking over it (moving and foreground)."""
    rng = np.random.default_rng(seed)
    scene = rng.integers(40, 90, (height, width))
    pixels = []
    for i in range(n):
        frame = scene + rng.integers(-12, 13, (height, width))
        frame[i % height : i % height + 3, i % width : i % width + 4] = 220
        pixels.append(frame)
    return gray_stream(pixels)


class TestWindowEdges:
    """The loop against ``reference_density`` where its windows begin and
    end. Nine rows in bands of four: the last band is one row, and on one
    worker it shares the worker's temporaries with two full bands."""

    @pytest.mark.parametrize("workers", [1, 2])
    @pytest.mark.parametrize(
        "window, wanted",
        [
            (3, [3]),
            (3, [5]),
            (3, [2, 3, 5, 6, 9]),
            (4, [0]),
            (3, [1, 7]),
            (2, [0, 1, 4, 7, 8]),
            (2, list(range(10))),
        ],
        ids=["first-of-window", "last-of-window", "firsts-and-lasts", "frame-0-alone",
             "window-without-wanted", "2-frame-windows", "2-frame-windows-all"],
    )
    def test_counts_and_background_match_fold(self, window, wanted, workers):
        frames = walking_stream(10, 9, 7, seed=window + len(wanted))
        regressor = DensityRegressor(0.7, 0.4, 0.5, 10.0)
        expected_counts, expected_background = reference_density(frames, regressor, set(wanted))
        with banded(4, workers, 7), windowed(window, frames):
            counts, background = _density_loop(frames, regressor, wanted)
        assert counts.tolist() == expected_counts
        assert len(set(counts.tolist())) > 1 or len(wanted) == 1
        assert background.tobytes() == expected_background.tobytes()

    @pytest.mark.parametrize("window", [2, 3])
    def test_one_row_band_shares_a_worker_with_a_full_band(self, window):
        # Five rows in bands of four on one worker. From frame 1 every pixel
        # flips between 200 and 240, so it moves at every frame, the gate's
        # differences are never 0 and the background stays at frame 0's 0:
        # every pixel is foreground, and the temporaries that a band reuses
        # for its masks hold non-zero bytes. Rows outside the image count as
        # background all the same, so the interior is rows 1-3, columns 1-4.
        pixels = [np.zeros((5, 6))] + [np.full((5, 6), 200 + 40 * (i % 2)) for i in range(1, 7)]
        frames = gray_stream(pixels)
        regressor = DensityRegressor(0.0, 1.0, 0.0)  # the count is the edge
        wanted = list(range(7))
        with banded(4, 1, 6), windowed(window, frames):
            counts, background = _density_loop(frames, regressor, wanted)
        assert counts.tolist() == [0] + [30 - 3 * 4] * 6
        expected_counts, expected_background = reference_density(frames, regressor, set(wanted))
        assert counts.tolist() == expected_counts
        assert background.tobytes() == expected_background.tobytes()


class TestUint8Frames:
    @pytest.mark.parametrize("dtype", [np.float64, np.int16, np.uint16, np.int8, bool])
    def test_other_dtypes_rejected(self, dtype):
        frames = np.zeros((3, 4, 5), dtype=dtype)
        regressor = DensityRegressor(1.0, 0.0, 0.0)
        with pytest.raises(ValueError, match=f"must be uint8, got {np.dtype(dtype)}"):
            estimate_density_counts(frames, regressor, [1])
        with pytest.raises(ValueError, match="must be uint8"):
            _density_loop(frames, regressor, [1])

    @pytest.mark.parametrize(
        "threshold",
        [0.0, -1.0, 0.5, 14.999, 15.0, 15.0001, 254.5, 255.0, 255.5, 256.0,
         math.inf, -math.inf, math.nan],
    )
    def test_motion_gate_matches_float_test_on_every_pair(self, threshold):
        # Every (prev, curr) pair of uint8 values, as two 256x256 frames.
        prev, curr = np.meshgrid(np.arange(256), np.arange(256), indexing="ij")
        static = np.abs(curr.astype(np.float64) - prev.astype(np.float64)) < threshold
        assert np.array_equal(np.abs(curr - prev) < density._motion_gate(threshold), static)
        # The banded loop gates each pair the same way as update_background.
        frames = gray_stream([prev, curr])
        model = BackgroundModel(frames[0].astype(np.float64), motion_threshold=threshold)
        *_, (_, _, background) = density._band(
            frames, (0, 256), [1], model.learning_rate, threshold, 25.0, 2,
            density._temporaries(256, 256, 2),
        )
        expected = update_background(model, frames[0], frames[1]).background
        assert background.tobytes() == expected.tobytes()


class TestBandThreads:
    """Threads of ``ingest._map_threads``; the CPU count is only ever patched down."""

    real_cpus = ingest._usable_cpus()

    def stream(self):
        rng = np.random.default_rng(5)
        return rng.integers(0, 256, (4, 8, 4)).astype(np.uint8)

    @pytest.mark.parametrize("failing_band", [0, 3])
    def test_band_exception_reaches_caller(self, monkeypatch, failing_band):
        # Windows of two frames: the band fails in the first, then in the
        # second window.
        error = RuntimeError("band failed")
        real_band = density._band
        failing_window = None

        def band(frames, rows, *args):
            for window, state in enumerate(real_band(frames, rows, *args)):
                if rows[0] == failing_band * 2 and window == failing_window:
                    raise error
                yield state

        monkeypatch.setattr(density, "_band", band)
        monkeypatch.setattr(density, "_BAND_PIXELS", 2 * 4)  # four bands
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: min(2, self.real_cpus))
        before = threading.active_count()
        frames = self.stream()
        for failing_window in (0, 1):
            with windowed(2, frames), pytest.raises(RuntimeError) as info:
                _density_loop(frames, DensityRegressor(1.0, 0.0, 0.0), [1, 3])
            assert info.value is error
            assert threading.active_count() == before

    @pytest.mark.parametrize("band_rows", [1, 3, 8])
    @pytest.mark.parametrize("cpus", sorted({1, min(2, real_cpus), real_cpus}))
    def test_threads_started_at_most_bands_and_cpus(self, monkeypatch, band_rows, cpus):
        started = []

        class CountingThread(threading.Thread):
            def start(self):
                started.append(self)
                super().start()

        monkeypatch.setattr(ingest.threading, "Thread", CountingThread)
        monkeypatch.setattr(density, "_BAND_PIXELS", band_rows * 4)
        monkeypatch.setattr(ingest, "_usable_cpus", lambda: cpus)
        before = threading.active_count()
        frames = self.stream()
        counts, _ = _density_loop(frames, DensityRegressor(1.0, 0.4, 0.0), [0, 2, 3])
        bands = -(-8 // band_rows)
        # The calling thread is one of the workers.
        assert len(started) == min(bands, cpus) - 1
        assert threading.active_count() == before
        expected_counts, _ = reference_density(frames, DensityRegressor(1.0, 0.4, 0.0), {0, 2, 3})
        assert counts.tolist() == expected_counts


class TestLoopPeak:
    @pytest.mark.parametrize("workers", [1, 2])
    def test_peak_holds_no_full_frame_background(self, workers):
        # tracemalloc sees numpy's buffers, not the mapped frames. At 640x360
        # the loop's peak is its buffers over the bands' rows and halo rows:
        # two float64 ones per band, and per worker a float64 scratch and
        # two uint8 ones a window of frames deep. They come to about 2.9
        # float64 frames on one worker and 3.7 on two. A full-frame
        # background held beside them made the peak 4.9; temporaries held
        # per band, not per worker, 3.85 to 3.89.
        frames = np.random.default_rng(3).integers(0, 256, (12, 360, 640)).astype(np.uint8)
        regressor = DensityRegressor(1.0, 0.4, 0.0)
        expected = _density_loop(frames, regressor, [1, 5, 11])
        with banded(None, workers, 640), mapped(frames) as view:
            tracemalloc.start()
            try:
                counts, background = _density_loop(view, regressor, [1, 5, 11])
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert counts.tolist() == expected[0].tolist()
        assert background.tobytes() == expected[1].tobytes()
        assert peak < 4.4 * background.nbytes
        assert peak <= 3.9 * background.nbytes


class TestReleasedPages:
    """What the density loop, the detections walk and ``run``'s hash release
    of a mapped input (``MADV_DONTNEED``), all through ``ingest._releaser``."""

    def released(self, monkeypatch, frames, order, band_rows, workers, window):
        """Run the loop over ``frames`` in a mapping, in bands of ``band_rows``
        rows on ``workers`` threads and windows of ``window`` frames (None:
        the defaults), check its results against the loop over ``frames`` in
        memory, and return its releases as (group, option, start, length,
        windows the group's bands had all finished).

        A group is the bands one releaser serves, keyed by that releaser:
        the loop makes a group's releaser and then runs its bands and its
        releases on one thread, but one thread may run several groups."""
        regressor = DensityRegressor(1.0, 0.4, 0.0)
        finished = {}  # (group, band) -> windows the band has finished
        released = []
        local = threading.local()  # .group: the group this thread runs now
        real_band, real_releaser = density._band, density._releaser

        def releaser(data):
            local.group = real_releaser(data)
            return local.group

        def band(frames, rows, *args):
            for state in real_band(frames, rows, *args):
                key = (local.group, rows)
                finished[key] = finished.get(key, 0) + 1
                yield state

        class Mapping(mmap.mmap):
            def madvise(self, option, start, length):
                group = local.group
                done = min(n for (g, _), n in finished.items() if g is group)
                released.append((group, option, start, length, done))
                return super().madvise(option, start, length)

        expected = _density_loop(frames, regressor, order)
        monkeypatch.setattr(density, "_band", band)
        monkeypatch.setattr(density, "_releaser", releaser)
        with banded(band_rows, workers, frames.shape[2]), windowed(window, frames), \
                mapped(frames, Mapping) as view:
            counts, background = _density_loop(view, regressor, order)
        assert counts.tolist() == expected[0].tolist()
        assert background.tobytes() == expected[1].tobytes()
        return released

    @staticmethod
    def assert_behind(released, workers, window_bytes):
        """Each of the ``workers`` groups releases whole pages, on from
        where it last stopped, and only before the first frame of the window
        its bands have all just finished (windows of ``window_bytes``)."""
        ends = {}
        for group, option, start, length, done in released:
            assert option == mmap.MADV_DONTNEED
            assert start == ends.get(group, 0)
            assert start % mmap.PAGESIZE == 0 and length % mmap.PAGESIZE == 0 and length > 0
            ends[group] = start + length
            assert start + length <= 16 + (done - 1) * window_bytes
        assert len(ends) == workers

    @pytest.mark.parametrize("workers", [1, 2])
    def test_released_pages_lie_before_the_finished_window(self, monkeypatch, workers):
        # Frames of 3200 bytes, not a whole number of pages, in windows of
        # three frames and bands of 7 rows, 5 bands on each worker or
        # spread over two.
        rng = np.random.default_rng(9)
        frames = rng.integers(0, 256, (31, 32, 100)).astype(np.uint8)
        released = self.released(monkeypatch, frames, [0, 4, 5, 17, 29], 7, workers, 3)
        assert len(released) > 3 * workers
        self.assert_behind(released, workers, 3 * frames[0].size)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_container_window_releases_whole_pages_behind_it(self, monkeypatch, workers):
        # 640x360 frames (56.25 pages) in the default bands and the
        # container's own windows: as many frames as fill
        # ``ingest._GRAY_WINDOW_BYTES`` (9). Each group releases once after
        # each window but the first.
        window = ingest._GRAY_WINDOW_BYTES // (360 * 640)
        frames = np.random.default_rng(11).integers(0, 256, (4 * window + 3, 360, 640))
        frames = frames.astype(np.uint8)
        order = [0, 4, 2 * window + 1, len(frames) - 1]
        released = self.released(monkeypatch, frames, order, None, workers, None)
        self.assert_behind(released, workers, window * frames[0].size)
        windows = -(-len(frames) // window)
        per_group = collections.Counter(group for group, *_ in released)
        assert sorted(per_group.values()) == [windows - 1] * workers

    @pytest.mark.parametrize("caller", ["count_detections", "cli._sha256", "_density_loop"])
    def test_copy_on_write_mapping_is_not_released(self, monkeypatch, caller):
        # Releasing pages of a private mapping would drop the bytes written
        # into it, and the caller would read the file's bytes instead. Each
        # caller runs in windows of a few pages, so a release would come
        # before its last window.
        rng = np.random.default_rng(9)
        if caller == "count_detections":
            counts = rng.integers(0, 6, 300).tolist()
            original, written = (detections_bytes(counts, score=s) for s in (0.9, 0.1))
            monkeypatch.setattr(ingest, "_BLOCK_BYTES", 1 << 9)
            policy = PipelineConfig().routing_policy()

            def run(data):
                series, meta = count_detections(data, policy)
                return series.counts.tolist(), meta.sha256
        elif caller == "cli._sha256":
            original, written = rng.bytes(5 * mmap.PAGESIZE + 7), rng.bytes(5 * mmap.PAGESIZE + 7)
            monkeypatch.setattr(cli, "_GRAY_WINDOW_BYTES", mmap.PAGESIZE)
            run = cli._sha256
        else:
            frames = rng.integers(0, 256, (2, 31, 32, 100)).astype(np.uint8)
            original, written = map(save_gray_frames, frames)
            regressor = DensityRegressor(1.0, 0.4, 0.0)

            def run(data):
                with windowed(3, frames[0]):
                    counts, background = _density_loop(load_gray_frames(data), regressor, [3, 30])
                return counts.tolist(), background.tobytes()
        released = []

        class Mapping(mmap.mmap):
            def madvise(self, option, start, length):
                released.append((start, length))
                return super().madvise(option, start, length)

        with tempfile.TemporaryFile() as fh:
            fh.write(original)
            fh.flush()
            mapping = Mapping(fh.fileno(), 0, access=mmap.ACCESS_COPY)
        mapping[:] = written
        assert run(mapping) == run(written) != run(original)
        assert released == []

    def test_mapping_found_through_the_base_chain(self):
        # Frames in memory, read whole or built, and a mapped view that is
        # not contiguous have no pages to release. A mapped view's release
        # counts from its own first byte: a page boundary of the mapping is
        # reached exactly when the view's offset in the mapping is added.
        frames = np.random.default_rng(9).integers(0, 256, (12, 32, 100)).astype(np.uint8)
        page = mmap.PAGESIZE
        released = []

        class Mapping(mmap.mmap):
            def madvise(self, option, start, length):
                released.append((option, start, length))
                return super().madvise(option, start, length)

        def reach(data, upto):
            """How far one fresh release of ``data`` up to ``upto`` frees its mapping."""
            released.clear()
            ingest._releaser(data)(upto)
            assert all(option == mmap.MADV_DONTNEED for option, *_ in released)
            return sum(length for *_, length in released)

        with mapped(frames, Mapping) as view:
            container = save_gray_frames(frames)
            for data in (frames, load_gray_frames(container), container, view[:, :, :50]):
                assert reach(data, len(container)) == 0
            assert released == []
            assert (reach(view, page - 17), reach(view, page - 16)) == (0, page)
            assert reach(view, view.nbytes) == 16 + frames.size  # the end of the mapping
            offset = 16 + 2 * frames[0].size
            edge = (offset // page + 1) * page  # the first page boundary past it
            assert reach(view[2:], edge - offset - 1) == edge - page
            assert reach(view[2:], edge - offset) == edge
