import numpy as np
import pytest

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
from crowdgate.errors import InputFormatError, RankDeficientError

from conftest import gray_frame


def constant_frame(value, index, shape=(8, 8)):
    return gray_frame(np.full(shape, value, dtype=np.uint8), index)


class TestUpdateBackground:
    def test_static_scene_fixed_point(self):
        model = BackgroundModel.from_first_frame(constant_frame(100, 0))
        out = update_background(model, constant_frame(100, 0), constant_frame(100, 1))
        np.testing.assert_array_equal(out.background, model.background)

    def test_geometric_convergence(self):
        # constant scene v from a zero background: gap shrinks by (1-alpha) per update
        model = BackgroundModel(8, 8, np.zeros((8, 8)), learning_rate=0.05)
        for k in range(1, 30):
            model = update_background(
                model, constant_frame(100, k - 1), constant_frame(100, k)
            )
            expected = 100.0 * (1.0 - 0.95**k)
            np.testing.assert_allclose(model.background, expected, atol=1e-9)

    def test_moving_pixel_never_updates(self):
        bg = np.full((4, 4), 128.0)
        model = BackgroundModel(4, 4, bg, motion_threshold=15.0)
        frames = [
            constant_frame(value, i, (4, 4))
            for i, value in enumerate([0, 255, 0, 255])
        ]
        for prev, curr in zip(frames, frames[1:]):
            model = update_background(model, prev, curr)
        np.testing.assert_array_equal(model.background, bg)

    def test_gated_pixels_bit_identical(self, rng):
        bg = rng.uniform(0, 255, (16, 16))
        model = BackgroundModel(16, 16, bg.copy())
        prev = gray_frame(rng.integers(0, 256, (16, 16)).astype(np.uint8), 0)
        curr = gray_frame(rng.integers(0, 256, (16, 16)).astype(np.uint8), 1)
        out = update_background(model, prev, curr)
        moving = np.abs(
            curr.pixels.astype(float) - prev.pixels.astype(float)
        ) >= model.motion_threshold
        np.testing.assert_array_equal(out.background[moving], bg[moving])
        # static pixels move toward the frame, never past it
        static = ~moving
        low = np.minimum(bg, curr.pixels.astype(float))
        high = np.maximum(bg, curr.pixels.astype(float))
        assert np.all(out.background[static] >= low[static])
        assert np.all(out.background[static] <= high[static])

    def test_dimension_mismatch(self):
        model = BackgroundModel.from_first_frame(constant_frame(0, 0))
        with pytest.raises(ValueError, match="model is"):
            update_background(
                model, constant_frame(0, 0, (4, 4)), constant_frame(0, 1, (4, 4))
            )

    def test_non_consecutive_frames(self):
        model = BackgroundModel.from_first_frame(constant_frame(0, 0))
        with pytest.raises(ValueError, match="consecutive"):
            update_background(model, constant_frame(0, 0), constant_frame(0, 5))


class TestExtractForeground:
    def test_frame_equals_background(self):
        model = BackgroundModel.from_first_frame(constant_frame(77, 0))
        mask = extract_foreground(model, constant_frame(77, 1))
        assert not mask.any()

    def test_single_deviating_pixel(self):
        model = BackgroundModel.from_first_frame(constant_frame(100, 0))
        pixels = np.full((8, 8), 100, dtype=np.uint8)
        pixels[2, 3] = 150
        mask = extract_foreground(model, gray_frame(pixels, 1), fg_threshold=25)
        assert mask.sum() == 1 and mask[2, 3]

    def test_pixelwise_oracle(self, rng):
        bg = rng.uniform(0, 255, (12, 12))
        model = BackgroundModel(12, 12, bg)
        frame = gray_frame(rng.integers(0, 256, (12, 12)).astype(np.uint8), 0)
        mask = extract_foreground(model, frame, fg_threshold=25)
        for r in range(12):
            for c in range(12):
                assert mask[r, c] == (abs(float(frame.pixels[r, c]) - bg[r, c]) > 25)


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

    def test_predict_rounds_half_up(self):
        assert predict_count(DensityRegressor(0.0, 0.0, 2.5), ForegroundFeatures(0, 0, 0)) == 3

    def test_json_round_trip(self):
        reg = DensityRegressor(0.0123, -0.5, 2.75, 30.0)
        assert regressor_from_json(regressor_to_json(reg)) == reg


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


class TestEstimateDensityCounts:
    def test_selected_frames_only(self):
        frames = [constant_frame(50, i) for i in range(5)]
        reg = DensityRegressor(1.0, 0.0, 4.0)
        counts = estimate_density_counts(frames, reg, [0, 3])
        # static scene: background equals the frames, no foreground anywhere
        assert counts == {0: 4, 3: 4}

    def test_out_of_range_frame(self):
        frames = [constant_frame(50, 0)]
        with pytest.raises(ValueError, match="outside"):
            estimate_density_counts(frames, DensityRegressor(1, 0, 0), [2])
