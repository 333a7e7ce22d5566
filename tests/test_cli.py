import json
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from crowdgate.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_INPUT_ERROR,
    EXIT_STAGE_ERROR,
    PipelineConfig,
    main,
    run_pipeline,
)
from crowdgate.counting import read_count_series
from crowdgate.density import DensityRegressor, regressor_to_json
from crowdgate.errors import StageError
from crowdgate.ingest import GrayFrame, save_gray_frames

from conftest import detections_bytes


@pytest.fixture
def runner():
    return CliRunner()


def write_detections(path, counts, fps=9):
    Path(path).write_bytes(detections_bytes(counts, fps=fps))
    return str(path)


def write_density_inputs(tmp_path, n_frames):
    """A static gray stream (zero foreground) and a model predicting its intercept, 24."""
    frames = [
        GrayFrame(8, 8, np.full((8, 8), 60, dtype=np.uint8), i) for i in range(n_frames)
    ]
    gray = tmp_path / "frames.cgry"
    gray.write_bytes(save_gray_frames(frames))
    model = tmp_path / "model.json"
    model.write_text(regressor_to_json(DensityRegressor(0.0, 0.0, 24.0)))
    return str(gray), str(model)


def run_cli(runner, args):
    result = runner.invoke(main, args, catch_exceptions=False)
    return result


class TestIngestCommand:
    def test_summary_and_artifacts(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 2, 4])
        result = run_cli(runner, ["ingest", det, "--out", str(tmp_path / "out")])
        assert result.exit_code == 0
        assert "3 frame(s)" in result.output
        meta = json.loads((tmp_path / "out" / "stream_meta.json").read_text())
        assert meta["fps"] == 9 and meta["frame_count"] == 3

    def test_malformed_input_exit_2(self, runner, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text('{"fps":30,"source_id":"s"}\nnot json\n')
        result = run_cli(runner, ["ingest", str(bad), "--out", str(tmp_path / "o")])
        assert result.exit_code == EXIT_INPUT_ERROR


class TestCountCommand:
    def test_writes_raw_counts(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [2, 5, 1])
        result = run_cli(runner, ["count", det, "--out", str(tmp_path / "o")])
        assert result.exit_code == 0
        series = read_count_series((tmp_path / "o" / "raw_counts.csv").read_bytes())
        assert series.counts.tolist() == [2, 5, 1]

    def test_over_ceiling_without_density_exit_4(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 30])
        result = run_cli(
            runner, ["count", det, "--out", str(tmp_path / "o"), "--ceiling", "25"]
        )
        assert result.exit_code == EXIT_STAGE_ERROR
        assert "1" in result.output  # names the offending frame

    def test_bad_config_exit_3(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [1])
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"count_ceiling": 0}')
        result = run_cli(
            runner, ["count", det, "--out", str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert result.exit_code == EXIT_CONFIG_ERROR


class TestSynthCommand:
    def test_reproducible(self, runner, tmp_path):
        for out in ("a", "b"):
            result = run_cli(
                runner,
                [
                    "synth",
                    "--profile", "50x5,30x12",
                    "--seed", "7",
                    "--out", str(tmp_path / out),
                ],
            )
            assert result.exit_code == 0
        assert (tmp_path / "a" / "jittered.csv").read_bytes() == (
            tmp_path / "b" / "jittered.csv"
        ).read_bytes()
        truth = read_count_series((tmp_path / "a" / "truth.csv").read_bytes())
        assert len(truth) == 80

    def test_bad_profile_exit_3(self, runner, tmp_path):
        result = run_cli(
            runner,
            ["synth", "--profile", "zzz", "--seed", "1", "--out", str(tmp_path / "o")],
        )
        assert result.exit_code == EXIT_CONFIG_ERROR


class TestPipelineRun:
    def pipeline_args(self, det, out):
        return [
            "run", det,
            "--out", str(out),
            "--threshold", "5",
        ]

    def test_golden_artifacts(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [7, 7, 7, 9, 7, 7, 7], fps=9)
        result = run_cli(runner, self.pipeline_args(det, tmp_path / "out"))
        assert result.exit_code == 0
        out = tmp_path / "out"
        for name in (
            "raw_counts.csv",
            "smoothed_counts.csv",
            "segments.json",
            "cutlist.txt",
            "run_manifest.json",
        ):
            assert (out / name).exists(), name
        smoothed = read_count_series((out / "smoothed_counts.csv").read_bytes())
        assert smoothed.counts.tolist() == [7] * 7
        segments = json.loads((out / "segments.json").read_text())
        assert len(segments) == 1
        assert segments[0]["start_frame"] == 0 and segments[0]["end_frame"] == 6

    def test_rerun_byte_identical(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [7, 7, 7, 9, 7, 7, 7], fps=9)
        for out in ("o1", "o2"):
            run_cli(runner, self.pipeline_args(det, tmp_path / out))
        for name in ("raw_counts.csv", "smoothed_counts.csv", "segments.json", "cutlist.txt", "run_manifest.json"):
            assert (tmp_path / "o1" / name).read_bytes() == (
                tmp_path / "o2" / name
            ).read_bytes(), name

    def test_composition_matches_run(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [2, 2, 9, 9, 9, 9, 2, 2, 2], fps=9)
        run_cli(runner, self.pipeline_args(det, tmp_path / "whole"))

        staged = tmp_path / "staged"
        run_cli(runner, ["count", det, "--out", str(staged)])
        run_cli(
            runner,
            ["smooth", str(staged / "raw_counts.csv"), "--out", str(staged)],
        )
        run_cli(
            runner,
            [
                "segment", str(staged / "smoothed_counts.csv"),
                "--out", str(staged),
                "--threshold", "5",
                "--source", "cam1",
            ],
        )
        for name in ("raw_counts.csv", "smoothed_counts.csv", "segments.json", "cutlist.txt"):
            assert (staged / name).read_bytes() == (
                tmp_path / "whole" / name
            ).read_bytes(), name

    def test_over_ceiling_needs_gray_frames(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 3], fps=9)
        result = run_cli(
            runner,
            ["run", det, "--out", str(tmp_path / "o"), "--threshold", "5", "--ceiling", "25"],
        )
        assert result.exit_code == EXIT_STAGE_ERROR
        assert "1" in result.output

    def test_density_route_through_pipeline(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 3], fps=9)
        gray, model = write_density_inputs(tmp_path, 3)
        result = run_cli(
            runner,
            [
                "run", det,
                "--out", str(tmp_path / "o"),
                "--threshold", "5",
                "--gray", gray,
                "--model", model,
            ],
        )
        assert result.exit_code == 0
        raw = read_count_series((tmp_path / "o" / "raw_counts.csv").read_bytes())
        assert raw.counts.tolist() == [3, 24, 3]
        assert raw.provenance[1] == "Density"

    def test_gray_frames_not_kept_on_config(self, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 3], fps=9)
        gray, model = write_density_inputs(tmp_path, 3)
        config = PipelineConfig(abnormal_threshold=5, density_model_path=model)
        before = dict(vars(config))
        run_pipeline(det, config, tmp_path / "o1", gray_frames_path=gray)
        assert vars(config) == before
        # a later run without a container must not reuse the first run's frames
        with pytest.raises(StageError, match="no gray frame container"):
            run_pipeline(det, config, tmp_path / "o2")

    def test_missing_threshold_exit_3(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [1, 2])
        result = run_cli(runner, ["run", det, "--out", str(tmp_path / "o")])
        assert result.exit_code == EXIT_CONFIG_ERROR

    def test_flags_override_config_file(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [7, 7, 7, 9, 7, 7, 7], fps=9)
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"abnormal_threshold": 100}')
        result = run_cli(
            runner,
            [
                "run", det,
                "--out", str(tmp_path / "o"),
                "--config", str(cfg),
                "--threshold", "5",
            ],
        )
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
        assert manifest["effective_config"]["abnormal_threshold"] == 5


class TestDensityCommands:
    def test_fit_then_predict(self, runner, tmp_path):
        calib = tmp_path / "calib.csv"
        rows = ["frame_index,area,edge,true_count"]
        for i, (area, edge) in enumerate([(100, 20), (400, 50), (900, 80), (1600, 110)]):
            rows.append(f"{i},{area},{edge},{round(0.01 * area + 0.1 * edge + 2)}")
        calib.write_text("\n".join(rows) + "\n")
        model = tmp_path / "model.json"
        result = run_cli(runner, ["density-fit", str(calib), "--out", str(model)])
        assert result.exit_code == 0
        assert model.exists()

        frames = [
            GrayFrame(8, 8, np.full((8, 8), 60, dtype=np.uint8), i) for i in range(2)
        ]
        gray = tmp_path / "g.cgry"
        gray.write_bytes(save_gray_frames(frames))
        out_csv = tmp_path / "pred.csv"
        result = run_cli(
            runner, ["density-predict", str(gray), str(model), "--out", str(out_csv)]
        )
        assert result.exit_code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "frame_index,count"
        assert len(lines) == 3


class TestEvalCommand:
    def test_report_matches_library(self, runner, tmp_path):
        run_cli(
            runner,
            ["synth", "--profile", "100x5", "--seed", "3", "--out", str(tmp_path)],
        )
        result = run_cli(
            runner,
            [
                "smooth", str(tmp_path / "jittered.csv"),
                "--out", str(tmp_path),
            ],
        )
        assert result.exit_code == 0
        result = run_cli(
            runner,
            [
                "eval",
                "--truth", str(tmp_path / "truth.csv"),
                "--raw", str(tmp_path / "jittered.csv"),
                "--smoothed", str(tmp_path / "smoothed_counts.csv"),
                "--out", str(tmp_path / "eval"),
            ],
        )
        assert result.exit_code == 0
        report = json.loads((tmp_path / "eval" / "eval_report.json").read_text())

        from crowdgate.evaluation import ap_d

        truth = read_count_series((tmp_path / "truth.csv").read_bytes())
        raw = read_count_series((tmp_path / "jittered.csv").read_bytes())
        assert report["ap_d"]["raw"] == ap_d(raw, truth)
        assert "smoothed" in report["ap_d"]
        assert (tmp_path / "eval" / "eval_report.txt").read_text().startswith("method")
