import gc
import hashlib
import json
import mmap
import os
import re
import struct
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from crowdgate import cli, ingest
from crowdgate.cli import (
    EXIT_CONFIG_ERROR,
    EXIT_INPUT_ERROR,
    EXIT_STAGE_ERROR,
    PipelineConfig,
    main,
    run_pipeline,
    stage_count,
    stage_eval,
    stage_segment,
    stage_smooth,
)
from crowdgate.counting import CODE_DENSITY, read_count_series, write_count_series
from crowdgate.density import (
    DensityRegressor,
    estimate_density_counts,
    fit_regressor,
    read_calibration_csv,
    regressor_to_json,
)
from crowdgate.errors import ConfigError, InputFormatError, RoutingError, StageError
from crowdgate.ingest import load_gray_frames, parse_detections, save_gray_frames

from conftest import detections_bytes, parsed_in, serialize_detections, series


@pytest.fixture
def runner():
    return CliRunner()


def write_detections(path, counts, fps=9):
    Path(path).write_bytes(detections_bytes(counts, fps=fps))
    return str(path)


def write_density_inputs(tmp_path, n_frames):
    """A static gray stream (zero foreground) and a model predicting its intercept, 24."""
    gray = tmp_path / "frames.cgry"
    gray.write_bytes(save_gray_frames(np.full((n_frames, 8, 8), 60, dtype=np.uint8)))
    model = tmp_path / "model.json"
    model.write_text(regressor_to_json(DensityRegressor(0.0, 0.0, 24.0)))
    return str(gray), str(model)


def spy_on_sha256(monkeypatch) -> list:
    """A list that gets, for each SHA-256 digest made from here on, the
    list of chunks fed to it."""
    sha256 = hashlib.sha256
    fed = []

    class Spy:
        def __init__(self, data=b""):
            self.chunks = [bytes(data)]
            fed.append(self.chunks)
            self.real = sha256(data)

        def update(self, data):
            self.chunks.append(bytes(data))
            self.real.update(data)

        def hexdigest(self):
            return self.real.hexdigest()

    monkeypatch.setattr(hashlib, "sha256", Spy)
    return fed


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

    @staticmethod
    def many_windows(n=300):
        """A stream of records in every form: canonical, spaced and with
        17-digit floats, with gaps, for windows of three 300-byte blocks."""
        rng = np.random.default_rng(3)
        lines, index = [json.dumps({"fps": "30000/1001", "source_id": "cam é"})], 0
        for k in range(n):
            boxes = [
                {"x": float(x), "y": 2.5, "w": 3.0, "h": 4.25, "score": 0.5, "class_id": k % 3}
                for x in rng.random(int(rng.integers(0, 5))) * 100
            ]
            record = {"frame_index": index, "timestamp_ms": 33 * index, "boxes": boxes}
            separators = (", ", ": ") if k % 50 == 7 else (",", ":")
            lines.append(json.dumps(record, separators=separators))
            index += int(rng.integers(1, 3))
        return ("\n".join(lines) + "\n").encode()

    def test_normalized_copy_of_many_windows(self, runner, tmp_path):
        # rendered a block at a time, the copy is the whole-stream serialization
        data = self.many_windows()
        det = tmp_path / "d.jsonl"
        det.write_bytes(data)
        with parsed_in(300, 2, 3):
            result = run_cli(runner, ["ingest", str(det), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        assert len(data) > 10 * 3 * 300
        written = (tmp_path / "o" / "normalized.jsonl").read_bytes()
        assert written == serialize_detections(*parse_detections(data))
        meta = json.loads((tmp_path / "o" / "stream_meta.json").read_text())
        assert meta["input_sha256"] == hashlib.sha256(data).hexdigest()

    def test_input_hashed_once_while_walked(self, monkeypatch, runner, tmp_path):
        # each byte is fed to SHA-256 once, a window at a time as the walk
        # reads it, not in a second pass over the input
        data = self.many_windows()
        det = tmp_path / "d.jsonl"
        det.write_bytes(data)
        fed = spy_on_sha256(monkeypatch)
        with parsed_in(300, 2, 3):
            result = run_cli(runner, ["ingest", str(det), "--out", str(tmp_path / "o")])
        assert result.exit_code == 0, result.output
        [chunks] = fed
        assert b"".join(chunks) == data
        assert max(map(len, chunks)) < len(data) / 10


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

    def test_stage_count_without_model_names_routed_frames(self):
        det = detections_bytes([3, 30, 3, 40], fps=9)
        with pytest.raises(RoutingError, match="over-ceiling frames: 1, 3$") as info:
            stage_count(det, PipelineConfig(), gray_frames=None, regressor=None)
        assert info.value.frame_indices == [1, 3]

    def test_bad_config_exit_3(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [1])
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"count_ceiling": 0}')
        result = run_cli(
            runner, ["count", det, "--out", str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert result.exit_code == EXIT_CONFIG_ERROR


    @pytest.mark.parametrize(
        "data,line",
        [
            (b'{"fps":9}\n{"frame_index":0,"timestamp_ms":0,"boxes":5}\n', 2),
            (b'{"fps":9}\n[1,2]\n', 2),
            (b"5\n", 1),
            (b'{"fps":9}\n{"frame_index":null,"timestamp_ms":0,"boxes":[]}\n', 2),
            (b'{"fps":9}\n\n{"frame_index":"abc","timestamp_ms":0,"boxes":[]}\n', 3),
            (b'{"fps":9}\n{"frame_index":0,"timestamp_ms":0,"boxes":[]}\n{"\xff":1}\n', 3),
        ],
        ids=["boxes-not-array", "record-not-object", "header-not-object",
             "null-index", "string-index", "invalid-utf8"],
    )
    def test_malformed_detections_exit_2(self, runner, tmp_path, data, line):
        det = tmp_path / "d.jsonl"
        det.write_bytes(data)
        result = run_cli(runner, ["count", str(det), "--out", str(tmp_path / "o")])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert f"error: line {line}: " in result.output

    @pytest.mark.parametrize(
        "config",
        [
            {"count_ceiling": "abc"},
            {"count_ceiling": True},
            {"smoothing_divisor": 2.5},
            {"abnormal_threshold": "5"},
            {"min_score": "0.5"},
            {"tie_break": 3},
            {"density_model_path": 7},
        ],
    )
    def test_config_value_types_exit_3(self, runner, tmp_path, config):
        det = write_detections(tmp_path / "d.jsonl", [1])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = run_cli(
            runner, ["count", det, "--out", str(tmp_path / "o"), "--config", str(cfg)]
        )
        assert result.exit_code == EXIT_CONFIG_ERROR
        assert f"error: {next(iter(config))} must be" in result.output


SYNTH = ["synth", "--profile", "10x5", "--seed", "1"]


@pytest.mark.parametrize(
    "args,config",
    [
        (["smooth", "{csv}", "--fps", "0"], None),
        (SYNTH + ["--fps", "0"], None),
        (["eval", "--truth", "{csv}", "--raw", "{csv}", "--smoothed", "{csv}", "--fps", "0"],
         None),
        (["smooth", "{csv}"], {"fps_override": 0}),
        (["smooth", "{csv}"], {"fps_override": "abc"}),
        (["run", "{det}", "--threshold", "5"], {"fps_override": "abc"}),
        (["run", "{det}", "--threshold", "5", "--fps", "0"], None),
        (SYNTH + ["-p", "2"], None),
        (SYNTH + ["--magnitude", "0"], None),
        (["synth", "--profile", "100x-5", "--seed", "1"], None),
        (["synth", "--profile", "0x5", "--seed", "1"], None),
        (["synth", "--profile", "10x5", "--seed", "-1"], None),
    ],
    ids=["smooth-fps-flag", "synth-fps-flag", "eval-fps-flag", "config-fps-0",
         "config-fps-abc", "run-config-fps", "run-fps-flag", "synth-probability",
         "synth-magnitude", "synth-negative-count", "synth-empty-run", "synth-seed"],
)
def test_bad_settings_exit_3(runner, tmp_path, args, config):
    # a bad setting is a config error, and nothing is written
    csv = tmp_path / "c.csv"
    csv.write_bytes(write_count_series(series([1, 2, 3])))
    det = write_detections(tmp_path / "d.jsonl", [1, 2, 3])
    args = [arg.format(csv=csv, det=det) for arg in args] + ["--out", str(tmp_path / "o")]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        args += ["--config", str(cfg)]
    result = run_cli(runner, args)
    assert result.exit_code == EXIT_CONFIG_ERROR, result.output
    assert result.output.startswith("error: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "text",
    [b'{"count_ceiling": 3,}', b'{"tie_break": "prefer-\xfflast-value"}'],
    ids=["json-syntax", "not-utf8"],
)
def test_unreadable_config_names_its_file_exit_3(runner, tmp_path, text):
    csv = tmp_path / "c.csv"
    csv.write_bytes(write_count_series(series([1, 2, 3])))
    cfg = tmp_path / "cfg.json"
    cfg.write_bytes(text)
    result = run_cli(
        runner, ["smooth", str(csv), "--config", str(cfg), "--out", str(tmp_path / "o")]
    )
    assert result.exit_code == EXIT_CONFIG_ERROR, result.output
    assert result.output.startswith(f"error: cannot read config {cfg}: ")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "fps,message",
    [
        (29.97, "fps_override must be a Fraction or null, got 29.97"),
        ("30", "fps_override must be a Fraction or null, got '30'"),
        (Fraction(0), "fps_override must be > 0, got 0"),
        (Fraction(-30000, 1001), "fps_override must be > 0, got -30000/1001"),
    ],
    ids=["float", "string", "zero", "negative"],
)
def test_library_fps_override_checked_before_any_write(tmp_path, fps, message):
    # The CLI always passes a Fraction; a library caller's float used to
    # fail only once four artifacts were written, while the manifest was made.
    det = write_detections(tmp_path / "d.jsonl", [1, 2, 3])
    with pytest.raises(ConfigError) as info:
        run_pipeline(det, PipelineConfig(fps_override=fps, abnormal_threshold=2), tmp_path / "o")
    assert str(info.value) == message
    assert cli._exit_code_for(info.value) == EXIT_CONFIG_ERROR
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "args,message",
    [
        (["--profile", "10x99999999999999999999"], "count 99999999999999999999 exceeds int64"),
        (["--profile", "10x5", "--magnitude", "99999999999999999999"],
         "max_spike_magnitude 99999999999999999999 exceeds int64"),
        (["--profile", "10x9223372036854775806", "-p", "1"],
         "count 9223372036854775806 plus 2 overlapping spike(s) of up to 3 exceeds int64"),
    ],
    ids=["count", "magnitude", "count-plus-spikes"],
)
def test_synth_values_beyond_int64_exit_3(runner, tmp_path, args, message):
    result = run_cli(runner, ["synth", "--seed", "1", *args, "--out", str(tmp_path / "o")])
    assert result.exit_code == EXIT_CONFIG_ERROR
    assert result.output == f"error: {message}\n"
    assert not (tmp_path / "o").exists()


def test_stage_count_density_needs_uint8_frames():
    # the density loop's motion gate holds only for uint8 frames; any other
    # dtype is a stage error (exit 4)
    frames = np.zeros((3, 4, 5), dtype=np.float64)
    with pytest.raises(ValueError, match="must be uint8") as info:
        stage_count(
            detections_bytes([3, 30, 3]), PipelineConfig(), frames, DensityRegressor(1.0, 0.0, 0.0)
        )
    assert cli._exit_code_for(info.value) == EXIT_STAGE_ERROR


def test_stage_count_calls_parse_and_count_through_module(monkeypatch):
    # stage_count must look its parse-and-count step, count_detections, up
    # on crowdgate.cli at call time, so that the benchmark's tracer can wrap
    # it there. The step gets the stream as stage_count got it and returns
    # the counts and the stream's metadata, with its hash, which
    # stage_count hands on.
    calls = []
    original = cli.count_detections

    def spy(*args):
        result = original(*args)
        calls.append((args, result))
        return result

    monkeypatch.setattr(cli, "count_detections", spy)
    data = detections_bytes([3, 0, 2])
    series, _, meta = stage_count(data, PipelineConfig())
    [((stream, policy), (counted, counted_meta))] = calls
    assert stream is data and policy == PipelineConfig().routing_policy()
    assert counted.counts.tolist() == series.counts.tolist() == [3, 0, 2]
    assert counted_meta is meta and meta.frame_count == 3
    assert meta.sha256 == hashlib.sha256(data).hexdigest()


def test_stages_call_csv_reader_and_writer_through_module(monkeypatch):
    # the stages must look read_count_series and write_count_series up on
    # crowdgate.cli at call time: the benchmark's tracer wraps them there,
    # passes the CSV bytes on, and counts len(result) as rows read
    calls = []

    def spy(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((name, args, result))
            return result

        monkeypatch.setattr(cli, name, wrapper)

    spy("read_count_series")
    spy("write_count_series")
    config = PipelineConfig(abnormal_threshold=2)
    _, raw_csv, _ = stage_count(detections_bytes([3, 0, 2]), config)
    _, smoothed_csv, _ = stage_smooth(raw_csv, config)
    stage_segment(smoothed_csv, config, source="s")
    stage_eval(raw_csv, raw_csv, smoothed_csv)
    assert [name for name, _, _ in calls] == [
        "write_count_series",  # stage_count
        "read_count_series",  # stage_smooth
        "write_count_series",
        "read_count_series",  # stage_segment
        "read_count_series",  # stage_eval: truth, raw, smoothed
        "read_count_series",
        "read_count_series",
    ]
    reads = [args[0] for name, args, _ in calls if name == "read_count_series"]
    assert reads == [raw_csv, smoothed_csv, raw_csv, raw_csv, smoothed_csv]
    assert all(type(data) is bytes for data in reads)
    assert [len(result) for name, _, result in calls if name == "read_count_series"] == [3] * 5
    assert [result for name, _, result in calls if name == "write_count_series"] == [
        raw_csv,
        smoothed_csv,
    ]


def test_run_hands_series_between_stages(monkeypatch, tmp_path):
    # with --truth, run_pipeline renders the raw and smoothed CSVs and reads
    # only the truth CSV, mapped, which it checks before writing any: the
    # stages get the series themselves, not the bytes
    calls = []

    def spy(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((name, args, result))
            return result

        monkeypatch.setattr(cli, name, wrapper)

    spy("read_count_series")
    spy("write_count_series")
    counts = [2, 2, 9, 9, 9, 9, 2, 2, 2]
    det = write_detections(tmp_path / "d.jsonl", counts)
    truth = tmp_path / "truth.csv"
    truth.write_bytes(write_count_series(series(counts, fps=9)))
    out = tmp_path / "o"
    run_pipeline(det, PipelineConfig(abnormal_threshold=5), out, truth_path=truth)
    assert [name for name, _, _ in calls] == [
        "write_count_series", "read_count_series", "write_count_series"
    ]
    (mapping,) = calls[1][1]
    assert isinstance(mapping, mmap.mmap) and mapping[:] == truth.read_bytes()
    assert [result for _, _, result in calls[::2]] == [
        (out / "raw_counts.csv").read_bytes(),
        (out / "smoothed_counts.csv").read_bytes(),
    ]


def test_run_loads_density_inputs_through_module(monkeypatch, tmp_path):
    # run_pipeline must look load_gray_frames, regressor_from_json and
    # estimate_density_counts up on crowdgate.cli at call time: the
    # benchmark's tracer wraps them there and counts len(frames) as frames
    # scanned
    calls = []

    def spy(name):
        original = getattr(cli, name)

        def wrapper(*args, **kwargs):
            result = original(*args, **kwargs)
            calls.append((name, args, result))
            return result

        monkeypatch.setattr(cli, name, wrapper)

    for name in ("load_gray_frames", "regressor_from_json", "estimate_density_counts"):
        spy(name)
    det = write_detections(tmp_path / "d.jsonl", [3, 30, 3], fps=9)
    gray, model = write_density_inputs(tmp_path, 3)
    config = PipelineConfig(abnormal_threshold=5, density_model_path=model)
    run_pipeline(det, config, tmp_path / "o", gray_frames_path=gray)
    assert [name for name, _, _ in calls] == [
        "regressor_from_json", "load_gray_frames", "estimate_density_counts"
    ]
    (_, (model_bytes,), regressor), (_, _, frames), (_, density_args, counts) = calls
    assert model_bytes == Path(model).read_bytes()
    assert frames.shape == (3, 8, 8) and frames.dtype == np.uint8
    assert density_args[0] is frames and density_args[1] is regressor
    assert len(density_args[0]) == 3 and counts.tolist() == [24]


def write_moving_gray(path, n_frames):
    """Random frames: every frame has foreground, so density counts vary."""
    frames = np.random.default_rng(5).integers(0, 256, (n_frames, 12, 16), dtype=np.uint8)
    path.write_bytes(save_gray_frames(frames))
    return str(path)


def write_calibration(path):
    rows = ["frame_index,area,edge,true_count"]
    for i, (area, edge) in enumerate([(100, 20), (400, 50), (900, 80), (1600, 110)]):
        rows.append(f"{i},{area},{edge},{round(0.01 * area + 0.1 * edge + 2)}")
    path.write_text("\n".join(rows) + "\n")
    return str(path)


def test_run_hashes_each_input_once(monkeypatch, runner, tmp_path):
    # raw_counts.csv reuses the manifest's detections hash, and the gray
    # container is hashed once, on a thread
    fed = spy_on_sha256(monkeypatch)
    counts = [3, 30, 3, 30, 3, 3]
    det = write_detections(tmp_path / "d.jsonl", counts)
    gray = write_moving_gray(tmp_path / "g.cgry", len(counts))
    calibration = write_calibration(tmp_path / "calib.csv")
    truth = tmp_path / "truth.csv"
    truth.write_bytes(write_count_series(series(counts, fps=9)))
    out = tmp_path / "o"
    result = run_cli(
        runner,
        ["run", det, "--out", str(out), "--threshold", "5", "--gray", gray,
         "--calibration", calibration, "--truth", str(truth)],
    )
    assert result.exit_code == 0, result.output
    inputs = [Path(path).read_bytes() for path in (det, gray, calibration, truth)]
    written = ("density_model.json", "raw_counts.csv", "smoothed_counts.csv")
    expected = inputs + [(out / name).read_bytes() for name in written]
    assert sorted(b"".join(chunks) for chunks in fed) == sorted(expected)


def _gray_args(command, tmp_path, gray):
    """``command``'s arguments with ``gray`` as its gray container."""
    _, model = write_density_inputs(tmp_path, 3)
    out = str(tmp_path / "o")
    if command == "density-predict":
        return ["density-predict", gray, model, "--out", out + "/pred.csv"]
    det = write_detections(tmp_path / "d.jsonl", [3, 30, 3])
    args = [command, det, "--out", out, "--gray", gray, "--model", model]
    return args + ["--threshold", "5"] if command == "run" else args


class TestGrayContainerPath:
    """A non-empty regular file is mapped; anything else is read whole, as before."""

    @pytest.mark.parametrize("command", ["run", "count", "density-predict"])
    @pytest.mark.parametrize(
        "payload, message",
        [
            (b"", "gray container shorter than its 16-byte header"),
            (b"CGRY", "gray container shorter than its 16-byte header"),
            (b"XGRY" + bytes(12), "bad magic b'XGRY', expected b'CGRY'"),
            (
                save_gray_frames(np.full((3, 8, 8), 60, dtype=np.uint8))[:80],
                "truncated payload: header declares 3 frames of 64 bytes (208 total), "
                "got 80 bytes",
            ),
        ],
        ids=["empty", "4-bytes", "bad-magic", "truncated"],
    )
    def test_rejected_file_exit_2(self, runner, tmp_path, command, payload, message):
        gray = tmp_path / "g.cgry"
        gray.write_bytes(payload)
        result = run_cli(runner, _gray_args(command, tmp_path, str(gray)))
        assert result.exit_code == EXIT_INPUT_ERROR
        assert f"error: {message}" in result.output
        assert not (tmp_path / "o" / "raw_counts.csv").exists()

    @pytest.mark.parametrize("command", ["count", "run"])
    @pytest.mark.parametrize("n_frames, beyond", [(4, [4, 5]), (0, [2, 3, 4, 5])])
    def test_routed_frames_beyond_the_container_exit_2(
        self, runner, tmp_path, command, n_frames, beyond
    ):
        # Frames 2-5 of six are over the ceiling; the container is too short.
        det = write_detections(tmp_path / "d.jsonl", [3, 3, 30, 30, 30, 30])
        gray = tmp_path / "g.cgry"
        gray.write_bytes(struct.pack("<4sIII", b"CGRY", 8, 8, n_frames) + bytes(64 * n_frames))
        _, model = write_density_inputs(tmp_path, 1)
        out = tmp_path / "o"
        args = [command, det, "--out", str(out), "--gray", str(gray), "--model", model]
        result = run_cli(runner, args + (["--threshold", "5"] if command == "run" else []))
        assert result.exit_code == EXIT_INPUT_ERROR, result.output
        message = f"gray container holds {n_frames} frame(s); {len(beyond)} routed frame(s)"
        assert f"error: {message} beyond it: {beyond} (in {gray})\n" in result.output
        assert not out.exists()

    def test_predict_on_empty_container_exit_2(self, runner, tmp_path):
        gray = tmp_path / "g.cgry"
        gray.write_bytes(struct.pack("<4sIII", b"CGRY", 8, 8, 0))
        _, model = write_density_inputs(tmp_path, 1)
        out = tmp_path / "o" / "pred.csv"
        result = run_cli(runner, ["density-predict", str(gray), model, "--out", str(out)])
        assert result.exit_code == EXIT_INPUT_ERROR, result.output
        assert f"error: gray container holds 0 frame(s) (in {gray})\n" in result.output
        assert not out.parent.exists()

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    def test_fifo_is_read_whole(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 3])
        gray, model = write_density_inputs(tmp_path, 3)
        data = Path(gray).read_bytes()
        fifo = tmp_path / "g.fifo"
        os.mkfifo(fifo)
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            result = run_cli(
                runner,
                ["run", det, "--out", str(tmp_path / "o"), "--threshold", "5",
                 "--gray", str(fifo), "--model", model],
            )
        finally:
            if writer.is_alive():  # the run failed before opening the FIFO
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=60)
        assert result.exit_code == 0, result.output
        manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
        assert manifest["input_sha256"]["gray_frames"] == hashlib.sha256(data).hexdigest()
        raw = read_count_series((tmp_path / "o" / "raw_counts.csv").read_bytes())
        assert raw.counts.tolist() == [3, 24, 3]

    @pytest.mark.parametrize("kind", ["directory", "missing"])
    def test_unreadable_path_exit_2(self, runner, tmp_path, kind):
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 3])
        _, model = write_density_inputs(tmp_path, 3)
        gray = tmp_path / "g.cgry"
        if kind == "directory":
            gray.mkdir()
        config = PipelineConfig(abnormal_threshold=5, density_model_path=model)
        with pytest.raises(InputFormatError, match=f"cannot read {gray}: ") as info:
            run_pipeline(det, config, tmp_path / "o", gray_frames_path=gray)
        assert cli._exit_code_for(info.value) == EXIT_INPUT_ERROR
        assert not (tmp_path / "o" / "raw_counts.csv").exists()

    def test_manifest_hash_is_the_file_hash(self, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 30, 3, 3, 3])
        gray = write_moving_gray(tmp_path / "g.cgry", 6)
        _, model = write_density_inputs(tmp_path, 6)
        config = PipelineConfig(abnormal_threshold=5, density_model_path=model)
        manifest = run_pipeline(det, config, tmp_path / "o", gray_frames_path=gray)
        expected = hashlib.sha256(Path(gray).read_bytes()).hexdigest()
        assert manifest["input_sha256"]["gray_frames"] == expected

    def test_mapped_outputs_match_copied(self, runner, tmp_path):
        # count --gray and density-predict map the container; their output
        # is what the stage functions give on a copy of its bytes
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 30, 3, 30, 3])
        gray = write_moving_gray(tmp_path / "g.cgry", 6)
        regressor = DensityRegressor(0.01, 0.1, 2.0)
        model = tmp_path / "model.json"
        model.write_text(regressor_to_json(regressor))
        frames = load_gray_frames(Path(gray).read_bytes())
        counts = estimate_density_counts(frames, regressor, range(6)).tolist()
        assert len(set(counts)) > 1

        result = run_cli(
            runner,
            ["count", det, "--out", str(tmp_path / "c"), "--gray", gray, "--model", str(model)],
        )
        assert result.exit_code == 0, result.output
        _, expected, _ = stage_count(
            Path(det).read_bytes(), PipelineConfig(), gray_frames=frames, regressor=regressor
        )
        assert (tmp_path / "c" / "raw_counts.csv").read_bytes() == expected

        pred = tmp_path / "pred.csv"
        result = run_cli(runner, ["density-predict", gray, str(model), "--out", str(pred)])
        assert result.exit_code == 0, result.output
        lines = ["frame_index,count"] + [f"{i},{count}" for i, count in enumerate(counts)]
        assert pred.read_text() == "".join(line + "\n" for line in lines)


class TestMappedHash:
    """``_sha256`` of an ``mmap`` hashes it a chunk at a time and releases
    each chunk's pages (``MADV_DONTNEED``) once hashed."""

    CHUNK = ingest._GRAY_WINDOW_BYTES

    @pytest.mark.parametrize(
        "size", [1, CHUNK - 1, CHUNK, CHUNK + 1, 3 * CHUNK + 5],
        ids=["1-byte", "chunk-1", "chunk", "chunk+1", "3-chunks+5"],
    )
    def test_hashed_bytes_are_released(self, monkeypatch, tmp_path, size):
        # Every madvise range is whole pages (the last may end at the end of
        # the file), follows the one before, and lies in the bytes the hash
        # has taken in; together the ranges cover the file.
        data = np.random.default_rng(size).bytes(size)
        path = tmp_path / "g.cgry"
        path.write_bytes(data)
        hashed, released = [0], []
        real_sha256 = hashlib.sha256

        class Sha256:
            def __init__(self, chunk=b""):
                self.real = real_sha256(chunk)
                hashed[0] += len(chunk)

            def update(self, chunk):
                self.real.update(chunk)
                hashed[0] += len(chunk)

            def hexdigest(self):
                return self.real.hexdigest()

        class Mapping(mmap.mmap):
            def madvise(self, option, start, length):
                released.append((option, start, length, hashed[0]))
                return super().madvise(option, start, length)

        monkeypatch.setattr(hashlib, "sha256", Sha256)
        with open(path, "rb") as fh:
            mapped = Mapping(fh.fileno(), 0, access=mmap.ACCESS_READ)
        digest = cli._sha256(mapped)
        monkeypatch.undo()
        assert digest == hashlib.sha256(data).hexdigest() == cli._sha256(data)
        assert len(released) == -(-size // self.CHUNK)
        end = 0
        for option, start, length, hashed_then in released:
            assert option == mmap.MADV_DONTNEED
            assert start == end and start % mmap.PAGESIZE == 0
            end = start + length
            assert end % mmap.PAGESIZE == 0 or end == len(data)
            assert end <= hashed_then
        assert end == len(data)


# Runs crowdgate with the given arguments in a child and prints its exit
# code and peak RSS (KiB). A process's ru_maxrss also counts the memory of
# the process it was forked from, so the child is forked from this small
# interpreter, not from the test process.
_PEAK_RSS = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, "-m", "crowdgate", *sys.argv[1:]])
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="ru_maxrss in KiB on Linux")
def test_density_predict_peak_does_not_grow_with_the_container(tmp_path):
    # Containers of about 8 and 24 windows: the density loop and nothing
    # else reads them, and it releases the windows it has passed.
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    model = tmp_path / "m.json"
    model.write_text(regressor_to_json(DensityRegressor(0.01, 0.1, 2.0)))
    scene = np.zeros((360, 640), dtype=np.uint8)
    scene[::7] = 90
    peaks = []
    for windows in (8, 24):
        n = windows * ingest._GRAY_WINDOW_BYTES // scene.size
        frames = np.repeat(scene[None], n, axis=0)
        frames[1::2, 100:200, 100:300] = 200  # a blob in every other frame
        gray = tmp_path / f"g{windows}.cgry"
        gray.write_bytes(save_gray_frames(frames))
        del frames
        args = ["density-predict", str(gray), str(model), "--out", str(tmp_path / "p.csv")]
        result = subprocess.run(
            [sys.executable, "-c", _PEAK_RSS, *args],
            capture_output=True, text=True, env=env, timeout=60,
        )
        gray.unlink()
        assert result.returncode == 0, result.stderr
        code, peak_kib = map(int, result.stdout.split())
        assert code == 0, result.stderr
        assert (tmp_path / "p.csv").read_text().count("\n") == n + 1
        peaks.append(peak_kib / 1024)
    assert peaks[1] - peaks[0] < 16, f"peak RSS {peaks[0]:.1f} -> {peaks[1]:.1f} MiB"


class TestDetectionsPath:
    """``run``, ``count`` and ``ingest`` map a detections file that is a
    non-empty regular file, and read anything else whole."""

    ARGS = {"run": ["--threshold", "5"], "count": [], "ingest": []}

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    @pytest.mark.parametrize("command", list(ARGS))
    def test_fifo_gives_the_file_artifacts(self, monkeypatch, runner, tmp_path, command):
        data = detections_bytes([3, 0, 7, 7, 7, 7, 2, 2], fps=9)
        det = tmp_path / "d.jsonl"
        det.write_bytes(data)
        fifo = tmp_path / "d.fifo"
        os.mkfifo(fifo)
        read = []
        original = cli._map_bytes

        def spy(path):
            result = original(path)
            read.append(type(result))
            return result

        monkeypatch.setattr(cli, "_map_bytes", spy)
        result = run_cli(runner, [command, str(det), "--out", str(tmp_path / "file")]
                         + self.ARGS[command])
        assert result.exit_code == 0, result.output
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            result = run_cli(runner, [command, str(fifo), "--out", str(tmp_path / "fifo")]
                             + self.ARGS[command])
        finally:
            if writer.is_alive():  # the command failed before opening the FIFO
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=60)
        assert result.exit_code == 0, result.output
        assert read == [mmap.mmap, bytes]
        names = sorted(p.name for p in (tmp_path / "file").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "fifo").iterdir())
        assert len(names) == {"run": 5, "count": 1, "ingest": 2}[command]
        for name in names:
            assert (tmp_path / "fifo" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="no /proc/self/maps")
    def test_mapping_released_after_return(self, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 0, 2])
        run_pipeline(det, PipelineConfig(abnormal_threshold=5), tmp_path / "o")
        gc.collect()
        assert os.path.realpath(det) not in Path("/proc/self/maps").read_text()


class TestCountCsvPath:
    """``smooth``, ``segment``, ``eval`` and ``run --truth`` map a count CSV
    that is a non-empty regular file, and read anything else whole."""

    COUNTS = [3, 0, 7, 7, 7, 7, 2, 2] * 40

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no os.mkfifo")
    @pytest.mark.parametrize("command", ["smooth", "segment", "eval", "run"])
    def test_fifo_gives_the_file_artifacts(self, monkeypatch, runner, tmp_path, command):
        data = write_count_series(series(self.COUNTS, fps=9))
        csv = tmp_path / "c.csv"
        csv.write_bytes(data)
        other = tmp_path / "other.csv"
        other.write_bytes(write_count_series(series([c + 1 for c in self.COUNTS], fps=9)))
        det = write_detections(tmp_path / "d.jsonl", self.COUNTS)
        fifo = tmp_path / "c.fifo"
        os.mkfifo(fifo)

        def args(path, out):
            """The command, reading the CSV at ``path``, and the other inputs mapped."""
            return {
                "smooth": ["smooth", path],
                "segment": ["segment", path, "--threshold", "5", "--source", "v.mp4"],
                "eval": ["eval", "--truth", path, "--raw", str(other), "--smoothed", str(other)],
                "run": ["run", det, "--threshold", "5", "--truth", path],
            }[command] + ["--out", str(tmp_path / out)]

        read = []
        original = cli._map_bytes

        def spy(path):
            result = original(path)
            read.append(type(result))
            return result

        monkeypatch.setattr(cli, "_map_bytes", spy)
        result = run_cli(runner, args(str(csv), "file"))
        assert result.exit_code == 0, result.output
        mapped = read.copy()
        read.clear()
        writer = threading.Thread(target=fifo.write_bytes, args=(data,))
        writer.start()
        try:
            result = run_cli(runner, args(str(fifo), "fifo"))
        finally:
            if writer.is_alive():  # the command failed before opening the FIFO
                os.close(os.open(fifo, os.O_RDONLY | os.O_NONBLOCK))
            writer.join(timeout=60)
        assert result.exit_code == 0, result.output
        assert mapped == [mmap.mmap] * {"eval": 3, "run": 2}.get(command, 1)
        mapped[-1 if command == "run" else 0] = bytes  # the CSV through the FIFO
        assert read == mapped
        names = sorted(p.name for p in (tmp_path / "file").iterdir())
        assert names == sorted(p.name for p in (tmp_path / "fifo").iterdir())
        assert len(names) == {"smooth": 1, "segment": 2, "eval": 2, "run": 7}[command]
        for name in names:
            assert (tmp_path / "fifo" / name).read_bytes() == (tmp_path / "file" / name).read_bytes()


class TestGrayMappingHygiene:
    """``run_pipeline`` leaves no hash thread and no mapping behind."""

    @pytest.fixture(autouse=True)
    def slow_background_hash(self, monkeypatch):
        # a hash thread that outlives run_pipeline would still be counted
        sha256 = cli._sha256

        def slow(data):
            if threading.current_thread() is not threading.main_thread():
                time.sleep(0.2)
            return sha256(data)

        monkeypatch.setattr(cli, "_sha256", slow)

    def test_no_thread_after_return(self, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 3])
        gray, model = write_density_inputs(tmp_path, 3)
        config = PipelineConfig(abnormal_threshold=5, density_model_path=model)
        before = threading.active_count()
        run_pipeline(det, config, tmp_path / "o", gray_frames_path=gray)
        assert threading.active_count() == before

    @pytest.mark.parametrize("failure", ["bad-magic", "overflow"])
    def test_no_thread_after_raise(self, tmp_path, failure):
        # both fail after the container's hash has started
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 3])
        gray = write_moving_gray(tmp_path / "g.cgry", 3)
        coef_area = 1.0
        if failure == "bad-magic":
            data = Path(gray).read_bytes()
            Path(gray).write_bytes(b"XGRY" + data[4:])
        else:
            coef_area = 1e308  # finite, but area * coef_area is not
        model = tmp_path / "model.json"
        model.write_text(regressor_to_json(DensityRegressor(coef_area, 0.0, 0.0)))
        config = PipelineConfig(abnormal_threshold=5, density_model_path=str(model))
        before = threading.active_count()
        match = "bad magic" if failure == "bad-magic" else "density prediction for frame 1 is inf"
        with pytest.raises((InputFormatError, ValueError), match=match):
            run_pipeline(det, config, tmp_path / "o", gray_frames_path=gray)
        assert threading.active_count() == before

    @pytest.mark.skipif(not Path("/proc/self/maps").exists(), reason="no /proc/self/maps")
    def test_mapping_released_after_return(self, monkeypatch, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 3])
        gray, model = write_density_inputs(tmp_path, 3)
        real_path = os.path.realpath(gray)

        def mapped():
            return real_path in Path("/proc/self/maps").read_text()

        seen = []
        original = cli.load_gray_frames

        def spy(source):
            seen.append(mapped())
            return original(source)

        monkeypatch.setattr(cli, "load_gray_frames", spy)
        config = PipelineConfig(abnormal_threshold=5, density_model_path=model)
        run_pipeline(det, config, tmp_path / "o", gray_frames_path=gray)
        gc.collect()
        assert seen == [True]
        assert not mapped()


class TestCountCsvInput:
    """Count CSVs the stages reject: line-numbered, exit 2."""

    PREFIX = b"# fps=30\nframe_index,count,provenance\n0,1,Detector\n1,2,Detector\n"

    @pytest.mark.parametrize(
        "data,line",
        [
            (PREFIX + b"2,\xff,Detector\n", 5),
            (PREFIX + b"2,99999999999999999999,Detector\n", 5),
            (PREFIX + b"99999999999999999999,3,Detector\n", 5),
            (b"# fps=abc\n" + PREFIX[9:], 1),
            (PREFIX + b'2,3,"Detector"\n', 5),
        ],
        ids=["invalid-utf8", "count-overflow", "index-overflow", "bad-fps-comment",
             "quoted-field"],
    )
    def test_smooth_exit_2(self, runner, tmp_path, data, line):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        result = run_cli(runner, ["smooth", str(path), "--out", str(tmp_path / "o")])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert f"error: line {line}: " in result.output

    def test_calibration_invalid_utf8_exit_2(self, runner, tmp_path):
        calib = tmp_path / "calib.csv"
        calib.write_bytes(b"frame_index,area,edge,true_count\n0,100,20,3\n1,\xff,40,7\n")
        result = run_cli(
            runner, ["density-fit", str(calib), "--out", str(tmp_path / "m.json")]
        )
        assert result.exit_code == EXIT_INPUT_ERROR
        assert "error: line 3: invalid UTF-8" in result.output


    @pytest.mark.parametrize(
        "row, message",
        [("1,250,40,-7", "negative true_count -7"), ("1,100,200,7", "edge 200 exceeds area 100"),
         ("1,1_000,+20, 3", "bad calibration row"), ("1,\u0663,0,3", "bad calibration row")],
        ids=["negative-count", "edge-over-area", "int-literal-syntax", "non-ascii-digit"],
    )
    def test_calibration_out_of_range_exit_2(self, runner, tmp_path, row, message):
        calib = tmp_path / "calib.csv"
        rows = ["frame_index,area,edge,true_count", "0,100,20,3", row, "2,900,80,12", "3,1600,110,20"]
        calib.write_text("\n".join(rows) + "\n")
        model = tmp_path / "m.json"
        result = run_cli(runner, ["density-fit", str(calib), "--out", str(model)])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert f"error: line 3: {message}" in result.output
        assert not model.exists()


class TestEmptyStream:
    """A stream or count CSV with no frame is an input error (exit 2) naming
    the input, and run writes nothing; count still writes a header-only CSV."""

    HEADER_ONLY = b"# fps=30\nframe_index,count,provenance\n"

    def test_run_on_a_stream_without_frames(self, runner, tmp_path):
        det = tmp_path / "nodet.jsonl"
        det.write_bytes(b'{"fps":30,"source_id":"x"}\n')
        out = tmp_path / "o"
        result = run_cli(runner, ["run", str(det), "--threshold", "3", "--out", str(out)])
        assert result.exit_code == EXIT_INPUT_ERROR, result.output
        assert f"error: detections stream {det} holds no frames\n" in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", [["smooth"], ["segment", "--threshold", "3"]])
    @pytest.mark.parametrize("body", [b"", b"\n# a comment\n\r\n"], ids=["header-only", "no-rows"])
    def test_stage_on_a_csv_without_rows(self, runner, tmp_path, command, body):
        path = tmp_path / "empty.csv"
        path.write_bytes(self.HEADER_ONLY + body)
        out = tmp_path / "o"
        result = run_cli(runner, [command[0], str(path), *command[1:], "--out", str(out)])
        assert result.exit_code == EXIT_INPUT_ERROR, result.output
        assert f"error: count CSV {path} holds no frames\n" in result.output
        assert not out.exists()

    def test_count_writes_a_header_only_csv(self, runner, tmp_path):
        det = tmp_path / "nodet.jsonl"
        det.write_bytes(b'{"fps":30,"source_id":"x"}\n')
        out = tmp_path / "o"
        result = run_cli(runner, ["count", str(det), "--out", str(out)])
        assert result.exit_code == 0, result.output
        assert len(read_count_series((out / "raw_counts.csv").read_bytes())) == 0

    @pytest.mark.parametrize(
        "empty",
        [["truth", "raw", "smoothed"], ["truth"], ["raw"], ["smoothed"], ["raw", "smoothed"]],
        ids=["all", "truth", "raw", "smoothed", "raw-and-smoothed"],
    )
    def test_eval_on_a_csv_without_rows(self, runner, tmp_path, empty):
        # The first input without rows is named, before the lengths are
        # compared or a zero denominator is reached.
        args = ["eval", "--out", str(tmp_path / "eval")]
        for name in ("truth", "raw", "smoothed"):
            path = tmp_path / f"{name}.csv"
            rows = b"" if name in empty else b"0,3,Detector\n1,4,Detector\n"
            path.write_bytes(self.HEADER_ONLY + rows)
            args += [f"--{name}", str(path)]
        result = run_cli(runner, args)
        assert result.exit_code == EXIT_INPUT_ERROR, result.output
        path = tmp_path / f"{empty[0]}.csv"
        assert f"error: {empty[0]} count CSV {path} holds no frames\n" in result.output
        assert not (tmp_path / "eval").exists()


class TestCsvHash:
    """``smooth``, ``segment`` and ``eval`` hash each input CSV once, as one
    more item of the pool that scans its blocks."""

    COUNTS = [3, 0, 7, 7, 7, 7, 2, 2] * 40

    def write(self, path, counts):
        path.write_bytes(write_count_series(series(counts, fps=9)))
        return path

    @pytest.mark.parametrize("command", [["smooth"], ["segment", "--threshold", "3"]])
    def test_stage_hashes_its_input_once(self, monkeypatch, runner, tmp_path, command):
        path = self.write(tmp_path / "c.csv", self.COUNTS)
        data = path.read_bytes()
        fed = spy_on_sha256(monkeypatch)
        with parsed_in(300, 2):
            args = [command[0], str(path), *command[1:], "--out", str(tmp_path / "o")]
            result = run_cli(runner, args)
        assert result.exit_code == 0, result.output
        assert [b"".join(chunks) for chunks in fed] == [data]
        written = next((tmp_path / "o").iterdir()).read_bytes()
        assert f"input_sha256={hashlib.sha256(data).hexdigest()}\n".encode() in written

    def test_eval_hashes_each_input_once(self, monkeypatch, runner, tmp_path):
        paths = {
            name: self.write(tmp_path / f"{name}.csv", [count + k for count in self.COUNTS])
            for k, name in enumerate(("truth", "raw", "smoothed"))
        }
        fed = spy_on_sha256(monkeypatch)
        args = ["eval", "--out", str(tmp_path / "eval")]
        for name, path in paths.items():
            args += [f"--{name}", str(path)]
        with parsed_in(300, 2):
            result = run_cli(runner, args)
        assert result.exit_code == 0, result.output
        inputs = [path.read_bytes() for path in paths.values()]
        assert [b"".join(chunks) for chunks in fed] == inputs
        report = json.loads((tmp_path / "eval" / "eval_report.json").read_text())
        assert report["input_sha256"] == {
            name: hashlib.sha256(data).hexdigest() for name, data in zip(paths, inputs)
        }

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_hash_error_reaches_the_caller(self, monkeypatch, cpus):
        # An error while hashing is raised to the caller as itself, once
        # every worker of the read's pool has stopped.
        class HashError(Exception):
            pass

        class Sha256:
            def __init__(self, chunk=b""):
                if chunk:
                    self.update(chunk)

            def update(self, chunk):
                raise HashError

        data = write_count_series(series(self.COUNTS, fps=9))
        before = set(threading.enumerate())
        monkeypatch.setattr(hashlib, "sha256", Sha256)
        with parsed_in(300, cpus), pytest.raises(HashError):
            stage_smooth(data, PipelineConfig())
        assert len(data) > 10 * 300
        assert set(threading.enumerate()) == before


class TestSegmentLargeCounts:
    """Counts whose sum, or which themselves, pass 2**53: the mean is the
    float nearest the exact one, and the peak check allows for its rounding."""

    @pytest.mark.parametrize(
        "counts,peak,mean",
        [([2**53 + 3, 2**53 + 3, 1], 2**53 + 3, 9007199254740996.0),
         ([2**63 - 1], 2**63 - 1, 9.223372036854776e18)],
        ids=["above-2**53", "int64-max"],
    )
    def test_segment_exit_0(self, runner, tmp_path, counts, peak, mean):
        path = tmp_path / "c.csv"
        path.write_bytes(write_count_series(series(counts, fps=30)))
        out = tmp_path / "o"
        args = ["segment", str(path), "--threshold", "5", "--min-duration", "0", "--out", str(out)]
        result = run_cli(runner, args)
        assert result.exit_code == 0, result.output
        (segment,) = json.loads((out / "segments.json").read_text())
        assert (segment["peak_count"], segment["mean_count"]) == (peak, mean)


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
        counts = [2, 2, 9, 9, 9, 9, 2, 2, 2]
        det = write_detections(tmp_path / "d.jsonl", counts, fps=9)
        truth = tmp_path / "truth.csv"
        truth.write_bytes(write_count_series(series([2, 2, 2, 9, 9, 9, 9, 2, 2], fps=9)))
        for fps in ([], ["--fps", "30000/1001"]):
            whole = tmp_path / f"whole{len(fps)}"
            result = run_cli(
                runner, self.pipeline_args(det, whole) + ["--truth", str(truth)] + fps
            )
            assert result.exit_code == 0, result.output

            staged = tmp_path / f"staged{len(fps)}"
            raw, smoothed = str(staged / "raw_counts.csv"), str(staged / "smoothed_counts.csv")
            for args in (
                ["count", det],
                ["smooth", raw],
                ["segment", smoothed, "--threshold", "5", "--source", "cam1"],
                ["eval", "--truth", str(truth), "--raw", raw, "--smoothed", smoothed],
            ):
                result = run_cli(runner, args + ["--out", str(staged)] + fps)
                assert result.exit_code == 0, result.output
            for name in (
                "raw_counts.csv",
                "smoothed_counts.csv",
                "segments.json",
                "cutlist.txt",
                "eval_report.json",
                "eval_report.txt",
            ):
                assert (staged / name).read_bytes() == (whole / name).read_bytes(), name
        assert b"# fps=30000/1001\n" in (tmp_path / "whole2" / "raw_counts.csv").read_bytes()

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
        assert raw.provenance[1] == CODE_DENSITY

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

    def test_bad_model_fails_with_no_frame_routed(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 4, 3])
        model = tmp_path / "bad.json"
        model.write_text("not a model")
        result = run_cli(
            runner, ["count", det, "--out", str(tmp_path / "o"), "--model", str(model)]
        )
        assert result.exit_code == EXIT_INPUT_ERROR
        assert "error: bad density model file" in result.output
        assert not (tmp_path / "o").exists()

    def test_model_run_hashes_model_bytes(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 3], fps=9)
        gray, model = write_density_inputs(tmp_path, 3)
        args = ["run", det, "--out", str(tmp_path / "o"), "--threshold", "5", "--gray", gray]
        result = run_cli(runner, args + ["--model", model])
        assert result.exit_code == 0
        manifest = json.loads((tmp_path / "o" / "run_manifest.json").read_text())
        digest = hashlib.sha256(Path(model).read_bytes()).hexdigest()
        assert manifest["input_sha256"]["density_model"] == digest
        assert manifest["effective_config"]["density_model_path"] == model
        assert not (tmp_path / "o" / "density_model.json").exists()

    def test_calibration_run_independent_of_output_dir(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 3], fps=9)
        gray, _ = write_density_inputs(tmp_path, 3)
        calib = tmp_path / "calib.csv"
        calib.write_text(
            "frame_index,area,edge,true_count\n0,100,20,5\n1,400,50,9\n2,900,80,13\n"
        )
        outs = [tmp_path / "o1", tmp_path / "sub" / "o2"]
        for out in outs:
            result = run_cli(
                runner,
                ["run", det, "--out", str(out), "--threshold", "5", "--gray", gray,
                 "--calibration", str(calib)],
            )
            assert result.exit_code == 0
        names = sorted(path.name for path in outs[0].iterdir())
        assert "density_model.json" in names
        assert names == sorted(path.name for path in outs[1].iterdir())
        for name in names:
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        manifest = json.loads((outs[0] / "run_manifest.json").read_text())
        assert manifest["effective_config"]["density_model_path"] is None
        digest = hashlib.sha256((outs[0] / "density_model.json").read_bytes()).hexdigest()
        assert manifest["input_sha256"]["density_model"] == digest
        raw = read_count_series((outs[0] / "raw_counts.csv").read_bytes())
        assert raw.provenance[1] == CODE_DENSITY

    @pytest.mark.parametrize(
        "config", [{"min_duration_frames": -5}, {"merge_gap_frames": -3}]
    )
    def test_negative_frame_counts_exit_3(self, runner, tmp_path, config):
        det = write_detections(tmp_path / "d.jsonl", [1, 7, 7, 1])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        result = run_cli(
            runner,
            ["run", det, "--out", str(tmp_path / "o"), "--threshold", "5", "--config", str(cfg)],
        )
        assert result.exit_code == EXIT_CONFIG_ERROR
        key, value = next(iter(config.items()))
        assert f"error: {key} must be >= 0, got {value}" in result.output
        assert not (tmp_path / "o").exists()

    def test_missing_threshold_exit_3(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [1, 2])
        result = run_cli(runner, ["run", det, "--out", str(tmp_path / "o")])
        assert result.exit_code == EXIT_CONFIG_ERROR
        assert "error: abnormal_threshold is required for segment extraction" in result.output
        assert not (tmp_path / "o").exists()

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


@pytest.mark.parametrize("command", ["count", "smooth", "segment", "run"])
@pytest.mark.parametrize(
    "config, message",
    [
        ({"abnormal_threshold": 0}, "abnormal_threshold must be >= 1, got 0"),
        ({"min_duration_frames": -5}, "min_duration_frames must be >= 0, got -5"),
        ({"merge_gap_frames": -3}, "merge_gap_frames must be >= 0, got -3"),
        ({"count_ceiling": 0}, "count_ceiling must be >= 1, got 0"),
        ({"min_score": 1.5}, "min_score must be in [0, 1], got 1.5"),
        ({"smoothing_divisor": 0}, "smoothing_divisor must be >= 1, got 0"),
    ],
    ids=["threshold", "min-duration", "merge-gap", "ceiling", "min-score", "divisor"],
)
def test_out_of_range_config_exit_3(runner, tmp_path, command, config, message):
    # rejected when the config loads, whether or not the command needs the
    # setting and whether or not a threshold is set
    if command in ("count", "run"):
        source = write_detections(tmp_path / "d.jsonl", [1, 7, 7, 1])
    else:
        source = tmp_path / "counts.csv"
        source.write_bytes(write_count_series(series([1, 7, 7, 1])))
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    out = tmp_path / "o"
    result = run_cli(runner, [command, str(source), "--out", str(out), "--config", str(cfg)])
    assert result.exit_code == EXIT_CONFIG_ERROR
    assert f"error: {message}" in result.output
    assert not out.exists()


class TestDensityCommands:
    def test_fit_then_predict(self, runner, tmp_path):
        calib = write_calibration(tmp_path / "calib.csv")
        model = tmp_path / "model.json"
        result = run_cli(runner, ["density-fit", calib, "--out", str(model)])
        assert result.exit_code == 0
        assert model.exists()

        gray = tmp_path / "g.cgry"
        gray.write_bytes(save_gray_frames(np.full((2, 8, 8), 60, dtype=np.uint8)))
        out_csv = tmp_path / "pred.csv"
        result = run_cli(
            runner, ["density-predict", str(gray), str(model), "--out", str(out_csv)]
        )
        assert result.exit_code == 0
        lines = out_csv.read_text().splitlines()
        assert lines[0] == "frame_index,count"
        assert len(lines) == 3

    def test_fit_writes_the_run_model(self, runner, tmp_path):
        # the fitted model, as run --calibration writes it, even where
        # --out's directory does not exist yet
        calib = write_calibration(tmp_path / "calib.csv")
        model = tmp_path / "new" / "dir" / "model.json"
        result = run_cli(runner, ["density-fit", calib, "--out", str(model)])
        assert result.exit_code == 0, result.output
        fitted = fit_regressor(read_calibration_csv(Path(calib).read_bytes()))
        assert model.read_bytes() == regressor_to_json(fitted).encode()
        det = write_detections(tmp_path / "d.jsonl", [3, 30, 3])
        gray = write_moving_gray(tmp_path / "g.cgry", 3)
        out = tmp_path / "o"
        result = run_cli(
            runner,
            ["run", det, "--out", str(out), "--threshold", "5", "--gray", gray,
             "--calibration", calib],
        )
        assert result.exit_code == 0, result.output
        assert model.read_bytes() == (out / "density_model.json").read_bytes()

    @pytest.mark.parametrize("value", ["Infinity", "NaN"])
    def test_predict_non_finite_model_exit_2(self, runner, tmp_path, value):
        gray, _ = write_density_inputs(tmp_path, 2)
        model = tmp_path / "bad.json"
        model.write_text(
            f'{{"coef_area": {value}, "coef_edge": 0.0, "intercept": 1.0, "fg_threshold": 25.0}}'
        )
        out_csv = tmp_path / "pred.csv"
        result = run_cli(runner, ["density-predict", gray, str(model), "--out", str(out_csv)])
        assert result.exit_code == EXIT_INPUT_ERROR
        assert "error: bad density model file: coef_area must be finite" in result.output
        assert not out_csv.exists()

    @pytest.mark.parametrize("command", ["density-predict", "run"])
    def test_invalid_utf8_model_exit_2(self, runner, tmp_path, command):
        gray, _ = write_density_inputs(tmp_path, 2)
        model = tmp_path / "bad.json"
        model.write_bytes(
            b'{"coef_area": 0, "coef_edge": 0, "intercept": 1, "fg_threshold": 25, "\xff": 0}'
        )
        out = tmp_path / "o"
        if command == "density-predict":
            args = ["density-predict", gray, str(model), "--out", str(out / "pred.csv")]
        else:
            det = write_detections(tmp_path / "d.jsonl", [3, 30])
            args = ["run", det, "--out", str(out), "--threshold", "5", "--gray", gray,
                    "--model", str(model)]
        result = run_cli(runner, args)
        assert result.exit_code == EXIT_INPUT_ERROR
        message = "error: bad density model file: 'utf-8' codec can't decode byte 0xff"
        assert message in result.output
        assert not out.exists()

    @pytest.mark.parametrize("command", ["run", "count", "density-predict"])
    def test_prediction_beyond_int64_exit_4(self, runner, tmp_path, command):
        # finite, but 1e17 people a foreground pixel round past int64
        gray = write_moving_gray(tmp_path / "g.cgry", 3)
        model = tmp_path / "m.json"
        model.write_text(regressor_to_json(DensityRegressor(1e17, 0.0, 0.0)))
        out = tmp_path / "o"
        if command == "density-predict":
            args = [command, gray, str(model), "--out", str(out / "pred.csv")]
        else:
            det = write_detections(tmp_path / "d.jsonl", [30, 30, 30])
            args = [command, det, "--gray", gray, "--model", str(model), "--out", str(out)]
            args += ["--threshold", "5"] if command == "run" else []
        result = run_cli(runner, args)
        assert result.exit_code == EXIT_STAGE_ERROR
        assert "error: density prediction for frame 1 is " in result.output
        assert "beyond int64" in result.output

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_fit_bad_fg_threshold_exit_3(self, runner, tmp_path, value):
        calib = tmp_path / "calib.csv"
        calib.write_text("frame_index,area,edge,true_count\n0,100,20,3\n1,400,50,8\n2,900,80,12\n")
        model = tmp_path / "model.json"
        result = run_cli(
            runner, ["density-fit", str(calib), "--out", str(model), "--fg-threshold", value]
        )
        assert result.exit_code == EXIT_CONFIG_ERROR
        assert "error: --fg-threshold must be finite and >= 0" in result.output
        assert not model.exists()


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

    def test_unequal_lengths_exit_2(self, runner, tmp_path):
        for name, counts in (("truth", [5] * 15), ("raw", [5] * 20), ("smoothed", [5] * 20)):
            (tmp_path / f"{name}.csv").write_bytes(write_count_series(series(counts, fps=9)))
        args = ["eval", "--out", str(tmp_path / "eval")]
        for name in ("truth", "raw", "smoothed"):
            args += [f"--{name}", str(tmp_path / f"{name}.csv")]
        result = run_cli(runner, args)
        assert result.exit_code == EXIT_INPUT_ERROR
        assert "(frames: truth 15, raw 20, smoothed 20)" in result.output
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("calibrated", [False, True], ids=["plain", "calibrated"])
    def test_run_with_truth_of_other_length_exit_2_writes_nothing(
        self, runner, tmp_path, calibrated
    ):
        det = write_detections(tmp_path / "d.jsonl", [3, 30] * 10)
        truth = tmp_path / "truth.csv"
        truth.write_bytes(write_count_series(series([3] * 15, fps=9)))
        out = tmp_path / "o"
        args = ["run", det, "--out", str(out), "--threshold", "5", "--truth", str(truth)]
        if calibrated:
            gray = write_moving_gray(tmp_path / "g.cgry", 20)
            args += ["--gray", gray, "--calibration", write_calibration(tmp_path / "c.csv")]
        else:
            args += ["--ceiling", "40"]
        result = run_cli(runner, args)
        assert result.exit_code == EXIT_INPUT_ERROR
        assert "(frames: truth 15, raw 20)" in result.output
        assert not out.exists()


def option_help(help_text: str) -> dict[str, str]:
    """Option column ("--out DIRECTORY") -> its help in a command's --help,
    whitespace collapsed and click's trailing [required]/[default] note dropped."""
    entries, current = {}, None
    for line in help_text.split("Options:\n", 1)[1].splitlines():
        if line.startswith("  -"):
            column, _, rest = line.strip().partition("  ")
            current = entries[column] = [rest]
        elif current is not None:
            current.append(line)
    return {
        column: re.sub(r"\s*\[[^\]]*\]$", "", " ".join(" ".join(parts).split()))
        for column, parts in entries.items()
    }


def test_shared_flags_have_one_help_line(runner):
    helps: dict[str, dict[str, str]] = {}
    for command in main.commands:
        result = runner.invoke(main, [command, "--help"])
        assert result.exit_code == 0, result.output
        for column, text in option_help(result.output).items():
            helps.setdefault(column, {})[command] = text
    shared = {column: texts for column, texts in helps.items() if len(texts) > 1}
    assert {"--ceiling INTEGER", "--threshold INTEGER", "--divisor INTEGER", "--gray FILE",
            "--model FILE", "--out DIRECTORY"} <= shared.keys()
    differing = {column: texts for column, texts in shared.items() if len(set(texts.values())) > 1}
    assert differing == {}
    assert [column for column, texts in shared.items() if "" in texts.values()] == []
    # the divisor sets the window radius, not the window
    assert "Window radius = floor(fps/divisor)" in shared["--divisor INTEGER"]["run"]


def test_python_m_crowdgate_runs_from_source_tree():
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-m", "crowdgate", "--help"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("Usage: crowdgate ")
    assert "density-fit" in result.stdout


def test_cli_import_leaves_the_detections_scan_unloaded():
    # Compiled on every start when there is no bytecode cache, so only the
    # detections parse imports it.
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, crowdgate.cli; print('crowdgate.scan' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


_SCANNED_READ = """
import sys
from crowdgate import counting

scanned = []
scan_body = counting._scan_body
counting._scan_body = lambda *args: scanned.append(scan_body(*args)) or scanned[-1]
with open(sys.argv[1], "rb") as fh:
    frames = len(counting.read_count_series(fh.read()))
print(frames, any(scanned), "crowdgate.scan" in sys.modules)
"""


def test_count_csv_read_leaves_the_detections_scan_unloaded(tmp_path):
    # smooth, segment and eval read count CSVs alone: the count-CSV scan
    # shares its word arithmetic with the detections scan through
    # crowdgate.words, not by importing it
    csv = tmp_path / "c.csv"
    csv.write_bytes(write_count_series(series(np.arange(4000) * 123_456_789)))
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    result = subprocess.run(
        [sys.executable, "-c", _SCANNED_READ, str(csv)],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.split() == ["4000", "True", "False"]


def test_cli_import_loads_no_concurrent_futures():
    # Every CLI invocation pays for what importing the CLI loads.
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    code = "import sys, crowdgate.cli; print('concurrent.futures' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestErrorsNameTheirInput:
    """Cases that tests/test_hostile_inputs.py found, or that no small edit reaches."""

    @pytest.mark.parametrize("command", ["ingest", "count", "run"])
    def test_blank_detections_stream_names_its_last_line(self, runner, tmp_path, command):
        det = tmp_path / "d.jsonl"
        det.write_bytes(b"\n \n")
        out = tmp_path / "o"
        threshold = ["--threshold", "5"] if command == "run" else []
        result = run_cli(runner, [command, str(det), "--out", str(out), *threshold])
        assert result.exit_code == EXIT_INPUT_ERROR, result.output
        assert "error: line 3: empty detections stream (no header)\n" in result.output
        assert not out.exists()

    @pytest.mark.parametrize(
        "fps, message",
        [("1e999", "cannot parse fps inf"), ("NaN", "cannot parse fps nan"),
         (str(2**63), f"fps must be <= {2**63 - 1}, got {2**63}")],
    )
    def test_detections_rate_not_finite_or_past_int64(self, runner, tmp_path, fps, message):
        det = tmp_path / "d.jsonl"
        det.write_bytes(detections_bytes([1, 2]).replace(b'"fps": 9', f'"fps": {fps}'.encode()))
        result = run_cli(runner, ["count", str(det), "--out", str(tmp_path / "o")])
        assert result.exit_code == EXIT_INPUT_ERROR, result.output
        assert f"error: line 1: {message}\n" in result.output

    def test_count_csv_rate_past_int64(self, runner, tmp_path):
        # an fps of 1e999 used to reach the smoothing kernel and overflow there
        csv = tmp_path / "c.csv"
        csv.write_bytes(b"# fps=1e999\nframe_index,count,provenance\n0,2,Detector\n")
        result = run_cli(runner, ["smooth", str(csv), "--out", str(tmp_path / "o")])
        assert result.exit_code == EXIT_INPUT_ERROR, result.output
        assert f"error: line 1: fps must be <= {2**63 - 1}, got '1e999'\n" in result.output

    def test_config_file_values_are_checked_before_the_flags(self, runner, tmp_path):
        det = write_detections(tmp_path / "d.jsonl", [1, 2])
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"count_ceiling": 0}))
        args = ["count", det, "--config", str(cfg), "--ceiling", "5", "--out", str(tmp_path / "o")]
        result = run_cli(runner, args)
        assert result.exit_code == EXIT_CONFIG_ERROR, result.output
        assert f"error: count_ceiling must be >= 1, got 0 (in {cfg})\n" in result.output

    def test_missing_threshold_names_the_config_file(self, runner, tmp_path):
        csv = tmp_path / "c.csv"
        csv.write_bytes(write_count_series(series([1, 2, 3])))
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{}")
        args = ["segment", str(csv), "--config", str(cfg), "--out", str(tmp_path / "o")]
        result = run_cli(runner, args)
        assert result.exit_code == EXIT_CONFIG_ERROR, result.output
        message = f"abnormal_threshold is required for segment extraction (in {cfg})"
        assert f"error: {message}\n" in result.output
