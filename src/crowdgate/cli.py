"""Command-line pipeline: each stage as a subcommand, plus ``run`` for the whole chain.

``run`` and the individual subcommands share the same stage functions, so
composing subcommands reproduces ``run``'s artifacts byte for byte. Every
stage artifact carries its effective stage config and the SHA-256 of its
input (as ``#`` comment lines in the text formats), making runs auditable
and reproducible.

Exit codes: 0 success, 2 input error, 3 config error, 4 stage failure.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import json
import logging
import os
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
from .counting import (
    RoutingPolicy,
    count_series,
    frames_needing_density,
    read_count_series,
    route_counts,
    with_fps,
    write_count_series,
)
from .density import (
    estimate_density_counts,
    fit_regressor,
    read_calibration_csv,
    regressor_from_json,
    regressor_to_json,
)
from .errors import ConfigError, InputFormatError, StageError
from .evaluation import (
    JitterSpec,
    evaluate,
    generate_synthetic,
    matched_ap_d,
    render_table,
)
from .ingest import format_fps, load_gray_frames, parse_detections, parse_fps
from .segmenting import SegmentPolicy, emit_cutlist, extract_segments
from .smoothing import SmoothingParams, TieBreak, smooth_series, window_length

log = logging.getLogger("crowdgate")

EXIT_INPUT_ERROR = 2
EXIT_CONFIG_ERROR = 3
EXIT_STAGE_ERROR = 4


@dataclasses.dataclass
class PipelineConfig:
    fps_override: Fraction | None = None
    count_ceiling: int = 25
    min_score: float = 0.5
    person_class_id: int = 0
    smoothing_divisor: int = 3
    tie_break: str = "prefer-last-value"
    abnormal_threshold: int | None = None
    min_duration_frames: int | None = None
    merge_gap_frames: int | None = None
    density_model_path: str | None = None

    @classmethod
    def load(cls, config_path: str | None, overrides: dict) -> "PipelineConfig":
        """Config file first, then flag overrides (flags win)."""
        config = cls()
        if config_path is not None:
            try:
                raw = json.loads(Path(config_path).read_text("utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
            if not isinstance(raw, dict):
                raise ConfigError(f"config {config_path} must be a JSON object")
            unknown = set(raw) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
            for key, value in raw.items():
                if key == "fps_override" and value is not None:
                    value = parse_fps(value)
                setattr(config, key, value)
        for key, value in overrides.items():
            if value is not None:
                setattr(config, key, value)
        config.validate()
        return config

    def validate(self):
        if self.count_ceiling < 1:
            raise ConfigError(f"count_ceiling must be >= 1, got {self.count_ceiling}")
        if not 0.0 <= self.min_score <= 1.0:
            raise ConfigError(f"min_score must be in [0, 1], got {self.min_score}")
        if self.smoothing_divisor < 1:
            raise ConfigError(
                f"smoothing_divisor must be >= 1, got {self.smoothing_divisor}"
            )
        try:
            TieBreak(self.tie_break)
        except ValueError:
            raise ConfigError(
                f"tie_break must be one of {[t.value for t in TieBreak]}, "
                f"got {self.tie_break!r}"
            ) from None
        if self.abnormal_threshold is not None and self.abnormal_threshold < 1:
            raise ConfigError(
                f"abnormal_threshold must be >= 1, got {self.abnormal_threshold}"
            )

    def effective(self) -> dict:
        out = dataclasses.asdict(self)
        if out["fps_override"] is not None:
            out["fps_override"] = format_fps(out["fps_override"])
        return out


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _write(out_dir: Path, name: str, data) -> bytes:
    if isinstance(data, str):
        data = data.encode("utf-8")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_bytes(data)
    return data


# ---------------------------------------------------------------------------
# Stage functions (shared between subcommands and `run`)
# ---------------------------------------------------------------------------


def stage_count(detections_bytes: bytes, config: PipelineConfig, gray_frames=None):
    """Detections bytes -> routed CountSeries + rendered raw-counts CSV bytes.

    ``gray_frames`` (decoded from a gray container) feed density estimation
    for frames over the count ceiling.
    """
    frames, meta = parse_detections(detections_bytes)
    fps = config.fps_override or meta.fps
    policy = RoutingPolicy(
        count_ceiling=config.count_ceiling,
        min_score=config.min_score,
        person_class_id=config.person_class_id,
    )
    series = with_fps(count_series(frames, meta, policy), fps)
    needed = frames_needing_density(series, policy)
    density_counts = None
    if needed:
        if config.density_model_path is None:
            # route_counts raises the canonical RoutingError naming the frames
            route_counts(series, policy, None)
        regressor = regressor_from_json(_read_bytes(config.density_model_path).decode("utf-8"))
        if gray_frames is None:
            raise StageError(
                "frames exceed the count ceiling but no gray frame container was "
                f"supplied (frames: {needed[:10]})"
            )
        density_counts = estimate_density_counts(gray_frames, regressor, needed)
        log.info("density-estimated %d over-ceiling frame(s)", len(needed))
    routed = route_counts(series, policy, density_counts)
    stage_cfg = {
        "count_ceiling": config.count_ceiling,
        "min_score": config.min_score,
        "person_class_id": config.person_class_id,
    }
    csv_bytes = write_count_series(
        routed,
        comments=[
            f"config={_canonical(stage_cfg)}",
            f"input_sha256={_sha256(detections_bytes)}",
        ],
    )
    return routed, csv_bytes, meta


def stage_smooth(counts_csv: bytes, config: PipelineConfig, fps=None):
    """Counts CSV bytes -> smoothed CountSeries + rendered CSV bytes."""
    series = read_count_series(counts_csv, fps=config.fps_override or fps)
    params = SmoothingParams.from_fps(
        series.fps, config.smoothing_divisor, TieBreak(config.tie_break)
    )
    smoothed = smooth_series(series, params)
    stage_cfg = {
        "divisor": config.smoothing_divisor,
        "tie_break": config.tie_break,
        "window_half_length": params.window_half_length,
    }
    csv_bytes = write_count_series(
        smoothed,
        comments=[
            f"config={_canonical(stage_cfg)}",
            f"input_sha256={_sha256(counts_csv)}",
        ],
    )
    return smoothed, csv_bytes, params


def stage_segment(smoothed_csv: bytes, config: PipelineConfig, source: str, fps=None):
    """Smoothed CSV bytes -> segments + (segments.json, cutlist.txt) bytes."""
    if config.abnormal_threshold is None:
        raise ConfigError("abnormal_threshold is required for segment extraction")
    series = read_count_series(smoothed_csv, fps=config.fps_override or fps)
    half_length = window_length(series.fps, config.smoothing_divisor)
    policy = SegmentPolicy(
        abnormal_threshold=config.abnormal_threshold,
        min_duration_frames=config.min_duration_frames,
        merge_gap_frames=config.merge_gap_frames,
    ).resolved(half_length)
    segments = extract_segments(series, policy)
    report, sheet = emit_cutlist(segments, source)
    stage_cfg = {
        "abnormal_threshold": policy.abnormal_threshold,
        "min_duration_frames": policy.min_duration_frames,
        "merge_gap_frames": policy.merge_gap_frames,
    }
    header = (
        f"# config={_canonical(stage_cfg)}\n"
        f"# input_sha256={_sha256(smoothed_csv)}\n"
    )
    return segments, report.encode("utf-8"), (header + sheet).encode("utf-8")


def stage_eval(truth_csv: bytes, raw_csv: bytes, smoothed_csv: bytes, fps=None):
    truth = read_count_series(truth_csv, fps=fps)
    raw = read_count_series(raw_csv, fps=fps)
    smoothed = read_count_series(smoothed_csv, fps=fps)
    report = evaluate(truth, raw, smoothed)
    payload = {
        "ap_d": {"raw": report.ap_d_raw, "smoothed": report.ap_d_smoothed},
        "matched_ap_d": {
            "raw": matched_ap_d(raw, truth),
            "smoothed": matched_ap_d(smoothed, truth),
        },
        "total_detected_objects": report.total_detected_objects,
        "total_true_objects": report.total_true_objects,
        "per_count_table": {
            str(c): {"detected_frames": m1, "true_frames": m2}
            for c, (m1, m2) in report.per_count_table.items()
        },
        "input_sha256": {
            "truth": _sha256(truth_csv),
            "raw": _sha256(raw_csv),
            "smoothed": _sha256(smoothed_csv),
        },
    }
    table = render_table(
        {
            "raw": {"ap_d": report.ap_d_raw},
            "smoothed": {"ap_d": report.ap_d_smoothed},
        }
    )
    return report, (json.dumps(payload, indent=2) + "\n").encode("utf-8"), table


def run_pipeline(
    detections_path,
    config: PipelineConfig,
    output_dir,
    gray_frames_path=None,
    calibration_path=None,
    truth_path=None,
) -> dict:
    """End-to-end pipeline; writes all artifacts into ``output_dir``.

    Returns a manifest dict (also written as run_manifest.json). Identical
    inputs and config yield byte-identical artifacts.
    """
    out = Path(output_dir)
    detections_bytes = _read_bytes(detections_path)
    input_hashes = {"detections": _sha256(detections_bytes)}

    if calibration_path is not None and config.density_model_path is None:
        calibration_bytes = _read_bytes(calibration_path)
        input_hashes["calibration"] = _sha256(calibration_bytes)
        regressor = fit_regressor(read_calibration_csv(calibration_bytes))
        model_bytes = _write(out, "density_model.json", regressor_to_json(regressor))
        config = dataclasses.replace(
            config, density_model_path=str(out / "density_model.json")
        )
        input_hashes["density_model"] = _sha256(model_bytes)
    gray_frames = None
    if gray_frames_path is not None:
        gray_bytes = _read_bytes(gray_frames_path)
        input_hashes["gray_frames"] = _sha256(gray_bytes)
        gray_frames = load_gray_frames(gray_bytes)

    _, raw_csv, meta = stage_count(detections_bytes, config, gray_frames=gray_frames)
    _write(out, "raw_counts.csv", raw_csv)

    _, smoothed_csv, params = stage_smooth(raw_csv, config)
    _write(out, "smoothed_counts.csv", smoothed_csv)

    segments, report_bytes, cutlist_bytes = stage_segment(
        smoothed_csv, config, source=meta.source_id or str(detections_path)
    )
    _write(out, "segments.json", report_bytes)
    _write(out, "cutlist.txt", cutlist_bytes)

    if truth_path is not None:
        truth_bytes = _read_bytes(truth_path)
        input_hashes["truth"] = _sha256(truth_bytes)
        _, eval_bytes, table = stage_eval(
            truth_bytes, raw_csv, smoothed_csv, fps=config.fps_override or meta.fps
        )
        _write(out, "eval_report.json", eval_bytes)
        _write(out, "eval_report.txt", table)

    manifest = {
        "version": __version__,
        "effective_config": config.effective(),
        "window_half_length": params.window_half_length,
        "input_sha256": input_hashes,
        "segments": len(segments),
    }
    _write(out, "run_manifest.json", json.dumps(manifest, indent=2, sort_keys=True) + "\n")
    log.info("pipeline complete: %d segment(s), artifacts in %s", len(segments), out)
    return manifest


# ---------------------------------------------------------------------------
# CLI plumbing
# ---------------------------------------------------------------------------


def _exit_code_for(exc: Exception) -> int:
    if isinstance(exc, ConfigError):
        return EXIT_CONFIG_ERROR
    if isinstance(exc, InputFormatError):
        return EXIT_INPUT_ERROR
    if isinstance(exc, (StageError, ValueError)):
        return EXIT_STAGE_ERROR
    if isinstance(exc, OSError):
        return EXIT_INPUT_ERROR
    raise exc


def cli_command(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - mapped onto exit codes
            click.echo(f"error: {exc}", err=True)
            sys.exit(_exit_code_for(exc))

    return wrapper


def _fps_option(fn):
    return click.option(
        "--fps",
        "fps_flag",
        default=None,
        help="Frame rate override, N or N/D (e.g. 30000/1001).",
    )(fn)


def _parse_fps_flag(value):
    return parse_fps(value) if value is not None else None


@click.group()
@click.version_option(__version__)
def main():
    """Stabilize per-frame people counts and extract abnormal video segments."""
    logging.basicConfig(
        level=os.environ.get("CROWDGATE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.argument("detections", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@cli_command
def ingest(detections, out):
    """Validate a detections file; write the normalized copy and stream metadata."""
    from .ingest import serialize_detections

    data = _read_bytes(detections)
    frames, meta = parse_detections(data)
    out_dir = Path(out)
    _write(out_dir, "normalized.jsonl", serialize_detections(frames, meta))
    meta_doc = {
        "fps": format_fps(meta.fps),
        "frame_count": meta.frame_count,
        "source_id": meta.source_id,
        "gaps": [list(g) for g in meta.gaps],
        "input_sha256": _sha256(data),
    }
    _write(out_dir, "stream_meta.json", json.dumps(meta_doc, indent=2, sort_keys=True) + "\n")
    click.echo(f"{meta.frame_count} frame(s), fps {format_fps(meta.fps)}, {len(meta.gaps)} gap(s)")


@main.command()
@click.argument("detections", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--config", "config_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--ceiling", "count_ceiling", type=int, default=None, help="Detector count ceiling (default 25).")
@click.option("--min-score", type=float, default=None)
@click.option("--person-class", "person_class_id", type=int, default=None)
@click.option("--gray", "gray_path", default=None, type=click.Path(exists=True, dir_okay=False), help="Gray frame container for the density path.")
@click.option("--model", "model_path", default=None, type=click.Path(exists=True, dir_okay=False), help="Fitted density model JSON.")
@_fps_option
@cli_command
def count(detections, out, config_path, count_ceiling, min_score, person_class_id, gray_path, model_path, fps_flag):
    """Count people per frame and route over-ceiling frames to density estimation."""
    config = PipelineConfig.load(
        config_path,
        {
            "count_ceiling": count_ceiling,
            "min_score": min_score,
            "person_class_id": person_class_id,
            "density_model_path": model_path,
            "fps_override": _parse_fps_flag(fps_flag),
        },
    )
    gray_frames = None
    if gray_path is not None:
        gray_frames = load_gray_frames(_read_bytes(gray_path))
    _, csv_bytes, _ = stage_count(_read_bytes(detections), config, gray_frames=gray_frames)
    _write(Path(out), "raw_counts.csv", csv_bytes)


@main.command("density-fit")
@click.argument("calibration", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Output model JSON path.")
@click.option("--fg-threshold", type=float, default=25.0, show_default=True)
@cli_command
def density_fit(calibration, out, fg_threshold):
    """Fit the (area, edge) -> count regressor from a calibration CSV."""
    samples = read_calibration_csv(_read_bytes(calibration))
    regressor = fit_regressor(samples, fg_threshold=fg_threshold)
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text(regressor_to_json(regressor), "utf-8")
    click.echo(
        f"fit on {len(samples)} sample(s): area {regressor.coef_area:.6g}, "
        f"edge {regressor.coef_edge:.6g}, intercept {regressor.intercept:.6g}"
    )


@main.command("density-predict")
@click.argument("gray", type=click.Path(exists=True, dir_okay=False))
@click.argument("model", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Output CSV path.")
@cli_command
def density_predict(gray, model, out):
    """Predict a density count for every frame of a gray container."""
    frames = load_gray_frames(_read_bytes(gray))
    regressor = regressor_from_json(_read_bytes(model).decode("utf-8"))
    counts = estimate_density_counts(frames, regressor, range(len(frames)))
    lines = ["frame_index,count"] + [f"{i},{counts[i]}" for i in range(len(frames))]
    Path(out).parent.mkdir(parents=True, exist_ok=True)
    Path(out).write_text("".join(line + "\n" for line in lines), "utf-8")


@main.command()
@click.argument("counts_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--config", "config_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--divisor", "smoothing_divisor", type=int, default=None, help="Window = fps/divisor (default 3).")
@click.option("--tie-break", type=click.Choice([t.value for t in TieBreak]), default=None)
@_fps_option
@cli_command
def smooth(counts_csv, out, config_path, smoothing_divisor, tie_break, fps_flag):
    """Remove detection jitter from a count series CSV."""
    config = PipelineConfig.load(
        config_path,
        {
            "smoothing_divisor": smoothing_divisor,
            "tie_break": tie_break,
            "fps_override": _parse_fps_flag(fps_flag),
        },
    )
    _, csv_bytes, _ = stage_smooth(_read_bytes(counts_csv), config)
    _write(Path(out), "smoothed_counts.csv", csv_bytes)


@main.command()
@click.argument("counts_csv", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--config", "config_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--threshold", "abnormal_threshold", type=int, default=None, help="Abnormal count threshold (strict).")
@click.option("--min-duration", "min_duration_frames", type=int, default=None)
@click.option("--merge-gap", "merge_gap_frames", type=int, default=None)
@click.option("--divisor", "smoothing_divisor", type=int, default=None)
@click.option("--source", default=None, help="Source video path used in the cut list.")
@_fps_option
@cli_command
def segment(counts_csv, out, config_path, abnormal_threshold, min_duration_frames, merge_gap_frames, smoothing_divisor, source, fps_flag):
    """Extract abnormal segments and emit the segment report and FFmpeg cut list."""
    config = PipelineConfig.load(
        config_path,
        {
            "abnormal_threshold": abnormal_threshold,
            "min_duration_frames": min_duration_frames,
            "merge_gap_frames": merge_gap_frames,
            "smoothing_divisor": smoothing_divisor,
            "fps_override": _parse_fps_flag(fps_flag),
        },
    )
    data = _read_bytes(counts_csv)
    segments, report_bytes, cutlist_bytes = stage_segment(
        data, config, source=source or counts_csv
    )
    out_dir = Path(out)
    _write(out_dir, "segments.json", report_bytes)
    _write(out_dir, "cutlist.txt", cutlist_bytes)
    click.echo(f"{len(segments)} segment(s)")


@main.command("eval")
@click.option("--truth", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--raw", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--smoothed", required=True, type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@_fps_option
@cli_command
def eval_cmd(truth, raw, smoothed, out, fps_flag):
    """Compare raw and smoothed series against ground truth."""
    report, eval_bytes, table = stage_eval(
        _read_bytes(truth),
        _read_bytes(raw),
        _read_bytes(smoothed),
        fps=_parse_fps_flag(fps_flag),
    )
    out_dir = Path(out)
    _write(out_dir, "eval_report.json", eval_bytes)
    _write(out_dir, "eval_report.txt", table)
    click.echo(table, nl=False)


@main.command()
@click.option("--profile", required=True, help="Piecewise-constant truth, e.g. '100x5,50x12' (frames x count).")
@click.option("--seed", type=int, required=True)
@click.option("--spike-probability", "-p", type=float, default=0.1, show_default=True)
@click.option("--magnitude", type=int, default=3, show_default=True)
@click.option("--run-length", type=int, default=2, show_default=True)
@click.option("--out", required=True, type=click.Path(file_okay=False))
@_fps_option
@cli_command
def synth(profile, seed, spike_probability, magnitude, run_length, out, fps_flag):
    """Generate a reproducible (truth, jittered) synthetic count-series pair."""
    pieces = []
    for token in profile.split(","):
        run, _, value = token.strip().partition("x")
        try:
            pieces.append((int(run), int(value)))
        except ValueError:
            raise ConfigError(f"bad profile token {token!r}, expected FRAMESxCOUNT") from None
    fps = _parse_fps_flag(fps_flag) or Fraction(30)
    truth, jittered = generate_synthetic(
        pieces,
        JitterSpec(spike_probability, magnitude, run_length, seed),
        fps=fps,
    )
    out_dir = Path(out)
    _write(out_dir, "truth.csv", write_count_series(truth, comments=[f"seed={seed}"]))
    _write(out_dir, "jittered.csv", write_count_series(jittered, comments=[f"seed={seed}"]))


@main.command()
@click.argument("detections", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(file_okay=False))
@click.option("--config", "config_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--ceiling", "count_ceiling", type=int, default=None)
@click.option("--min-score", type=float, default=None)
@click.option("--person-class", "person_class_id", type=int, default=None)
@click.option("--threshold", "abnormal_threshold", type=int, default=None)
@click.option("--min-duration", "min_duration_frames", type=int, default=None)
@click.option("--merge-gap", "merge_gap_frames", type=int, default=None)
@click.option("--divisor", "smoothing_divisor", type=int, default=None)
@click.option("--tie-break", type=click.Choice([t.value for t in TieBreak]), default=None)
@click.option("--gray", "gray_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--model", "model_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--calibration", "calibration_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--truth", "truth_path", default=None, type=click.Path(exists=True, dir_okay=False))
@_fps_option
@cli_command
def run(detections, out, config_path, count_ceiling, min_score, person_class_id, abnormal_threshold, min_duration_frames, merge_gap_frames, smoothing_divisor, tie_break, gray_path, model_path, calibration_path, truth_path, fps_flag):
    """Run the whole pipeline: count, route, smooth, segment, (optionally) evaluate."""
    config = PipelineConfig.load(
        config_path,
        {
            "count_ceiling": count_ceiling,
            "min_score": min_score,
            "person_class_id": person_class_id,
            "abnormal_threshold": abnormal_threshold,
            "min_duration_frames": min_duration_frames,
            "merge_gap_frames": merge_gap_frames,
            "smoothing_divisor": smoothing_divisor,
            "tie_break": tie_break,
            "density_model_path": model_path,
            "fps_override": _parse_fps_flag(fps_flag),
        },
    )
    manifest = run_pipeline(
        detections,
        config,
        out,
        gray_frames_path=gray_path,
        calibration_path=calibration_path,
        truth_path=truth_path,
    )
    click.echo(f"{manifest['segments']} segment(s); artifacts in {out}")


if __name__ == "__main__":
    main()
