"""Command-line pipeline: each stage as a subcommand, plus ``run`` for the whole chain.

``run`` hands each stage's CountSeries to the next in memory. A subcommand
reads its count CSV input and calls the same stage step, so composing
subcommands reproduces ``run``'s artifacts byte for byte. Every stage
artifact carries its stage's policy and the SHA-256 of its input (as ``#``
comment lines in the text formats), making runs auditable and reproducible.

Exit codes: 0 success, 2 input error, 3 config error, 4 stage failure.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import hashlib
import json
import logging
import math
import mmap
import os
import stat
import sys
import threading
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
        """Config file first, then flag overrides (flags win; None means unset)."""
        settings = {}
        if config_path is not None:
            try:
                settings = json.loads(Path(config_path).read_text("utf-8"))
            except (OSError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
            if not isinstance(settings, dict):
                raise ConfigError(f"config {config_path} must be a JSON object")
            unknown = set(settings) - {f.name for f in dataclasses.fields(cls)}
            if unknown:
                raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
            if settings.get("fps_override") is not None:
                settings["fps_override"] = parse_fps(settings["fps_override"])
        settings.update((key, value) for key, value in overrides.items() if value is not None)
        config = cls(**settings)
        config.validate()
        return config

    def validate(self):
        """Type-check every setting; the policies range-check them."""
        for key in ("count_ceiling", "person_class_id", "smoothing_divisor"):
            _expect_type(key, getattr(self, key), int, "an integer")
        for key in ("abnormal_threshold", "min_duration_frames", "merge_gap_frames"):
            _expect_type(key, getattr(self, key), (int, type(None)), "an integer or null")
        _expect_type("min_score", self.min_score, (int, float), "a number")
        _expect_type("tie_break", self.tie_break, str, "a string")
        _expect_type(
            "density_model_path", self.density_model_path, (str, type(None)), "a string or null"
        )
        self.routing_policy()
        # SmoothingParams needs the stream's fps, so the divisor is checked here
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
        # the frame settings are checked even where no threshold is needed
        threshold = 1 if self.abnormal_threshold is None else self.abnormal_threshold
        _policy(SegmentPolicy, threshold, self.min_duration_frames, self.merge_gap_frames)

    def routing_policy(self) -> RoutingPolicy:
        return _policy(RoutingPolicy, self.count_ceiling, self.min_score, self.person_class_id)

    def smoothing_params(self, fps) -> SmoothingParams:
        return SmoothingParams.from_fps(fps, self.smoothing_divisor, TieBreak(self.tie_break))

    def segment_policy(self) -> SegmentPolicy:
        """The unresolved policy: unset frame settings take the smoothing window later."""
        if self.abnormal_threshold is None:
            raise ConfigError("abnormal_threshold is required for segment extraction")
        return _policy(
            SegmentPolicy, self.abnormal_threshold, self.min_duration_frames, self.merge_gap_frames
        )

    def effective(self) -> dict:
        out = dataclasses.asdict(self)
        if out["fps_override"] is not None:
            out["fps_override"] = format_fps(out["fps_override"])
        return out


def _policy(cls, *args):
    """``cls(*args)``, with the policy's range errors raised as config errors."""
    try:
        return cls(*args)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _expect_type(key, value, types, expected):
    # bool is an int subclass, but true/false is never a count or a score
    if isinstance(value, bool) or not isinstance(value, types):
        raise ConfigError(f"{key} must be {expected}, got {value!r}")


def _canonical(obj) -> str:
    # an enum setting (TieBreak) is written as its value
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=lambda o: o.value)


def _provenance(policy, input_sha256: str) -> list[str]:
    """The comment lines of a stage artifact: the stage's policy and its input's hash."""
    return [
        f"config={_canonical(dataclasses.asdict(policy))}",
        f"input_sha256={input_sha256}",
    ]


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


def _map_bytes(path):
    """A read-only ``mmap`` of a non-empty regular file; anything else read whole.

    Mapping copies nothing: pages come from the OS page cache as they are
    touched, and the mapping is released when the last array viewing it is
    freed. A FIFO, an empty file, or a file that cannot be mapped is read
    into ``bytes`` as ``_read_bytes`` would.
    """
    try:
        with open(path, "rb") as fh:
            info = os.fstat(fh.fileno())
            if stat.S_ISREG(info.st_mode) and info.st_size > 0:
                try:
                    return mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                except (OSError, ValueError):
                    pass  # e.g. a file system without mmap, or a file emptied meanwhile
            return fh.read()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


class _BackgroundSha256:
    """The SHA-256 of ``data``, hashed on its own thread from construction on.

    ``hashlib`` releases the GIL while it hashes a large buffer, so the hash
    overlaps the caller's work. As a context manager it joins the thread on
    exit, however the block exits. The thread calls none of the functions
    the benchmark's tracer wraps: its span stack assumes one thread.
    """

    def __init__(self, data):
        self._result = None
        self._thread = threading.Thread(target=self._hash, args=(data,))
        self._thread.start()

    def _hash(self, data):
        try:
            self._result = _sha256(data)
        except Exception as exc:  # noqa: BLE001 - re-raised by hexdigest
            self._result = exc

    def hexdigest(self) -> str:
        self._thread.join()
        if isinstance(self._result, Exception):
            raise self._result
        return self._result

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._thread.join()


def _write(out_dir: Path, name: str, data) -> bytes:
    if isinstance(data, str):
        data = data.encode("utf-8")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_bytes(data)
    return data


# ---------------------------------------------------------------------------
# Stages: series steps, which ``run`` chains, and bytes entry points, which
# read a CSV and call the same step
# ---------------------------------------------------------------------------


def stage_count(
    detections_bytes: bytes,
    config: PipelineConfig,
    gray_frames=None,
    regressor=None,
    input_sha256: str | None = None,
):
    """Detections bytes -> routed CountSeries + rendered raw-counts CSV bytes.

    Frames over the count ceiling get their counts from ``regressor`` (a
    ``DensityRegressor``) run over ``gray_frames``, the (n, height, width)
    array of a gray container. ``input_sha256`` is the detections' hash, if
    the caller has it already.
    """
    policy = config.routing_policy()
    frames, meta = parse_detections(detections_bytes)
    series = with_fps(count_series(frames, meta, policy), config.fps_override or meta.fps)
    needed = frames_needing_density(series, policy)
    density_counts = None
    if needed:
        if regressor is None:
            # route_counts raises the canonical RoutingError naming the frames
            route_counts(series, policy, None)
        if gray_frames is None:
            raise StageError(
                "frames exceed the count ceiling but no gray frame container was "
                f"supplied (frames: {needed[:10]})"
            )
        density_counts = estimate_density_counts(gray_frames, regressor, needed)
        log.info("density-estimated %d over-ceiling frame(s)", len(needed))
    routed = route_counts(series, policy, density_counts)
    if input_sha256 is None:
        input_sha256 = _sha256(detections_bytes)
    csv_bytes = write_count_series(routed, comments=_provenance(policy, input_sha256))
    return routed, csv_bytes, meta


def smooth_step(series, config: PipelineConfig, input_sha256: str):
    """CountSeries -> smoothed CountSeries, its CSV bytes and the SmoothingParams."""
    params = config.smoothing_params(series.fps)
    smoothed = smooth_series(series, params)
    csv_bytes = write_count_series(smoothed, comments=_provenance(params, input_sha256))
    return smoothed, csv_bytes, params


def stage_smooth(counts_csv: bytes, config: PipelineConfig):
    """Counts CSV bytes -> smooth_step of the series they hold."""
    series = read_count_series(counts_csv, fps=config.fps_override)
    return smooth_step(series, config, _sha256(counts_csv))


def segment_step(series, policy: SegmentPolicy, source: str, input_sha256: str):
    """Smoothed CountSeries -> segments + (segments.json, cutlist.txt) bytes.

    ``policy`` is resolved against the smoothing window.
    """
    segments = extract_segments(series, policy)
    report, sheet = emit_cutlist(segments, source)
    header = "".join(f"# {line}\n" for line in _provenance(policy, input_sha256))
    return segments, report.encode("utf-8"), (header + sheet).encode("utf-8")


def stage_segment(smoothed_csv: bytes, config: PipelineConfig, source: str):
    """Smoothed CSV bytes -> segment_step of the series they hold."""
    policy = config.segment_policy()
    series = read_count_series(smoothed_csv, fps=config.fps_override)
    resolved = policy.resolved(window_length(series.fps, config.smoothing_divisor))
    return segment_step(series, resolved, source, _sha256(smoothed_csv))


def eval_step(truth, raw, smoothed, input_sha256: dict):
    """Truth, raw and smoothed CountSeries -> report + (JSON bytes, text table).

    ``input_sha256`` maps "truth", "raw" and "smoothed" to their CSVs' hashes.
    """
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
        "input_sha256": input_sha256,
    }
    table = render_table(
        {
            "raw": {"ap_d": report.ap_d_raw},
            "smoothed": {"ap_d": report.ap_d_smoothed},
        }
    )
    return report, (json.dumps(payload, indent=2) + "\n").encode("utf-8"), table


def stage_eval(truth_csv: bytes, raw_csv: bytes, smoothed_csv: bytes, fps=None):
    """Truth, raw and smoothed CSV bytes -> eval_step of the series they hold."""
    data = {"truth": truth_csv, "raw": raw_csv, "smoothed": smoothed_csv}
    truth, raw, smoothed = (read_count_series(csv, fps=fps) for csv in data.values())
    return eval_step(truth, raw, smoothed, {k: _sha256(csv) for k, csv in data.items()})


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
    inputs and config yield byte-identical artifacts. Every setting is
    checked before any input is read, so a bad config writes nothing.
    """
    config.validate()
    segment_policy = config.segment_policy()
    out = Path(output_dir)
    detections_bytes = _read_bytes(detections_path)
    input_hashes = {"detections": _sha256(detections_bytes)}

    # The configured model wins over one fitted from the calibration CSV.
    model_bytes = None
    if config.density_model_path is not None:
        model_bytes = _read_bytes(config.density_model_path)
    elif calibration_path is not None:
        calibration_bytes = _read_bytes(calibration_path)
        input_hashes["calibration"] = _sha256(calibration_bytes)
        fitted = fit_regressor(read_calibration_csv(calibration_bytes))
        model_bytes = _write(out, "density_model.json", regressor_to_json(fitted))
    regressor = None
    if model_bytes is not None:
        input_hashes["density_model"] = _sha256(model_bytes)
        regressor = regressor_from_json(model_bytes)

    with contextlib.ExitStack() as stack:
        # The gray container is mapped, not copied, and hashed on a thread
        # while the stages run; only the manifest needs its hash.
        gray_frames = gray_sha256 = None
        if gray_frames_path is not None:
            gray = _map_bytes(gray_frames_path)
            gray_sha256 = stack.enter_context(_BackgroundSha256(gray))
            gray_frames = load_gray_frames(gray)

        raw, raw_csv, meta = stage_count(
            detections_bytes,
            config,
            gray_frames=gray_frames,
            regressor=regressor,
            input_sha256=input_hashes["detections"],
        )
        _write(out, "raw_counts.csv", raw_csv)
        csv_hashes = {"raw": _sha256(raw_csv)}

        smoothed, smoothed_csv, params = smooth_step(raw, config, csv_hashes["raw"])
        _write(out, "smoothed_counts.csv", smoothed_csv)
        csv_hashes["smoothed"] = _sha256(smoothed_csv)

        segments, report_bytes, cutlist_bytes = segment_step(
            smoothed,
            segment_policy.resolved(params.window_half_length),
            meta.source_id or str(detections_path),
            csv_hashes["smoothed"],
        )
        _write(out, "segments.json", report_bytes)
        _write(out, "cutlist.txt", cutlist_bytes)

        if truth_path is not None:
            truth_bytes = _read_bytes(truth_path)
            input_hashes["truth"] = _sha256(truth_bytes)
            truth = read_count_series(truth_bytes, fps=raw.fps)
            _, eval_bytes, table = eval_step(
                truth, raw, smoothed, {"truth": input_hashes["truth"], **csv_hashes}
            )
            _write(out, "eval_report.json", eval_bytes)
            _write(out, "eval_report.txt", table)

        if gray_sha256 is not None:
            input_hashes["gray_frames"] = gray_sha256.hexdigest()
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


def _load_config(config_path, settings: dict, fps_flag) -> PipelineConfig:
    """A command's config; ``settings`` holds its options named after config keys."""
    overrides = {**settings, "fps_override": _parse_fps_flag(fps_flag)}
    return PipelineConfig.load(config_path, overrides)


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
@click.option("--model", "density_model_path", default=None, type=click.Path(exists=True, dir_okay=False), help="Fitted density model JSON.")
@_fps_option
@cli_command
def count(detections, out, config_path, gray_path, fps_flag, **settings):
    """Count people per frame and route over-ceiling frames to density estimation."""
    config = _load_config(config_path, settings, fps_flag)
    regressor = None
    if config.density_model_path is not None:
        regressor = regressor_from_json(_read_bytes(config.density_model_path))
    gray_frames = None
    if gray_path is not None:
        gray_frames = load_gray_frames(_map_bytes(gray_path))
    _, csv_bytes, _ = stage_count(
        _read_bytes(detections), config, gray_frames=gray_frames, regressor=regressor
    )
    _write(Path(out), "raw_counts.csv", csv_bytes)


@main.command("density-fit")
@click.argument("calibration", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Output model JSON path.")
@click.option("--fg-threshold", type=float, default=25.0, show_default=True)
@cli_command
def density_fit(calibration, out, fg_threshold):
    """Fit the (area, edge) -> count regressor from a calibration CSV."""
    if not (math.isfinite(fg_threshold) and fg_threshold >= 0):
        raise ConfigError(f"--fg-threshold must be finite and >= 0, got {fg_threshold}")
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
    frames = load_gray_frames(_map_bytes(gray))
    regressor = regressor_from_json(_read_bytes(model))
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
def smooth(counts_csv, out, config_path, fps_flag, **settings):
    """Remove detection jitter from a count series CSV."""
    config = _load_config(config_path, settings, fps_flag)
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
def segment(counts_csv, out, config_path, source, fps_flag, **settings):
    """Extract abnormal segments and emit the segment report and FFmpeg cut list."""
    config = _load_config(config_path, settings, fps_flag)
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
@click.option("--model", "density_model_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--calibration", "calibration_path", default=None, type=click.Path(exists=True, dir_okay=False))
@click.option("--truth", "truth_path", default=None, type=click.Path(exists=True, dir_okay=False))
@_fps_option
@cli_command
def run(detections, out, config_path, gray_path, calibration_path, truth_path, fps_flag, **settings):
    """Run the whole pipeline: count, route, smooth, segment, (optionally) evaluate."""
    config = _load_config(config_path, settings, fps_flag)
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
