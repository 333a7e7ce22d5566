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
import os
import sys
from fractions import Fraction
from pathlib import Path

import click

from . import __version__
# count_series, parse_detections and matched_ap_d are imported but not
# called here: the benchmark's tracer hooks them at this module.
from .counting import (
    RoutingPolicy,
    count_detections,
    count_series,
    frames_needing_density,
    read_count_series,
    route_counts,
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
from .ingest import (
    _GRAY_WINDOW_BYTES,
    _map_bytes,
    _releaser,
    format_fps,
    load_gray_frames,
    normalize_detections,
    parse_detections,
    parse_fps,
)
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
            except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise ConfigError(f"cannot read config {config_path}: {exc}") from exc
            if not isinstance(settings, dict):
                raise ConfigError(f"config {config_path} must be a JSON object")
            with _named(config_path):  # the file's own settings, checked before the flags
                unknown = set(settings) - {f.name for f in dataclasses.fields(cls)}
                if unknown:
                    raise ConfigError(f"unknown config key(s): {sorted(unknown)}")
                if settings.get("fps_override") is not None:
                    settings["fps_override"] = _config_fps(settings["fps_override"])
                cls(**settings).validate()
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
        # load() parses a file's fps; a caller's must already be a Fraction
        _expect_type(
            "fps_override", self.fps_override, (Fraction, type(None)), "a Fraction or null"
        )
        if self.fps_override is not None and self.fps_override <= 0:
            raise ConfigError(f"fps_override must be > 0, got {format_fps(self.fps_override)}")
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


def _config_fps(value) -> Fraction:
    """``parse_fps(value)`` of a setting, with its error raised as a config error."""
    try:
        return parse_fps(value)
    except InputFormatError as exc:
        raise ConfigError(str(exc)) from None


def _policy(cls, *args):
    """``cls(*args)``, with the range errors (ValueError) of a policy or of
    the settings it checks raised as config errors."""
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


def _sha256(data) -> str:
    """Hex SHA-256 of ``data``: bytes, or a mapping of a file (``_map_bytes``).

    ``data`` is hashed a gray container's window (``_GRAY_WINDOW_BYTES``,
    2 MiB) at a time, as the density loop walks it, and a mapping's pages
    are released behind each window (``ingest._releaser``), so hashing a
    gray container costs about a window of memory, not its size.
    """
    digest = hashlib.sha256()
    release = _releaser(data)
    with memoryview(data) as view:
        for start in range(0, len(data), _GRAY_WINDOW_BYTES):
            end = min(start + _GRAY_WINDOW_BYTES, len(data))
            digest.update(view[start:end])
            release(end)
    return digest.hexdigest()


def _read_bytes(path) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc


@contextlib.contextmanager
def _named(path):
    """Name ``path`` in an input or config error raised inside, unless the
    error names its line or the path already, or ``path`` is None."""
    try:
        yield
    except (InputFormatError, ConfigError) as exc:
        if path is None or getattr(exc, "line", None) is not None or str(path) in str(exc):
            raise
        raise type(exc)(f"{exc} (in {path})") from exc


def _write(out_dir: Path, name: str, data) -> None:
    if isinstance(data, str):
        data = data.encode("utf-8")
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / name).write_bytes(data)


# ---------------------------------------------------------------------------
# Stages: series steps, which ``run`` chains, and bytes entry points, which
# read a CSV and call the same step
# ---------------------------------------------------------------------------


def stage_count(detections, config: PipelineConfig, gray_frames=None, regressor=None):
    """Detections stream -> routed CountSeries, raw-counts CSV bytes and
    StreamMeta, whose ``sha256`` is the stream's hash.

    ``detections`` is the stream's bytes or a mapping of its file, walked
    and hashed in windows by ``count_detections``, which releases the
    mapped pages behind them (``ingest._releaser``). Frames over the count
    ceiling get their counts from ``regressor`` (a ``DensityRegressor``)
    run over ``gray_frames``, the (n, height, width) array of a gray
    container. A container too short for a routed frame raises
    InputFormatError.
    """
    policy = config.routing_policy()
    series, meta = count_detections(detections, policy)
    series = dataclasses.replace(series, fps=Fraction(config.fps_override or meta.fps))
    needed = frames_needing_density(series, policy)
    density_counts = None
    # without a regressor, route_counts raises the RoutingError naming them
    if len(needed) and regressor is not None:
        if gray_frames is None:
            raise StageError(
                "frames exceed the count ceiling but no gray frame container was "
                f"supplied (frames: {needed[:10].tolist()})"
            )
        _check_gray_frames(gray_frames, needed)
        density_counts = estimate_density_counts(gray_frames, regressor, needed)
        log.info("density-estimated %d over-ceiling frame(s)", len(needed))
    routed = route_counts(series, policy, density_counts)
    csv_bytes = write_count_series(routed, comments=_provenance(policy, meta.sha256))
    return routed, csv_bytes, meta


def _check_gray_frames(gray_frames, wanted=None):
    """Raise InputFormatError unless the gray container holds a frame and
    every frame of ``wanted``, an array of frame positions, if given."""
    beyond = [] if wanted is None else wanted[wanted >= len(gray_frames)]
    if len(gray_frames) == 0 or len(beyond):
        shown = ""
        if len(beyond):
            shown = f"; {len(beyond)} routed frame(s) beyond it: {beyond[:10].tolist()}"
        raise InputFormatError(f"gray container holds {len(gray_frames)} frame(s){shown}")


def smooth_step(series, config: PipelineConfig, input_sha256: str):
    """CountSeries -> smoothed CountSeries, its CSV bytes and the SmoothingParams."""
    params = config.smoothing_params(series.fps)
    smoothed = smooth_series(series, params)
    csv_bytes = write_count_series(smoothed, comments=_provenance(params, input_sha256))
    return smoothed, csv_bytes, params


def stage_smooth(counts_csv, config: PipelineConfig, name="count CSV"):
    """Counts CSV, bytes or a mapping -> smooth_step of the series it holds;
    InputFormatError naming the CSV ``name`` if it holds no frame."""
    with _named(name):
        series, input_sha256 = _read_hashed(counts_csv, config.fps_override)
    return smooth_step(_nonempty(series, name), config, input_sha256)


def _read_hashed(csv, fps=None):
    """(``read_count_series`` of ``csv``, hex SHA-256 of ``csv``), the hash
    taken on the read's threads."""
    digest = hashlib.sha256()
    series = read_count_series(csv, fps=fps, digest=digest)
    return series, digest.hexdigest()


def _nonempty(series, name: str):
    """``series``, or InputFormatError naming the input ``name`` if it holds no frame."""
    if not len(series):
        raise InputFormatError(f"{name} holds no frames")
    return series


def segment_step(series, policy: SegmentPolicy, source: str, input_sha256: str):
    """Smoothed CountSeries -> segments + (segments.json, cutlist.txt) bytes.

    ``policy`` is resolved against the smoothing window.
    """
    segments = extract_segments(series, policy)
    report, sheet = emit_cutlist(segments, source)
    header = "".join(f"# {line}\n" for line in _provenance(policy, input_sha256))
    return segments, report.encode("utf-8"), (header + sheet).encode("utf-8")


def stage_segment(smoothed_csv, config: PipelineConfig, source: str, name="count CSV"):
    """Smoothed CSV, bytes or a mapping -> segment_step of the series it
    holds; InputFormatError naming the CSV ``name`` if it holds no frame."""
    policy = config.segment_policy()
    with _named(name):
        series, input_sha256 = _read_hashed(smoothed_csv, config.fps_override)
    series = _nonempty(series, name)
    resolved = policy.resolved(window_length(series.fps, config.smoothing_divisor))
    return segment_step(series, resolved, source, input_sha256)


def eval_step(truth, raw, smoothed, input_sha256: dict):
    """Truth, raw and smoothed CountSeries -> report + (JSON bytes, text table).

    ``input_sha256`` maps "truth", "raw" and "smoothed" to their CSVs' hashes.
    """
    _same_length(truth=truth, raw=raw, smoothed=smoothed)
    report = evaluate(truth, raw, smoothed)
    payload = {
        "ap_d": {"raw": report.ap_d_raw, "smoothed": report.ap_d_smoothed},
        "matched_ap_d": {"raw": report.matched_ap_d_raw, "smoothed": report.matched_ap_d_smoothed},
        "total_detected_objects": report.total_detected_objects,
        "total_true_objects": report.total_true_objects,
        "per_count_table": {
            str(c): {"detected_frames": m1, "true_frames": m2}
            for c, (m1, m2) in report.per_count_table.items()
        },
        "input_sha256": input_sha256,
    }
    return report, (json.dumps(payload, indent=2) + "\n").encode("utf-8"), render_table(report)


def _same_length(**series):
    """Raise InputFormatError naming each series' frame count unless all are equal."""
    if len({len(one) for one in series.values()}) > 1:
        frames = ", ".join(f"{name} {len(one)}" for name, one in series.items())
        raise InputFormatError(f"count series differ in length (frames: {frames})")


_EVAL_INPUTS = ("truth", "raw", "smoothed")


def stage_eval(truth_csv, raw_csv, smoothed_csv, fps=None, names=None):
    """Truth, raw and smoothed CSVs, each bytes or a mapping -> eval_step of
    the series they hold; InputFormatError naming a CSV that holds no frame
    by its entry of ``names`` ("truth count CSV" and so on by default)."""
    names = names or [f"{key} count CSV" for key in _EVAL_INPUTS]
    series, input_sha256 = [], {}
    for key, csv, name in zip(_EVAL_INPUTS, (truth_csv, raw_csv, smoothed_csv), names):
        with _named(name):
            one, input_sha256[key] = _read_hashed(csv, fps)
        series.append(_nonempty(one, name))
    with _named(", ".join(names)):  # series of unequal lengths
        return eval_step(*series, input_sha256)


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
    # Mapped, not copied: stage_count walks and hashes it a window at a time.
    detections = _map_bytes(detections_path)
    input_hashes = {}

    # The configured model wins over one fitted from the calibration CSV.
    model_bytes = fitted_bytes = None
    if config.density_model_path is not None:
        model_bytes = _read_bytes(config.density_model_path)
    elif calibration_path is not None:
        calibration_bytes = _read_bytes(calibration_path)
        input_hashes["calibration"] = _sha256(calibration_bytes)
        with _named(calibration_path):
            samples = read_calibration_csv(calibration_bytes)
        fitted = fit_regressor(samples)
        model_bytes = fitted_bytes = regressor_to_json(fitted).encode("utf-8")
    regressor = None
    if model_bytes is not None:
        input_hashes["density_model"] = _sha256(model_bytes)
        with _named(config.density_model_path):
            regressor = regressor_from_json(model_bytes)

    with contextlib.ExitStack() as stack:
        # The gray container is mapped, not copied, and hashed on a thread
        # while the stages run; only the manifest needs its hash. The
        # executor is shut down, so the thread joined, however this exits.
        gray_frames = gray_sha256 = None
        if gray_frames_path is not None:
            from concurrent.futures import ThreadPoolExecutor  # not for every command

            gray = _map_bytes(gray_frames_path)
            gray_sha256 = stack.enter_context(ThreadPoolExecutor(1)).submit(_sha256, gray)
            with _named(gray_frames_path):
                gray_frames = load_gray_frames(gray)

        with _named(gray_frames_path):  # a container too short for a routed frame
            raw, raw_csv, meta = stage_count(
                detections, config, gray_frames=gray_frames, regressor=regressor
            )
        _nonempty(raw, f"detections stream {detections_path}")
        input_hashes["detections"] = meta.sha256
        # checked before any artifact is written: a mismatched truth leaves none
        truth = None
        if truth_path is not None:
            with _named(truth_path):
                truth, input_hashes["truth"] = _read_hashed(_map_bytes(truth_path), raw.fps)
                _same_length(truth=truth, raw=raw)
        if fitted_bytes is not None:
            _write(out, "density_model.json", fitted_bytes)
        # Only the series go on: a CSV's bytes, as long as the stream, are
        # dropped once written and hashed.
        _write(out, "raw_counts.csv", raw_csv)
        csv_hashes = {"raw": _sha256(raw_csv)}
        del raw_csv

        smoothed, smoothed_csv, params = smooth_step(raw, config, csv_hashes["raw"])
        _write(out, "smoothed_counts.csv", smoothed_csv)
        csv_hashes["smoothed"] = _sha256(smoothed_csv)
        del smoothed_csv

        segments, report_bytes, cutlist_bytes = segment_step(
            smoothed,
            segment_policy.resolved(params.window_half_length),
            meta.source_id or str(detections_path),
            csv_hashes["smoothed"],
        )
        _write(out, "segments.json", report_bytes)
        _write(out, "cutlist.txt", cutlist_bytes)

        if truth is not None:
            _, eval_bytes, table = eval_step(
                truth, raw, smoothed, {"truth": input_hashes["truth"], **csv_hashes}
            )
            _write(out, "eval_report.json", eval_bytes)
            _write(out, "eval_report.txt", table)

        if gray_sha256 is not None:
            input_hashes["gray_frames"] = gray_sha256.result()
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


_INPUT_FILE = click.Path(exists=True, dir_okay=False)

# The options more than one command takes, each with its one help string.
_OPTIONS = {
    decls[0]: click.option(*decls, type=kind, default=None, help=text)
    for *decls, kind, text in [
        ("--config", "config_path", _INPUT_FILE, "Pipeline config JSON; flags override its keys."),
        ("--ceiling", "count_ceiling", int,
         "Frames counting more people go to the density path (default 25)."),
        ("--min-score", float, "Lowest detection score counted (default 0.5)."),
        ("--person-class", "person_class_id", int,
         "Detector class id counted as a person (default 0)."),
        ("--threshold", "abnormal_threshold", int, "Abnormal count threshold (strict)."),
        ("--min-duration", "min_duration_frames", int,
         "Shortest segment kept, in frames (default: the window radius)."),
        ("--merge-gap", "merge_gap_frames", int,
         "Longest gap merged between segments, in frames (default: the window radius)."),
        ("--divisor", "smoothing_divisor", int,
         "Window radius = floor(fps/divisor), at least 1 (default 3)."),
        ("--tie-break", click.Choice([t.value for t in TieBreak]),
         "Which count a tied window keeps (default prefer-last-value)."),
        ("--gray", "gray_path", _INPUT_FILE, "Gray frame container for the density path."),
        ("--model", "density_model_path", _INPUT_FILE, "Fitted density model JSON."),
        ("--fps", "fps_flag", str, "Frame rate override, N or N/D (e.g. 30000/1001)."),
    ]
}
_OPTIONS["--out"] = click.option(
    "--out", required=True, type=click.Path(file_okay=False), help="Output directory."
)


def _options(*flags):
    """The ``_OPTIONS`` of ``flags``, listed by --help in that order."""
    return lambda fn: functools.reduce(lambda f, flag: _OPTIONS[flag](f), reversed(flags), fn)


def _parse_fps_flag(value):
    return _config_fps(value) if value is not None else None


def _load_config(config_path, settings: dict, fps_flag, segmenting=False) -> PipelineConfig:
    """A command's config; ``settings`` holds its options named after config
    keys. A ``segmenting`` command needs a threshold, from the file or a flag."""
    overrides = {**settings, "fps_override": _parse_fps_flag(fps_flag)}
    config = PipelineConfig.load(config_path, overrides)
    if segmenting:
        with _named(config_path):
            config.segment_policy()
    return config


@click.group()
@click.version_option(__version__)
def main():
    """Stabilize per-frame people counts and extract abnormal video segments."""
    logging.basicConfig(
        level=os.environ.get("CROWDGATE_LOG", "WARNING").upper(),
        format="%(levelname)s %(name)s: %(message)s",
    )


@main.command()
@click.argument("detections", type=_INPUT_FILE)
@_options("--out")
@cli_command
def ingest(detections, out):
    """Validate a detections file; write the normalized copy and stream metadata."""
    # walked and hashed a window at a time, each window rendered once it is
    # scanned, so no box columns outlive their window, and the rendered
    # parts are written unjoined
    parts, meta = normalize_detections(_map_bytes(detections))
    out_dir = Path(out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "normalized.jsonl", "wb") as fh:
        fh.writelines(parts)
    meta_doc = {
        "fps": format_fps(meta.fps),
        "frame_count": meta.frame_count,
        "source_id": meta.source_id,
        "gaps": [list(g) for g in meta.gaps],
        "input_sha256": meta.sha256,
    }
    _write(out_dir, "stream_meta.json", json.dumps(meta_doc, indent=2, sort_keys=True) + "\n")
    click.echo(f"{meta.frame_count} frame(s), fps {format_fps(meta.fps)}, {len(meta.gaps)} gap(s)")


@main.command()
@click.argument("detections", type=_INPUT_FILE)
@_options(
    "--out", "--config", "--ceiling", "--min-score", "--person-class", "--gray", "--model", "--fps"
)
@cli_command
def count(detections, out, config_path, gray_path, fps_flag, **settings):
    """Count people per frame and route over-ceiling frames to density estimation."""
    config = _load_config(config_path, settings, fps_flag)
    regressor = None
    if config.density_model_path is not None:
        with _named(config.density_model_path):
            regressor = regressor_from_json(_read_bytes(config.density_model_path))
    gray_frames = None
    if gray_path is not None:
        with _named(gray_path):
            gray_frames = load_gray_frames(_map_bytes(gray_path))
    with _named(gray_path):  # a container too short for a routed frame
        _, csv_bytes, _ = stage_count(
            _map_bytes(detections), config, gray_frames=gray_frames, regressor=regressor
        )
    _write(Path(out), "raw_counts.csv", csv_bytes)


@main.command("density-fit")
@click.argument("calibration", type=_INPUT_FILE)
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Output file path.")
@click.option("--fg-threshold", type=float, default=25.0, show_default=True)
@cli_command
def density_fit(calibration, out, fg_threshold):
    """Fit the (area, edge) -> count regressor from a calibration CSV; write it as JSON to --out."""
    if not (math.isfinite(fg_threshold) and fg_threshold >= 0):
        raise ConfigError(f"--fg-threshold must be finite and >= 0, got {fg_threshold}")
    with _named(calibration):
        samples = read_calibration_csv(_read_bytes(calibration))
    regressor = fit_regressor(samples, fg_threshold=fg_threshold)
    _write(Path(out).parent, Path(out).name, regressor_to_json(regressor))
    click.echo(
        f"fit on {len(samples)} sample(s): area {regressor.coef_area:.6g}, "
        f"edge {regressor.coef_edge:.6g}, intercept {regressor.intercept:.6g}"
    )


@main.command("density-predict")
@click.argument("gray", type=_INPUT_FILE)
@click.argument("model", type=_INPUT_FILE)
@click.option("--out", required=True, type=click.Path(dir_okay=False), help="Output file path.")
@cli_command
def density_predict(gray, model, out):
    """Predict a density count for every frame of a gray container; write them as CSV to --out."""
    with _named(gray):
        frames = load_gray_frames(_map_bytes(gray))
        _check_gray_frames(frames)
    with _named(model):
        regressor = regressor_from_json(_read_bytes(model))
    counts = estimate_density_counts(frames, regressor, range(len(frames)))
    lines = ["frame_index,count"] + [f"{i},{c}" for i, c in enumerate(counts.tolist())]
    _write(Path(out).parent, Path(out).name, "".join(line + "\n" for line in lines))


@main.command()
@click.argument("counts_csv", type=_INPUT_FILE)
@_options("--out", "--config", "--divisor", "--tie-break", "--fps")
@cli_command
def smooth(counts_csv, out, config_path, fps_flag, **settings):
    """Remove detection jitter from a count series CSV."""
    config = _load_config(config_path, settings, fps_flag)
    _, csv_bytes, _ = stage_smooth(_map_bytes(counts_csv), config, f"count CSV {counts_csv}")
    _write(Path(out), "smoothed_counts.csv", csv_bytes)


@main.command()
@click.argument("counts_csv", type=_INPUT_FILE)
@_options("--out", "--config", "--threshold", "--min-duration", "--merge-gap", "--divisor")
@click.option("--source", default=None, help="Source video path used in the cut list.")
@_options("--fps")
@cli_command
def segment(counts_csv, out, config_path, source, fps_flag, **settings):
    """Extract abnormal segments and emit the segment report and FFmpeg cut list."""
    config = _load_config(config_path, settings, fps_flag, segmenting=True)
    segments, report_bytes, cutlist_bytes = stage_segment(
        _map_bytes(counts_csv), config, source=source or counts_csv, name=f"count CSV {counts_csv}"
    )
    out_dir = Path(out)
    _write(out_dir, "segments.json", report_bytes)
    _write(out_dir, "cutlist.txt", cutlist_bytes)
    click.echo(f"{len(segments)} segment(s)")


@main.command("eval")
@click.option("--truth", required=True, type=_INPUT_FILE, help="Ground-truth count CSV.")
@click.option("--raw", required=True, type=_INPUT_FILE, help="Raw count CSV.")
@click.option("--smoothed", required=True, type=_INPUT_FILE, help="Smoothed count CSV.")
@_options("--out", "--fps")
@cli_command
def eval_cmd(truth, raw, smoothed, out, fps_flag):
    """Compare raw and smoothed series against ground truth."""
    paths = (truth, raw, smoothed)
    report, eval_bytes, table = stage_eval(
        *(_map_bytes(path) for path in paths),
        fps=_parse_fps_flag(fps_flag),
        names=[f"{key} count CSV {path}" for key, path in zip(_EVAL_INPUTS, paths)],
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
@_options("--out", "--fps")
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
    jitter = _policy(JitterSpec, spike_probability, magnitude, run_length, seed)
    # generate_synthetic range-checks the profile
    truth, jittered = _policy(generate_synthetic, pieces, jitter, fps)
    out_dir = Path(out)
    _write(out_dir, "truth.csv", write_count_series(truth, comments=[f"seed={seed}"]))
    _write(out_dir, "jittered.csv", write_count_series(jittered, comments=[f"seed={seed}"]))


@main.command()
@click.argument("detections", type=_INPUT_FILE)
@_options(
    "--out", "--config", "--ceiling", "--min-score", "--person-class", "--threshold",
    "--min-duration", "--merge-gap", "--divisor", "--tie-break", "--gray", "--model",
)
@click.option(
    "--calibration", "calibration_path", default=None, type=_INPUT_FILE,
    help="Calibration CSV to fit the density model from, unless --model is given.",
)
@click.option("--truth", "truth_path", default=None, type=_INPUT_FILE, help="Ground-truth count CSV.")
@_options("--fps")
@cli_command
def run(detections, out, config_path, gray_path, calibration_path, truth_path, fps_flag, **settings):
    """Run the whole pipeline: count, route, smooth, segment, (optionally) evaluate."""
    config = _load_config(config_path, settings, fps_flag, segmenting=True)
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
