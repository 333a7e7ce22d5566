"""End-to-end pipeline benchmark for crowdgate, one workload per invocation.

    python3 perfbench/run.py --workload detector_stream --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a source tree that has ``src/crowdgate``; it
needs nothing built. Each invocation

1. generates the workload's inputs from ``--seed`` in a child process
   (``measure.py gen``), under ``.perfbench/`` at the tree's root;
2. with ``--trace 0``, times ``import crowdgate.cli`` in fresh interpreters
   (``setup_s``, the cost every CLI invocation pays);
3. runs the workload alone in another child process (``measure.py run``)
   for ``--seconds``, checking every pass's artifacts, so that its peak RSS
   is that workload's own.

Timings are medians over passes (or imports) of each time scaled by the
reference probe run just before it (see ``reference.py``): seconds on a
host where the probe takes ``REF_S``. The report also prints the raw
medians, which move with the host's load.

It prints a human-readable report, then, as the last line, one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1`` (from
traced passes, alternating with untraced ones that give the overhead). The
full record (environment, input sizes, every pass's times) goes to
``.perfbench/result-<workload>-seed<n>-trace<t>.json``, and a traced run's
spans to ``.perfbench/trace-<workload>-seed<n>.json``. The exit code is 0
only when every pass was correct.

``perfbench/baseline.json`` holds the medians recorded when the benchmark
was defined; they are shown for comparison only when the kernel backend
matches, since the compiled and pure smoothing kernels are different code.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MEASURE = str(HERE / "measure.py")
WORKLOADS = ("detector_stream", "series_replay", "dense_crowd")
SETUP_SAMPLES = 7
MIB = 1 << 20
# Times the import, then runs the reference probe in the same interpreter.
IMPORT_CLI = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import crowdgate.cli; t = time.perf_counter() - t; sys.path.insert(0, sys.argv[2]); "
    "import reference; print(t, reference.Probe()())"
)
REF_S = 0.15  # reference.REF_S; the parent does not import numpy

END_TO_END = {
    "frames_per_s.ref": "1/s",
    "wall_s.p50.ref": "s",
    "peak_rss_mb": "MiB",
    "rss_over_input": "ratio",
    "setup_s": "s",
    "matched_ap_d": "ratio",
}
PER_LAYER = {
    "ingest.parse_s": "s",
    "ingest.boxes_per_s": "1/s",
    "ingest.input_mb": "MiB",
    "ingest.gray_load_s": "s",
    "counting.count_s": "s",
    "counting.routed_frames": "count",
    "counting.csv_read_s": "s",
    "counting.csv_rows_read": "count",
    "counting.csv_write_s": "s",
    "smoothing.stage_s": "s",
    "smoothing.kernel_s": "s",
    "smoothing.raw_changes": "count",
    "smoothing.frames_replaced": "count",
    "smoothing.kernel_share": "ratio",
    "density.estimate_s": "s",
    "density.bg_update_s": "s",
    "density.foreground_s": "s",
    "density.features_s": "s",
    "density.frames_scanned": "count",
    "density.frames_predicted": "count",
    "density.predict_yield": "ratio",
    "segmenting.extract_s": "s",
    "segmenting.emit_s": "s",
    "segmenting.segments": "count",
    "evaluation.eval_s": "s",
    "cli.artifact_mb": "MiB",
    "ingest.self_s": "s",
    "counting.self_s": "s",
    "density.self_s": "s",
    "smoothing.self_s": "s",
    "segmenting.self_s": "s",
    "evaluation.self_s": "s",
    "cli.self_s": "s",
    "trace.pass_s": "s",
    "trace.overhead_frac": "ratio",
}


class BenchError(Exception):
    pass


def child(args: list[str], timeout: float) -> str:
    """Run ``python3 args`` to completion; return the last line of its stdout."""
    try:
        proc = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{args[:2]} did not finish in {timeout:.0f} s") from None
    if proc.returncode != 0:
        tail = "\n".join(proc.stderr.strip().splitlines()[-5:])
        raise BenchError(f"{args[:2]} exited {proc.returncode}: {tail}")
    return proc.stdout.strip().splitlines()[-1]


def setup_samples() -> list[tuple[float, float]]:
    """(import seconds, probe seconds) of crowdgate.cli in fresh interpreters.

    One untimed warm-up import writes the bytecode caches first.
    """
    argv = ["-c", IMPORT_CLI, str(ROOT / "src"), str(HERE)]
    child(argv, 30)
    return [tuple(map(float, child(argv, 30).split())) for _ in range(SETUP_SAMPLES)]


def scaled(seconds: list[float], probes: list[float]) -> float:
    """Median of the times scaled to a host where the probe takes REF_S seconds."""
    return statistics.median(t * REF_S / p for t, p in zip(seconds, probes))


def git_rev() -> str:
    """Commit of the tree, read from .git without running git; 'unknown' outside a clone."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else []:
        if line.endswith(" " + ref[5:]):
            return line.split()[0]
    return "unknown"


def end_to_end(info: dict, res: dict, setup: list[tuple[float, float]]) -> dict[str, float]:
    wall_ref = scaled(res["wall_s"], res["probe_s"])
    metrics = {
        "frames_per_s.ref": info["frames"] / wall_ref,
        "wall_s.p50.ref": wall_ref,
        "peak_rss_mb": res["peak_rss_mb"],
        "rss_over_input": res["peak_rss_mb"] / (info["input_bytes"] / MIB),
        "setup_s": scaled(*zip(*setup)),
        "matched_ap_d": res["matched_ap_d"],  # None when no pass was correct
    }
    return {k: v for k, v in metrics.items() if v is not None}


def raw_timings(info: dict, res: dict, setup: list[tuple[float, float]]) -> dict[str, float]:
    """Unscaled medians, for the report: they move with the host's load."""
    wall = statistics.median(res["wall_s"])
    return {
        "frames_per_s": info["frames"] / wall,
        "wall_s.p50": wall,
        "cpu_s.p50": statistics.median(res["cpu_s"]),
        "probe_s.p50": statistics.median(res["probe_s"]),
        "import_s.p50": statistics.median(t for t, _ in setup),
    }


def baseline_for(workload: str, backend: str) -> dict:
    path = HERE / "baseline.json"
    if not path.is_file():
        return {}
    base = json.loads(path.read_text("utf-8"))
    if base["env"]["kernel_backend"] != backend:
        print(
            f"WARNING: kernel backend {backend!r} differs from the baseline's "
            f"{base['env']['kernel_backend']!r}; not comparing against it",
            file=sys.stderr,
        )
        return {}
    return base["workloads"].get(workload, {})


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", type=float, default=1.0,
                        help="input size relative to the defined workload (self-test only)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "crowdgate" / "__init__.py").is_file():
        print(f"error: no crowdgate package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    state = ROOT / ".perfbench"
    workdir = state / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    trace_file = state / f"trace-{args.workload}-seed{args.seed}.json"
    try:
        info = json.loads(child(
            [MEASURE, "gen", args.workload, str(args.seed), str(workdir), str(args.scale)], 60))
        setup = setup_samples() if args.trace == 0 else []
        res = json.loads(child(
            [MEASURE, "run", args.workload, str(workdir), str(args.seconds),
             str(args.trace), str(trace_file)], args.seconds + 60))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = {"git_rev": git_rev(), **res["env"], "nproc": len(os.sched_getaffinity(0))}
    correct = res["failed"] == 0
    if args.trace == 0:
        metrics, units = end_to_end(info, res, setup), END_TO_END
    else:
        metrics, units = res.get("layers", {}), PER_LAYER
    baseline = baseline_for(args.workload, env["kernel_backend"])

    print(f"crowdgate pipeline benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + " ".join(f"{k}={v}" for k, v in env.items()))
    print(f"input: {info['frames']} frames, {info['boxes']} boxes, "
          f"{info['input_bytes'] / MIB:.2f} MiB; generated in {info['gen_s']:.2f} s "
          "(not part of setup_s or wall_s)")
    print(f"passes: {res['attempted']} attempted (1 warm-up, {res['passes']} timed untraced), "
          f"{res['failed']} failed, failed_frac {res['failed'] / res['attempted']:g}")
    for problem in res["problems"]:
        print(f"  FAILED {problem}")
    if args.trace == 0:
        print(f"raw medians over {len(res['wall_s'])} passes and {len(setup)} imports, "
              "not scaled to the reference probe:")
        for name, value in raw_timings(info, res, setup).items():
            print(f"  {name:28s} {value:14.6g} {'1/s' if name.startswith('frames') else 's'}")
        print(f"metrics (timings scaled to a host where the probe takes {REF_S} s):")
    for name, unit in units.items():
        if name in metrics:
            was = f"   (baseline {baseline[name]:.6g})" if name in baseline else ""
            print(f"  {name:28s} {metrics[name]:14.6g} {unit}{was}")
    if res.get("accounted"):
        print(f"layer self times sum to {min(res['accounted']):.9f}..{max(res['accounted']):.9f} "
              "of each traced pass's wall time")
    result = {
        "correct": correct,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units if k in metrics},
    }
    record = {"args": vars(args), "env": env, "input": info, "setup_s": setup,
              "measure": {k: v for k, v in res.items() if k != "layers"}, **result}
    (state / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", "utf-8")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
