"""Child process of the benchmark: generate one workload's inputs, or measure it.

    python3 perfbench/measure.py gen WORKLOAD SEED WORKDIR SCALE
    python3 perfbench/measure.py run WORKLOAD WORKDIR SECONDS TRACE TRACE_FILE

Both print one JSON object as their last line of standard output. The
package is imported from the ``src`` directory next to this one; an
installed copy elsewhere is refused, so the benchmark always measures the
tree it ships with.
"""

from __future__ import annotations

import gc
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

import crowdgate  # noqa: E402

if not Path(crowdgate.__file__).resolve().is_relative_to(ROOT / "src"):
    sys.exit(f"crowdgate imported from {crowdgate.__file__}, not from {ROOT / 'src'}")

import reference  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3  # timed passes, so that a median exists


def gen(name: str, seed: int, workdir: Path, scale: float) -> dict:
    start = time.perf_counter()
    sizes = workloads.generate(name, seed, workdir, scale)
    return {**sizes, "gen_s": time.perf_counter() - start}


def measure(name: str, workdir: Path, seconds: float, spans: tracer.Tracer | None,
            run_pass=workloads.run_pass) -> dict:
    """Time passes of ``name`` for ``seconds``, checking every pass.

    One untimed warm-up pass fixes the reference artifacts, and the peak
    RSS is read right after it, before any check or probe allocates. The
    reference probe runs before every timed pass and once after the last;
    each pass is paired with the mean of the probes on either side of it.
    With a tracer the timed passes alternate untraced and traced, and the
    result carries the traced passes' per-layer medians and the tracing
    overhead.
    """
    expect = dict(np.load(workdir / "expect.npz"))
    out = workdir / "out"
    first = None  # artifact digests of the first correct pass
    problems = []

    def one_pass(pass_no: int, traced: bool) -> dict:
        nonlocal first
        shutil.rmtree(out, ignore_errors=True)
        gc.collect()
        cpu, wall = time.process_time(), time.perf_counter()
        found = []
        try:
            if traced:
                spans.run_pass(pass_no, run_pass, name, workdir, out)
            else:
                run_pass(name, workdir, out)
        except Exception as exc:  # noqa: BLE001 - a pass that raises counts as failed
            found.append(f"raised {exc!r}")
        record = {
            "wall_s": time.perf_counter() - wall,
            "cpu_s": time.process_time() - cpu,
            "traced": traced,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        if not found:
            try:
                found = workloads.verify(name, out, expect)
            except (OSError, ValueError, KeyError, IndexError) as exc:
                found.append(f"artifacts unreadable: {exc!r}")
        if not found:
            digests = workloads.digest(out)
            if first is None:
                first = digests
            elif digests != first:
                changed = sorted(k for k in first.keys() | digests.keys()
                                 if first.get(k) != digests.get(k))
                found.append(f"artifacts differ from the first pass: {changed}")
        record["ok"] = not found
        problems.extend(f"pass {pass_no}: {p}" for p in found)
        if record["ok"]:
            record["matched_ap_d"] = workloads.matched_ap_d(out)
            if traced:
                layer = spans.pass_metrics(pass_no)
                layer["cli.artifact_mb"] = sum(p.stat().st_size for p in out.iterdir()) / tracer.MIB
                record["layers"] = layer
        return record

    passes = [one_pass(0, False)]  # warm-up
    probe = reference.Probe()
    probes = []
    start = time.perf_counter()
    while len(passes) <= MIN_PASSES or time.perf_counter() - start + passes[-1]["wall_s"] <= seconds:
        probes.append(probe())
        passes.append(one_pass(len(passes), spans is not None and len(passes) % 2 == 0))
    probes.append(probe())
    for p, before, after in zip(passes[1:], probes, probes[1:]):
        p["probe_s"] = (before + after) / 2
    plain = [p for p in passes[1:] if not p["traced"]]
    result = {
        "attempted": len(passes),
        "failed": sum(not p["ok"] for p in passes),
        "problems": problems[:10],
        "passes": len(plain),
        "wall_s": [p["wall_s"] for p in plain],
        "cpu_s": [p["cpu_s"] for p in plain],
        "probe_s": [p["probe_s"] for p in plain],
        "peak_rss_mb": passes[0]["peak_rss_mb"],
        "matched_ap_d": next((p["matched_ap_d"] for p in passes if p["ok"]), None),
        "env": {
            "kernel_backend": crowdgate.KERNEL_BACKEND,
            "python": platform.python_version(),
            "numpy": np.__version__,
        },
    }
    traced = [p for p in passes if p["traced"] and p["ok"]]
    if traced:
        layers = tracer.medians([p["layers"] for p in traced])
        layers["trace.overhead_frac"] = _per_probe(traced) / _per_probe(plain) - 1.0
        result["layers"] = layers
        result["accounted"] = [
            sum(p["layers"][f"{layer}.self_s"] for layer in tracer.LAYERS)
            / p["layers"]["trace.pass_s"] for p in traced
        ]
    return result


def _per_probe(passes: list[dict]) -> float:
    """Median pass time in units of the reference probe, steadier than raw seconds."""
    return statistics.median(p["wall_s"] / p["probe_s"] for p in passes)


def main(argv: list[str]) -> int:
    if argv[0] == "gen":
        name, seed, workdir, scale = argv[1], int(argv[2]), Path(argv[3]), float(argv[4])
        print(json.dumps(gen(name, seed, workdir, scale)))
        return 0
    name, workdir, seconds, trace, trace_file = argv[1:6]
    spans = tracer.Tracer() if trace == "1" else None
    result = measure(name, Path(workdir), float(seconds), spans)
    if spans is not None:
        spans.write(Path(trace_file))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
