"""Tiny-size self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, on inputs at 2% of the defined sizes, that

* every workload emits exactly the metrics BENCHMARK.json names, with
  their units, in both trace modes, and exits 0 on the unchanged program;
* ``run.py`` scales timings by the same nominal probe time as the probe;
* a corrupted artifact is caught, both on every pass (a wrong count) and
  on one pass only (artifacts no longer byte-identical);
* a program that writes wrong counts makes the command exit non-zero;
* without the package next to it, the command fails without a result.

Exits 0 when every check holds. Scratch trees go under ``.perfbench/``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.02"
failures: list[str] = []


def check(ok: bool, what: str):
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        failures.append(what)


def bench(tree: Path, workload: str, trace: int):
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--scale", SCALE],
        capture_output=True, text=True, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def metrics_match_spec():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in spec[key]}
        for workload in (w["name"] for w in spec["workloads"]):
            code, result = bench(ROOT, workload, trace)
            result = result or {"correct": False, "failed": None, "metrics": {}}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            check(code == 0 and result["correct"] and result["failed"] == 0,
                  f"{workload} trace={trace}: exit 0, all passes correct")
            check(got == wanted, f"{workload} trace={trace}: metric names and units match {key}")
            check(all(isinstance(v["value"], (int, float)) for v in result["metrics"].values()),
                  f"{workload} trace={trace}: every value is a number")


def reference_constant_shared():
    import reference
    import run

    check(run.REF_S == reference.REF_S, "run.py scales by the probe's REF_S")


def corrupted_artifacts_caught(scratch: Path):
    import measure
    import workloads

    workdir = scratch / "inputs"
    workloads.generate("detector_stream", 3, workdir, float(SCALE))

    def wrong_count(name, wd, out):
        workloads.run_pass(name, wd, out)
        path = out / "raw_counts.csv"
        path.write_text(path.read_text("utf-8").replace("\n5,", "\n5,9", 1), "utf-8")

    result = measure.measure("detector_stream", workdir, 0.0, None, run_pass=wrong_count)
    check(result["failed"] == result["attempted"]
          and any("raw counts differ" in p for p in result["problems"]),
          "a wrong count in raw_counts.csv fails every pass")

    calls = []

    def one_changed_pass(name, wd, out):
        workloads.run_pass(name, wd, out)
        calls.append(name)
        if len(calls) == 2:
            with open(out / "cutlist.txt", "a", encoding="utf-8") as fh:
                fh.write("# extra\n")

    result = measure.measure("detector_stream", workdir, 0.0, None, run_pass=one_changed_pass)
    check(result["failed"] == 1 and any("differ from the first pass" in p for p in result["problems"]),
          "one pass whose artifacts differ from the first fails alone")


def broken_program_exits_nonzero(scratch: Path):
    tree = scratch / "broken"
    shutil.copytree(ROOT / "src", tree / "src")
    shutil.copytree(HERE, tree / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    counting = tree / "src" / "crowdgate" / "counting.py"
    text = counting.read_text("utf-8")
    mutated = text.replace("writer.writerow([i, int(count), prov])",
                           "writer.writerow([i, int(count) + (i == 7), prov])")
    check(mutated != text, "the mutation applies to counting.py")
    counting.write_text(mutated, "utf-8")
    code, result = bench(tree, "detector_stream", 0)
    check(code != 0 and result is not None and not result["correct"],
          "a program writing wrong counts makes the command exit non-zero")


def bare_directory_fails(scratch: Path):
    tree = scratch / "bare"
    shutil.copytree(HERE, tree / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    code, result = bench(tree, "detector_stream", 0)
    check(code != 0 and result is None, "without src/crowdgate: non-zero exit, no result")


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix="selftest-", dir=ROOT / ".perfbench"))
    try:
        metrics_match_spec()
        reference_constant_shared()
        corrupted_artifacts_caught(scratch)
        broken_program_exits_nonzero(scratch)
        bare_directory_fails(scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
