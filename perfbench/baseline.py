"""Measure the benchmark's spread and write the committed baseline.

    python3 perfbench/baseline.py [--workloads a,b] [--seeds 10] [--out FILE]

For each workload of workloads.py (typed-fallback too, which BENCHMARK.json
does not list): one `run.py` per seed (seeds 1..N, tracing off, the
run length of BENCHMARK.json), then two traced runs (seeds 1 and 2).  Each
end-to-end metric is summarised by its median and quartiles
(statistics.quantiles, n=4) and its spread, (q3 - q1) / median, next to the
metric's bound.  The tracing overhead is the traced runs' median wall time
minus the untraced wall_s median.  run.py compares every run's stdout byte
for byte with the reference, so the seeds already show that output does
not depend on the prime.

Stops with exit code 1, writing no baseline, when the two traced runs give
different counts or a count differs from EXPECTED_COUNTS.
The run metadata records the machine, the interpreter, numpy, the git
commit and the size of src/ptl.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracer import is_time  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# Counts a workload must show on its traced run, or it no longer exercises
# the path it was chosen for.
EXPECTED_COUNTS = {"typed-fallback": {"solver.fallbacks": 1}}



def metadata() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                                capture_output=True, text=True).stdout.strip()
        dirty = bool(subprocess.run(["git", "status", "--porcelain", "src"], cwd=ROOT,
                                    check=True, capture_output=True, text=True).stdout)
    except (OSError, subprocess.CalledProcessError):
        commit, dirty = "unknown", None
    import numpy

    loc = sum(len(p.read_text().splitlines()) for p in (ROOT / "src" / "ptl").rglob("*.py"))
    return {"nproc": os.cpu_count(), "cpu_model": cpu,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_commit": commit, "src_modified": dirty, "src_ptl_lines": loc}


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarise(values: list[float], bound: float | None) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    spread = (q3 - q1) / med
    return {"values": values, "median": statistics.median(values), "q1": q1, "q3": q3,
            "spread": spread, "bound": bound}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(WORKLOADS))
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    report = {"meta": metadata(), "run_seconds": seconds, "workloads": {}}
    problems = []
    for name in args.workloads.split(","):
        runs = [run_once(name, s, seconds, 0) for s in range(1, args.seeds + 1)]
        entry = {
            "correct": all(r["correct"] for r in runs),
            "attempted": sum(r["attempted"] for r in runs),
            "failed": sum(r["failed"] for r in runs),
            "end_to_end": {
                m: summarise([r["metrics"][m]["value"] for r in runs], bounds.get(m))
                for m in runs[0]["metrics"]},
        }
        entry["error_rate"] = entry["failed"] / entry["attempted"]
        traced = [run_once(name, s, seconds, 1) for s in (1, 2)]
        layers = [{k: v["value"] for k, v in t["metrics"].items()} for t in traced]
        counts = [{k: v for k, v in m.items() if not is_time(k)} for m in layers]
        if counts[0] != counts[1]:
            problems.append(f"{name}: counters differ between the traced runs")
        for key, want in EXPECTED_COUNTS.get(name, {}).items():
            if counts[0][key] != want:
                problems.append(f"{name}: {key} is {counts[0][key]}, expected {want}")
        entry["traced_correct"] = all(t["correct"] for t in traced)
        entry["per_layer"] = {k: (statistics.median([m[k] for m in layers]) if is_time(k)
                                  else counts[0][k]) for k in layers[0]}
        entry["trace_overhead_s"] = (entry["per_layer"]["trace.traced_wall_s"]
                                     - entry["end_to_end"]["wall_s"]["median"])
        report["workloads"][name] = entry
        line = ", ".join(f"{m} {s['median']:.4g} spread {s['spread']:.3f}"
                         for m, s in entry["end_to_end"].items())
        print(f"{name}: correct={entry['correct']} traced_correct={entry['traced_correct']} "
              f"overhead {entry['trace_overhead_s']:.3g} s, {line}", flush=True)
    for problem in problems:
        sys.stderr.write(f"check failed: {problem}\n")
    if problems:
        return 1
    text = json.dumps(report, indent=1, sort_keys=True) + "\n"
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
