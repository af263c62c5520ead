"""The ptl benchmark: times the `ptl` CLI end to end, or per layer when traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (ptl is imported from ./src).  The
seed draws the word-sized `--prime` handed to ptl; certified output does
not depend on it, so every run is compared byte for byte with the committed
reference output.  Workloads and the reasons for them are in workloads.py.

Set-up (repeated `setups` times, median reported as setup_s): a fresh
interpreter that imports ptl.  Then iterations run in a closed loop until
the next one would end after S seconds (at least one).

--trace 0 reports, as medians over iterations: wall_s (invocation to
certified output, interpreter start included), cpu_s and peak_rss_mb of the
CLI processes.  --trace 1 runs traced iterations only and reports the
per-layer metrics of tracer.py: times as medians over iterations, counts
from the first after checking that every iteration gave the same counts,
and trace.traced_wall_s, the median traced wall time (baseline.py states
the tracing overhead as this minus the untraced wall_s).

The last line of stdout is one JSON object: correct, attempted and failed
count expected output rows (error rate = failed / attempted), and metrics.
Scratch files go to .perfbench_work/ in the checkout and are removed.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
from tracer import is_time, layer_metrics, load_spans  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

# --prime is drawn from the primes just below 2^20, the magnitude of ptl's
# DEFAULT_PRIME (1048573): per-seed cost stays comparable, since a prime near
# 2^30 would shrink IncrementalModEchelon's int64 chunk and change the cost.
PRIME_LOW, PRIME_HIGH = 2 ** 20 - 2 ** 17, 2 ** 20


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def draw_prime(seed: int) -> int:
    p = random.Random(seed).randrange(PRIME_LOW, PRIME_HIGH)
    while not is_prime(p):
        p -= 1
    return p


@dataclass
class Invocation:
    wall: float
    cpu: float
    rss_mb: float
    code: int
    stdout: str
    stderr: str


@dataclass
class Iteration:
    invocations: list[Invocation] = field(default_factory=list)
    failed: int = 0
    attempted: int = 0
    spans: list = field(default_factory=list)
    identical: bool = True  # stdout byte-identical to the reference

    @property
    def wall(self) -> float:
        return sum(i.wall for i in self.invocations)

    @property
    def cpu(self) -> float:
        return sum(i.cpu for i in self.invocations)

    @property
    def rss_mb(self) -> float:
        return max(i.rss_mb for i in self.invocations)


class Bench:
    def __init__(self, wl: Workload, prime: int, work: Path):
        self.wl = wl
        self.prime = prime
        self.work = work
        self.env = {k: v for k, v in os.environ.items() if k != "PTL_CACHE_DIR"}
        self.env["PYTHONPATH"] = str(ROOT / "src")
        self.refs = [reference.path(wl.name, i).read_text()
                     for i in range(len(wl.commands))]
        self.counter = 0

    def _spawn(self, argv: list[str]) -> Invocation:
        self.counter += 1
        out_path = self.work / f"out-{self.counter}"
        err_path = self.work / f"err-{self.counter}"
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        inv = Invocation(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024,
                         proc.returncode, out_path.read_text(), err_path.read_text())
        out_path.unlink()
        err_path.unlink()
        return inv

    def iterate(self, cache_dir: Path | None, traced: bool = False) -> Iteration:
        it = Iteration()
        for i, command in enumerate(self.wl.commands):
            argv = [sys.executable, str(HERE / "launch.py")]
            trace_file = self.work / "trace.json"
            if traced:
                argv += ["--trace", str(trace_file)]
            argv += ["--", *command, "--prime", str(self.prime)]
            argv += ["--no-cache"] if cache_dir is None else ["--cache-dir", str(cache_dir)]
            inv = self._spawn(argv)
            it.invocations.append(inv)
            if traced:
                it.spans.append(load_spans(trace_file) if trace_file.exists() else [])
                trace_file.unlink(missing_ok=True)
            if inv.code != 0:
                sys.stderr.write(f"{' '.join(command)}: exit {inv.code}\n{inv.stderr[-2000:]}")
            it.attempted += len(reference.rows(self.refs[i]))
            it.failed += reference.failed_rows(self.refs[i], inv.stdout, inv.code)
            it.identical = it.identical and inv.stdout == self.refs[i]
        return it

    def set_up(self) -> float:
        """One set-up: interpreter plus `import ptl`."""
        t0 = time.perf_counter()
        probe = self._spawn([sys.executable, "-c", "import ptl.cli"])
        if probe.code != 0:
            raise RuntimeError(f"cannot import ptl:\n{probe.stderr}")
        return time.perf_counter() - t0

    def measure(self, traced: bool = False) -> Iteration:
        if self.wl.cache == "cold":
            cache_dir = self.work / f"cold-{self.counter}"
            it = self.iterate(cache_dir, traced)
            shutil.rmtree(cache_dir, ignore_errors=True)
            return it
        return self.iterate(None, traced)


def cross_check(wl: Workload, iteration: Iteration) -> list[str]:
    """Engine tables against independent values already in ptl."""
    if wl.name != "engine-cells":
        return []
    sys.path.insert(0, str(ROOT / "src"))
    from ptl.partitions import bn_hilbert
    from ptl.solver import kernel_basis
    from ptl.tables import GradedDimensionTable

    def dims(stdout: str) -> dict[int, int]:
        table = {int(k): int(line.split()[1]) for k, line in reference.rows(stdout).items()}
        return {d: v for d, v in table.items() if v}

    def quarter(table: dict[int, int]) -> dict[int, int]:
        return {d // 4: v for d, v in table.items()} if all(d % 4 == 0 for d in table) else {}

    b4, d4, refl = (dims(inv.stdout) for inv in iteration.invocations)
    errors = []
    if not quarter(b4) == bn_hilbert(4).entries == {0: 1, 1: 1, 2: 2, 3: 1}:
        errors.append("hyperoctahedral n=4 differs from bn_hilbert(4)")
    if not (GradedDimensionTable(quarter(d4)).series() == kernel_basis(4).display.series()
            == "1 + t + t^2"):
        errors.append("demihyperoctahedral n=4 differs from kernel_basis(4).display")
    if refl != {0: 1}:
        errors.append("symmetric-reflection n=4 is not {0: 1}")
    return errors


def run(wl: Workload, seed: int, seconds: float, trace: bool, work: Path) -> dict:
    bench = Bench(wl, draw_prime(seed), work)
    setup_times = [bench.set_up() for _ in range(wl.setups)]

    # A closed loop: one iteration after another, the next only while it
    # should end within `seconds`; at least one.  Traced runs time only
    # traced iterations.
    done: list[Iteration] = []
    start = time.perf_counter()
    while True:
        done.append(bench.measure(traced=trace))
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(i.wall for i in done) > seconds:
            break
    errors = cross_check(wl, done[0])
    attempted = sum(it.attempted for it in done)
    failed = sum(it.failed for it in done)
    if not all(it.identical for it in done):
        errors.append("stdout differs from the reference")

    if not trace:
        metrics = {
            "wall_s": (statistics.median(i.wall for i in done), "s"),
            "cpu_s": (statistics.median(i.cpu for i in done), "s"),
            "peak_rss_mb": (statistics.median(i.rss_mb for i in done), "MB"),
            "setup_s": (statistics.median(setup_times), "s"),
        }
    else:
        layers = [layer_metrics(it.spans) for it in done]
        counts = {k: v for k, v in layers[0].items() if not is_time(k)}
        for other in layers[1:]:
            if {k: v for k, v in other.items() if not is_time(k)} != counts:
                errors.append("counters differ between traced iterations")
        metrics = {}
        for name in layers[0]:
            if is_time(name):
                metrics[name] = (statistics.median(m[name] for m in layers), "s")
            else:
                unit = ("ratio" if name.endswith("_ratio") else
                        "B" if name.startswith("cache.bytes") else "count")
                metrics[name] = (counts[name], unit)
        metrics["trace.traced_wall_s"] = (statistics.median(i.wall for i in done), "s")
    for e in errors:
        sys.stderr.write(f"check failed: {e}\n")
    walls = " ".join(f"{it.wall:.2f}" for it in done)
    sys.stderr.write(f"{wl.name}: prime {bench.prime}, {'traced' if trace else 'untraced'} "
                     f"walls {walls} s, {failed}/{attempted} rows wrong\n")
    return {
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "ptl" / "cli.py").is_file():
        sys.stderr.write(f"error: no ptl sources under {ROOT / 'src'}\n")
        return 2
    work = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = run(WORKLOADS[args.workload], args.seed, args.seconds,
                     bool(args.trace), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
