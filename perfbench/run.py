"""Benchmark of the octaplex verifier CLI, end to end and per layer.

Usage, from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload below, or ``all`` to run every workload in an order
shuffled by the seed. The CLI of the checkout runs from ``src/`` (through
``PYTHONPATH``) as a fresh process per run. The load is a closed loop with
one client: runs execute one after another, never overlapping, and a new
run starts only while it is expected to end within S seconds (at least one
run always happens).

``--trace 0`` measures the end-to-end metrics:

* ``wall_s``: process spawn to exit of one run; the median over the runs,
  scaled to the reference speed (see ``REFERENCE``);
* ``setup_s``: spawn until ``octaplex.cli`` is imported and its parser is
  built, scaled the same way; the median of several probes, after one
  unrecorded probe that writes the bytecode caches;
* ``peak_rss_mb``: ``ru_maxrss`` of one run; the median over the runs;
* ``pass_ratio``: runs that passed the correctness gate over runs attempted
  (printed as ``fail_ratio`` too; the JSON keeps the ratio that is never 0).

Every run's outputs go through the gate in ``gate.py``. An L=2
``--inject-fault perturb-logical`` run, seeded with ``OCTAPLEX_SEED`` = N,
is a negative control outside the timed runs: the gate must count it as
failed, or the result is marked incorrect. The seed also shuffles the order
of the probes and the control.

``--trace 1`` runs the workload once untraced and once under
``tracer.py``, in an order the seed picks, and reports the per-layer
metrics. The traced run must reproduce the untraced output bytes.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of ``BENCHMARK.json``.
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
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TMP_PARENT = ROOT / ".perfbench_tmp"
PY = sys.executable
SETUP_PROBES = 9
# A run that has not ended this long after its workload started is killed
# and counted as failed, so the benchmark ends within its 180 s limit.
RUN_LIMIT_S = 160.0
PROBE = ("import sys, octaplex.cli; octaplex.cli.build_parser(); "
         "sys.stdout.write('ready\\n'); sys.stdout.flush()")
# The host's CPU speed drifts by tens of percent within a minute, so the
# times are scaled to a reference speed: a fixed pure-Python loop is timed in
# a fresh process before and after the set-up probes, after every run, and
# then until there are MIN_REFERENCES samples. The median of its times over
# REFERENCE_S is the host slowdown that the window's median times are divided
# by. REFERENCE_S only fixes the unit: scaled times are seconds at the speed
# at which the loop takes 0.5 s, near the fastest the seed results' machine
# showed.
REFERENCE = ("import time\nt = time.perf_counter()\nx = 0\n"
             "for i in range(3_000_000):\n    x += i * i\n"
             "print(time.perf_counter() - t)")
REFERENCE_S = 0.5
MIN_REFERENCES = 8


@dataclass(frozen=True)
class Workload:
    argv: tuple[str, ...]
    export: bool = False


# L=4 stays out: one report takes minutes, and every check runs each
# workload 22 times.
WORKLOADS = {
    "periodic-L3": Workload(
        ("report", "--family", "octaplex", "--L", "3", "--threads", "1")),
    "bounded-L3": Workload(
        ("report", "--family", "octaplex-bounded", "--L", "3", "--threads", "1")),
    "warmup-3d-L12": Workload(
        ("report", "--family", "3d", "--L", "12", "--threads", "2")),
    "export-L3": Workload(
        ("export", "--family", "octaplex", "--L", "3", "--which", "all",
         "--format", "alist"), export=True),
}
CONTROL_ARGV = ("report", "--family", "octaplex", "--L", "2", "--threads", "1",
                "--inject-fault", "perturb-logical")


@dataclass
class Run:
    wall_s: float
    exit_code: int
    rss_mb: float


@dataclass
class Result:
    metrics: dict[str, float]
    attempted: int
    failed: int
    checks_held: bool   # negative control caught, or traced bytes reproduced


class Bench:
    """Spawns the CLI from one checkout; outputs go to a private temp dir."""

    def __init__(self, tmp: Path, seed: int, pins: dict) -> None:
        self.tmp = tmp
        self.seed = seed
        self.pins = pins
        env = {k: v for k, v in os.environ.items() if k != "OCTAPLEX_SEED"}
        env["PYTHONPATH"] = str(SRC)
        self.env = env

    def _spawn(self, cmd: list[str], deadline: float, env=None,
               stdout=subprocess.DEVNULL) -> tuple[subprocess.Popen, threading.Timer]:
        proc = subprocess.Popen(cmd, cwd=ROOT, env=env or self.env, stdout=stdout,
                                stderr=subprocess.DEVNULL)
        timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
        timer.start()
        return proc, timer

    def spawn(self, cmd: list[str], deadline: float, env=None) -> Run:
        """One process, timed from spawn to exit, with its own peak RSS."""
        t0 = time.perf_counter()
        proc, timer = self._spawn(cmd, deadline, env)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Run(wall, proc.returncode, usage.ru_maxrss / 1024.0)

    def first_line(self, code: str, deadline: float) -> tuple[bytes, float]:
        """Run ``python -c code``; its first output line and the time it took."""
        t0 = time.perf_counter()
        proc, timer = self._spawn([PY, "-c", code], deadline, stdout=subprocess.PIPE)
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.stdout.close()
            proc.wait()
        finally:
            timer.cancel()
        if proc.returncode != 0:
            raise RuntimeError(f"python -c {code!r} failed with exit code {proc.returncode}")
        return line, elapsed

    def setup_probe(self, deadline: float) -> float:
        line, elapsed = self.first_line(PROBE, deadline)
        if line != b"ready\n":
            raise RuntimeError(f"set-up probe printed {line!r}")
        return elapsed

    def slowdown(self, deadline: float) -> float:
        """Host slowdown now: the reference loop's time over REFERENCE_S."""
        line, _ = self.first_line(REFERENCE, deadline)
        return float(line) / REFERENCE_S

    def output(self, workload: Workload, tag: str) -> Path:
        """A fresh output path: the report file or the export directory."""
        out = self.tmp / (tag if workload.export else f"{tag}.json")
        if out.is_dir():
            shutil.rmtree(out)
        elif out.exists():
            out.unlink()
        return out

    def cli(self, workload: Workload, out: Path, deadline: float) -> Run:
        cmd = [PY, "-m", "octaplex.cli", *workload.argv, "--out", str(out)]
        return self.spawn(cmd, deadline)

    def control(self, deadline: float) -> list[str]:
        """Gate reasons for the negative control; empty means it was missed."""
        out = self.tmp / "control.json"
        env = dict(self.env, OCTAPLEX_SEED=str(self.seed))
        cmd = [PY, "-m", "octaplex.cli", *CONTROL_ARGV, "--out", str(out)]
        run = self.spawn(cmd, deadline, env)
        return gate.check(self.pins["control-L2"], run.exit_code, out)


def digest(out: Path) -> str:
    """sha256 of a report, or of an export directory's sorted file digests."""
    if out.is_dir():
        return gate.sha256_text("".join(f"{p.name} {gate.sha256(p)}\n"
                                        for p in sorted(out.iterdir())))
    return gate.sha256(out) if out.exists() else "<missing>"


def tail(values: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return "tail n/a (a percentile with ten samples beyond it needs 11)"
    pct = 100.0 * (n - 10) / n
    return f"p{pct:.0f} {sorted(values)[n - 11]:.4f} s"


def measure(bench: Bench, name: str, seconds: float) -> Result:
    """End-to-end metrics of one workload."""
    workload = WORKLOADS[name]
    print(f"workload {name}: octaplex {' '.join(workload.argv)}")
    deadline = time.monotonic() + RUN_LIMIT_S
    rng = random.Random(bench.seed)
    probes = ["setup"] * SETUP_PROBES + ["control"]
    rng.shuffle(probes)
    slowdowns = [bench.slowdown(deadline)]
    setups: list[float] = []
    control: list[str] = []
    for probe in probes:
        if probe == "setup":
            setups.append(bench.setup_probe(deadline))
        else:
            control = bench.control(deadline)
    slowdowns.append(bench.slowdown(deadline))

    runs: list[Run] = []
    steps: list[float] = []
    shas: set[str] = set()
    failed = 0
    start = time.monotonic()
    while True:
        step = time.monotonic()
        out = bench.output(workload, "run")
        run = bench.cli(workload, out, deadline)
        slowdowns.append(bench.slowdown(deadline))
        runs.append(run)
        reasons = gate.check(bench.pins[name], run.exit_code, out)
        sha = digest(out)
        shas.add(sha)
        print(f"  run {len(runs)}: wall {run.wall_s:.4f} s, rss {run.rss_mb:.1f} MB, "
              f"exit {run.exit_code}, output sha256 {sha}"
              + (" FAILED: " + "; ".join(reasons[:5]) if reasons else ""))
        failed += bool(reasons)
        now = time.monotonic()
        steps.append(now - step)
        expected = statistics.median(steps)
        if now - start + expected > seconds or now + expected > deadline:
            break
    while len(slowdowns) < MIN_REFERENCES:
        slowdowns.append(bench.slowdown(deadline))

    walls = [r.wall_s for r in runs]
    slowdown = statistics.median(slowdowns)
    attempted = len(runs)
    metrics = {
        "wall_s": statistics.median(walls) / slowdown,
        "setup_s": statistics.median(setups) / slowdown,
        "peak_rss_mb": statistics.median(r.rss_mb for r in runs),
        "pass_ratio": (attempted - failed) / attempted,
    }
    print(f"  closed loop, 1 client, {attempted} runs in a {seconds:g} s window")
    print(f"  host slowdown (reference loop time / {REFERENCE_S} s): median "
          f"{slowdown:.4f}, range {min(slowdowns):.4f}-{max(slowdowns):.4f}, "
          f"samples {len(slowdowns)}")
    print(f"  wall_s       median {statistics.median(walls):.4f} s, {tail(walls)}, "
          f"samples {attempted}; scaled to the reference speed: {metrics['wall_s']:.4f} s")
    print(f"  setup_s      median {statistics.median(setups):.4f} s, samples "
          f"{len(setups)}; scaled: {metrics['setup_s']:.4f} s")
    print(f"  peak_rss_mb  median {metrics['peak_rss_mb']:.1f} MB")
    print(f"  fail_ratio   {failed}/{attempted} = {failed / attempted:.4f} ratio")
    print(f"  output sha256 (information, not gated): {len(shas)} distinct in "
          f"{attempted} runs")
    print(f"  negative control (L=2 perturb-logical, OCTAPLEX_SEED={bench.seed}): "
          + ("counted as failed: " + "; ".join(control[:3]) if control
             else "NOT caught by the gate"))
    return Result(metrics, attempted, failed, bool(control))


def trace(bench: Bench, name: str) -> Result:
    """Per-layer metrics from one traced run, checked against an untraced one."""
    workload = WORKLOADS[name]
    print(f"workload {name} traced: octaplex {' '.join(workload.argv)}")
    deadline = time.monotonic() + RUN_LIMIT_S
    trace_file = bench.tmp / "trace.json"
    plain_out = bench.output(workload, "plain")
    traced_out = bench.output(workload, "traced")
    traced_cmd = [PY, str(Path(__file__).with_name("tracer.py")), str(trace_file),
                  *workload.argv, "--out", str(traced_out)]
    order = ["plain", "traced"]
    random.Random(bench.seed).shuffle(order)
    runs: dict[str, Run] = {}
    for which in order:
        if which == "plain":
            runs[which] = bench.cli(workload, plain_out, deadline)
        else:
            runs[which] = bench.spawn(traced_cmd, deadline)
    failed = 0
    for which, out in (("plain", plain_out), ("traced", traced_out)):
        reasons = gate.check(bench.pins[name], runs[which].exit_code, out)
        if reasons:
            failed += 1
            print(f"  {which} run FAILED: " + "; ".join(reasons[:5]))
    same = digest(plain_out) == digest(traced_out)
    print(f"  traced output sha256 {digest(traced_out)}, "
          + ("equal to" if same else "DIFFERS from") + " the untraced run's")
    data = json.loads(trace_file.read_text(encoding="utf-8"))
    print(f"  {'span':28} {'calls':>7} {'wall_s':>9} {'self_s':>9} {'cpu_s':>9} "
          f"{'rss_mb':>7}")
    for span, row in tracer.span_table(data["spans"]).items():
        print(f"  {span:28} {row['calls']:7d} {row['wall_s']:9.4f} {row['self_s']:9.4f} "
              f"{row['cpu_s']:9.4f} {row['rss_mb']:7.1f}")
    metrics = tracer.layer_metrics(data)
    metrics["trace.overhead_s"] = runs["traced"].wall_s - runs["plain"].wall_s
    return Result(metrics, 2, failed, same)


def declared(trace_mode: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    key = "per_layer" if trace_mode else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="measurement window per workload")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "octaplex" / "cli.py").is_file():
        print(f"error: no octaplex package under {SRC}", file=sys.stderr)
        return 2
    units = declared(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    random.Random(args.seed).shuffle(names)

    TMP_PARENT.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=TMP_PARENT))
    try:
        bench = Bench(tmp, args.seed, gate.load_pins())
        # Unrecorded: the first import writes the bytecode caches.
        bench.setup_probe(time.monotonic() + RUN_LIMIT_S)
        results = {}
        for name in names:
            if args.trace:
                results[name] = trace(bench, name)
            else:
                results[name] = measure(bench, name, args.seconds)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            TMP_PARENT.rmdir()
        except OSError:
            pass

    metrics = {}
    for name, result in results.items():
        missing = set(units) - set(result.metrics)
        if missing:
            raise RuntimeError(f"{name}: metrics not produced: {sorted(missing)}")
        prefix = f"{name}:" if len(results) > 1 else ""
        for metric, unit in units.items():
            metrics[prefix + metric] = {"value": result.metrics[metric], "unit": unit}
    attempted = sum(r.attempted for r in results.values())
    failed = sum(r.failed for r in results.values())
    correct = failed == 0 and all(r.checks_held for r in results.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
