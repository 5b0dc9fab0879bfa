"""Benchmark of the ``geodetic`` command line, end to end and per module.

Run from the root of a source checkout::

    python3 perfbench/run.py --workload certify --seed 1 --seconds 20 --trace 0

The benchmark imports ``geodetic`` from ``src/`` of that checkout and calls
``geodetic.cli.main(argv)`` in-process with ``--json``: one client that
sends each call only after the previous one returned (a closed loop), no
threads.  Every report is checked (see ``workloads.py``).

With ``--trace 0`` a run repeats the workload's pass (every call once),
at least once, for about ``--seconds`` in all, and prints the end-to-end
metrics.  Before each pass, and after the last until there
have been ``SETUP_REPS``, it sets up afresh (imports ``geodetic`` and writes
the workload's inputs); ``setup_s`` is the median of those set-ups.  With
``--trace 1`` it makes one untraced warm-up pass, then alternates untraced
and traced passes (``tracer.py``), checks that the traced passes counted
exactly the same work, writes the spans of the last one under
``.perfbench_out/traces/`` and prints the per-module metrics.

The metadata line also holds each pass's process CPU time and a host speed
probe (a fixed pure-Python loop timed at the start and the end of the run),
so that a slower host can be told apart from slower code.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's metadata.  ``failed`` counts operations that raised, exited
with an unexpected code or printed a report that failed its check; in the
sweeps an operation is one spec.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from tracer import Tracer
from workloads import WORKLOADS, Op

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPS = 11
TRACED_PASSES = 2
PROBE_REPS = 5


def import_geodetic() -> SimpleNamespace:
    """Import the package afresh, dropping any copy already loaded."""
    for name in [m for m in sys.modules if m == "geodetic" or m.startswith("geodetic.")]:
        del sys.modules[name]
    mods = {name: importlib.import_module(f"geodetic.{name}")
            for name in ("cli", "embedding", "families", "graphs")}
    return SimpleNamespace(**mods)


class Setup:
    """The timed set-up: import ``geodetic`` afresh and write the workload's
    inputs into a fresh directory.  It is repeated between passes, so that
    ``setup_s``, the median, samples the whole run and not one moment of it."""

    def __init__(self, workload, seed: int, workdir: Path) -> None:
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.times: list[float] = []

    def run(self):
        repdir = self.workdir / f"setup{len(self.times)}"
        repdir.mkdir(parents=True)
        start = time.perf_counter()
        geo = import_geodetic()
        inputs = self.workload.generate(geo, random.Random(self.seed), repdir)
        self.times.append(time.perf_counter() - start)
        return geo, inputs


def host_probe() -> float:
    """Median seconds of a fixed pure-Python loop: the host's speed, not the
    program's."""
    def loop() -> float:
        start, acc = time.perf_counter(), 0
        for i in range(300_000):
            acc += i * i % 7
        return time.perf_counter() - start
    return statistics.median(loop() for _ in range(PROBE_REPS))


def run_pass(ops: list[Op], geo: SimpleNamespace, tracer: Tracer | None = None):
    """Call every op once, in order.  Returns the pass wall time and, per op,
    (exit code, stdout, exception text, latency).  Only the text of an
    exception is kept: its traceback would keep the failed call's data alive
    and inflate the peak memory of the rest of the run."""
    results = []
    start = time.perf_counter()
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op_id = i
        out, err = io.StringIO(), io.StringIO()
        begin = time.perf_counter()
        rc, exc = None, None
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = geo.cli.main(op.argv + ["--json"])
        except (Exception, SystemExit) as e:  # counted as a failure, the run goes on
            exc = f"{type(e).__name__}: {str(e)[:120]}"
        results.append((rc, out.getvalue(), exc, time.perf_counter() - begin))
    return time.perf_counter() - start, results


def judge(op: Op, rc, stdout: str, exc) -> str | None:
    """What is wrong with one call's outcome, or None."""
    if exc is not None:
        return exc
    try:
        report = json.loads(stdout)
    except ValueError:
        return f"exit code {rc} without one JSON report on stdout"
    if not isinstance(report, dict) or report.get("command") != op.argv[0]:
        return "report is not a report of this command"
    try:
        return op.check(rc, report)
    except (KeyError, TypeError, ValueError, IndexError) as e:
        return f"malformed report: {e!r}"


class Tally:
    """Attempted and failed operations, and which failures were expected."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.unexpected = 0
        self.failures: Counter = Counter()

    def add(self, ops: list[Op], results) -> None:
        for op, (rc, stdout, exc, _) in zip(ops, results):
            problem = judge(op, rc, stdout, exc)
            self.attempted += op.units
            if problem is None:
                continue
            self.failed += op.units
            self.failures[f"{op.name}: {problem}"] += 1
            if not (op.known_failure and problem.startswith(op.known_failure + ":")):
                self.unexpected += 1


def percentile(values: list[float], q: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def git_state() -> dict:
    if not (ROOT / ".git").exists():
        return {"git_sha": None, "git_dirty": None}

    def git(*args: str) -> str:
        return subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True,
                              text=True, timeout=30, check=True).stdout.strip()
    try:
        return {"git_sha": git("rev-parse", "HEAD"),
                "git_dirty": bool(git("status", "--porcelain", "--untracked-files=no"))}
    except (OSError, subprocess.SubprocessError):
        return {"git_sha": None, "git_dirty": None}


def untraced_run(ops, setup: Setup, seconds: float, tally: Tally):
    # Another pass starts only if it is expected to end less than half a
    # pass after ``seconds``, so a long pass is not run twice for a few
    # seconds' shortfall.
    walls, cpus, latencies = [], [], []
    while not walls or sum(walls) + statistics.median(walls) / 2 < seconds:
        geo, _ = setup.run()
        gc.collect()
        cpu = time.process_time()
        wall, results = run_pass(ops, geo)
        cpus.append(time.process_time() - cpu)
        tally.add(ops, results)
        walls.append(wall)
        latencies += [r[3] for r in results]
    while len(setup.times) < SETUP_REPS:
        setup.run()
    return walls, cpus, latencies


def traced_run(ops, geo, tally: Tally, spans_path: Path):
    """A warm-up pass, then untraced and traced passes in turn.  Returns the
    tracer of the last traced pass, the untraced and the traced pass wall
    times, and whether every traced pass counted the same work."""
    gc.collect()
    _, results = run_pass(ops, geo)
    tally.add(ops, results)
    tracer, untraced, traced, counts = Tracer(), [], [], []
    for _ in range(TRACED_PASSES):
        gc.collect()
        wall, results = run_pass(ops, geo)
        tally.add(ops, results)
        untraced.append(wall)
        tracer.reset()
        gc.collect()
        tracer.install()
        try:
            wall, results = run_pass(ops, geo, tracer)
        finally:
            tracer.uninstall()
        tally.add(ops, results)
        traced.append(wall)
        counts.append(tracer.exact_counts())
    tracer.write_spans(spans_path)
    return tracer, untraced, traced, all(c == counts[0] for c in counts)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "geodetic" / "cli.py").is_file():
        print(f"error: no geodetic sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_used": WORKLOADS[args.workload].seeded,
        "seconds": args.seconds,
        "trace": args.trace,
        **git_state(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "loadavg_start": os.getloadavg(),
        "host_probe_start_s": host_probe(),
    }
    workload = WORKLOADS[args.workload]
    workdir = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        setup = Setup(workload, args.seed, workdir)
        geo, inputs = setup.run()
        if not Path(geo.cli.__file__).resolve().is_relative_to(SRC):
            print(f"error: geodetic was imported from {geo.cli.__file__}", file=sys.stderr)
            return 2
        ops = workload.operations(inputs)
        tally = Tally()
        if args.trace:
            spans_path = OUT / "traces" / f"{args.workload}-seed{args.seed}.jsonl"
            tracer, untraced, traced, repeatable = traced_run(ops, geo, tally, spans_path)
            metrics = {name: {"value": v, "unit": unit}
                       for name, (v, unit) in tracer.layer_metrics().items()}
            metrics["cli.failed_frac"] = {"value": tally.failed / tally.attempted, "unit": "ratio"}
            metrics["trace.overhead_frac"] = {
                "value": statistics.median(traced) / statistics.median(untraced) - 1,
                "unit": "ratio"}
            meta["samples"] = {"warm_up_passes": 1, "untraced_passes": len(untraced),
                               "traced_passes": len(traced)}
            meta["trace_counts_repeat"] = repeatable
            meta["spans_file"] = str(spans_path.relative_to(ROOT))
        else:
            repeatable = True
            walls, cpus, latencies = untraced_run(ops, setup, args.seconds, tally)
            p90 = percentile(latencies, 90)
            metrics = {
                "setup_s": {"value": statistics.median(setup.times), "unit": "s"},
                "wall_s": {"value": statistics.median(walls), "unit": "s"},
                "ops_per_s": {"value": (tally.attempted - tally.failed) / sum(walls), "unit": "1/s"},
                "op_p50_ms": {"value": 1000 * statistics.median(latencies), "unit": "ms"},
                "op_p90_ms": {"value": 1000 * p90, "unit": "ms"},
                "peak_rss_mb": {
                    "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                    "unit": "MB"},
            }
            meta["samples"] = {
                "setup_s": len(setup.times),
                "wall_s": len(walls),
                "op_latency": len(latencies),
                "beyond_p90": sum(x > p90 for x in latencies),
            }
            meta["pass_wall_s"] = walls
            meta["pass_cpu_s"] = cpus
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    meta["host_probe_end_s"] = host_probe()
    meta["failed_frac"] = tally.failed / tally.attempted
    meta["failures"] = dict(tally.failures)
    print(json.dumps({"meta": meta}))
    print(json.dumps({
        "correct": tally.unexpected == 0 and repeatable,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
