"""toricff benchmark: fresh-process runs of one workload, checked and timed.

Usage (from the repository root):

    python3 bench/run.py --workload ci22-deep --seed 0 --seconds 20 --trace 0

Without ``--workload`` it runs every workload, one after another.

The benchmark writes the workload's problem file for the seed, then runs
``toricff`` on it as a fresh child process, one at a time (a closed loop with
one client), until ``--seconds`` have passed; at least one run is made, so a
run of ``k3-verify`` lasts one report. Every report goes through the gate in
gate.py. Before each timed run, and after the last one until there are ten,
it starts the child only to import ``toricff`` and parse the problem, so
set-up time has samples spread over the run.

With ``--trace 0`` it prints the end-to-end metrics, each the median over the
runs: ``wall_s`` (spawn to exit), ``setup_s`` (spawn until ``toricff`` is
imported and the problem parsed), ``solve_s`` (parsed problem to complete
report text) and ``peak_rss_mib`` (the child's maximum resident set). With
``--trace 1`` it alternates plain and traced runs and prints the per-layer
metrics of tracer.py plus ``trace.overhead_s``, the traced minus the plain
median ``solve_s``. The last line of output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. A full record, with seed,
digests, git revision, Python version and ``nproc``, goes to
``bench/_out/results/``. The exit code is 1 when any run failed its gate.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import signal
import statistics
import sys
import time
from pathlib import Path

import gate
import problems
import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "_out"

SETUP_PROBES = 10  # at least this many set-up samples per run
PROBES_PER_RUN = 2  # set-up probes before each timed run, spread over time
RUN_LIMIT_S = 170.0  # every child is killed by then, so a run ends inside 180 s

E2E_UNITS = {"wall_s": "s", "setup_s": "s", "solve_s": "s", "peak_rss_mib": "MiB"}


def git_revision():
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Child:
    """One finished child process: exit code, timings and outputs."""

    def __init__(self, mode, workdir, index, toricff_args, deadline):
        self.mode = mode
        stamps = workdir / f"stamps-{index}.json"
        stderr = workdir / f"stderr-{index}.txt"
        for path in (stamps, stderr):
            path.unlink(missing_ok=True)
        argv = [sys.executable, str(BENCH / "child.py"), str(stamps), mode, "--"]
        env = dict(os.environ, PYTHONPATH=str(SRC))
        actions = [
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_OPEN, 1, os.devnull, os.O_WRONLY, 0),
            (os.POSIX_SPAWN_OPEN, 2, str(stderr), os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644),
        ]
        self.start = time.monotonic()
        pid = os.posix_spawn(sys.executable, argv + toricff_args, env, file_actions=actions)
        self.timed_out = not _wait_until(pid, deadline)
        if self.timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
        self.end = time.monotonic()
        self.code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mib = usage.ru_maxrss / 1024  # ru_maxrss is in KiB
        self.stderr = stderr.read_text(errors="replace")
        try:
            self.stamps = json.loads(stamps.read_text())
        except (OSError, ValueError):
            self.stamps = {}

    @property
    def wall_s(self):
        return self.end - self.start

    @property
    def setup_s(self):
        return self.stamps["parsed"] - self.start

    @property
    def solve_s(self):
        return self.stamps["rendered"] - self.stamps["parsed"]


def _wait_until(pid, deadline):
    """Block until the child exits or the deadline passes; True if it exited."""
    fd = os.pidfd_open(pid)
    try:
        return bool(select.select([fd], [], [], max(0.0, deadline - time.monotonic()))[0])
    finally:
        os.close(fd)


class Run:
    """The children of one benchmark run and their gate verdicts."""

    def __init__(self, workload, seed, workdir, deadline):
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.deadline = deadline
        self.problem = workdir / "problem.txt"
        self.report = workdir / "report.txt"
        self.children = []
        self.records = []
        self.reference = None  # digest every report of an unpinned seed must match

    def spawn(self, mode):
        args = [self.workload.command, str(self.problem)]
        if mode != "setup":
            self.report.unlink(missing_ok=True)
            args += ["--out", str(self.report)]
        child = Child(mode, self.workdir, len(self.children), args, self.deadline)
        self.children.append(child)
        record = {"mode": mode, "exit_code": child.code, "wall_s": child.wall_s}
        if mode == "setup":
            faults = [] if child.code == 0 and "parsed" in child.stamps else ["set-up failed"]
        else:
            report = self.report.read_bytes() if self.report.is_file() else None
            faults = gate.check_run(
                self.workload, self.seed, child.code, child.stderr, report, self.reference
            )
            if report is not None:
                record["sha256"] = gate.digest(report)
                if self.seed != 0 and self.reference is None:
                    self.reference = record["sha256"]
            if not {"parsed", "rendered"} <= child.stamps.keys():
                faults.append("child recorded no timestamps")
            record["peak_rss_mib"] = child.peak_rss_mib
        if child.timed_out:
            faults.append("timed out")
        record["problems"] = faults
        if not faults and mode != "setup":
            record["solve_s"] = child.solve_s
        if "parsed" in child.stamps:
            record["setup_s"] = child.setup_s
        self.records.append(record)
        print(_describe(record), flush=True)

    @property
    def failed(self):
        return sum(1 for record in self.records if record["problems"])

    def ok(self, mode):
        return [c for c, r in zip(self.children, self.records) if c.mode == mode and not r["problems"]]


def _describe(record):
    line = f"  {record['mode']:<5} exit={record['exit_code']} wall={record['wall_s']:.4f}s"
    if "solve_s" in record:
        line += f" solve={record['solve_s']:.4f}s rss={record['peak_rss_mib']:.1f}MiB"
    if "sha256" in record:
        line += f" sha256={record['sha256'][:16]}"
    if record["problems"]:
        line += " FAILED: " + "; ".join(record["problems"])
    return line


def _median(values):
    return statistics.median(values) if values else None


def _enough(run, started, seconds, last_s):
    """Stop once --seconds are measured, or when another round would not fit."""
    now = time.monotonic()
    return now - started >= seconds or now + last_s > run.deadline


def measure(run, seconds):
    started = time.monotonic()
    while True:
        for _ in range(PROBES_PER_RUN):
            run.spawn("setup")
        run.spawn("run")
        if _enough(run, started, seconds, run.children[-1].wall_s):
            break
    while sum(c.mode == "setup" for c in run.children) < SETUP_PROBES:
        run.spawn("setup")
    reps = run.ok("run")
    return {
        "wall_s": _median([c.wall_s for c in reps]),
        "setup_s": _median([c.setup_s for c in run.ok("setup") + reps]),
        "solve_s": _median([c.solve_s for c in reps]),
        "peak_rss_mib": _median([c.peak_rss_mib for c in reps]),
    }


def measure_traced(run, seconds):
    started = time.monotonic()
    while True:
        run.spawn("run")
        run.spawn("trace")
        if _enough(run, started, seconds, run.children[-1].end - run.children[-2].start):
            break
    plain, traced = run.ok("run"), run.ok("trace")
    per_run = [tracer.layer_metrics(c.stamps["spans"]) for c in traced]
    metrics = {key: _median([m[key] for m in per_run]) for key in tracer.layer_metrics([])}
    metrics["trace.overhead_s"] = (
        _median([c.solve_s for c in traced]) - _median([c.solve_s for c in plain])
        if plain and traced
        else None
    )
    return metrics


SUFFIX_UNITS = {
    "s": "s",
    "self_s": "s",
    "overhead_s": "s",
    "hit_ratio": "ratio",
    "report_bytes": "bytes",
}


def _unit(name):
    return E2E_UNITS.get(name) or SUFFIX_UNITS.get(name.rsplit(".", 1)[-1], "count")


def bench_workload(workload, seed, seconds, trace):
    """One benchmark run of one workload; returns (metrics, attempted, failed)."""
    workdir = OUT / f"{workload.name}-seed{seed}-trace{trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    run = Run(workload, seed, workdir, time.monotonic() + RUN_LIMIT_S)
    run.problem.write_text(problems.problem_text(workload, seed))
    print(f"{workload.name} seed={seed} trace={trace}: toricff {workload.command}", flush=True)
    metrics = (measure_traced if trace else measure)(run, seconds)
    attempted, failed = len(run.records), run.failed
    for name, value in metrics.items():
        shown = "n/a" if value is None else f"{value:.6f}"
        print(f"{name:<48} {shown:>16} {_unit(name)}")
    print(f"{'failed_ratio':<48} {failed / attempted:>16.6f} ({failed}/{attempted} runs)")
    result = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "git_revision": git_revision(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "problem": run.problem.read_text(),
        "runs": run.records,
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
    }
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workdir.name}.json").write_text(json.dumps(result, indent=1) + "\n")
    return metrics, attempted, failed


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        choices=("all", *problems.WORKLOADS),
        default="all",
        help="one workload, or all of them one after another (metrics prefixed by workload)",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toricff" / "cli.py").is_file():
        print(f"error: no toricff sources under {SRC}", file=sys.stderr)
        return 2
    names = list(problems.WORKLOADS) if args.workload == "all" else [args.workload]
    metrics, attempted, failed = {}, 0, 0
    for name in names:
        got, tried, bad = bench_workload(problems.WORKLOADS[name], args.seed, args.seconds, args.trace)
        prefix = f"{name}." if len(names) > 1 else ""
        metrics.update({prefix + key: {"value": v, "unit": _unit(key)} for key, v in got.items()})
        attempted += tried
        failed += bad
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(summary))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
