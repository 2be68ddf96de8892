"""Alternating benchmark pairs of two revisions of this repository.

Usage (from anywhere inside the repository):

    python3 tools/bench_pairs.py BASE [CHANGE] --workload W [W ...] \\
        --pairs N --seconds S --seed K

BASE and CHANGE are git revisions. CHANGE defaults to the working tree's
tracked files, as the commit ``git stash create`` makes of them, or to HEAD
when the tree is clean. Each revision is exported with ``git archive`` into
its own directory, ``old`` and ``new``, side by side in one temporary
directory, so both copies sit at paths of equal length. Before every run
the copy's ``src/toricff/__pycache__`` is deleted, so neither side starts
with bytecode the other lacks. Pair i runs BASE first when i is odd and
CHANGE first when it is even.

Each run is ``python3 bench/run.py --workload W --seed K --seconds S`` in
its copy; the last line of its output, one JSON object, gives the metrics.
The N pairs of each workload W run in turn, in the order given. For each
workload the script prints each pair's values, then for every metric each
side's median and quartiles and the number of pairs in which CHANGE is
better, the direction read from CHANGE's BENCHMARK.json (lower when it
names none). For each end-to-end metric with a bound there it also prints a
verdict (see verdict), and for every metric whether the pairs show a gain
(see gain), with the relative change of the medians (see median_change).
It exits 1 when a run failed its gate or printed no metrics. It
changes nothing in the repository and removes its copies when done.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent


def git(*args):
    return subprocess.run(
        ["git", *args], cwd=REPO, check=True, capture_output=True, text=True
    ).stdout.strip()


def export(revision, target):
    """The tracked files of revision, extracted into the directory target."""
    target.mkdir()
    archive = target.with_suffix(".tar")
    git("archive", "--format=tar", "-o", str(archive), revision)
    subprocess.run(["tar", "-xf", str(archive), "-C", str(target)], check=True)
    archive.unlink()


def bench(copy, workload, args):
    """One bench/run.py run of workload in copy: (correct, metrics {name:
    value})."""
    shutil.rmtree(copy / "src" / "toricff" / "__pycache__", ignore_errors=True)
    command = [
        sys.executable, "bench/run.py", "--workload", workload,
        "--seed", str(args.seed), "--seconds", str(args.seconds),
    ]
    done = subprocess.run(command, cwd=copy, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        summary = json.loads(lines[-1])
    except (IndexError, ValueError):
        print(f"{copy.name}: no summary line; stderr:\n{done.stderr}", file=sys.stderr)
        return False, {}
    metrics = {name: m["value"] for name, m in summary["metrics"].items()}
    return summary["correct"] and not summary["failed"], metrics


def metric_specs(copy):
    """{metric: its entry} from the copy's BENCHMARK.json."""
    try:
        spec = json.loads((copy / "BENCHMARK.json").read_text())
    except (OSError, ValueError):
        return {}
    entries = spec.get("end_to_end", []) + spec.get("per_layer", [])
    return {e["name"]: e for e in entries}


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def verdict(old, new, bound, lower=True):
    """The no-regression verdict on one metric from the base's runs old and
    the change's runs new: "unresolved" when the base's quartile spread
    exceeds bound times its median, unless every change run is better than
    every base run; otherwise "no regression" when the change's median is
    no worse than the base's median by more than that factor 1 + bound, and
    "regression" when it is."""
    if not lower:
        old, new = [-v for v in old], [-v for v in new]
    o1, o2, o3 = quartiles(old)
    if max(new) < min(old):
        return "no regression"
    if o3 - o1 > bound * abs(o2):
        return "unresolved"
    limit = o2 + bound * abs(o2)
    return "no regression" if quartiles(new)[1] <= limit else "regression"


def gain(old, new, lower=True):
    """The gain verdict on one metric from the paired runs old[i], new[i] of
    base and change: "gain" when the change is better in at least 9 of
    every 10 pairs, a tie counting for neither side, and its median is
    better than the base's by more than the base's quartile distance;
    otherwise "no gain shown"."""
    if not lower:
        old, new = [-v for v in old], [-v for v in new]
    wins = sum(b < a for a, b in zip(old, new))
    o1, o2, o3 = quartiles(old)
    if 10 * wins >= 9 * len(old) and o2 - quartiles(new)[1] > o3 - o1:
        return "gain"
    return "no gain shown"


def median_change(old, new):
    """The change's median over the base's, less 1: -0.1 is a median 10%
    lower. None when the base's median is 0."""
    base = quartiles(old)[1]
    return None if base == 0 else quartiles(new)[1] / base - 1


def report(pairs, specs):
    """Print each metric's pairs, medians, quartiles and the change's wins,
    the verdict of each metric that has a bound, and every metric's gain
    and median change."""
    names = [n for n in pairs[0][0] if all(n in a and n in b for a, b in pairs)]
    for name in names:
        old = [a[name] for a, _ in pairs]
        new = [b[name] for _, b in pairs]
        spec = specs.get(name, {})
        down = spec.get("better", "lower") == "lower"
        wins = sum((b < a) if down else (b > a) for a, b in zip(old, new))
        (o1, o2, o3), (n1, n2, n3) = quartiles(old), quartiles(new)
        print(f"{name}: base/change per pair: " + " ".join(
            f"{a:.4g}/{b:.4g}" for a, b in zip(old, new)
        ))
        print(
            f"  base median {o2:.4g} [{o1:.4g}, {o3:.4g}] IQR {o3 - o1:.4g}; "
            f"change median {n2:.4g} [{n1:.4g}, {n3:.4g}] IQR {n3 - n1:.4g}; "
            f"change better in {wins}/{len(pairs)} "
            f"({'lower' if down else 'higher'} is better)"
        )
        if "bound" in spec:
            print(f"  verdict (bound {spec['bound']}): "
                  + verdict(old, new, spec["bound"], down))
        change = median_change(old, new)
        change = "n/a" if change is None else f"{change:+.2%}"
        print(f"  gain: {gain(old, new, down)}; median change/base - 1: {change}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("base")
    parser.add_argument("change", nargs="?")
    parser.add_argument("--workload", required=True, nargs="+")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    change = args.change or git("stash", "create") or "HEAD"
    revisions = {"old": git("rev-parse", args.base), "new": git("rev-parse", change)}
    print(f"base {revisions['old']}, change {revisions['new']}")
    scratch = Path(tempfile.mkdtemp(prefix="bench_pairs-"))
    ok = True
    try:
        copies = {}
        for name, revision in revisions.items():
            copies[name] = scratch / name
            export(revision, copies[name])
        for workload in args.workload:
            print(f"workload {workload}", flush=True)
            pairs = []
            for i in range(1, args.pairs + 1):
                order = ("old", "new") if i % 2 else ("new", "old")
                got = {}
                for name in order:
                    correct, got[name] = bench(copies[name], workload, args)
                    ok = ok and correct and bool(got[name])
                first = "base" if order[0] == "old" else "change"
                print(f"pair {i} ({first} first): " + " ".join(
                    f"{m} {got['old'].get(m, float('nan')):.4g}/{v:.4g}"
                    for m, v in got["new"].items()
                ), flush=True)
                pairs.append((got["old"], got["new"]))
            if all(a and b for a, b in pairs):
                report(pairs, metric_specs(copies["new"]))
    finally:
        shutil.rmtree(scratch)
    if not ok:
        print("a run failed its gate or printed no metrics", file=sys.stderr)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
