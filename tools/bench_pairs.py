"""Run alternating benchmark pairs of two source trees and compare them.

Usage, from anywhere:

    python3 tools/bench_pairs.py PARENT_ROOT CHANGE_ROOT WORKLOAD
        [--pairs N] [--seed S] [--seconds T]

Each ROOT is a checkout with ``perfbench/run.py`` and ``src/sacksforcing``.
Pair i, counted from 0, runs

    python3 perfbench/run.py --workload WORKLOAD --seed S+i --seconds T --trace 0

in each root, one run at a time, the parent first when i is odd and the
change first when it is even.  ``--pairs`` defaults to 10, ``--seed`` to
1 and ``--seconds`` to ``run_seconds`` of PARENT_ROOT's BENCHMARK.json,
which also names the workloads and the ``end_to_end`` metrics.

The tool prints one line per run, with every end-to-end metric and the
failed-item count.  Then, for each metric, it prints the parent's and the
change's medians, how many pairs the change won (by the metric's
``better``; a tie counts for neither side), the interquartile range of
the parent's runs, and ``WORSE`` when the change's median is worse than
the parent's by more than the metric's relative ``bound``.

It exits 0 when every run passed, 1 as soon as a run exits nonzero or
reports ``correct: false``, and 2 on a usage error.  It writes nothing
into either root beyond what ``perfbench/run.py`` itself leaves there.
Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def usage_error(message):
    print(f"bench_pairs: {message}", file=sys.stderr)
    sys.exit(2)


def run(root, workload, seed, seconds):
    """The result object of one run, or exit 1 when the run fails."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=root, capture_output=True, text=True)
    try:
        result = json.loads(done.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError):
        result = {}
    if done.returncode != 0 or not result.get("correct"):
        print(f"run failed: {' '.join(argv[1:])} in {root}, exit "
              f"{done.returncode}\n{done.stderr.strip()}", file=sys.stderr)
        sys.exit(1)
    return result


def worse(metric, parent, change):
    """How much worse change is than parent, as a share of parent."""
    gap = (change - parent) / parent if parent else 0.0
    return gap if metric["better"] == "lower" else -gap


def iqr(values):
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q3 - q1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args(argv)
    for root in (args.parent_root, args.change_root):
        if not (root / "perfbench" / "run.py").is_file():
            usage_error(f"no perfbench/run.py in {root}")
    try:
        bench = json.loads((args.parent_root / "BENCHMARK.json")
                           .read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        usage_error(f"cannot read BENCHMARK.json: {e}")
    if args.workload not in {w["name"] for w in bench["workloads"]}:
        usage_error(f"unknown workload {args.workload!r}")
    if args.pairs < 1:
        usage_error("--pairs must be at least 1")
    seconds = bench["run_seconds"] if args.seconds is None else args.seconds
    metrics = bench["end_to_end"]
    sides = {"parent": args.parent_root, "change": args.change_root}
    values = {side: {m["name"]: [] for m in metrics} for side in sides}

    for i in range(args.pairs):
        seed = args.seed + i
        for side in ("parent", "change") if i % 2 else ("change", "parent"):
            result = run(sides[side], args.workload, seed, seconds)
            shown = []
            for m in metrics:
                value = result["metrics"][m["name"]]["value"]
                values[side][m["name"]].append(value)
                shown.append(f"{m['name']}={value:.6g}")
            print(f"pair {i} seed {seed} {side:6} {' '.join(shown)} "
                  f"failed={result['failed']}", flush=True)

    print(f"{args.workload}: {args.pairs} pairs of {seconds:g} s, "
          f"parent -> change")
    for m in metrics:
        parent, change = values["parent"][m["name"]], \
            values["change"][m["name"]]
        wins = sum(worse(m, p, c) < 0 for p, c in zip(parent, change))
        a, b = statistics.median(parent), statistics.median(change)
        flag = "  WORSE" if worse(m, a, b) > m["bound"] else ""
        print(f"  {m['name']:13} median {a:.6g} -> {b:.6g}  "
              f"change won {wins} of {args.pairs}  "
              f"parent IQR {iqr(parent):.3g}{flag}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
