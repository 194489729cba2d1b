"""Time each operation of a benchmark workload in two source trees.

Usage, from anywhere:

    python3 tools/op_costs.py PARENT_ROOT CHANGE_ROOT WORKLOAD
        [--repeats N]

Each ROOT is a checkout with ``src/sacksforcing``.  Both packages are
imported into this one process, under the names ``parent_sacksforcing``
and ``change_sacksforcing``, and each gets its own instance of the
workload from this checkout's ``perfbench/workloads.py``, set up with
seed 1.  Nothing under ``perfbench`` is changed.

The instances timed are the workload's instance space where it keeps
one (``tree_calculus``), and otherwise the items of its first pass.  A
pass calls every instance of each operation once, in a fixed order, and
times each operation's calls together.  There are ``--repeats`` passes
(default 7) per root, the two roots alternating, the parent first in
odd passes; each operation reports the best pass of each root, in µs
per call, and the ratio change / parent.

The workloads that start every pass cold (``imp_decide`` and
``imp_enumerate``) are refused: their caches would be warm here.  The
tool exits 2 on a usage error and 1 when a call raises.  Standard
library only.
"""

from __future__ import annotations

import argparse
import importlib.util
import sys
import tempfile
import time
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = {w.name: w for w in (workloads.ImpDecide, workloads.ImpEnumerate,
                                 workloads.TreeCalculus, workloads.CliEval)}


def usage_error(message):
    print(f"op_costs: {message}", file=sys.stderr)
    sys.exit(2)


def load(root, alias):
    """root's package, imported as alias, as perfbench's layer namespace."""
    src = root / "src" / spans.PACKAGE
    spec = importlib.util.spec_from_file_location(
        alias, src / "__init__.py", submodule_search_locations=[str(src)])
    module = importlib.util.module_from_spec(spec)
    sys.modules[alias] = module
    spec.loader.exec_module(module)
    return SimpleNamespace(**{
        layer: importlib.import_module(f"{alias}.{layer}")
        for layer in spans.LAYERS})


def groups(workload):
    """The calls to time, by operation: (fn, [args, ...])."""
    ops = workload.ops()
    space = getattr(workload, "instances", None)
    if space is not None:
        return {op: (ops[op], space[op]) for op in ops}
    out = {}
    for op, args, key in workload.make_pass(0):
        out.setdefault(workload.kind(key), (ops[op], []))[1].append(args)
    return out


def time_pass(calls):
    """Seconds per call of each operation, over one call per instance."""
    clock = time.perf_counter
    out = {}
    for op, (fn, instances) in calls.items():
        start = clock()
        for args in instances:
            fn(*args)
        out[op] = (clock() - start) / len(instances)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent_root", type=Path)
    parser.add_argument("change_root", type=Path)
    parser.add_argument("workload")
    parser.add_argument("--repeats", type=int, default=7)
    args = parser.parse_args(argv)
    for root in (args.parent_root, args.change_root):
        if not (root / "src" / spans.PACKAGE / "__init__.py").is_file():
            usage_error(f"no package source in {root}")
    if args.workload not in WORKLOADS:
        usage_error(f"unknown workload {args.workload!r}")
    if WORKLOADS[args.workload].cold:
        usage_error(f"{args.workload} starts every pass cold; this tool "
                    f"times warm calls")
    if args.repeats < 1:
        usage_error("--repeats must be at least 1")

    sides = ("parent", "change")
    with tempfile.TemporaryDirectory() as tmp:
        calls, best = {}, {}
        for side, root in zip(sides, (args.parent_root, args.change_root)):
            workload = WORKLOADS[args.workload]()
            workload.setup(load(root, f"{side}_{spans.PACKAGE}"), 1,
                           Path(tmp) / side)
            calls[side], best[side] = groups(workload), {}
        try:
            for r in range(args.repeats):
                for side in sides if r % 2 else sides[::-1]:
                    for op, s in time_pass(calls[side]).items():
                        best[side][op] = min(best[side].get(op, s), s)
        except Exception as e:  # noqa: BLE001 - reported, then exit 1
            print(f"op_costs: a call raised {type(e).__name__}: {e}",
                  file=sys.stderr)
            return 1

    print(f"{args.workload}: best of {args.repeats} passes, µs per call, "
          f"parent -> change")
    for op in sorted(best["parent"]):
        a, b = best["parent"][op] * 1e6, best["change"][op] * 1e6
        n = len(calls["parent"][op][1])
        print(f"  {op:22} {a:9.3f} -> {b:9.3f}  x{b / a:.3f}  ({n} calls)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
