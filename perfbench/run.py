"""Benchmark of the sacksforcing package, one workload per run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout: the package is imported from
its ``src`` directory, never from an installed copy.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``,
the per-layer metrics with ``--trace 1``.  The line before it is a JSON
``record`` of the machine, the seed, the item counts and the workload's
input properties.  The exit code is 1 when any output is wrong, an item
raised or overran its deadline, and 2 when the package cannot be found.

Each run is one process with one caller and no threads.  See README.md
for the workloads and the layer-to-metric table.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
TAIL_BEYOND = 10        # samples above the reported tail percentile
SETUP_REPS = 7
CALIBRATION_S = 0.02     # at least, on each side of a set-up or pass

sys.path.insert(0, str(HERE))

import calibration  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PACKAGE = spans.PACKAGE

WORKLOADS = {w.name: w for w in (workloads.ImpDecide, workloads.ImpEnumerate,
                                 workloads.TreeCalculus, workloads.CliEval)}
# tiny mode: fewer items per pass, for the self-tests
TINY = {"imp_decide": {"per_pass": 60},
        "imp_enumerate": {"budgets": range(4, 6), "level_ns": range(3, 4),
                          "per_pass": 11 * 2 + 1 * 2},
        "tree_calculus": {"per_pass": 4 * len(workloads.TreeCalculus.mix),
                          "mix": {op: (b, 4) for op, (b, _)
                                  in workloads.TreeCalculus.mix.items()}},
        "cli_eval": {"per_pass": 40}}


class ItemDeadline(BaseException):
    """Raised by SIGALRM inside an item that overran its deadline; a
    BaseException so that no handler in the package swallows it."""


def _on_alarm(signum, frame):
    raise ItemDeadline


class Failure:
    """An item that raised or overran; never equal to an expected value."""

    def __init__(self, reason):
        self.reason = reason

    def __repr__(self):
        return f"Failure({self.reason})"


def load_package(with_cli, keep=None):
    """Import the package afresh from the checkout's src directory.

    With ``keep``, a set of module names, every other module is dropped
    too, so that the modules the package imports are imported again.
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")
                 or (keep is not None and n not in keep)]:
        del sys.modules[name]
    importlib.invalidate_caches()
    top = importlib.import_module(PACKAGE)
    if not Path(top.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SystemExit(f"{PACKAGE} was imported from {top.__file__}, "
                         f"not from {SRC}")
    layers = [layer for layer in spans.LAYERS if layer != "cli" or with_cli]
    return SimpleNamespace(**{
        layer: importlib.import_module(f"{PACKAGE}.{layer}")
        for layer in layers})


# -- measuring --------------------------------------------------------------------

def run_pass(workload, items, tracer=None):
    """Time one pass; return (wall seconds, item latencies, outputs)."""
    ops = workload.ops()
    deadline = workload.deadline_s
    setitimer, real = signal.setitimer, signal.ITIMER_REAL
    clock = time.perf_counter
    latencies, outputs = [], []
    start = clock()
    for op, args, _ in items:
        fn = ops[op]
        setitimer(real, deadline)
        t0 = clock()
        try:
            out = fn(*args)
        except ItemDeadline:
            out = Failure("deadline")
            if tracer is not None:
                tracer.reset_stack()
        except Exception as e:  # counted as a failed item, not fatal
            out = Failure(f"{type(e).__name__}: {e}")
        latencies.append(clock() - t0)
        outputs.append(out)
    wall = clock() - start
    setitimer(real, 0)
    return wall, latencies, outputs


def check_pass(workload, items, outputs, failures):
    """Check one pass's outputs; keep the first few failures."""
    failed = 0
    for (_, _, key), out in zip(items, outputs):
        workload.observe(key)
        if isinstance(out, Failure) or not workload.check(key, out):
            failed += 1
            if len(failures) < 5:
                failures.append(f"{key!r}: {out!r}"[:200])
    return failed


def calibrated(workload, action, seconds):
    """Run action between two calibrations of ``seconds`` each; return
    its result and the mean slowdown of the host around it."""
    before = calibration.slowdown(workload.name, seconds)
    out = action()
    return out, (before + calibration.slowdown(workload.name, seconds)) / 2


def pass_stats(wall, latencies, slowdown):
    """A pass's metrics, raw and divided by the slowdown around it."""
    ordered = sorted(latencies)
    n = len(ordered)
    raw = {"items_per_s": n / wall,
           "p50_s": statistics.median(ordered),
           "tail_s": ordered[n - TAIL_BEYOND - 1]}
    return {"wall_s": wall, "raw": raw,
            "items_per_s": raw["items_per_s"] * slowdown,
            "p50_s": raw["p50_s"] / slowdown,
            "tail_s": raw["tail_s"] / slowdown}


def set_up(workload, seed, workdir, keep):
    start = time.perf_counter()
    pkg = load_package(with_cli=workload.name == "cli_eval", keep=keep)
    workload.setup(pkg, seed, workdir)
    return time.perf_counter() - start


def restart(workload, seed, workdir, keep):
    """Set up again, untimed, so that the next pass starts cold."""
    workload.close()
    set_up(workload, seed, workdir, keep)
    gc.collect()


def measure(workload, seed, seconds, trace, setup_reps=SETUP_REPS):
    """Set up, run passes for ``seconds``, check; return (result, record).

    Each set-up and each pass sits between two calibrations, and its
    times are divided by the host's slowdown measured around it.  The
    host this was built on changes speed by 10-20% within seconds and
    by up to half between quiet and busy spells.

    Every set-up drops the modules that the last one imported, the
    package's own and the ones it pulled in, and imports them again.  A
    ``cold`` workload also sets up again, untimed, before each pass.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    workdir = WORKDIR / str(os.getpid())
    keep = set(sys.modules)
    setup_raw, setup_times = [], []
    for rep in range(setup_reps):
        if rep:
            workload.close()
        gc.collect()
        took, slowdown = calibrated(
            workload, lambda: set_up(workload, seed, workdir, keep),
            CALIBRATION_S)
        setup_raw.append(took)
        setup_times.append(took / slowdown)
    gc.collect()

    failures, stats = [], []
    attempted = failed = 0
    tracer = None
    try:
        budget = seconds / 4 if trace else seconds
        index = 0
        calibrate_s = CALIBRATION_S
        started = time.perf_counter()
        while index == 0 or time.perf_counter() - started < budget:
            if index and workload.cold:
                restart(workload, seed, workdir, keep)
            items = workload.make_pass(index)
            (wall, latencies, outputs), slowdown = calibrated(
                workload, lambda: run_pass(workload, items), calibrate_s)
            # calibrate for about a twentieth of a pass on each side
            calibrate_s = max(CALIBRATION_S, wall / 20)
            failed += check_pass(workload, items, outputs, failures)
            attempted += len(items)
            stats.append(pass_stats(wall, latencies, slowdown))
            index += 1
        if trace:
            untraced_wall = sum(s["wall_s"] for s in stats)
            tracer = spans.Tracer()
            traced_wall = 0.0
            for i in range(index, 2 * index):
                if workload.cold:
                    restart(workload, seed, workdir, keep)
                items = workload.make_pass(i)
                tracer.install()
                try:
                    wall, _, outputs = run_pass(workload, items, tracer)
                finally:
                    tracer.uninstall()
                failed += check_pass(workload, items, outputs, failures)
                attempted += len(items)
                traced_wall += wall
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)
        if WORKDIR.is_dir() and not any(WORKDIR.iterdir()):
            WORKDIR.rmdir()

    med = {key: statistics.median(s[key] for s in stats)
           for key in ("items_per_s", "p50_s", "tail_s")}
    raw = {key: statistics.median(s["raw"][key] for s in stats)
           for key in ("items_per_s", "p50_s", "tail_s")}
    if trace:
        metrics = layer_metrics(tracer, traced_wall, untraced_wall)
    else:
        metrics = {
            "setup_s": (statistics.median(setup_times), "s"),
            "items_per_s": (med["items_per_s"], "1/s"),
            "item_p50_ms": (1e3 * med["p50_s"], "ms"),
            "item_tail_ms": (1e3 * med["tail_s"], "ms"),
            "peak_rss_mb": (resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }
    n = workload.per_pass
    record = {
        "workload": workload.name,
        "seed": seed,
        "trace": int(trace),
        "environment": environment(),
        "items_per_pass": n,
        "passes": len(stats) * (2 if trace else 1),
        "cold_passes": workload.cold,
        "tail_percentile": round(100 * (n - TAIL_BEYOND) / n, 3),
        "tail_samples_per_pass": n,
        "setup_runs": setup_reps,
        "uncalibrated": {"setup_s": statistics.median(setup_raw),
                         "items_per_s": raw["items_per_s"],
                         "item_p50_ms": 1e3 * raw["p50_s"],
                         "item_tail_ms": 1e3 * raw["tail_s"]},
        "failed_ratio": failed / attempted,
        "failures": failures,
        "properties": workload.properties(),
    }
    if trace:
        overall, within_pass = tracer.repeat_ratios()
        record["properties"]["implicit.repeat_call_ratio"] = overall
        record["properties"]["implicit.repeat_call_ratio_within_pass"] = \
            within_pass
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, record


def layer_metrics(tracer, traced_wall, untraced_wall):
    totals = tracer.layer_totals()
    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}.calls"] = (totals[layer]["calls"], "count")
        out[f"{layer}.self_s"] = (totals[layer]["self_s"], "s")
    for metric, method in (("trees_built", "__init__"),
                           ("contains_calls", "contains"),
                           ("canonical_calls", "canonical")):
        out[f"trees.{metric}"] = (
            tracer.calls("trees", f"SkeletonTree.{method}"), "count")
    out["implicit.decide_s"] = (tracer.group_s["decide"], "s")
    out["implicit.enumerate_s"] = (tracer.group_s["enumerate"], "s")
    out["implicit.parse_s"] = (tracer.group_s["parse"], "s")
    out["implicit.eval_formula_calls"] = (
        tracer.calls("implicit", "eval_formula"), "count")
    out["implicit.repeat_call_ratio"] = (tracer.repeat_ratios()[0], "ratio")
    out["bench.self_s"] = (traced_wall - tracer.top_s, "s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return out


# -- the record -----------------------------------------------------------------

def _read(path):
    try:
        return Path(path).read_text(encoding="utf-8", errors="replace")
    except OSError:
        return ""


def git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = _read(ROOT / ".git" / "HEAD").strip()
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref).strip()
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment():
    cpu = next((line.split(":", 1)[1].strip()
                for line in _read("/proc/cpuinfo").splitlines()
                if line.startswith("model name")), platform.processor())
    mem_kb = next((int(line.split()[1])
                   for line in _read("/proc/meminfo").splitlines()
                   if line.startswith("MemTotal:")), 0)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "mem_total_mb": round(mem_kb / 1024),
        "commit": git_commit(),
    }


# -- command line -----------------------------------------------------------------

def make_workload(name, tiny=False, pinned=None):
    workload = WORKLOADS[name](pinned)
    if tiny:
        for attr, value in TINY[name].items():
            setattr(workload, attr, value)
    return workload


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="how long to run passes (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: report per-layer metrics instead")
    parser.add_argument("--tiny", action="store_true",
                        help="small passes and one set-up, for self-tests")
    args = parser.parse_args(argv)
    if not (SRC / PACKAGE / "__init__.py").is_file():
        print(f"no package source at {SRC / PACKAGE}", file=sys.stderr)
        return 2
    workload = make_workload(args.workload, args.tiny)
    result, record = measure(workload, args.seed, args.seconds,
                             bool(args.trace),
                             setup_reps=1 if args.tiny else SETUP_REPS)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps(result, sort_keys=True))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
