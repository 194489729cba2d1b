"""Self-tests of the benchmark at tiny size.

    python3 -m pytest perfbench

They run each workload for one small pass, untraced and traced, and
check the benchmark's own machinery: metric names and units, the
reference evaluator, failure counting and the deadline guard.
"""

import json
import random
import shutil
import subprocess
import sys
import time

import pytest

import reference
import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_run(name, trace=False, pinned=None):
    workload = run.make_workload(name, tiny=True, pinned=pinned)
    return run.measure(workload, seed=3, seconds=0, trace=trace,
                       setup_reps=1)


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(name):
    assert name in {w["name"] for w in SPEC["workloads"]}
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result, record = tiny_run(name, trace)
        assert result["correct"] and result["failed"] == 0, record["failures"]
        assert result["attempted"] >= 1
        want = {m["name"]: m["unit"] for m in SPEC[section]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        assert record["failed_ratio"] == 0
        assert record["tail_percentile"] < 100


# bench.self_s is traced time outside every span: the benchmark's loop,
# its deadline timer and output capture, and any package entry point the
# tracer failed to wrap.  At the commit that added the benchmark it was
# 0.3-3% of traced time in tiny runs.
BENCH_SHARE = 0.06
# the metric that carries each workload's load, and ones that must be 0
SPLIT = {
    "imp_decide": ("implicit.decide_s", ["implicit.enumerate_s",
                                         "trees.self_s", "cli.self_s"]),
    "imp_enumerate": ("implicit.enumerate_s", ["implicit.decide_s",
                                               "trees.self_s", "cli.self_s"]),
    "tree_calculus": ("trees.self_s", ["implicit.self_s", "cli.self_s"]),
    "cli_eval": ("cli.self_s", []),
}


@pytest.mark.parametrize("name", sorted(run.WORKLOADS))
def test_traced_time_is_accounted_for(name):
    result, _ = tiny_run(name, trace=True)
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert 0 <= m["bench.self_s"] < BENCH_SHARE * m["trace.wall_s"]
    loaded, idle = SPLIT[name]
    assert m[loaded] > 0
    assert all(m[metric] == 0 for metric in idle)


def test_reference_agrees_with_eval_formula():
    pkg = run.load_package(with_cli=False)
    implicit = pkg.implicit
    rng = random.Random(7)
    for universe in workloads.small_universes(3):
        structure = implicit.FinStructure(universe)
        population = reference.FormulaPopulation(implicit, len(universe))
        for _ in range(40):
            f = population.closed_formula(rng.randrange(population.closed))
            assert not implicit.free_vars(f)
            mask = reference.satisfying_subsets(f, universe)
            for m in range(1 << len(universe)):
                subset = {c for j, c in enumerate(universe) if (m >> j) & 1}
                assert implicit.eval_formula(f, structure, subset, universe) \
                    == bool((mask >> m) & 1)


def test_population_matches_criterion_10_count():
    pkg = run.load_package(with_cli=False)
    total = sum(reference.FormulaPopulation(pkg.implicit, len(u)).closed
                for u in workloads.small_universes(3))
    assert total == 698316


def test_pinned_values_agree_with_the_tests():
    pinned = workloads.load_pinned()["imp_enumerate"]
    assert pinned["subsets 0,1,2,3 7"] == [0, 1, 2, 3, 4, 8, 10, 12, 15]
    assert pinned["levels 4 10"][4] == [c for c in range(16)
                                        if c not in (6, 9)]


def test_wrong_expected_value_counts_as_failure():
    pinned = workloads.load_pinned()
    pinned["imp_enumerate"] = dict(pinned["imp_enumerate"],
                                   **{"subsets 0,1 4": [0, 1, 3]})
    result, record = tiny_run("imp_enumerate", pinned=pinned)
    assert not result["correct"]
    assert result["failed"] >= 1 and record["failed_ratio"] > 0


class Represented(workloads.TreeCalculus):
    """enumerate_trees in reverse order, each tree presented one level
    deeper: the same trees, so every expected value must still be found."""

    def setup(self, pkg, seed, workdir):
        enumerate_trees = pkg.trees.enumerate_trees
        pkg.trees.enumerate_trees = lambda *a: [
            t.deepen(t.depth + 1) for t in reversed(enumerate_trees(*a))]
        super().setup(pkg, seed, workdir)


def test_pinned_values_survive_reordering_and_presentation():
    workload = Represented()
    for attr, value in run.TINY["tree_calculus"].items():
        setattr(workload, attr, value)
    result, record = run.measure(workload, seed=5, seconds=0, trace=False,
                                 setup_reps=1)
    assert result["correct"], record["failures"]
    assert workload.instances["contains"][0][0].depth == 3


class Sleepy(workloads.ImpEnumerate):
    deadline_s = 0.05

    def ops(self):
        slow = self.pkg.implicit.imp_levels

        def levels(n, b):
            if (n, b) == (3, 4):
                time.sleep(5)
            return slow(n, b)

        return {**super().ops(), "levels": levels}


def test_deadline_counts_an_overrun_item_as_failed():
    workload = Sleepy()
    for attr, value in run.TINY["imp_enumerate"].items():
        setattr(workload, attr, value)
    t0 = time.perf_counter()
    result, _ = run.measure(workload, seed=1, seconds=0, trace=False,
                            setup_reps=1)
    assert time.perf_counter() - t0 < 4
    assert result["failed"] == 1


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "imp_decide",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
