"""Smoke tests of tools/op_costs.py, run on this checkout against itself."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OP_COSTS = ROOT / "tools" / "op_costs.py"
TREE_OPS = {"amalgamate", "restrict_cell", "iter_amalgamate",
            "prod_amalgamate", "contains", "splitting_level", "tree_equal",
            "leq_n", "subtree_leq", "iter_leq_n", "prod_leq"}


def _op_costs(*args):
    return subprocess.run([sys.executable, str(OP_COSTS), str(ROOT),
                           str(ROOT), *args], capture_output=True, text=True,
                          timeout=300)


def test_op_costs_times_every_tree_calculus_operation():
    done = _op_costs("tree_calculus", "--repeats", "1")
    assert done.returncode == 0, done.stderr
    head, *rows = done.stdout.splitlines()
    assert head.startswith("tree_calculus: best of 1 passes")
    assert {row.split()[0] for row in rows} == TREE_OPS
    for row in rows:
        name, parent, arrow, change, ratio, calls, _ = row.split()
        assert arrow == "->" and float(parent) > 0 and float(change) > 0
        assert ratio.startswith("x") and int(calls.lstrip("(")) > 0


def test_op_costs_refuses_a_cold_workload():
    done = _op_costs("imp_decide")
    assert done.returncode == 2
    assert done.stderr.startswith("op_costs: imp_decide starts every pass")
