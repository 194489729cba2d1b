"""Each demo prints what it printed when its golden file was written,
and README's quick tour gives the values its comments state.

The demos are deterministic: they print the same under any
PYTHONHASHSEED.  A change that moves a demo's output either is a fault
or must rewrite the golden file in tests/demo_outputs/ on purpose."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sacksforcing

ROOT = Path(__file__).parents[1]
DEMOS = ["bit_codec", "perfect_trees", "condition_calculus",
         "degree_lattices", "implicit_definability"]


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_prints_its_golden_output(demo):
    # the child imports the package from where this process did, which
    # may be a plain checkout's src/ put on the path by pytest
    src = os.path.dirname(os.path.dirname(sacksforcing.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{demo}.py")],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stderr) == (0, "")
    want = (ROOT / "tests" / "demo_outputs" / f"{demo}.txt").read_text(
        encoding="utf-8")
    assert proc.stdout == want


def test_every_demo_has_a_golden_output():
    for folder, pattern in (("demos", "*.py"),
                            ("tests/demo_outputs", "*.txt")):
        assert sorted(DEMOS) == sorted(
            p.stem for p in (ROOT / folder).glob(pattern))


def _quick_tour():
    """The Python block under README's "## Quick tour" heading."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Quick tour\n", 1)[1]
    return tour.split("```python\n", 1)[1].split("\n```", 1)[0]


def test_readme_quick_tour_gives_the_values_it_states():
    # each expression statement states its value in a comment, on its
    # own line or on the next; the other statements only run
    source = _quick_tour()
    lines = source.splitlines()
    namespace, checked = {}, []
    for stmt in ast.parse(source).body:
        code = ast.get_source_segment(source, stmt)
        if not isinstance(stmt, ast.Expr):
            exec(code, namespace)
            continue
        after = lines[stmt.end_lineno - 1][stmt.end_col_offset:].strip()
        if not after:
            after = lines[stmt.end_lineno].strip()
        assert after.startswith("#"), code
        want = ast.literal_eval(after[1:].strip())
        assert eval(code, namespace) == want, code
        checked.append(code)
    assert len(checked) == 7
