"""Each demo prints what it printed when its golden file was written.

The demos are deterministic: they print the same under any
PYTHONHASHSEED.  A change that moves a demo's output either is a fault
or must rewrite the golden file in tests/demo_outputs/ on purpose."""

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
