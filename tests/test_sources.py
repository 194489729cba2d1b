"""The sources stay portable to the oldest supported Python: the package
imports only the standard library and itself, and every Python file of
the repository parses with the Python 3.10 grammar.  ast's
feature_version check is best effort: it catches new syntax, not new
library names."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = "sacksforcing"


def _imported_modules(tree):
    """The absolute module names that tree imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_package_imports_only_the_standard_library():
    paths = sorted((ROOT / "src").rglob("*.py"))
    assert paths
    allowed = sys.stdlib_module_names | {"__future__", PACKAGE}
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), str(path))
        for name in _imported_modules(tree):
            assert name.partition(".")[0] in allowed, f"{path}: {name}"


@pytest.mark.parametrize("folder", ["src", "tests", "perfbench", "demos",
                                    "tools"])
def test_sources_parse_as_python_3_10(folder):
    paths = sorted((ROOT / folder).rglob("*.py"))
    assert paths
    for path in paths:
        ast.parse(path.read_text(encoding="utf-8"), str(path),
                  feature_version=(3, 10))
