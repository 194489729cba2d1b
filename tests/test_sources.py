"""The sources stay portable to the oldest supported Python: the package
imports only the standard library and itself, and every Python file of
the repository parses with the Python 3.10 grammar.  ast's
feature_version check is best effort: it catches new syntax, not new
library names.  Every public name is used outside the tests, and every
public callable but four hot operations refuses arguments of the wrong
type with an EngineError."""

import ast
import inspect
import re
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


def _public_defs(tree):
    """(name, def line) of each public top-level function of a module,
    and of each public method of its top-level classes.  A leading
    underscore, as in a dunder, makes a name private."""
    for node in tree.body:
        for d in node.body if isinstance(node, ast.ClassDef) else [node]:
            if isinstance(d, ast.FunctionDef) and not d.name.startswith("_"):
                yield d.name, d.lineno


def test_every_public_name_is_used_outside_the_tests():
    """A public function or method that only the tests call is dead
    code.  Each must be named in src/, other than on its own def line
    and in the re-exports of __init__.py, or in demos/, perfbench/*.py,
    tools/ or README.md.  Names match as whole words, and that is all:
    a name that is also a common word or another symbol's name, such as
    entry, passes on that word alone."""
    sources = {path: path.read_text(encoding="utf-8") for path in
               sorted((ROOT / "src" / PACKAGE).glob("*.py"))
               if path.name != "__init__.py"}
    src = "\n".join(sources.values())
    outside = "\n".join(path.read_text(encoding="utf-8") for path in [
        *(ROOT / "demos").rglob("*.py"), *(ROOT / "perfbench").glob("*.py"),
        *(ROOT / "tools").rglob("*.py"), ROOT / "README.md"])
    unused = []
    for path, text in sources.items():
        lines = text.splitlines()
        for name, lineno in _public_defs(ast.parse(text, str(path))):
            word = re.compile(rf"\b{name}\b")
            own = len(word.findall(lines[lineno - 1]))
            if len(word.findall(src)) == own and not word.search(outside):
                unused.append(f"{path.name}: {name}")
    assert not unused


# the hot operations that read their arguments unchecked (ROADMAP item
# 19) and still let a bare AttributeError or TypeError out on object()
# arguments
UNCHECKED_ON_OBJECTS = {"bits_str", "implicitly_defined_by",
                        "iter_amalgamate", "subtree_leq"}


def test_every_public_callable_refuses_objects_with_an_engine_error():
    """Each callable in __all__ that takes arguments, exception classes
    apart, is called with object() for every required positional
    argument.  It must raise an EngineError subclass, so that a new
    public name cannot let a bare AttributeError or TypeError out."""
    import sacksforcing
    from sacksforcing.errors import EngineError

    leaks = set()
    for name in sacksforcing.__all__:
        call = getattr(sacksforcing, name)
        if isinstance(call, type) and issubclass(call, BaseException):
            continue
        required = [p for p in inspect.signature(call).parameters.values()
                    if p.default is p.empty and p.kind in (
                        p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)]
        if not required:
            continue
        try:
            call(*[object() for _ in required])
        except EngineError:
            continue
        except (AttributeError, TypeError):
            leaks.add(name)
            continue
        pytest.fail(f"{name} answered on object() arguments")
    assert leaks == UNCHECKED_ON_OBJECTS
