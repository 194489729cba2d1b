"""Report the function-body lines of src/ that a pytest run never reaches.

Usage, from the repository root:

    python3 tools/line_trace.py [PYTEST ARGS...]

for example

    python3 tools/line_trace.py -q --tb=line -p no:cacheprovider tests \
        --deselect tests/test_acceptance.py::test_criterion_10_unique_subset_oracle_agreement

It runs pytest in this process under a ``sys.settrace`` line tracer
(standard library only), then prints each executable line inside a
function, method, lambda or comprehension of ``src/sacksforcing`` that no
traced frame reached, as ``path:line: source``, then a count for each
module and the total.  Module and class bodies run at import and are not
counted.  Code run in a child process or in a thread other than the main
one is not traced.  Line tracing slows every call several times, so a
test that bounds its own wall time may fail under it; pytest's exit
status is printed, and the report is made all the same.  The tool exits
0 once it has reported.
"""

from __future__ import annotations

import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "sacksforcing"


def body_lines(path):
    """The lines that hold instructions of a function-like code object in
    the source file ``path``, without each one's ``def`` line."""
    lines = set()
    todo = [compile(path.read_text(), str(path), "exec")]
    while todo:
        code = todo.pop()
        todo.extend(c for c in code.co_consts if inspect.iscode(c))
        if code.co_flags & inspect.CO_OPTIMIZED:
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return lines


def trace(pytest_args):
    """Run pytest under the tracer: (exit status, {(file, line)} reached)."""
    import pytest

    files = {str(p) for p in PACKAGE.glob("*.py")}
    reached = set()
    add = reached.add

    def local(frame, event, arg):
        if event == "line":
            add((frame.f_code.co_filename, frame.f_lineno))
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_filename in files else None

    sys.settrace(calls)
    try:
        status = pytest.main(pytest_args)
    finally:
        sys.settrace(None)
    return status, reached


def main(argv):
    sys.path.insert(0, str(ROOT / "src"))
    status, reached = trace(argv)
    counts = {}
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text().splitlines()
        lines = body_lines(path)
        missed = sorted(line for line in lines
                        if (str(path), line) not in reached)
        counts[path.name] = len(missed), len(lines)
        for line in missed:
            print(f"{path.relative_to(ROOT)}:{line}: "
                  f"{source[line - 1].strip()}")
    for name, (missed, lines) in counts.items():
        print(f"{name}: {missed} of {lines} never reached")
    unreached, total = map(sum, zip(*counts.values()))
    print(f"{unreached} of {total} function-body lines in "
          f"{PACKAGE.relative_to(ROOT)} never reached (pytest exit "
          f"status {int(status)})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
