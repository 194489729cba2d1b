"""Check that two source trees answer every ``eval`` payload alike.

Usage, from anywhere:

    python3 tools/eval_parity.py PARENT_ROOT CHANGE_ROOT

Each ROOT is a checkout with ``src/sacksforcing``.  The payloads are the
pinned ``cli_eval`` catalogue, read from PARENT_ROOT's
``perfbench/pinned.json``, and each of those payloads with one nested
value (a field, an entry of a list or of an object, at any depth)
replaced by each of the WRONG values.  One child process per side, the
two run side by side, imports the package from its ROOT's ``src`` and
runs ``cli.main(["eval", op, path])`` on every payload in turn, each
written to the same relative path, capturing the exit code, stdout and
stderr.  A call that raises anything else, or runs past TIMEOUT_S
seconds, is recorded as such.

The tool prints the payload count, a digest of each side's outcomes, and
the first payload whose exit code, stdout or stderr differs.  It exits 0
when the two sides agree on every payload, 1 when they differ, and 2 when
a child process fails or the arguments are wrong.  Standard library
only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

TIMEOUT_S = 5
RESULTS = "results.jsonl"
WRONG = [None, True, False, 0, 1, -1, 2, 3, 10 ** 30, 0.5, "", "0", "1",
         "10", "2", " ", "x", "single", "pair", "column", [], [0],
         ["single", 5], [[]], {}, {"0": "1"}, {"01": "1"},
         {"depth": 0, "skeleton": {"": ""}}]


def positions(value):
    """Every path of keys and indices to a value nested in value."""
    items = (value.items() if isinstance(value, dict) else
             enumerate(value) if isinstance(value, list) else ())
    for key, inner in items:
        yield (key,)
        for rest in positions(inner):
            yield (key, *rest)


def replaced(value, path, new):
    """A copy of value with the value at path replaced by new."""
    if not path:
        return new
    copy = dict(value) if isinstance(value, dict) else list(value)
    copy[path[0]] = replaced(value[path[0]], path[1:], new)
    return copy


def payloads(pinned_path):
    """(operation, payload) pairs: each pinned payload, then its wrong
    variants."""
    catalogue = json.loads(Path(pinned_path).read_text(encoding="utf-8"))
    for op, payload, _, _ in catalogue["cli_eval"]:
        yield op, payload
        for path in positions(payload):
            for new in WRONG:
                yield op, replaced(payload, path, new)


class _Timeout(Exception):
    pass


def _alarm(signum, frame):
    raise _Timeout


def child(root, pinned_path, work):
    """Run every payload through root's cli.main, in the directory work;
    write one JSON line of [exit code, stdout, stderr] for each to
    RESULTS there."""
    sys.path.insert(0, str(Path(root, "src")))
    from sacksforcing.cli import main

    signal.signal(signal.SIGALRM, _alarm)
    os.chdir(work)
    with open(RESULTS, "w", encoding="utf-8") as results:
        for op, payload in payloads(pinned_path):
            with open("payload.json", "w", encoding="utf-8") as fh:
                json.dump(payload, fh)
            out, err = io.StringIO(), io.StringIO()
            signal.setitimer(signal.ITIMER_REAL, TIMEOUT_S)
            try:
                with contextlib.redirect_stdout(out), \
                        contextlib.redirect_stderr(err):
                    code = main(["eval", op, "payload.json"])
            except SystemExit as e:
                code = e.code
            except _Timeout:
                code = "timeout"
            except Exception as e:   # a bug: recorded, not fatal
                code = f"raised {type(e).__name__}: {e}"
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            results.write(json.dumps([code, out.getvalue(), err.getvalue()])
                          + "\n")


def compare(parent, change):
    pinned = Path(parent, "perfbench", "pinned.json")
    with tempfile.TemporaryDirectory(prefix="eval_parity_") as tmp:
        works = [Path(tmp, "parent"), Path(tmp, "change")]
        procs = []
        for root, work in zip((parent, change), works):
            work.mkdir()
            procs.append(subprocess.Popen([sys.executable, __file__,
                                           "--child", str(root), str(pinned),
                                           str(work)]))
        if any([p.wait() for p in procs]):
            print("a child process failed", file=sys.stderr)
            return 2
        digests = [hashlib.sha256(), hashlib.sha256()]
        count, first = 0, None
        with open(works[0] / RESULTS, encoding="utf-8") as a, \
                open(works[1] / RESULTS, encoding="utf-8") as b:
            for (op, payload), x, y in zip(payloads(pinned), a, b):
                count += 1
                digests[0].update(x.encode())
                digests[1].update(y.encode())
                if x != y and first is None:
                    first = op, payload, json.loads(x), json.loads(y)
    print(f"payloads: {count}")
    for side, digest in zip(("parent", "change"), digests):
        print(f"{side} digest: {digest.hexdigest()}")
    if first is None:
        print("identical")
        return 0
    op, payload, x, y = first
    print(f"first difference: eval {op} {json.dumps(payload)}")
    for side, (code, out, err) in zip(("parent", "change"), (x, y)):
        print(f"  {side}: exit {code}, stdout {out!r}, stderr {err!r}")
    return 1


def main(argv):
    if len(argv) == 4 and argv[0] == "--child":
        child(*argv[1:])
        return 0
    if len(argv) != 2:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    return compare(*(Path(a).resolve() for a in argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
