"""Report the function-body lines of src/ that no traffic outside the
tests reaches.

Usage, from the repository root:

    python3 tools/traffic_trace.py

It runs, in this process and under the line tracer of line_trace.py
(standard library only):

- the five scripts in ``demos/``;
- ``verify all``;
- every pinned ``cli_eval`` payload of ``perfbench/pinned.json``,
  through ``cli.main(["eval", op, path])``;
- one ``--tiny`` pass of each perfbench workload at seed SEED, through
  ``perfbench/run.py``'s own ``measure``; nothing under ``perfbench/``
  changes.

It prints a line for each part, then each function-body line of
``src/sacksforcing`` that none of them reached, as ``path:line:
source``, a count for each module and the total.  When line_trace.py
over the tests reports no unreached line, these are the lines that only
the tests reach: what the traffic leaves unverified.  Output of the
traffic itself is discarded.  The tool exits 0 once it has
reported.
"""

from __future__ import annotations

import contextlib
import io
import json
import runpy
import sys
import tempfile
from collections import Counter
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from line_trace import ROOT, report, trace  # noqa: E402

SEED = 1


def quiet(action, *args):
    """action(*args) with its standard output and error discarded; its
    result, or the code of the SystemExit it raised."""
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return action(*args)
        except SystemExit as e:
            return e.code


def traffic():
    """Run the traffic; return one summary line for each part."""
    from sacksforcing import cli

    demos = sorted((ROOT / "demos").glob("*.py"))
    for demo in demos:
        quiet(runpy.run_path, str(demo), None, "__main__")
    summary = [f"demos: {len(demos)} run",
               f"verify all: exit {quiet(cli.main, ['verify', 'all'])}"]

    pinned = json.loads((ROOT / "perfbench" / "pinned.json").read_text())
    codes = Counter()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "payload.json"
        for op, payload, _, _ in pinned["cli_eval"]:
            path.write_text(json.dumps(payload), encoding="utf-8")
            code = quiet(cli.main, ["eval", op, str(path)])
            codes[code] += 1
    summary.append(f"pinned cli_eval payloads: {sum(codes.values())}, "
                   f"exit codes {dict(sorted(codes.items()))}")

    sys.path.insert(0, str(ROOT / "perfbench"))
    import run

    for name in sorted(run.WORKLOADS):
        result, _ = quiet(run.measure, run.make_workload(name, tiny=True),
                          SEED, 0, False, 1)
        summary.append(f"perfbench {name} --tiny: {result['attempted']} "
                       f"items, {result['failed']} failed")
    return summary


def main():
    sys.path.insert(0, str(ROOT / "src"))
    summary, reached = trace(traffic)
    print("\n".join(summary))
    report(reached, "reached by no traffic", "demos, verify all, pinned "
           "cli_eval payloads and one tiny pass of each workload")
    return 0


if __name__ == "__main__":
    sys.exit(main())
