"""Host-speed calibration, one kind of work per workload.

Each function runs fixed work shaped like its workload's traffic, built
only from this directory and the standard library, so no change to the
package can move it.  Its time over its time on the reference host is
the host's current slowdown for that kind of code.  Work of the same
shape tracks the host better than a generic loop does: in quiet and busy
spells of a shared host, a tight integer loop, recursive evaluation,
big-int folds and argparse/JSON traffic speed up and slow down by
different amounts.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import time
from itertools import product

import reference


# formula nodes of this directory's own, named as reference.py dispatches
class _Node:
    def __init__(self, *fields):
        for name, value in zip(self.__slots__, fields):
            setattr(self, name, value)


def _node(name, *fields):
    return type(name, (_Node,), {"__slots__": fields})


Var, Param = _node("Var", "name"), _node("Param", "index")
Pred = _node("Pred", "term")
Member, Eq = _node("Member", "left", "right"), _node("Eq", "left", "right")
Not = _node("Not", "body")
And, Or = _node("And", "left", "right"), _node("Or", "left", "right")
Implies, Iff = _node("Implies", "left", "right"), _node("Iff", "left", "right")
Forall, Exists = _node("Forall", "var", "body"), _node("Exists", "var", "body")

_X, _Y = Var("x"), Var("y")
_FORMULAS = [
    Forall("x", Iff(Pred(_X), Eq(_X, Param(0)))),
    Exists("x", And(Pred(_X), Forall("y", Implies(Member(_Y, _X),
                                                    Pred(_Y))))),
    Forall("x", Exists("y", Or(Member(_X, _Y), Not(Pred(_Y))))),
    Not(Exists("y", Iff(Member(Param(1), _Y), Pred(_Y)))),
    Forall("y", Implies(Pred(_Y), Exists("x", Eq(_X, Param(2))))),
]


def _decide():
    for f in _FORMULAS:
        reference.satisfying_subsets(f, (0, 1, 2))


_MASK = (1 << 1024) - 1
_SLOTS = [sum(((1 << 16) - 1) << (16 * a) for a in range(64) if a % 4 == k)
          for k in range(4)]


def _enumerate():
    classes = {}
    t = 0x9E3779B97F4A7C15
    for i in range(60):
        t = ((t << 7) ^ (t >> 3) ^ i) & _MASK
        folded = _MASK
        for k in range(4):
            folded &= (t & _SLOTS[k]) >> (16 * k)
        classes.setdefault(folded, i)
        classes.setdefault(~t & _MASK, i)
    return len(classes)


_SKELETONS = [
    {s: s + (1,) * (len(s) % 2) for k in range(d + 1)
     for s in product((0, 1), repeat=k)}
    for d in range(4)]


def _trees():
    for depth, skel in enumerate(_SKELETONS):
        reference.tree_normal_form(depth, skel)
        grown = {s + (0,): e + (0,) for s, e in skel.items()}
        reference.tree_normal_form(depth + 1, {**skel, **grown})


_PAYLOAD = json.dumps({"tree": {"depth": 1, "skeleton": {
    "": "0", "0": "00", "1": "011"}}, "sigma": "0110", "n": 2})


def _cli():
    parser = argparse.ArgumentParser(prog="calibrate")
    sub = parser.add_subparsers(dest="command", required=True)
    e = sub.add_parser("eval")
    e.add_argument("op")
    e.add_argument("input")
    args = parser.parse_args(["eval", "rt", "-"])
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        payload = json.loads(_PAYLOAD)
        print(json.dumps({args.op: payload}, sort_keys=True))
    return out.getvalue()


# workload -> (one unit of work, seconds per unit on the reference host)
UNITS = {
    "imp_decide": (_decide, 78e-6),
    "imp_enumerate": (_enumerate, 74e-6),
    "tree_calculus": (_trees, 122e-6),
    "cli_eval": (_cli, 249e-6),
}


def slowdown(workload, seconds):
    """Run about ``seconds`` of the workload's calibration; return how
    many times slower than on the reference host it ran."""
    unit, nominal = UNITS[workload]
    units = max(1, round(seconds / nominal))
    start = time.perf_counter()
    for _ in range(units):
        unit()
    return (time.perf_counter() - start) / (units * nominal)
