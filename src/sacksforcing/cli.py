"""Command-line front end.

Three subcommands: ``verify`` replays a module's invariant suite and
reports per-property counts, ``eval`` applies one public operation to a
JSON payload and prints the result as JSON, ``dot`` renders a tree or a
degree poset as deterministic DOT.  Exit codes: 0 pass, 1 operation or
property failure, 2 usage error.

The payload schema of ``eval`` is data: the operation table ``_OPS``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .bitseq import (bits_str, column, join_family, join_pair, pair_index,
                     pair_split, split_pair, width)
from .conditions import (condition_from_json, iter_amalgamate, iter_equal,
                         iter_leq, iter_leq_n, iter_restrict, prod_amalgamate,
                         prod_extends, prod_leq, prod_restrict)
from .degrees import (DegreePoset, Ordinal2, ScPattern, TowerCensus,
                      TowerRecipe, census_decode, census_encode, poset_dot,
                      sc_census_decode, sc_census_encode, sc_decode,
                      sc_pattern, sc_schedule, tower_degrees)
from .errors import EngineError, InputError
from .implicit import (FinStructure, eval_formula, formula_size,
                       formula_text, free_vars, imp_levels, implicit_subsets,
                       implicitly_defined_by, parse_formula, vn_levels)
from .suites import DEFAULT_SEED, SUITE_NAMES, Bounds, run_suite, suite_report
from .trees import SkeletonTree, amalgamate, leq_n, subtree_leq, tree_dot


# -- field readers: (JSON value, field name) -> argument ----------------------

def _int_at_least(minimum):
    def read(v, name):
        if not isinstance(v, int) or isinstance(v, bool):
            raise InputError(f"{name}: expected an integer")
        if v < minimum:
            raise InputError(f"{name}: expected an integer >= {minimum}")
        return v
    return read


_nat, _pos = _int_at_least(0), _int_at_least(1)


def _bits(v, name):
    if not isinstance(v, str) or any(c not in "01" for c in v):
        raise InputError(f"{name}: expected a string of 0s and 1s")
    return tuple(int(c) for c in v)


def _columns(v, name):
    if not isinstance(v, list):
        raise InputError(f"{name}: expected a list of 0/1 strings")
    return [_bits(c, name) for c in v]


def _ints(v, name):
    if not isinstance(v, list) or any(
            not isinstance(c, int) or isinstance(c, bool) for c in v):
        raise InputError(f"{name}: expected a list of integers")
    return v


def _universe(v, name):
    return FinStructure(_ints(v, name))


def _decoded(from_json, what):
    def read(v, name):
        try:
            return from_json(v)
        except EngineError:
            raise
        except (TypeError, ValueError, KeyError, AttributeError) as e:
            raise InputError(f"{name}: not {what} ({e})")
    return read


_tree = _decoded(SkeletonTree.from_json, "a tree presentation")
_condition = _decoded(condition_from_json, "a condition")
_degree_poset = _decoded(lambda v: DegreePoset(v["nodes"], v["edges"]),
                         "a poset")


def _poset(v, name):
    for field in ("nodes", "edges"):
        if not isinstance(v[field], list):
            raise InputError(f"{name}: {field}: expected a list")
    if any(not isinstance(e, list) or len(e) != 2 for e in v["edges"]):
        raise InputError(f"{name}: edges: expected [lower, upper] pairs")
    return _degree_poset(v, name)


def _mode(v, name):
    if v not in ("column", "pairwise"):
        raise InputError(f"{name}: expected \"column\" or \"pairwise\"")
    return v


def _index(v, name):
    if isinstance(v, bool) or not isinstance(v, (int, str, list)):
        raise InputError(f"{name}: indices are integers, strings, or lists")
    if isinstance(v, list):
        return tuple(_index(c, name) for c in v)
    return v


def _sbar(v, name):
    if not isinstance(v, list):
        raise InputError(f"{name}: expected a list of indices")
    return [_index(c, name) for c in v]


def _formula(v, name):
    if not isinstance(v, str):
        raise InputError(f"{name}: expected a formula string")
    return parse_formula(v)


def _recipe(v, name):
    if not isinstance(v, list) or any(k not in ("single", "pair") for k in v):
        raise InputError(f"{name}: expected a list of \"single\"/\"pair\"")
    return TowerRecipe(tuple(v))


def _pattern(v, name):
    levels = v.get("levels") if isinstance(v, dict) else v
    if not isinstance(levels, list) or any(
            lv not in ("line", "diamond") for lv in levels):
        raise InputError(f"{name}: expected a list of \"line\"/\"diamond\"")
    return ScPattern(tuple(levels))


def _census(v, name):
    entries = v.get("entries") if isinstance(v, dict) else v
    if not isinstance(entries, list):
        raise InputError(f"{name}: expected an entry list")
    out = {}
    for i, entry in enumerate(entries):
        try:
            (a, b), verdict = entry
            out[Ordinal2(a, b)] = verdict
        except (TypeError, ValueError):
            raise InputError(f"{name}[{i}]: expected [[a, b], verdict]")
    return TowerCensus(out)


def _bit_function(v, name):
    if not isinstance(v, list):
        raise InputError(f"{name}: expected a list of [a, n, bit] triples")
    out = {}
    for i, entry in enumerate(v):
        try:
            a, n, bit = entry
            out[Ordinal2(a, n)] = bit
        except (TypeError, ValueError):
            raise InputError(f"{name}[{i}]: expected [a, n, bit]")
    return out


def _verdicts(v, name):
    if not isinstance(v, dict):
        raise InputError(f"{name}: expected an object of level -> verdict")
    try:
        return {int(k): verdict for k, verdict in v.items()}
    except ValueError:
        raise InputError(f"{name}: keys must be integer levels")


# -- results whose JSON shape differs from the library's return value ---------

def _pair_split(k):
    return list(pair_split(k))      # _encode prints a 0/1 tuple as bits


def _tower_degrees(recipe):
    poset = tower_degrees(recipe)
    return {"nodes": list(poset.nodes), "edges": list(poset.edges)}


def _sc_decode(pattern):
    n, g = sc_decode(pattern)
    return {"n": n, "g": g}


def _census_decode(c):
    return [[h.a, h.b, bit] for h, bit in sorted(census_decode(c).items())]


def _parse(f):
    return {"text": formula_text(f), "size": formula_size(f),
            "free": sorted(free_vars(f))}


# -- the operation table ------------------------------------------------------

# a field is (name, reader) or (name, reader, default) when it is optional
_SIGMA, _N, _TREE = ("sigma", _bits), ("n", _nat), ("tree", _tree)
_Q, _P, _SBAR = ("q", _condition), ("p", _condition), ("sbar", _sbar)
_FORMULA, _UNIVERSE = ("formula", _formula), ("universe", _universe)
_MODE, _PARAMS = ("mode", _mode, "column"), ("params", _ints, ())

_OPS = {
    "pair_index": (pair_index, [("m", _nat), _N]),
    "pair_split": (_pair_split, [("k", _nat)]),
    "join_pair": (join_pair, [("x", _bits), ("y", _bits)]),
    "split_pair": (split_pair, [_SIGMA]),
    "column": (column, [_SIGMA, _N]),
    "join_family": (join_family, [("columns", _columns), ("length", _nat)]),
    "width": (width, [("k", _nat)]),
    "rt": (SkeletonTree.rt, [_TREE, _SIGMA]),
    "stem": (SkeletonTree.stem, [_TREE]),
    "restrict_cell": (SkeletonTree.restrict_cell, [_TREE, _SIGMA]),
    "restrict_node": (SkeletonTree.restrict_node, [_TREE, ("tau", _bits)]),
    "subtree_leq": (subtree_leq, [("sub", _tree), ("sup", _tree)]),
    "leq_n": (leq_n, [("sub", _tree), ("sup", _tree), _N]),
    "amalgamate": (amalgamate, [_TREE, _SIGMA, ("graft", _tree)]),
    "iter_restrict": (iter_restrict,
                      [("condition", _condition), _SIGMA, _MODE]),
    "iter_leq": (iter_leq, [_Q, _P]),
    "iter_leq_n": (iter_leq_n, [_Q, _P, _N, _MODE]),
    "iter_equal": (iter_equal, [_Q, _P]),
    "iter_amalgamate": (iter_amalgamate, [_P, _SIGMA, _Q, _MODE]),
    "prod_restrict": (prod_restrict,
                      [("product", _condition), _SIGMA, _SBAR]),
    "prod_extends": (prod_extends, [_Q, _P]),
    "prod_leq": (prod_leq, [_Q, _P, _N, _SBAR]),
    "prod_amalgamate": (prod_amalgamate, [_P, _SIGMA, _SBAR, _Q]),
    "tower_degrees": (_tower_degrees, [("kinds", _recipe)]),
    "sc_schedule": (sc_schedule, [_N, ("g", _bits), ("length", _pos)]),
    "sc_pattern": (sc_pattern, [("kinds", _recipe)]),
    "sc_decode": (_sc_decode, [("pattern", _pattern)]),
    "census_encode": (census_encode, [("x", _bit_function),
                                      ("limit_bound", _pos),
                                      ("n_bound", _pos)]),
    "census_decode": (_census_decode, [("census", _census)]),
    "sc_census_encode": (sc_census_encode,
                         [("h", _bits), ("alpha_bound", _int_at_least(2))]),
    "sc_census_decode": (sc_census_decode, [("census", _verdicts)]),
    "parse": (_parse, [_FORMULA]),
    "eval": (eval_formula, [_FORMULA, _UNIVERSE, ("subset", _ints), _PARAMS]),
    "implicitly_defined_by": (implicitly_defined_by,
                              [_UNIVERSE, _FORMULA, _PARAMS]),
    "implicit_subsets": (implicit_subsets, [_UNIVERSE, ("budget", _nat)]),
    "imp_levels": (imp_levels, [_N, ("budget", _nat)]),
    "vn_levels": (vn_levels, [_N]),
}


def _encode(value):
    if value is None or isinstance(value, (int, str)):
        return value
    if isinstance(value, tuple) and all(v in (0, 1) for v in value):
        return bits_str(value)
    if hasattr(value, "to_json"):
        return value.to_json()
    if isinstance(value, (frozenset, set)):
        return sorted(_encode(v) for v in value)
    if isinstance(value, (list, tuple)):
        return [_encode(v) for v in value]
    if isinstance(value, dict):
        return {str(k): _encode(v)
                for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
    raise InputError(f"cannot encode {type(value).__name__}")


def _apply(op, payload):
    """Read op's fields in their listed order; call it; encode the result."""
    fn, fields = _OPS[op]
    if not isinstance(payload, dict):
        raise InputError(f"{fields[0][0]}: payload is not a JSON object")
    args = []
    for name, read, *default in fields:
        if name in payload:
            args.append(read(payload[name], name))
        elif default:
            args.append(default[0])
        else:
            raise InputError(f"{name}: missing field")
    return _encode(fn(*args))


# -- subcommands --------------------------------------------------------------

def _load_json(path):
    if path == "-":
        return json.load(sys.stdin)
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def cmd_verify(args):
    bounds = Bounds(seed=args.seed, depth=args.depth, budget=args.budget,
                    n_bound=args.n_bound)
    results = run_suite(args.suite, bounds)
    for r in results:
        line = f"{'pass' if r.passed else 'FAIL'}  {r.name} ({r.cases} cases)"
        if not r.passed:
            line += f": {r.failed} failed, e.g. {r.samples[0]}"
        print(line)
    report = suite_report(args.suite, results)
    if args.json_report:
        with open(args.json_report, "w", encoding="utf-8") as fh:
            json.dump(report, fh, indent=2, sort_keys=True)
            fh.write("\n")
    return 0 if report["passed"] else 1


def cmd_eval(args, parser):
    if args.op not in _OPS:
        parser.error(f"unknown operation {args.op!r}; "
                     f"known: {', '.join(sorted(_OPS))}")
    try:
        payload = _load_json(args.input)
    except (OSError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    try:
        result = _apply(args.op, payload)
    except EngineError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    print(json.dumps(result, sort_keys=True))
    return 0


def cmd_dot(args, parser):
    try:
        obj = _load_json(args.object)
    except (OSError, json.JSONDecodeError) as e:
        print(f"input error: {e}", file=sys.stderr)
        return 1
    try:
        if isinstance(obj, dict) and "skeleton" in obj:
            text = tree_dot(_tree(obj, "tree"))
        elif isinstance(obj, dict) and "kinds" in obj:
            text = poset_dot(tower_degrees(_recipe(obj["kinds"], "kinds")))
        elif isinstance(obj, dict) and "nodes" in obj and "edges" in obj:
            text = poset_dot(_poset(obj, "poset"))
        else:
            parser.error("object is neither a tree, a recipe, nor a poset")
    except EngineError as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    return 0


def _seed(text):
    value = int(text)
    if not 0 <= value < 2 ** 64:
        raise argparse.ArgumentTypeError("seed must fit in 64 bits")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sacksforcing",
        description="Verify invariant suites, evaluate operations on JSON "
                    "payloads, and export DOT diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run an invariant suite")
    v.add_argument("suite", choices=SUITE_NAMES + ("all",))
    v.add_argument("--seed", type=_seed, default=DEFAULT_SEED, metavar="N",
                   help="seed for the sampled checks")
    v.add_argument("--depth", type=int, default=2, metavar="N",
                   help="tree enumeration depth")
    v.add_argument("--budget", type=int, default=11, metavar="N",
                   help="formula size budget for the imp suite")
    v.add_argument("--n-bound", type=int, default=4, metavar="N",
                   dest="n_bound", help="base bound for self-coding sweeps")
    v.add_argument("--json-report", metavar="PATH",
                   help="also write the report as JSON")

    e = sub.add_parser("eval", help="apply one operation to a JSON payload")
    e.add_argument("op", metavar="OP")
    e.add_argument("input", metavar="INPUT",
                   help="path to a JSON payload, or - for standard input")

    d = sub.add_parser("dot", help="render a tree or degree poset as DOT")
    d.add_argument("object", metavar="OBJECT",
                   help="path to a JSON tree, recipe, or poset")
    d.add_argument("out", metavar="OUT",
                   help="output path, or - for standard output")
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "eval":
        return cmd_eval(args, parser)
    return cmd_dot(args, parser)


def entrypoint():
    sys.exit(main())
