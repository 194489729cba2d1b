"""Command-line front end.

Three subcommands: ``verify`` replays a module's invariant suite and
reports per-property counts, ``eval`` applies one public operation to a
JSON payload and prints the result as JSON, ``dot`` renders a tree or a
degree poset as deterministic DOT.  Exit codes: 0 pass, 1 operation,
property or output failure, 2 usage error.

The payload schema of ``eval`` is data: the operation table ``_OPS``.
Each field is read by the library: integers, lists and choices by the
readers in ``errors``, bit strings by ``bitseq.bits``, and each tree,
condition, recipe, pattern and census by its ``from_json`` decoder.
The table names each operation and each library reader by its layer
and attribute, and looks it up there at each call.  So an ``eval``
loads ``errors``, ``bitseq`` and the layer its operation lives in,
with the layers that one imports, and no other: ``pair_index`` loads
no further layer, ``iter_leq`` loads ``trees`` and ``conditions``.
``main`` reads a plain ``eval OP INPUT`` argv itself, as argparse
would; every other argv goes to the argparse parser, which is built
once per process, when first needed.  argparse and the ``verify``
suites load only then, or on a ``verify``.
"""

from __future__ import annotations

import json
import sys
import time
from functools import cache, partial
from operator import attrgetter as _ref

from .bitseq import bits_str
from .errors import (EngineError, InputError, ResourceError, json_choice,
                     json_int, json_int_keys, json_list)

# the package: its __getattr__ imports a layer on first use
_package = sys.modules[__package__]


# -- field readers: (JSON value, field name) -> argument ----------------------

# the library's readers (errors.json_*, bitseq.bits) and decoders
# (from_json) take (JSON value, name) too.  Those below either look one
# up on the package at each call, as _apply does each operation, so that
# a name rebound in its layer is the one called, or have no library twin.
_nat, _pos = partial(json_int, minimum=0), partial(json_int, minimum=1)
_int_list = partial(json_list, read=json_int)


def _bits(v, name):
    return _package.bitseq.bits(v, name)


def _tree(v, name):
    return _package.trees.SkeletonTree.from_json(v, name)


def _index(v, name):
    return _package.conditions.index_from_json(v, name)


def _bit_function(v, name):
    return _package.degrees.bit_function_from_json(v, name)


def _condition(cls, kind):  # any condition's JSON, decoded, of one kind
    def read(v, name):
        conditions = _package.conditions
        cond = conditions.condition_from_json(v, name)
        if not isinstance(cond, getattr(conditions, cls)):
            raise InputError(f"{name}: expected a condition of kind {kind}")
        return cond
    return read


_iter = _condition("IterCondition", "iter")
_product = _condition("ProductCondition", "product")


def _object_or_list(cls, key):  # cls's JSON object, or its bare key list
    return lambda v, name: getattr(_package.degrees, cls).from_json(
        v if isinstance(v, dict) else {key: v}, name)


_pattern = _object_or_list("ScPattern", "levels")
_census = _object_or_list("TowerCensus", "entries")


def _kinds(v, name):
    return _package.conditions.TowerRecipe.from_json({"kinds": v}, name)


def _universe(v, name):
    return _package.implicit.FinStructure(_int_list(v, name))


def _formula(v, name):
    if not isinstance(v, str):
        raise InputError(f"{name}: expected a formula string")
    return _package.implicit.parse_formula(v)


# -- results whose JSON shape differs from the library's return value ---------

def _pair_split(k):
    # a list, which _encode prints as numbers, not as the bits of a tuple
    return list(_package.bitseq.pair_split(k))


def _sc_decode(pattern):
    n, g = _package.degrees.sc_decode(pattern)
    return {"n": n, "g": g}


def _census_decode(c):
    return [[h.a, h.b, bit]
            for h, bit in sorted(_package.degrees.census_decode(c).items())]


def _parse(f):
    implicit = _package.implicit
    return {"text": implicit.formula_text(f), "size": implicit.formula_size(f),
            "free": sorted(implicit.free_vars(f))}


# -- the operation table ------------------------------------------------------

# a field is (name, reader) or (name, reader, default) when it is optional
_SIGMA, _N, _TREE = ("sigma", _bits), ("n", _nat), ("tree", _tree)
_Q, _P = ("q", _iter), ("p", _iter)
_SBAR = ("sbar", partial(json_list, read=_index))
_PQ, _PP = ("q", _product), ("p", _product)
_FORMULA = ("formula", _formula)
_UNIVERSE = ("universe", _universe)
_KINDS = ("kinds", _kinds)
# conditions.COLUMN and PAIRWISE: eval loads no layer for two names
_MODE = ("mode", partial(json_choice, options=("column", "pairwise")),
         "column")
_PARAMS = ("params", _int_list, ())

# each operation is named by module and attribute, and _apply looks it up
# on the package at each call: a layer loads when an operation first needs
# it, and a name rebound there is the one called
_OPS = {
    "pair_index": (_ref("bitseq.pair_index"), [("m", _nat), _N]),
    "pair_split": (_ref("cli._pair_split"), [("k", _nat)]),
    "join_pair": (_ref("bitseq.join_pair"), [("x", _bits), ("y", _bits)]),
    "split_pair": (_ref("bitseq.split_pair"), [_SIGMA]),
    "column": (_ref("bitseq.column"), [_SIGMA, _N]),
    "join_family": (_ref("bitseq.join_family"),
                    [("columns", partial(json_list, read=_bits)),
                     ("length", _nat)]),
    "width": (_ref("bitseq.width"), [("k", _nat)]),
    "rt": (_ref("trees.SkeletonTree.rt"), [_TREE, _SIGMA]),
    "stem": (_ref("trees.SkeletonTree.stem"), [_TREE]),
    "restrict_cell": (_ref("trees.SkeletonTree.restrict_cell"),
                      [_TREE, _SIGMA]),
    "restrict_node": (_ref("trees.SkeletonTree.restrict_node"),
                      [_TREE, ("tau", _bits)]),
    "subtree_leq": (_ref("trees.subtree_leq"),
                    [("sub", _tree), ("sup", _tree)]),
    "leq_n": (_ref("trees.leq_n"), [("sub", _tree), ("sup", _tree), _N]),
    "amalgamate": (_ref("trees.amalgamate"),
                   [_TREE, _SIGMA, ("graft", _tree)]),
    "iter_restrict": (_ref("conditions.iter_restrict"),
                      [("condition", _iter), _SIGMA, _MODE]),
    "iter_leq": (_ref("conditions.iter_leq"), [_Q, _P]),
    "iter_leq_n": (_ref("conditions.iter_leq_n"), [_Q, _P, _N, _MODE]),
    "iter_equal": (_ref("conditions.iter_equal"), [_Q, _P]),
    "iter_amalgamate": (_ref("conditions.iter_amalgamate"),
                        [_P, _SIGMA, _Q, _MODE]),
    "prod_restrict": (_ref("conditions.prod_restrict"),
                      [("product", _product), _SIGMA, _SBAR]),
    "prod_extends": (_ref("conditions.prod_extends"), [_PQ, _PP]),
    "prod_leq": (_ref("conditions.prod_leq"), [_PQ, _PP, _N, _SBAR]),
    "prod_amalgamate": (_ref("conditions.prod_amalgamate"),
                        [_PP, _SIGMA, _SBAR, _PQ]),
    "tower_degrees": (_ref("degrees.tower_degrees"), [_KINDS]),
    "sc_schedule": (_ref("conditions.sc_schedule"),
                    [_N, ("g", _bits), ("length", _pos)]),
    "sc_pattern": (_ref("degrees.sc_pattern"), [_KINDS]),
    "sc_decode": (_ref("cli._sc_decode"), [("pattern", _pattern)]),
    "census_encode": (_ref("degrees.census_encode"),
                      [("x", _bit_function),
                       ("limit_bound", _pos), ("n_bound", _pos)]),
    "census_decode": (_ref("cli._census_decode"), [("census", _census)]),
    "sc_census_encode": (_ref("degrees.sc_census_encode"),
                         [("h", _bits),
                          ("alpha_bound", partial(json_int, minimum=2))]),
    "sc_census_decode": (_ref("degrees.sc_census_decode"),
                         [("census", json_int_keys)]),
    "parse": (_ref("cli._parse"), [_FORMULA]),
    "eval": (_ref("implicit.eval_formula"),
             [_FORMULA, _UNIVERSE, ("subset", _int_list), _PARAMS]),
    "implicitly_defined_by": (_ref("implicit.implicitly_defined_by"),
                              [_UNIVERSE, _FORMULA, _PARAMS]),
    "implicit_subsets": (_ref("implicit.implicit_subsets"),
                         [_UNIVERSE, ("budget", _nat)]),
    "imp_levels": (_ref("implicit.imp_levels"), [_N, ("budget", _nat)]),
    "vn_levels": (_ref("implicit.vn_levels"), [_N]),
}


_UNPRINTABLE = 10 ** 4300      # json.dumps prints no int this large
# json.dumps(value, sort_keys=True), without building an encoder per call
_dumps = json.JSONEncoder(sort_keys=True).encode


def _encode(value):
    if isinstance(value, int) and abs(value) >= _UNPRINTABLE:
        raise ResourceError(f"a result of {value.bit_length()} bits has "
                            f"more than 4300 digits, Python's print limit")
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
    """Read op's fields in their listed order; look op up on the package
    and call it; encode the result."""
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
    return _encode(fn(_package)(*args))


# -- subcommands --------------------------------------------------------------

def _run(path, work):
    """(0, work(the JSON at path)), or (1, None) after printing why not."""
    try:
        if path == "-":
            obj = json.load(sys.stdin)
        else:
            # unbuffered: one read, decoded as text mode would
            with open(path, "rb", buffering=0) as fh:
                text = fh.read().decode("utf-8")
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            obj = json.loads(text)
    except (OSError, RecursionError, ValueError) as e:  # bad or deep JSON
        print(f"input error: {e}", file=sys.stderr)
        return 1, None
    try:
        return 0, work(obj)
    except (EngineError, RecursionError) as e:
        print(f"{type(e).__name__}: {e}", file=sys.stderr)
        return 1, None


def _write(path, text):
    """0 after writing text to path, or 1 after printing why not."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        print(f"output error: {e}", file=sys.stderr)
        return 1
    return 0


def run_suite(suite, seed):
    """suites.run_suite: verify is the only subcommand that loads suites."""
    from .suites import run_suite
    return run_suite(suite, seed)


def cmd_verify(args):
    from .suites import SUITE_NAMES, suite_report
    start, results = time.perf_counter(), []
    for suite in SUITE_NAMES if args.suite == "all" else (args.suite,):
        began = time.perf_counter()
        for r in run_suite(suite, args.seed):
            status = "pass" if r.passed else "FAIL"
            line = f"{status}  {r.name} ({r.cases} cases)"
            if not r.passed:
                line += f": {r.failed} failed, e.g. {r.samples[0]}"
            print(line)
            results.append(r)
        print(f"{suite} suite: {time.perf_counter() - began:.2f} s")
    report = suite_report(args.suite, results, args.seed,
                          round(time.perf_counter() - start, 3))
    text = json.dumps(report, indent=2, sort_keys=True) + "\n"
    if args.json_report and _write(args.json_report, text):
        return 1
    return 0 if report["passed"] else 1


def cmd_eval(op, path):
    if op not in _OPS:
        build_parser().error(f"unknown operation {op!r}; "
                             f"known: {', '.join(sorted(_OPS))}")
    code, result = _run(path, lambda payload: _apply(op, payload))
    if code == 0:
        print(_dumps(result))
    return code


def _dot(obj, parser):
    from .degrees import DegreePoset, TowerRecipe, poset_dot, tower_degrees
    from .trees import SkeletonTree, tree_dot
    if isinstance(obj, dict) and "skeleton" in obj:
        return tree_dot(SkeletonTree.from_json(obj))
    if isinstance(obj, dict) and "kinds" in obj:
        return poset_dot(tower_degrees(TowerRecipe.from_json(obj)))
    if isinstance(obj, dict) and "nodes" in obj and "edges" in obj:
        return poset_dot(DegreePoset(obj["nodes"], obj["edges"]))
    parser.error("object is neither a tree, a recipe, nor a poset")


def cmd_dot(args, parser):
    code, text = _run(args.object, lambda obj: _dot(obj, parser))
    if code == 0 and args.out == "-":
        sys.stdout.write(text)
    elif code == 0:
        code = _write(args.out, text)
    return code


@cache
def build_parser():
    import argparse

    from .suites import DEFAULT_SEED, SUITE_NAMES

    def _seed(text):
        value = int(text)
        if not 0 <= value < 2 ** 64:
            raise argparse.ArgumentTypeError("seed must fit in 64 bits")
        return value

    class _ListOps(argparse.Action):
        """Print each operation and its fields, optional ones in brackets."""

        def __call__(self, parser, namespace, values, option_string=None):
            for op, (_, fields) in _OPS.items():
                print(op, *(f"[{f[0]}]" if len(f) == 3 else f[0]
                            for f in fields))
            parser.exit()

    parser = argparse.ArgumentParser(
        prog="sacksforcing",
        description="Verify invariant suites, evaluate operations on JSON "
                    "payloads, and export DOT diagrams.")
    sub = parser.add_subparsers(dest="command", required=True)

    v = sub.add_parser("verify", help="run an invariant suite")
    v.add_argument("suite", choices=SUITE_NAMES + ("all",))
    v.add_argument("--seed", type=_seed, default=DEFAULT_SEED, metavar="N",
                   help="seed for the sampled checks")
    v.add_argument("--json-report", metavar="PATH",
                   help="also write the report as JSON")

    e = sub.add_parser("eval", help="apply one operation to a JSON payload")
    e.add_argument("--list", action=_ListOps, nargs=0,
                   help="print each operation and its fields, then exit")
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
    argv = sys.argv[1:] if argv is None else argv
    # argparse reads "-" and any token not opening with "-" as a
    # positional, so this argv means `eval OP INPUT` without a parser
    if (len(argv) == 3 and argv[0] == "eval"
            and all(a == "-" or not a.startswith("-") for a in argv[1:])):
        return cmd_eval(argv[1], argv[2])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "verify":
        return cmd_verify(args)
    if args.command == "eval":
        return cmd_eval(args.op, args.input)
    return cmd_dot(args, parser)


def entrypoint():
    sys.exit(main())
