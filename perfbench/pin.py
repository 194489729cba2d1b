"""Write pinned.json: the expected output of every instance the
imp_enumerate, tree_calculus and cli_eval workloads can draw.

    python3 perfbench/pin.py [--out PATH]

The outputs are computed by the package at the current commit and
cross-checked against the values its tests pin, so a later commit is
measured against results that were known to be right.  The script
refuses to write a table that fails a cross-check.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import reference  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


class CrossCheckError(AssertionError):
    pass


def expect(condition, message):
    if not condition:
        raise CrossCheckError(message)


def pin_imp_enumerate(pkg):
    w = workloads.ImpEnumerate({})
    # wider than the workload, to reach the values the tests pin
    w.universes, w.budgets = workloads.small_universes(4), range(11)
    w.level_ns = range(1, 5)
    w.setup(pkg, 0, None)
    ops = w.ops()
    table = {w.pin_key(key): w.encode(key, ops[op](*args))
             for op, args, key in w.grid}
    # values pinned by tests/test_implicit.py and criterion 9
    expect(table["subsets 0,1,2,3 7"] == [0, 1, 2, 3, 4, 8, 10, 12, 15],
           "implicit_subsets(V_3, 7)")
    expect(table["subsets 0 2"] == [1] and table["subsets 0 3"] == [0, 1],
           "implicit_subsets on {0}")
    expect(table["subsets 0,1 4"] == [0, 3], "implicit_subsets on {0,1}")
    expect(sorted(set(range(16)) - set(table["levels 4 10"][4])) == [6, 9],
           "imp_levels(4, 10) misses 6 and 9")
    vn = pkg.implicit.vn_levels(3)
    expect(table["levels 3 6"] == [sorted(level) for level in vn],
           "imp_levels(3, 6) == vn_levels(3)")
    for b in range(11):
        expect(table[f"levels 1 {b}"] == [[], [0]], "imp_levels(1, b)")
    return table


def pin_tree_calculus(pkg):
    w = workloads.TreeCalculus({})
    w.setup(pkg, 0, None)
    ops = w.ops()
    trees = pkg.trees
    expect(len(w.instances["contains"]) == 165 * 31, "165 presentations")
    expect(len(w.instances["subtree_leq"]) == 127 ** 2, "127 trees")
    out = {}
    for op in w.mix:
        space = w.instances[op]
        results = [ops[op](*args) for args in space]
        if op == "leq_n":
            expect(all(r == trees.leq_n_cellwise(*args)
                       for r, args in zip(results, space)),
                   "leq_n == leq_n_cellwise")
        if op == "tree_equal":
            nf = reference.normal_form
            expect(all(r == (nf(a) == nf(b))
                       for r, (a, b) in zip(results, space)),
                   "tree equality agrees with the reduced skeletons")
        if op == "amalgamate":
            expect(all(r.restrict_cell(s) == g
                       and trees.leq_n(r, t, len(s))
                       for r, (t, s, g) in zip(results, space)),
                   "amalgamate restores the graft on its cell")
        if op == "iter_amalgamate":
            cond = pkg.conditions
            expect(all(cond.iter_equal(cond.iter_restrict(r, s, mode), q)
                       for r, (p, s, q, mode) in zip(results, space)),
                   "iter_amalgamate restores q on the sigma cell")
        width = 1 if op in w.boolean else 8
        by_key = {}
        for spec, r in zip(w.specs.get(op, space), results):
            token = reference.token(r)
            expect(len(token) == width, f"{op} token width")
            expect(by_key.setdefault(w.instance_key(spec), token) == token,
                   f"{op}: instances with one key have different results")
        keys = sorted(by_key)
        out[op] = {"keys": reference.digest(keys),
                   "tokens": workloads.pack(by_key[k] for k in keys)}
    return out


def pin_cli_eval(pkg):
    catalogue = [[op, payload, bad, None]
                 for op, payload, bad in cli_catalogue(pkg)]
    w = workloads.CliEval({"cli_eval": catalogue})
    w.setup(pkg, 0, run.WORKDIR / "pin")
    w.write_payloads()
    try:
        request = w.ops()["eval"]
        errors = sys.modules[f"{run.PACKAGE}.errors"]
        engine = {name for name, obj in vars(errors).items()
                  if isinstance(obj, type)
                  and issubclass(obj, errors.EngineError)}
        for entry, path in zip(catalogue, w.paths):
            op, _, bad, _ = entry
            token = workloads.cli_token(request(op, path))
            expect(token[0] == ("1" if bad else "0"), f"{op} {path}: {token}")
            if bad:
                expect(token[2:] in engine, f"{op}: {token} is no EngineError")
            entry[3] = token
        expect(len({op for op, _, _, _ in catalogue}) == 37, "37 operations")
        return catalogue
    finally:
        w.close()
        if not any(run.WORKDIR.iterdir()):
            run.WORKDIR.rmdir()


def cli_catalogue(pkg):
    """(op, payload, malformed) for all 37 operations.  Fixed, not drawn
    from the run's seed, and pinned with its expected outputs, so that
    the payloads do not depend on the package a later run measures."""
    bs, trees, cond, deg, imp = (pkg.bitseq, pkg.trees, pkg.conditions,
                                 pkg.degrees, pkg.implicit)
    rng = random.Random("cli_eval catalogue")
    s = lambda b: "".join(map(str, b))  # noqa: E731
    out = []

    def add(op, payload, bad=False):
        out.append((op, payload, bad))

    small = list({t.canonical(): None for t in trees.enumerate_trees(1, 1)})
    tj = [t.to_json() for t in small]
    short = workloads.bitstrings_upto(2)
    for m, n in [(0, 0), (0, 1), (2, 3), (5, 1), (7, 7), (3, 0)]:
        add("pair_index", {"m": m, "n": n})
    for k in (0, 1, 17, 40, 99, 123):
        add("pair_split", {"k": k})
        add("width", {"k": k % 30})
    for sigma in [(1, 0, 1, 1), (0, 1), (1, 1, 0, 1, 0, 0, 1), (0,) * 6,
                  (1, 0, 0, 1, 1)]:
        add("split_pair", {"sigma": s(sigma)})
        add("join_pair", {"x": s(sigma), "y": s(sigma[:len(sigma) - 1])})
        add("column", {"sigma": s(sigma), "n": len(sigma) % 3})
        cols = [s(bs.column(sigma, j)) for j in range(bs.width(len(sigma)))]
        add("join_family", {"columns": cols, "length": len(sigma)})
    for i, t in enumerate(small):
        sigma = short[i % len(short)]
        add("rt", {"tree": tj[i], "sigma": s(sigma + (1,))})
        add("stem", {"tree": tj[i]})
        add("restrict_cell", {"tree": tj[i], "sigma": s(sigma)})
        add("restrict_node", {"tree": tj[i], "tau": s(t.rt(sigma)[:-1])})
        sup = small[(i * 3 + 1) % len(small)]
        add("subtree_leq", {"sub": tj[i], "sup": sup.to_json()})
        add("leq_n", {"sub": tj[i], "sup": sup.to_json(), "n": i % 3})
        graft = t.restrict_cell(sigma + (i % 2,))
        add("amalgamate", {"tree": tj[i], "sigma": s(sigma),
                           "graft": graft.to_json()})
    modes = (cond.COLUMN, cond.PAIRWISE)
    for i in range(6):
        a, b = small[i], small[(i * 5 + 2) % len(small)]
        p = cond.plain_iter([cond.SINGLE, cond.SINGLE], [a, b])
        sigma, mode = short[i + 1], modes[i % 2]
        q = cond.iter_restrict(p, sigma + (1,), mode)
        add("iter_restrict", {"condition": p.to_json(), "sigma": s(sigma),
                              "mode": mode})
        add("iter_leq", {"q": q.to_json(), "p": p.to_json()})
        add("iter_leq_n", {"q": q.to_json(), "p": p.to_json(),
                           "n": len(sigma), "mode": mode})
        add("iter_equal", {"q": p.to_json(), "p": p.to_json()})
        add("iter_amalgamate", {"p": p.to_json(), "sigma": s(sigma),
                                "q": q.to_json(), "mode": mode})
        pp = cond.ProductCondition({0: cond.plain_iter([cond.SINGLE], [a]),
                                    1: cond.plain_iter([cond.SINGLE], [b])})
        qq = cond.prod_restrict(pp, sigma + (0,), [0, 1])
        add("prod_restrict", {"product": pp.to_json(), "sigma": s(sigma),
                              "sbar": [0, 1]})
        add("prod_extends", {"q": qq.to_json(), "p": pp.to_json()})
        add("prod_leq", {"q": qq.to_json(), "p": pp.to_json(),
                         "n": len(sigma), "sbar": [0, 1]})
        add("prod_amalgamate", {"p": pp.to_json(), "sigma": s(sigma),
                                "sbar": [0, 1], "q": qq.to_json()})
    for length in range(1, 5):
        for code in range(0, 2 ** (length - 1), 2 if length == 4 else 1):
            kinds = ["single"] + [("single", "pair")[(code >> j) & 1]
                                  for j in range(length - 1)]
            add("tower_degrees", {"kinds": kinds})
            add("sc_pattern", {"kinds": kinds})
    for n in range(3):
        for g in workloads.bitstrings_upto(1):
            k = n + 2 + len(g)
            add("sc_schedule", {"n": n, "g": s(g), "length": k})
            levels = deg.sc_pattern(deg.sc_schedule(n, g, k)).levels
            add("sc_decode", {"pattern": list(levels)})
    for limit, nb in [(1, 1), (1, 2), (2, 2), (2, 3), (1, 3), (2, 1)]:
        x = {deg.Ordinal2(a, n): rng.randrange(2)
             for a in range(limit) for n in range(nb)}
        add("census_encode", {"x": [[h.a, h.b, bit] for h, bit in x.items()],
                              "limit_bound": limit, "n_bound": nb})
        add("census_decode",
            {"census": deg.census_encode(x, limit, nb).to_json()})
    for h in [(1,), (0, 1), (1, 1, 0), (0, 0, 1, 1), (1, 0, 1, 0, 1), ()]:
        add("sc_census_encode", {"h": s(h), "alpha_bound": 2 + len(h) % 2})
        census = deg.sc_census_encode(h, 2)
        add("sc_census_decode", {"census": {str(n): v
                                            for n, v in census.items()}})
    for universe in workloads.small_universes(3)[1::2]:
        pop = reference.FormulaPopulation(imp, len(universe))
        for _ in range(2):
            text = imp.formula_text(pop.closed_formula(
                rng.randrange(pop.closed)))
            params = list(universe)
            subset = [c for c in universe if rng.randrange(2)]
            add("parse", {"formula": text})
            add("eval", {"formula": text, "universe": list(universe),
                         "subset": subset, "params": params})
            add("implicitly_defined_by", {"formula": text,
                                          "universe": list(universe),
                                          "params": params})
    for universe in workloads.small_universes(3)[::3]:
        add("implicit_subsets", {"universe": list(universe),
                                 "budget": 3 + len(universe)})
    for n in range(4):
        add("imp_levels", {"n": n, "budget": 2 * n})
        add("vn_levels", {"n": n})

    ops = sorted({op for op, _, _ in out})
    for op in ops:
        add(op, {}, True)       # missing every field: InputError
    tree0 = tj[0]
    for op, payload in [
            ("pair_index", {"m": -1, "n": 2}),
            ("join_pair", {"x": "0", "y": "0110"}),
            ("restrict_node", {"tree": {"depth": 0, "skeleton": {"": "0"}},
                               "tau": "10"}),
            ("amalgamate", {"tree": {"depth": 0, "skeleton": {"": "0"}},
                            "sigma": "",
                            "graft": {"depth": 0, "skeleton": {"": "1"}}}),
            ("rt", {"tree": {"depth": 1, "skeleton": {"": "1", "0": "0",
                                                      "1": "11"}},
                    "sigma": "0"}),
            ("leq_n", {"sub": tree0, "sup": tree0, "n": "two"}),
            ("iter_equal", {"q": {"kind": "mystery"}, "p": {"kind": "iter"}}),
            ("sc_decode", {"pattern": ["line", "line"]}),
            ("census_decode", {"census": []}),
            ("parse", {"formula": "all x. (S(x) &"}),
            ("eval", {"formula": "S(#4)", "universe": [0, 1], "subset": [],
                      "params": [0, 1]}),
            ("implicit_subsets", {"universe": [0, 1], "budget": 15}),
            ("imp_levels", {"n": 1, "budget": 15}),
            ("vn_levels", {"n": 5})]:
        add(op, payload, True)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(workloads.PINNED))
    args = parser.parse_args(argv)
    pkg = run.load_package(with_cli=True)
    pinned = {
        "commit": run.git_commit(),
        "imp_enumerate": pin_imp_enumerate(pkg),
        "tree_calculus": pin_tree_calculus(pkg),
        "cli_eval": pin_cli_eval(pkg),
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(pinned, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
