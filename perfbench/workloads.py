"""The four benchmark workloads.

Each workload is a closed loop with one caller: the next item starts
when the previous one returns.  A workload builds its fixtures in
``setup`` through the package's public constructors, hands out fixed-size
passes of items drawn from ``--seed``, and checks every recorded output
after timing has ended.  An item is ``(op, args, key)``: ``ops()[op]``
is called with ``args``, and ``key`` names the instance whose expected
output the check looks up.

Expected outputs come from two places: the independent bitmask evaluator
in ``reference`` (``imp_decide``), and ``pinned.json``, written by
``pin.py`` at the commit that introduced the benchmark (the other three).
Pinned values are looked up by what an instance is, never by where the
package's own enumerators happen to put it.
"""

from __future__ import annotations

import base64
import contextlib
import io
import json
import operator
import os
import random
import zlib
from array import array
from bisect import bisect_left
from itertools import combinations, product
from pathlib import Path

import reference

HERE = Path(__file__).resolve().parent
PINNED = HERE / "pinned.json"


def load_pinned(path=PINNED):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def pack(tokens):
    """Concatenated fixed-width tokens, compressed for pinned.json."""
    return base64.b64encode(zlib.compress("".join(tokens).encode(), 9)
                            ).decode()


def unpack(text):
    return zlib.decompress(base64.b64decode(text)).decode()


def small_universes(max_size):
    return [c for size in range(max_size + 1)
            for c in combinations(range(4), size)]


# the benchmark's own copy: the package's helper may change under the
# code being measured, and the instance spaces must not
def bitstrings_upto(n):
    return [p for k in range(n + 1) for p in product((0, 1), repeat=k)]


class Workload:
    name = ""
    per_pass = 0        # items in a pass; fixed, so the tail percentile is
    deadline_s = 1.0    # an item running longer than this counts as failed
    cold = False        # each pass starts from a fresh import and fixtures

    def __init__(self, pinned=None):
        self.pinned = load_pinned() if pinned is None else pinned
        self.seen = {}

    def rng(self, seed, index):
        return random.Random(f"{self.name}:{seed}:{index}")

    def setup(self, pkg, seed, workdir):
        raise NotImplementedError

    def make_pass(self, index):
        raise NotImplementedError

    def ops(self):
        raise NotImplementedError

    def check(self, key, output):
        raise NotImplementedError

    def observe(self, key):
        """Count the input properties of one attempted item."""
        self.seen[self.kind(key)] = self.seen.get(self.kind(key), 0) + 1

    def kind(self, key):
        return key[0]

    def properties(self):
        total = sum(self.seen.values())
        return {"share": {k: n / total for k, n in sorted(self.seen.items())}}

    def close(self):
        pass


# -- imp_decide -------------------------------------------------------------------

class ImpDecide(Workload):
    """implicitly_defined_by over a uniform sample of criterion 10's
    population: every closed formula of size <= 7 over x, y and the
    universe's codes as parameters, on every universe of <= 3 codes from
    {0,1,2,3}.  Criterion 10 decides each formula once, so every pass
    starts cold: a cache in the package sees only the few repeats that
    5000 draws from 698,316 formulas have."""

    name = "imp_decide"
    per_pass = 5000
    deadline_s = 2.0
    cold = True

    def __init__(self, pinned=None):
        super().__init__(pinned)
        self.unique = 0

    def setup(self, pkg, seed, workdir):
        self.pkg, self.seed = pkg, seed
        implicit = pkg.implicit
        self.populations = {k: reference.FormulaPopulation(implicit, k)
                            for k in range(4)}
        self.universes = [(u, implicit.FinStructure(u))
                          for u in small_universes(3)]
        self.weights = [self.populations[len(u)].closed
                        for u, _ in self.universes]
        self.total = sum(self.weights)
        self._expected = {}

    def make_pass(self, index):
        rng = self.rng(self.seed, index)
        self._expected.clear()
        items = []
        for _ in range(self.per_pass):
            rank = rng.randrange(self.total)
            for (universe, structure), weight in zip(self.universes,
                                                     self.weights):
                if rank < weight:
                    break
                rank -= weight
            f = self.populations[len(universe)].closed_formula(rank)
            items.append(("decide", (structure, f, universe), (universe, f)))
        return items

    def ops(self):
        return {"decide": self.pkg.implicit.implicitly_defined_by}

    def expected(self, key):
        if key not in self._expected:
            self._expected[key] = reference.unique_subset(key[1], key[0])
        return self._expected[key]

    def check(self, key, output):
        return output == self.expected(key)

    def observe(self, key):
        super().observe(key)
        self.unique += self.expected(key) is not None

    def kind(self, key):
        return f"universe size {len(key[0])}"

    def properties(self):
        return {**super().properties(), "population": self.total,
                "unique_share": self.unique / sum(self.seen.values())}


# -- imp_enumerate -----------------------------------------------------------------

class ImpEnumerate(Workload):
    """The table enumerator: implicit_subsets on every universe of 2 to
    4 codes from {0,1,2,3} at budgets 4-9, and imp_levels(n, b) for
    n = 3, 4 at the same budgets, as criterion 9 and the imp suite call
    them.  One pass is that whole grid in a seeded order, so every pass
    does the same work; imp_levels repeats the lower levels it rebuilds.
    Criterion 9 and the imp suite sweep the grid once per process, so
    every pass starts cold: a cache in the package sees only the repeats
    within one sweep.

    Smaller universes, lower levels and budgets below 4 finish in
    microseconds and would make the median item a timer reading.
    Budget 10 would make a pass take 8 s, too few passes in a run to
    outvote a slow spell of a shared host."""

    name = "imp_enumerate"
    universes = [u for u in small_universes(4) if len(u) >= 2]
    budgets = range(4, 10)
    level_ns = range(3, 5)
    per_pass = 11 * 6 + 2 * 6
    deadline_s = 30.0
    cold = True

    def setup(self, pkg, seed, workdir):
        self.pkg, self.seed = pkg, seed
        implicit = pkg.implicit
        self.grid = [("subsets", (implicit.FinStructure(u), b), ("subsets", u, b))
                     for u in self.universes for b in self.budgets]
        self.grid += [("levels", (n, b), ("levels", n, b))
                      for n in self.level_ns for b in self.budgets]

    def make_pass(self, index):
        items = list(self.grid)
        self.rng(self.seed, index).shuffle(items)
        return items

    def ops(self):
        implicit = self.pkg.implicit
        return {"subsets": implicit.implicit_subsets,
                "levels": implicit.imp_levels}

    @staticmethod
    def pin_key(key):
        kind, a, b = key
        return f"{kind} {','.join(map(str, a)) if kind == 'subsets' else a} {b}"

    @staticmethod
    def encode(key, output):
        set_of = lambda s: sum(1 << c for c in s)  # noqa: E731
        if key[0] == "subsets":
            return sorted(set_of(s) for s in output)
        return [sorted(level) for level in output]

    def check(self, key, output):
        want = self.pinned["imp_enumerate"][self.pin_key(key)]
        return self.encode(key, output) == want

    def kind(self, key):
        return ("implicit_subsets", "imp_levels")[key[0] == "levels"]


# -- tree_calculus -----------------------------------------------------------------

class TreeCalculus(Workload):
    """Law instances over the 165 presentations of enumerate_trees(2, 2)
    (127 trees), plus iteration and product conditions over the 7 trees
    of enumerate_trees(1, 1), as in criteria 3-5.  Each pass draws a
    fixed number of instances of each operation."""

    name = "tree_calculus"
    mix = {  # op -> (builder?, instances per pass)
        "amalgamate": (True, 150), "restrict_cell": (True, 150),
        "iter_amalgamate": (True, 100), "prod_amalgamate": (True, 100),
        "contains": (False, 100), "splitting_level": (False, 50),
        "tree_equal": (False, 50),
        "leq_n": (False, 100), "subtree_leq": (False, 100),
        "iter_leq_n": (False, 50), "prod_leq": (False, 50),
    }
    boolean = {"contains", "tree_equal", "leq_n", "subtree_leq", "iter_leq_n",
               "prod_leq"}
    per_pass = sum(n for _, n in mix.values())
    deadline_s = 2.0

    def setup(self, pkg, seed, workdir):
        self.pkg, self.seed = pkg, seed
        self.instances, self.specs, self.trees = tree_instances(pkg)
        self._ranks = None
        self._expected = {}

    def make_pass(self, index):
        rng = self.rng(self.seed, index)
        items = []
        for op, (_, count) in self.mix.items():
            space = self.instances[op]
            for _ in range(count):
                i = rng.randrange(len(space))
                items.append((op, space[i], (op, i)))
        rng.shuffle(items)
        return items

    def ops(self):
        trees, cond = self.pkg.trees, self.pkg.conditions
        tree = trees.SkeletonTree
        return {
            "amalgamate": trees.amalgamate,
            "restrict_cell": tree.restrict_cell,
            "iter_amalgamate": cond.iter_amalgamate,
            "prod_amalgamate": cond.prod_amalgamate,
            "contains": tree.contains,
            "splitting_level": tree.splitting_level,
            "tree_equal": operator.eq,
            "leq_n": trees.leq_n,
            "subtree_leq": trees.subtree_leq,
            "iter_leq_n": cond.iter_leq_n,
            "prod_leq": cond.prod_leq,
        }

    def check(self, key, output):
        op, i = key
        keys, tokens = self.expected(op)
        want = self.instance_key(self.specs.get(op, self.instances[op])[i])
        at = bisect_left(keys, want)
        if at == len(keys) or keys[at] != want:
            return False
        width = 1 if op in self.boolean else 8
        return reference.token(output) == tokens[at * width:(at + 1) * width]

    def expected(self, op):
        """The sorted keys of op's instances and their pinned tokens, in
        the same order; no keys when the instances are not the ones that
        were pinned."""
        if op not in self._expected:
            specs = self.specs.get(op, self.instances[op])
            keys = array("q", sorted({self.instance_key(s) for s in specs}))
            pinned = self.pinned["tree_calculus"][op]
            if reference.digest(keys.tolist()) != pinned["keys"]:
                keys = array("q")
            self._expected[op] = keys, unpack(pinned["tokens"])
        return self._expected[op]

    def instance_key(self, spec):
        """An instance as an integer, one byte per field: a tree by the
        rank of its normal form, a bit tuple with a leading 1 bit."""
        key = 0
        for field in spec:
            if isinstance(field, tuple):
                code = int("1" + "".join(map(str, field)), 2)
            elif isinstance(field, int):
                code = field
            else:
                code = self.rank(field)
            key = key << 8 | code
        return key

    def rank(self, tree):
        """Rank of a tree's normal form among those of every tree that
        the instances are built from."""
        if self._ranks is None:
            forms = {id(t): json.dumps(reference.normal_form(t))
                     for t in self.trees}
            order = {f: r for r, f in enumerate(sorted(set(forms.values())))}
            self._ranks = {i: order[f] for i, f in forms.items()}
        return self._ranks[id(tree)]

    def properties(self):
        share = super().properties()["share"]
        builders = sum(n for op, n in share.items() if self.mix[op][0])
        return {"share": share, "builder_share": builders,
                "reader_share": 1 - builders}


def tree_instances(pkg):
    """The arguments of every law instance, by operation; the spec of
    each instance, by operation, where its arguments do not name it; and
    every tree a spec can hold.  A spec names an instance by the trees
    and small values it is built from, so the package's enumeration
    order and its presentation of built trees do not change it."""
    trees, cond = pkg.trees, pkg.conditions
    presentations = trees.enumerate_trees(2, 2)
    family = list({t.canonical(): None for t in presentations})
    small = list({t.canonical(): None for t in trees.enumerate_trees(1, 1)})
    short = bitstrings_upto(2)
    grafts = list(product(presentations, short, (0, 1)))
    out = {
        "amalgamate": [(t, s, t.restrict_cell(s + (b,)))
                       for t, s, b in grafts],
        "restrict_cell": list(product(presentations, bitstrings_upto(3))),
        "contains": list(product(presentations, bitstrings_upto(4))),
        "splitting_level": list(product(presentations, range(3))),
        "tree_equal": list(product(presentations, repeat=2)),
        "leq_n": list(product(family, family, range(3))),
        "subtree_leq": list(product(family, repeat=2)),
    }
    specs = {"amalgamate": grafts}
    iters, iter_leqs, iter_specs = [], [], []
    for a, b in product(small, repeat=2):
        p = cond.plain_iter([cond.SINGLE, cond.SINGLE], [a, b])
        for m, mode in enumerate((cond.COLUMN, cond.PAIRWISE)):
            for s in short:
                q = cond.iter_restrict(p, s + (len(s) % 2,), mode)
                iters.append((p, s, q, mode))
                iter_leqs.append((q, p, len(s), mode))
                iter_specs.append((a, b, m, s))
    out["iter_amalgamate"], out["iter_leq_n"] = iters, iter_leqs
    specs["iter_amalgamate"] = specs["iter_leq_n"] = iter_specs
    prods, prod_leqs, prod_specs = [], [], []
    for support in ((0,), (0, 1)):
        sbar = list(support)
        for assign in product(small, repeat=len(support)):
            p = cond.ProductCondition({
                i: cond.plain_iter([cond.SINGLE], [t])
                for i, t in zip(support, assign)})
            for s in short:
                for ext in bitstrings_upto(1):
                    if pkg.bitseq.width(len(s + ext)) > len(sbar):
                        continue
                    q = cond.prod_restrict(p, s + ext, sbar)
                    prods.append((p, s, sbar, q))
                    prod_leqs.append((q, p, len(s), sbar))
                    prod_specs.append((support, s, ext, *assign))
    out["prod_amalgamate"], out["prod_leq"] = prods, prod_leqs
    specs["prod_amalgamate"] = specs["prod_leq"] = prod_specs
    return out, specs, presentations + family + small


# -- cli_eval ---------------------------------------------------------------------

MALFORMED_SHARE = 0.1


class CliEval(Workload):
    """A stream of ``cli.main(["eval", op, path])`` requests over every
    operation, output captured in process.  The payload catalogue is
    pinned with each payload's expected output; the seed picks the
    stream.  Each pass sends the same share of malformed payloads, which
    must exit 1 with an EngineError message.

    The payload files are written once, before the first pass, and not
    in setup: writing 311 small files is file-system work that no change
    to the package can move, and on the host this was built on it took
    as long as the import and varied far more."""

    name = "cli_eval"
    per_pass = 500
    deadline_s = 2.0

    def __init__(self, pinned=None):
        super().__init__(pinned)
        self.bad = 0

    def setup(self, pkg, seed, workdir):
        self.pkg, self.seed = pkg, seed
        self.dir = Path(workdir)
        self.catalogue = self.pinned["cli_eval"]
        self.paths = []
        self.valid = {}
        self.malformed = []
        for i, (op, _, bad, _) in enumerate(self.catalogue):
            if bad:
                self.malformed.append(i)
            else:
                self.valid.setdefault(op, []).append(i)
        self.op_names = sorted(self.valid)

    def write_payloads(self):
        self.dir.mkdir(parents=True, exist_ok=True)
        for i, (op, payload, _, _) in enumerate(self.catalogue):
            path = self.dir / f"{i:04d}_{op}.json"
            path.write_text(json.dumps(payload), encoding="utf-8")
            self.paths.append(str(path))

    def make_pass(self, index):
        if not self.paths:
            self.write_payloads()
        rng = self.rng(self.seed, index)
        n_bad = round(self.per_pass * MALFORMED_SHARE)
        picks = [rng.choice(self.malformed) for _ in range(n_bad)]
        picks += [rng.choice(self.valid[rng.choice(self.op_names)])
                  for _ in range(self.per_pass - n_bad)]
        rng.shuffle(picks)
        return [("eval", (self.catalogue[i][0], self.paths[i]), i)
                for i in picks]

    def ops(self):
        main = self.pkg.cli.main

        def request(op, path):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), \
                    contextlib.redirect_stderr(err):
                try:
                    code = main(["eval", op, path])
                except SystemExit as e:
                    code = e.code
            return code, out.getvalue(), err.getvalue()

        return {"eval": request}

    def check(self, key, output):
        return cli_token(output) == self.catalogue[key][3]

    def observe(self, key):
        super().observe(key)
        self.bad += self.catalogue[key][2]

    def kind(self, key):
        return self.catalogue[key][0]

    def properties(self):
        share = super().properties()["share"]
        return {"share": share, "operations": len(share),
                "malformed_share": self.bad / sum(self.seen.values()),
                "catalogue": len(self.catalogue)}

    def close(self):
        for path in self.paths:
            with contextlib.suppress(FileNotFoundError):
                os.remove(path)
        self.paths = []
        with contextlib.suppress(OSError):
            self.dir.rmdir()


def cli_token(output):
    """Pinned token of one request: exit 0 and a digest of the decoded
    stdout, or the exit code and the error class named on stderr."""
    code, out, err = output
    if code == 0:
        return "0:" + reference.digest(
            reference.json_normal_form(json.loads(out)))
    return f"{code}:{err.split(':', 1)[0]}"
