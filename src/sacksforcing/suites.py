"""Batch verification suites behind the command-line front end.

Each suite replays a module's invariants at fixed sizes and reports
per-property case counts, so a run can be checked by a script without a
test framework.  Sweeps are exhaustive wherever the sizes below keep
them small; the seed feeds only the sampled extras.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from itertools import product

from .bitseq import (bits_str, column, join_family, join_pair, pair_index,
                     pair_split, split_pair, width)
from .conditions import (COLUMN, PAIRWISE, SINGLE, PairCondition,
                         ProductCondition, iter_amalgamate, iter_equal,
                         iter_leq, iter_leq_n, iter_restrict, plain_iter,
                         prod_amalgamate, prod_restrict)
from .degrees import (ONE, PAIR, Ordinal2, TowerCensus, TowerRecipe,
                      census_decode, census_encode, sc_census_decode,
                      sc_census_encode, sc_decode, sc_pattern, sc_schedule,
                      tower_degrees)
from .errors import DecodeError
from .implicit import (_BINARY, _QUANT, _RELATION, FinStructure, Not, Param,
                       Pred, Var, eval_formula, formula_text, free_vars,
                       imp_levels, implicitly_defined_by, parse_formula,
                       set_members, vn_levels)
from .trees import (amalgamate, all_bitstrings, bitstrings_upto,
                    enumerate_trees, full_tree, leq_n, leq_n_cellwise,
                    SkeletonTree)

DEFAULT_SEED = 271828
TREE_DEPTH = 2      # enumeration depth of the tree suite
BUDGET = 11         # formula size budget of the imp suite
N_BOUND = 4         # self-coding bases, and imp levels reaching full rank

SUITE_NAMES = ("codec", "tree", "conditions", "degrees", "imp")


@dataclass
class PropertyResult:
    name: str
    cases: int = 0
    failed: int = 0
    samples: list = field(default_factory=list)

    def check(self, ok, detail=""):
        self.cases += 1
        if not ok:
            self.failed += 1
            if len(self.samples) < 5:
                self.samples.append(detail)

    @property
    def passed(self):
        return self.failed == 0

    def to_json(self):
        return {"name": self.name, "cases": self.cases,
                "failed": self.failed, "samples": list(self.samples)}


def _expect_raises(result, exc, thunk, detail):
    try:
        thunk()
    except exc:
        result.check(True)
    except Exception as e:  # noqa: BLE001 - wrong error class is a failure
        result.check(False, f"{detail}: raised {type(e).__name__}")
    else:
        result.check(False, f"{detail}: no error raised")


# -- codec --------------------------------------------------------------------

def run_codec(seed):
    pairing = PropertyResult("pairing constraints and bijectivity")
    for m in range(100):
        for n in range(100):
            k = pair_index(m, n)
            if (m, n) == (0, 0):
                ok = k == 0
            elif (m, n) == (0, 1):
                ok = k == 1
            else:
                ok = k > max(m, n)
            ok = ok and pair_split(k) == (m, n)
            if n < 99:
                ok = ok and pair_index(m, n + 1) > k
            if m < 99:
                ok = ok and pair_index(m + 1, n) > k
            pairing.check(ok, f"m={m} n={n} k={k}")
    for k in range(5050):
        m, n = pair_split(k)
        pairing.check(pair_index(m, n) == k, f"split({k})=({m},{n})")

    reassembly = PropertyResult("join/column round trip")
    for length in range(13):
        for sigma in all_bitstrings(length):
            cols = [column(sigma, j) for j in range(width(length))]
            reassembly.check(join_family(cols, length) == sigma,
                             bits_str(sigma))

    interleave = PropertyResult("interleave round trip")
    for length in range(10):
        for sigma in all_bitstrings(length):
            x, y = split_pair(sigma)
            interleave.check(join_pair(x, y) == sigma, bits_str(sigma))
    rng = random.Random(seed)
    for _ in range(200):
        x = tuple(rng.randrange(2) for _ in range(rng.randrange(30)))
        y = tuple(rng.randrange(2) for _ in range(len(x) - rng.randrange(2))
                  ) if x else ()
        interleave.check(split_pair(join_pair(x, y)) == (x, y),
                         f"|x|={len(x)} |y|={len(y)}")

    boundaries = PropertyResult("width is the least covering count")
    for k in range(200):
        w = width(k)
        least = w == 0 or pair_index(w - 1, 0) < k
        boundaries.check(pair_index(w, 0) >= k and least, f"k={k}")
    return [pairing, reassembly, interleave, boundaries]


# -- trees --------------------------------------------------------------------

def run_tree(seed):
    trees = enumerate_trees(TREE_DEPTH, 2)

    antichain = PropertyResult("splitting levels are maximal antichains")
    partition = PropertyResult("cells partition the long nodes")
    for tree in trees:
        for n in range(TREE_DEPTH + 1):
            level = tree.splitting_level(n)
            ok = len(level) == 2 ** n
            for a in level:
                for b in level:
                    if a != b and (a[:len(b)] == b or b[:len(a)] == a):
                        ok = False
            horizon = max(len(v) for v in level) + 1
            for nu in all_bitstrings(horizon):
                if not tree.contains(nu):
                    continue
                if not any(v == nu[:len(v)] for v in level):
                    ok = False
                hits = sum(tree.restrict_cell(s).contains(nu)
                           for s in all_bitstrings(n))
                partition.check(hits == 1, f"node {bits_str(nu)}")
            antichain.check(ok, f"level {n} of {tree.to_json()}")

    iso = PropertyResult("rt is an order isomorphism")
    idx = bitstrings_upto(TREE_DEPTH + 1)
    for tree in trees:
        for a in idx:
            for b in idx:
                ra, rb = tree.rt(a), tree.rt(b)
                iso.check((a == b[:len(a)]) == (ra == rb[:len(ra)]),
                          f"{bits_str(a)},{bits_str(b)}")

    graded = PropertyResult("graded order agrees with cellwise form")
    family = list({t.canonical(): t for t in trees})
    rng = random.Random(seed)
    if len(family) > 40:
        family = rng.sample(family, 40)
    for sub in family:
        for sup in family:
            for n in range(TREE_DEPTH + 1):
                graded.check(
                    leq_n(sub, sup, n) == leq_n_cellwise(sub, sup, n),
                    f"n={n}")

    glue = PropertyResult("amalgamation pins one cell, keeps the rest")
    for tree in trees:
        for n in range(TREE_DEPTH + 1):
            for sigma in all_bitstrings(n):
                for b in all_bitstrings(1):
                    graft = tree.restrict_cell(sigma + b)
                    r = amalgamate(tree, sigma, graft)
                    ok = r.restrict_cell(sigma) == graft
                    for tau in all_bitstrings(n):
                        if tau != sigma and \
                                r.restrict_cell(tau) != tree.restrict_cell(tau):
                            ok = False
                    glue.check(ok, f"sigma={bits_str(sigma)}")
    return [antichain, partition, iso, graded, glue]


# -- conditions -----------------------------------------------------------------

def _worked_fixture():
    full = full_tree()
    t_prime = SkeletonTree(1, {(): (1,), (0,): (1, 0), (1,): (1, 1)})
    s = full.restrict_cell((0, 0))
    s_prime = SkeletonTree(0, {(): (1, 0, 0)})
    p = plain_iter([SINGLE, SINGLE], [full, t_prime])
    q = plain_iter([SINGLE, SINGLE], [s, s_prime])
    return full, t_prime, s, p, q


def run_conditions(seed):
    worked = PropertyResult("two-step amalgamation worked example")
    full, t_prime, s, p, q = _worked_fixture()
    sigma = join_pair((0,), (0,))
    r = iter_amalgamate(p, sigma, q, PAIRWISE)
    worked.check(iter_equal(iter_restrict(r, sigma, PAIRWISE), q),
                 "restriction at the graft index")
    r01 = iter_restrict(r, join_pair((0,), (1,)), PAIRWISE)
    worked.check(iter_equal(r01, plain_iter(
        [SINGLE, SINGLE], [s, t_prime.restrict_cell((1,))])),
        "sibling of the graft")
    for b in ((0,), (1,)):
        tau = join_pair((1,), b)
        worked.check(iter_equal(iter_restrict(r, tau, PAIRWISE),
                                iter_restrict(p, tau, PAIRWISE)),
                     f"untouched half {bits_str(b)}")
    worked.check(iter_leq_n(r, p, 2, PAIRWISE), "graded extension")

    partial = PropertyResult("iteration partial-equality after amalgamation")
    base = plain_iter([SINGLE, SINGLE],
                      [SkeletonTree(1, {(): (0,), (0,): (0, 0),
                                        (1,): (0, 1, 1)}), t_prime])
    for sigma in all_bitstrings(2):
        for ext in all_bitstrings(2):
            sub = iter_restrict(base, sigma + ext, COLUMN)
            r = iter_amalgamate(base, sigma, sub, COLUMN)
            partial.check(iter_equal(iter_restrict(r, sigma, COLUMN), sub),
                          f"graft at {bits_str(sigma)}")
            for tau in all_bitstrings(2):
                rt_ = iter_restrict(r, tau, COLUMN)
                pt = iter_restrict(base, tau, COLUMN)
                ok = iter_leq(rt_, pt)
                if column(tau, 0) != column(sigma, 0):
                    ok = ok and iter_equal(rt_, pt)
                partial.check(ok, f"tau={bits_str(tau)}")

    prods = PropertyResult("product partial-equality after amalgamation")
    depth1 = {t.canonical(): t for t in enumerate_trees(1, 1)}
    sbar = [0, 1]
    for t0 in list(depth1)[:4]:
        pp = ProductCondition({0: plain_iter([SINGLE], [t0]),
                               1: plain_iter([SINGLE], [full])})
        for sigma in all_bitstrings(2):
            qq = prod_restrict(pp, sigma + (1,), sbar)
            rr = prod_amalgamate(pp, sigma, sbar, qq)
            b_sigma = column(column(sigma, 0), 0)
            for tau in all_bitstrings(2):
                if column(column(tau, 0), 0) != b_sigma:
                    prods.check(iter_equal(
                        prod_restrict(rr, tau, sbar).coordinate(0),
                        prod_restrict(pp, tau, sbar).coordinate(0)),
                        f"sigma={bits_str(sigma)} tau={bits_str(tau)}")

    graded = PropertyResult(
        "iteration graded order agrees with its cellwise definition")
    for k, mode in ((1, COLUMN), (2, COLUMN), (2, PAIRWISE), (3, COLUMN)):
        for kinds in product((SINGLE,), *[(SINGLE, PAIR)] * (k - 1)):
            p = plain_iter(kinds, [PairCondition(t_prime, full) if kind == PAIR
                                   else t_prime for kind in kinds])
            # p with guarded rows, and the cells of both at two-bit indices
            conds = [p] if k == 1 else [p, iter_amalgamate(
                p, (0, 0), iter_restrict(p, (0, 0, 1, 1), mode), mode)]
            conds += [iter_restrict(c, s, mode) for c in conds
                      for s in all_bitstrings(2)]
            levels = range(3 if k == 1 else 4)  # n = 3 needs two columns
            for q, r, n in product(conds, conds, levels):
                cells = all(iter_leq(iter_restrict(q, s, mode),
                                     iter_restrict(r, s, mode))
                            for s in all_bitstrings(n))
                graded.check(iter_leq_n(q, r, n, mode) == cells,
                             f"{kinds} {mode} n={n}")
    return [worked, partial, prods, graded]


# -- degrees --------------------------------------------------------------------

def run_degrees(seed):
    census = PropertyResult("tower census round trip")
    keys = [Ordinal2(a, n) for a in range(2) for n in range(4)]
    for code in range(1 << len(keys)):
        x = {key: (code >> i) & 1 for i, key in enumerate(keys)}
        census.check(census_decode(census_encode(x, 2, 4)) == x,
                     f"code={code}")

    malformed = PropertyResult("malformed censuses are rejected")
    _expect_raises(malformed, DecodeError,
                   lambda: census_decode(TowerCensus({})), "empty census")
    _expect_raises(
        malformed, DecodeError,
        lambda: census_decode(TowerCensus({Ordinal2(0, 2): ONE,
                                           Ordinal2(0, 1): ONE})),
        "verdict ONE at an even height")
    _expect_raises(
        malformed, DecodeError,
        lambda: census_decode(TowerCensus({Ordinal2(0, 1): ONE})),
        "odd height without its even partner")

    sc_round = PropertyResult("self-coding schedule round trip")
    injective = PropertyResult("self-coding patterns are injective")
    seen = {}
    for n in range(N_BOUND):
        for glen in range(7):
            for gcode in range(1 << glen):
                g = tuple((gcode >> i) & 1 for i in range(glen))
                schedule = sc_schedule(n, g, n + 2 + glen)
                pattern = sc_pattern(schedule)
                sc_round.check(sc_decode(pattern) == (n, g),
                               f"n={n} g={bits_str(g)}")
                injective.check(seen.setdefault(pattern, (n, g)) == (n, g),
                                f"pattern collision at n={n}")

    sc_census = PropertyResult("self-coding census round trip")
    for h in bitstrings_upto(8):
        sc_census.check(sc_census_decode(sc_census_encode(h, 9)) == h,
                        bits_str(h))

    counts = PropertyResult("tower poset node and edge counts")
    lattice = PropertyResult("meets and joins around every diamond")
    kinds_pool = ("single", "pair")
    for length in range(1, 7):
        for code in range(2 ** (length - 1)):
            kinds = ("single",) + tuple(
                kinds_pool[(code >> i) & 1] for i in range(length - 1))
            recipe = TowerRecipe(kinds)
            poset = tower_degrees(recipe)
            pairs = sum(1 for k in kinds if k == PAIR)
            singles = length - pairs
            counts.check(
                len(poset.nodes) == length + 1 + 2 * pairs
                and len(poset.edges) == singles + 4 * pairs,
                f"kinds={kinds}")
            for beta, kind in enumerate(kinds):
                if kind != PAIR:
                    continue
                lo, hi = f"d{beta}", f"d{beta + 1}"
                a, b = f"d{beta}.0", f"d{beta}.1"
                lattice.check(
                    poset.meet(a, b) == lo and poset.join(a, b) == hi
                    and not poset.leq(a, b) and not poset.leq(b, a),
                    f"diamond at {beta} in {kinds}")
    return [census, malformed, sc_round, injective, sc_census, counts,
            lattice]


# -- implicit definability ----------------------------------------------------------

def _closed_formulas(universe, max_size):
    terms = [Var("x"), Var("y")] + [Param(k) for k in range(len(universe))]
    by_size = {}

    def add(f, size):
        by_size.setdefault(size, []).append(f)

    for t in terms:
        add(Pred(t), 2)
    for t1, t2, kind in product(terms, terms, _RELATION):
        add(kind(t1, t2), 3)
    for size in range(3, max_size + 1):
        for f in by_size.get(size - 1, []):
            add(Not(f), size)
            for v, kind in product(("x", "y"), _QUANT):
                add(kind(v, f), size)
        for s1 in range(2, size - 2):
            for f1 in by_size.get(s1, []):
                for f2 in by_size.get(size - 1 - s1, []):
                    # tightest first, so that the seeded samples stay the same
                    for kind in reversed(_BINARY):
                        add(kind(f1, f2), size)
    return [f for fs in by_size.values() for f in fs if not free_vars(f)]


def run_imp(seed):
    first = PropertyResult("first level is the singleton of the empty set")
    for budget in (0, 1, 3, 7, BUDGET):
        first.check(imp_levels(1, budget) == [frozenset(), frozenset({0})],
                    f"budget {budget}")

    contained = PropertyResult("levels sit inside the powerset hierarchy")
    for budget in (0, 4, 8, BUDGET):
        levels = imp_levels(N_BOUND, budget)
        for k in range(1, len(levels)):
            for code in levels[k]:
                contained.check(set(set_members(code)) <= levels[k - 1],
                                f"budget {budget} level {k} code {code}")

    reaches = PropertyResult("levels reach the full ranks at the fixture "
                             "budget")
    for n in range(1, N_BOUND + 1):
        reaches.check(imp_levels(n, BUDGET) == vn_levels(n),
                      f"n={n} budget {BUDGET}")

    agree = PropertyResult("unique-subset search agrees with the double "
                           "loop")
    rng = random.Random(seed)
    # (0, 1) is the one universe here whose membership is not symmetric,
    # and 7 the least size at which its converse defines other subsets
    for universe, size in (((), 6), ((0,), 6), ((0, 1), 7), ((0, 2), 6)):
        structure = FinStructure(universe)
        formulas = _closed_formulas(universe, size)
        if len(formulas) > 3000:
            formulas = rng.sample(formulas, 3000)
        u = len(universe)
        subsets = [frozenset(universe[j] for j in range(u)
                             if (mask >> j) & 1) for mask in range(1 << u)]
        for f in formulas:
            satisfied = [s for s in subsets
                         if eval_formula(f, structure, s, params=universe)]
            want = satisfied[0] if len(satisfied) == 1 else None
            agree.check(
                implicitly_defined_by(structure, f, params=universe) == want,
                formula_text(f))

    parsing = PropertyResult("printed formulas parse back unchanged")
    sample = rng.sample(_closed_formulas((0, 1), 6), 300)
    for f in sample:
        parsing.check(parse_formula(formula_text(f)) == f, formula_text(f))
    return [first, contained, reaches, agree, parsing]


# -- entry points ------------------------------------------------------------------

_RUNNERS = {"codec": run_codec, "tree": run_tree,
            "conditions": run_conditions, "degrees": run_degrees,
            "imp": run_imp}


def run_suite(name, seed=DEFAULT_SEED):
    """Results for one suite, or for every suite when name is "all"."""
    if name == "all":
        return [r for part in SUITE_NAMES for r in _RUNNERS[part](seed)]
    return _RUNNERS[name](seed)


def suite_report(name, results, seed, seconds):
    return {"suite": name, "seed": seed, "seconds": seconds,
            "passed": all(r.passed for r in results),
            "properties": [r.to_json() for r in results]}
