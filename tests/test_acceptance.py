"""Acceptance gate: ten numbered criteria, one pass/fail line each.

Each test prints its line only after every assertion in it has held, so
the printed output plus the pytest verdicts give the full scorecard.
Time limits are asserted, not just reported.
"""

import time
from itertools import islice, product

from sacksforcing.bitseq import (bits_str, column, join_family, join_pair,
                                 pair_index, pair_split, width)
from sacksforcing.conditions import (COLUMN, PAIRWISE, SINGLE,
                                     ProductCondition, iter_amalgamate,
                                     iter_equal, iter_leq_n, iter_restrict,
                                     plain_iter, prod_amalgamate,
                                     prod_restrict)
from sacksforcing.degrees import (ONE, PAIR, Ordinal2, ScPattern, TowerCensus,
                                  TowerRecipe, census_decode, census_encode,
                                  sc_census_decode, sc_census_encode,
                                  sc_decode, sc_pattern, sc_schedule,
                                  tower_degrees)
from sacksforcing.errors import DecodeError
from sacksforcing.implicit import (And, Eq, Exists, FinStructure, Forall, Iff,
                                   Implies, Member, Not, Or, Param, Pred, Var,
                                   free_vars, imp_levels,
                                   implicitly_defined_by, set_members,
                                   vn_levels)
from sacksforcing.suites import run_suite
from sacksforcing.trees import (SkeletonTree, all_bitstrings, amalgamate,
                                bitstrings_upto, enumerate_trees, full_tree,
                                leq_n, leq_n_cellwise)


def report(num, label, cases, t0, limit):
    elapsed = time.time() - t0
    print(f"criterion {num}: pass  {label} "
          f"({cases} cases, {elapsed:.2f}s, limit {limit}s)")
    assert elapsed < limit, f"criterion {num} exceeded its {limit}s budget"


def test_criterion_01_pairing_constraints():
    t0 = time.time()
    cases = 0
    for m in range(100):
        for n in range(100):
            k = pair_index(m, n)
            if (m, n) == (0, 0):
                assert k == 0
            elif (m, n) == (0, 1):
                assert k == 1
            else:
                assert k > max(m, n), (m, n, k)
            if m < 99:
                assert pair_index(m + 1, n) > k
            if n < 99:
                assert pair_index(m, n + 1) > k
            assert pair_split(k) == (m, n)
            cases += 1
    for k in range(5050):
        m, n = pair_split(k)
        assert pair_index(m, n) == k
        cases += 1
    report(1, "pairing constraints and bijectivity", cases, t0, 1)


def test_criterion_02_join_column_round_trip():
    t0 = time.time()
    cases = 0
    for length in range(13):
        for sigma in all_bitstrings(length):
            cols = [column(sigma, j) for j in range(width(length))]
            assert join_family(cols, length) == sigma, bits_str(sigma)
            cases += 1
    assert cases == 8191
    report(2, "join/column reassembly, |sigma| <= 12", cases, t0, 5)


def test_criterion_03_perfect_tree_suite():
    t0 = time.time()
    trees = enumerate_trees(2, 2)
    assert len(trees) == 165
    cases = 0

    for tree in trees:
        for n in range(3):
            level = tree.splitting_level(n)
            assert len(level) == 2 ** n
            for a in level:
                for b in level:
                    if a != b:
                        assert a[:len(b)] != b and b[:len(a)] != a
            horizon = max(len(v) for v in level) + 1
            for nu in all_bitstrings(horizon):
                if not tree.contains(nu):
                    continue
                assert any(v == nu[:len(v)] for v in level)
                hits = [s for s in all_bitstrings(n)
                        if tree.restrict_cell(s).contains(nu)]
                assert len(hits) == 1
            cases += 1

    idx = bitstrings_upto(3)
    for tree in trees:
        for a in idx:
            for b in idx:
                ra, rb = tree.rt(a), tree.rt(b)
                assert (a == b[:len(a)]) == (ra == rb[:len(ra)])
                cases += 1

    family = list({t.canonical(): None for t in trees})
    for sub in family:
        for sup in family:
            for n in range(3):
                assert leq_n(sub, sup, n) == leq_n_cellwise(sub, sup, n)
                cases += 1

    for tree in trees:
        for n in range(3):
            for sigma in all_bitstrings(n):
                for b in all_bitstrings(1):
                    graft = tree.restrict_cell(sigma + b)
                    r = amalgamate(tree, sigma, graft)
                    assert r.restrict_cell(sigma) == graft
                    for tau in all_bitstrings(n):
                        if tau != sigma:
                            assert r.restrict_cell(tau) == \
                                tree.restrict_cell(tau)
                    cases += 1
    report(3, "perfect-tree invariants, depth <= 2 slack <= 2", cases, t0, 60)


def test_criterion_04_two_step_amalgamation_fixture():
    t0 = time.time()
    full = full_tree()
    t_prime = SkeletonTree(1, {(): (1,), (0,): (1, 0), (1,): (1, 1)})
    s = full.restrict_cell((0, 0))
    s_prime = SkeletonTree(0, {(): (1, 0, 0)})
    p = plain_iter([SINGLE, SINGLE], [full, t_prime])
    q = plain_iter([SINGLE, SINGLE], [s, s_prime])
    sigma = join_pair((0,), (0,))
    r = iter_amalgamate(p, sigma, q, PAIRWISE)

    assert iter_equal(iter_restrict(r, sigma, PAIRWISE), q)
    assert iter_equal(
        iter_restrict(r, join_pair((0,), (1,)), PAIRWISE),
        plain_iter([SINGLE, SINGLE], [s, t_prime.restrict_cell((1,))]))
    for b in ((0,), (1,)):
        tau = join_pair((1,), b)
        assert iter_equal(iter_restrict(r, tau, PAIRWISE),
                          iter_restrict(p, tau, PAIRWISE))
    assert iter_leq_n(r, p, 2, PAIRWISE)
    report(4, "two-step amalgamation fixture, all four restrictions",
           4, t0, 1)


def test_criterion_05_product_partial_equality():
    t0 = time.time()
    seen = {}
    for t in enumerate_trees(1, 1):
        seen.setdefault(t.canonical(), t)
    family = list(seen)
    cases = 0
    for support in ((0,), (0, 1)):
        sbar = list(support)
        for assign in product(family, repeat=len(support)):
            p = ProductCondition({i: plain_iter([SINGLE], [t])
                                  for i, t in zip(support, assign)})
            for slen in range(3):
                for sigma in all_bitstrings(slen):
                    for elen in range(2):
                        if width(slen + elen) > len(sbar):
                            continue
                        for ext in all_bitstrings(elen):
                            q = prod_restrict(p, sigma + ext, sbar)
                            r = prod_amalgamate(p, sigma, sbar, q)
                            b_sigma = column(column(sigma, 0), 0)
                            for tau in all_bitstrings(slen):
                                if column(column(tau, 0), 0) == b_sigma:
                                    continue
                                assert iter_equal(
                                    prod_restrict(r, tau, sbar).coordinate(0),
                                    prod_restrict(p, tau, sbar).coordinate(0))
                                cases += 1
    report(5, "product partial-equality, support <= 2 depth <= 1",
           cases, t0, 30)


def test_criterion_06_census_round_trip():
    t0 = time.time()
    keys = [Ordinal2(a, n) for a in range(2) for n in range(4)]
    cases = 0
    for code in range(1 << len(keys)):
        x = {key: (code >> i) & 1 for i, key in enumerate(keys)}
        assert census_decode(census_encode(x, 2, 4)) == x
        cases += 1
    assert cases == 256

    for bad in (TowerCensus({}),
                TowerCensus({Ordinal2(0, 2): ONE, Ordinal2(0, 1): ONE}),
                TowerCensus({Ordinal2(0, 1): ONE})):
        try:
            census_decode(bad)
        except DecodeError:
            cases += 1
        else:
            raise AssertionError(f"malformed census accepted: {bad}")
    report(6, "tower census round trip and rejection", cases, t0, 1)


def test_criterion_07_self_coding_round_trips():
    t0 = time.time()
    cases = 0
    seen = {}
    for n in range(4):
        for glen in range(7):
            for gcode in range(1 << glen):
                g = tuple((gcode >> i) & 1 for i in range(glen))
                pattern = sc_pattern(sc_schedule(n, g, n + 2 + glen))
                assert sc_decode(pattern) == (n, g)
                assert seen.setdefault(pattern, (n, g)) == (n, g)
                cases += 1
    assert cases == 508
    for h in bitstrings_upto(8):
        assert sc_census_decode(sc_census_encode(h, 9)) == h
        cases += 1
    report(7, "self-coding schedule and census round trips", cases, t0, 1)


def test_criterion_08_tower_poset_structure():
    t0 = time.time()
    cases = 0
    for length in range(1, 7):
        for code in range(2 ** (length - 1)):
            kinds = ("single",) + tuple(
                ("single", "pair")[(code >> i) & 1]
                for i in range(length - 1))
            poset = tower_degrees(TowerRecipe(kinds))
            pairs = sum(1 for k in kinds if k == PAIR)
            assert len(poset.nodes) == length + 1 + 2 * pairs
            assert len(poset.edges) == (length - pairs) + 4 * pairs
            cases += 1
            for beta, kind in enumerate(kinds):
                if kind != PAIR:
                    continue
                a, b = f"d{beta}.0", f"d{beta}.1"
                assert poset.meet(a, b) == f"d{beta}"
                assert poset.join(a, b) == f"d{beta + 1}"
                assert not poset.leq(a, b) and not poset.leq(b, a)
                cases += 1
    report(8, "tower poset counts and diamond lattice", cases, t0, 5)


def test_criterion_09_imp_levels():
    t0 = time.time()
    cases = 0
    for budget in (0, 1, 2, 3, 5, 8, 11, 14):
        assert imp_levels(1, budget) == [frozenset(), frozenset({0})]
        cases += 1
    for budget in (0, 2, 4, 6, 8, 10, 11):
        levels = imp_levels(4, budget)
        ranks = vn_levels(4)
        for k in range(1, 5):
            assert levels[k] <= ranks[k]
            for code in levels[k]:
                assert set(set_members(code)) <= levels[k - 1]
            cases += 1
    for n in range(1, 5):
        assert imp_levels(n, 11) == vn_levels(n)
        cases += 1
    report(9, "definability levels climb the ranks at budget 11",
           cases, t0, 300)


def _closed_formulas(universe, max_size):
    terms = [Var("x"), Var("y")] + [Param(k) for k in range(len(universe))]
    by_size = {}

    def add(f, size):
        by_size.setdefault(size, []).append(f)

    for t in terms:
        add(Pred(t), 2)
    for t1 in terms:
        for t2 in terms:
            add(Member(t1, t2), 3)
            add(Eq(t1, t2), 3)
    for size in range(3, max_size + 1):
        for f in by_size.get(size - 1, []):
            add(Not(f), size)
            for v in ("x", "y"):
                add(Forall(v, f), size)
                add(Exists(v, f), size)
        for s1 in range(2, size - 2):
            for f1 in by_size.get(s1, []):
                for f2 in by_size.get(size - 1 - s1, []):
                    add(And(f1, f2), size)
                    add(Or(f1, f2), size)
                    add(Implies(f1, f2), size)
                    add(Iff(f1, f2), size)
    return [f for fs in by_size.values() for f in fs if not free_vars(f)]


def _oracle_holds(f, universe, mask, env):
    """Independent evaluator: subsets are bitmasks over universe
    positions, membership is a bit test on the raw codes."""
    def val(t):
        return env[t.name] if isinstance(t, Var) else universe[t.index]

    if isinstance(f, Pred):
        return bool((mask >> universe.index(val(f.term))) & 1)
    if isinstance(f, Member):
        return bool((val(f.right) >> val(f.left)) & 1)
    if isinstance(f, Eq):
        return val(f.left) == val(f.right)
    if isinstance(f, Not):
        return not _oracle_holds(f.body, universe, mask, env)
    if isinstance(f, And):
        return (_oracle_holds(f.left, universe, mask, env)
                and _oracle_holds(f.right, universe, mask, env))
    if isinstance(f, Or):
        return (_oracle_holds(f.left, universe, mask, env)
                or _oracle_holds(f.right, universe, mask, env))
    if isinstance(f, Implies):
        return (not _oracle_holds(f.left, universe, mask, env)
                or _oracle_holds(f.right, universe, mask, env))
    if isinstance(f, Iff):
        return (_oracle_holds(f.left, universe, mask, env)
                == _oracle_holds(f.right, universe, mask, env))
    body = f.body
    outcomes = (_oracle_holds(body, universe, mask, {**env, f.var: c})
                for c in universe)
    return all(outcomes) if isinstance(f, Forall) else any(outcomes)


def test_criterion_10_unique_subset_oracle_agreement():
    t0 = time.time()
    universes = [u for size in range(4)
                 for u in combinations_of_four(size)]
    cases = 0
    for universe in universes:
        structure = FinStructure(universe)
        u = len(universe)
        for f in _closed_formulas(universe, 7):
            # the verdict needs only whether 0, 1 or more subsets hold
            sats = list(islice((m for m in range(1 << u)
                                if _oracle_holds(f, universe, m, {})), 2))
            want = sats[0] if len(sats) == 1 else None
            got = implicitly_defined_by(structure, f, params=universe)
            if got is not None:
                got = sum(1 << universe.index(c) for c in got)
            assert got == want, (universe, f)
            cases += 1
    report(10, "unique-subset search vs independent oracle", cases, t0, 120)


def combinations_of_four(size):
    from itertools import combinations
    return [tuple(c) for c in combinations(range(4), size)]


def test_full_verification_under_ten_minutes():
    t0 = time.time()
    results = run_suite("all")
    failed = [r.name for r in results if not r.passed]
    assert not failed, failed
    elapsed = time.time() - t0
    print(f"verify all: pass  ({sum(r.cases for r in results)} cases, "
          f"{elapsed:.2f}s, limit 600s)")
    assert elapsed < 600
