import copy
import json
import pickle
import random
import time
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sacksforcing.bitseq import bits, column, join_family, join_pair, width
from sacksforcing.errors import (
    AmalgamationError, EngineError, IncompatibleError, InputError,
    PreconditionError, ResourceError, json_list,
)
from sacksforcing.conditions import (
    COLUMN, MAX_COMPLEMENT_ROWS, PAIR, PAIRWISE, SINGLE,
    GenericContext, IterCondition, PairCondition, ProductCondition,
    ScSchedule, TowerRecipe, _guards_compatible, _int_keyed,
    _row_from_json, _table_is_partition,
    condition_from_json, full_iter, full_pair, full_tree, iter_amalgamate,
    iter_equal, iter_leq, iter_leq_n, iter_restrict, pair_restrict,
    plain_iter, prod_amalgamate, prod_extends, prod_leq, prod_restrict,
    schedule_from_json,
)
from sacksforcing.trees import (
    SkeletonTree, _is_prefix, _strings, all_bitstrings, amalgamate,
    enumerate_trees,
)


def make_tree(depth, entries):
    return SkeletonTree(depth, {bits(k): bits(v) for k, v in entries.items()})


F = full_tree()
T1 = make_tree(1, {"": "0", "0": "00", "1": "011"})

# the two-step fixture: q extends the (0)-cells of both coordinates
T = F
S = F.restrict_cell(bits("00"))
TP = make_tree(1, {"": "1", "0": "10", "1": "11"})
SP = make_tree(0, {"": "100"})

P2 = plain_iter([SINGLE, SINGLE], [T, TP])
Q2 = plain_iter([SINGLE, SINGLE], [S, SP])
SIGMA00 = join_pair(bits("0"), bits("0"))


def distinct_trees(max_depth, slack):
    seen = {}
    for t in enumerate_trees(max_depth, slack):
        seen.setdefault(t.canonical(), t)
    return list(seen)


# -- pair conditions ----------------------------------------------------------

def test_pair_restrict_examples():
    p = PairCondition(T1, F)
    assert pair_restrict(p, bits("")) == p
    r = pair_restrict(PairCondition(F, F), bits("01"))
    assert r == PairCondition(F.restrict_cell(bits("0")),
                              F.restrict_cell(bits("1")))
    # an odd-length index sends nothing to the right component
    assert pair_restrict(p, bits("1")) == \
        PairCondition(T1.restrict_cell(bits("1")), F)


def test_pair_amalgamate():
    # the pair graft runs inside iter_amalgamate, at a pair coordinate:
    # sigma gives coordinate 0 the cell 00 and the pair the index 01,
    # the left tree's cell (0) and the right tree's cell (1)
    sigma = join_pair(bits("00"), bits("01"))
    pair = PairCondition(T, TP)
    graft = PairCondition(F.restrict_cell(bits("01")),
                          TP.restrict_cell(bits("1")).restrict_cell(bits("0")))
    p = plain_iter([SINGLE, PAIR], [F, pair])
    q = plain_iter([SINGLE, PAIR], [F.restrict_cell(bits("00")), graft])
    assert iter_leq(q, iter_restrict(p, sigma, PAIRWISE))
    r = iter_amalgamate(p, sigma, q, PAIRWISE)
    assert iter_equal(iter_restrict(r, sigma, PAIRWISE), q)
    for n in range(5):
        for tau in all_bitstrings(n):
            assert iter_leq(iter_restrict(r, tau, PAIRWISE),
                            iter_restrict(p, tau, PAIRWISE))
    # inside coordinate 0's cell the pair is grafted, and its left trees
    # restrict like p's wherever the left halves leave the left cell (0)
    (grafted,) = [pay for g, pay in r.coords[1] if g == {0: bits("00")}]
    assert pair_restrict(grafted, bits("01")) == graft
    for tau in all_bitstrings(2):
        if tau[0::2] != bits("0"):
            assert pair_restrict(grafted, tau).left == \
                pair_restrict(pair, tau).left
    assert iter_equal(iter_amalgamate(
        p, sigma, iter_restrict(p, sigma, PAIRWISE), PAIRWISE), p)
    # each half is refused on its own
    for bad in (PairCondition(F, graft.right), PairCondition(graft.left, TP),
                PairCondition(F, F)):
        with pytest.raises(AmalgamationError):
            iter_amalgamate(p, sigma, plain_iter(
                [SINGLE, PAIR], [F.restrict_cell(bits("00")), bad]),
                PAIRWISE)


# -- iteration restriction ----------------------------------------------------

def test_iter_restrict_trivial():
    for mode in (COLUMN, PAIRWISE):
        assert iter_equal(iter_restrict(P2, bits(""), mode), P2)


def test_iter_restrict_comment_fixture():
    r = iter_restrict(P2, SIGMA00, PAIRWISE)
    assert r.coordinate(0) == T.restrict_cell(bits("0"))
    assert r.coordinate(1) == TP.restrict_cell(bits("0"))


def test_column_mode_distributes():
    trees = [T1, TP, F]
    p = plain_iter([SINGLE] * 3, trees)
    sigma = bits("101101")
    r = iter_restrict(p, sigma, COLUMN)
    for k in range(3):
        assert r.coordinate(k) == trees[k].restrict_cell(column(sigma, k))


def test_mode_preconditions():
    p3 = plain_iter([SINGLE] * 3, [F, F, F])
    with pytest.raises(PreconditionError):
        iter_restrict(p3, bits("0"), PAIRWISE)
    with pytest.raises(PreconditionError):
        iter_restrict(P2, bits("101101"), COLUMN)  # needs three columns
    with pytest.raises(PreconditionError):
        iter_restrict(P2, bits("0"), "diagonal")


# -- iteration amalgamation: the worked two-step example -----------------------

def test_amalgamation_reproduces_worked_example():
    r = iter_amalgamate(P2, SIGMA00, Q2, PAIRWISE)

    # shape: an unconditional first coordinate, a two-row table after it
    assert r.coords[0] == (({}, amalgamate(T, bits("0"), S)),)
    guards = sorted((g[0] for g, _ in r.coords[1]))
    assert guards == [bits("0"), bits("1")]

    back = iter_restrict(r, SIGMA00, PAIRWISE)
    assert iter_equal(back, Q2)

    r01 = iter_restrict(r, join_pair(bits("0"), bits("1")), PAIRWISE)
    assert iter_equal(r01, plain_iter(
        [SINGLE, SINGLE], [S, TP.restrict_cell(bits("1"))]))

    for b in ("0", "1"):
        tau = join_pair(bits("1"), bits(b))
        assert iter_equal(iter_restrict(r, tau, PAIRWISE),
                          iter_restrict(P2, tau, PAIRWISE))

    assert iter_leq_n(r, P2, 2, PAIRWISE)


def test_amalgamation_trivial_graft():
    sigma = join_pair(bits("1"), bits("0"))
    r = iter_amalgamate(P2, sigma, iter_restrict(P2, sigma, PAIRWISE),
                        PAIRWISE)
    assert iter_equal(r, P2)


def test_amalgamation_precondition():
    with pytest.raises(AmalgamationError):
        iter_amalgamate(P2, SIGMA00, P2, PAIRWISE)


def test_column_amalgamation_partial_equality():
    """Restricting the amalgam anywhere that differs in the first column
    gives back p's restriction, exhaustively over length-2 indices."""
    p = plain_iter([SINGLE, SINGLE], [T1, TP])
    for sigma in all_bitstrings(2):
        for ext in all_bitstrings(2):
            q = iter_restrict(p, sigma + ext, COLUMN)
            r = iter_amalgamate(p, sigma, q, COLUMN)
            assert iter_equal(iter_restrict(r, sigma, COLUMN), q)
            for tau in all_bitstrings(2):
                rt = iter_restrict(r, tau, COLUMN)
                pt = iter_restrict(p, tau, COLUMN)
                assert iter_leq(rt, pt)
                if column(tau, 0) != column(sigma, 0):
                    assert iter_equal(rt, pt)


def test_iter_leq_n_detects_shrunk_cell():
    p = plain_iter([SINGLE, SINGLE], [F, F])
    shrunk = amalgamate(F, bits("1"), F.restrict_cell(bits("11")))
    q = plain_iter([SINGLE, SINGLE], [shrunk, F])
    assert iter_leq(q, p)
    assert iter_leq_n(q, p, 1, COLUMN)
    assert not iter_leq_n(q, p, 2, COLUMN)


def test_iter_leq_kind_mismatch():
    p3 = plain_iter([SINGLE, PAIR], [F, full_pair()])
    with pytest.raises(IncompatibleError):
        iter_leq(P2, p3)


# -- the two cases of ROADMAP item 16 -------------------------------------------
# Under the module docstring's reading a guard {k: a} asks that coordinate
# k's generic pass through cell a of k's own payload, so q <= p asks that
# q's branches be p's.  iter_leq gives the opposite answer on both cases.
# Once every operation reads guards that way these pass, which a strict
# xfail reports as a failure: the change that does it removes the marks.

def _stem(stem):
    return {"depth": 0, "skeleton": {"": stem}}


def _cells(root, left, right):
    return {"depth": 1, "skeleton": {"": root, "0": left, "1": right}}


def _two_steps(first, rows):
    """A two-step single iteration: one payload, then guarded rows."""
    return condition_from_json({
        "kind": "iter", "schedule": {"kinds": [SINGLE, SINGLE]},
        "coords": [[{"guard": {}, "payload": first}],
                   [{"guard": g, "payload": pay} for g, pay in rows]]})


@pytest.mark.xfail(strict=True, reason="guards compared in two frames")
def test_iter_leq_reads_guards_in_their_own_payload_unsound_case():
    # (110..., 100...) is in q: 110... passes q_0's cell 0, whose row
    # takes any branch above 1; it is not in p: 110... lies in p_0's
    # cell 1, whose row asks for a branch above 01
    p = _two_steps(_cells("", "00", "11"),
                   [({"0": "1"}, _cells("01", "010", "011")),
                    ({"0": "0"}, _cells("", "01", "1"))])
    q = _two_steps(_stem("11"), [({"0": "1"}, _stem("011")),
                                 ({"0": "0"}, _stem("1"))])
    assert iter_leq(q, p) is False


@pytest.mark.xfail(strict=True, reason="rows that q never reaches compared")
def test_iter_leq_skips_rows_that_q_never_reaches_incomplete_case():
    # q_0 lies in p_0's cell 0 and q_1 extends that row's payload; the
    # row of cell 1 is one that q's branches never reach
    p = _two_steps(_cells("", "00", "1110"),
                   [({"0": "0"}, _cells("", "01", "1")),
                    ({"0": "1"}, _cells("", "010", "1"))])
    q = _two_steps(_stem("001"), [({}, _stem("011"))])
    assert iter_leq(q, p) is True


# -- restriction composition and mode agreement --------------------------------

def guarded_fixture():
    sigma = bits("10")
    q = iter_restrict(P2, sigma + bits("11"), COLUMN)
    return iter_amalgamate(P2, sigma, q, COLUMN)


def test_restriction_composes_pairwise():
    r = iter_amalgamate(P2, SIGMA00, Q2, PAIRWISE)
    for sigma in all_bitstrings(2):
        first = iter_restrict(r, sigma, PAIRWISE)
        for tau in all_bitstrings(2):
            merged = join_pair(sigma[0::2] + tau[0::2],
                               sigma[1::2] + tau[1::2])
            assert iter_equal(iter_restrict(first, tau, PAIRWISE),
                              iter_restrict(r, merged, PAIRWISE))


def test_restriction_composes_columns():
    r = guarded_fixture()
    for sigma in all_bitstrings(1):
        first = iter_restrict(r, sigma, COLUMN)
        for tau in all_bitstrings(3):
            cols = [column(sigma, k) + column(tau, k) for k in range(2)]
            merged = join_family(cols, 4)
            assert iter_equal(iter_restrict(first, tau, COLUMN),
                              iter_restrict(r, merged, COLUMN))


def test_modes_agree_on_balanced_indices():
    r = guarded_fixture()
    for n in (0, 1, 3, 5):
        for sigma in all_bitstrings(n):
            via_pair = join_pair(column(sigma, 0), column(sigma, 1))
            assert iter_equal(iter_restrict(r, sigma, COLUMN),
                              iter_restrict(r, via_pair, PAIRWISE))


# -- guarded tables and schedules ----------------------------------------------

def test_guard_table_validation():
    sched = TowerRecipe([SINGLE, SINGLE])
    with pytest.raises(PreconditionError):  # overlapping guards
        IterCondition(sched, [
            [({}, F)],
            [({0: bits("0")}, F), ({}, F)],
        ])
    with pytest.raises(PreconditionError):  # gap at cell (1)
        IterCondition(sched, [[({}, F)], [({0: bits("0")}, F)]])
    with pytest.raises(PreconditionError):  # guard on a later coordinate
        IterCondition(sched, [[({1: bits("0")}, F)], [({}, F)]])
    with pytest.raises(PreconditionError):  # empty address
        IterCondition(sched, [[({}, F)], [({0: bits("")}, F)]])
    with pytest.raises(PreconditionError):  # payload kind mismatch
        IterCondition(sched, [[({}, full_pair())], [({}, F)]])
    with pytest.raises(PreconditionError):  # empty table
        IterCondition(sched, [[({}, F)], []])
    with pytest.raises(PreconditionError):  # first coordinate must be single
        TowerRecipe([PAIR])


@pytest.mark.parametrize("row", [5, (5, F)], ids=["row", "guard"])
def test_a_row_that_is_not_a_guard_and_payload_pair_is_refused(row):
    # a row 5 once raised a bare TypeError, a guard 5 an AttributeError
    with pytest.raises(PreconditionError, match="^coordinate 0: a row must "
                       "be a pair of a guard mapping and a payload$"):
        IterCondition(TowerRecipe([SINGLE]), [[row]])


def test_conditional_coordinate_accessor():
    r = iter_amalgamate(P2, SIGMA00, Q2, PAIRWISE)
    with pytest.raises(PreconditionError):
        r.coordinate(1)


@pytest.mark.parametrize("beta, message", [
    (-1, "no coordinate -1: the length is 2"),
    (2, "no coordinate 2: the length is 2"),
    (5, "no coordinate 5: the length is 2"),
    (True, "coordinate True is not an integer"),
    ("0", "coordinate '0' is not an integer"),
])
def test_iteration_coordinate_takes_a_natural_below_the_length(beta, message):
    # -1 once read the last coordinate, True coordinate 1, 5 an IndexError
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        P2.coordinate(beta)


@pytest.mark.parametrize("i, shown", [(9, "9"), ([0], r"\[0\]")],
                         ids=["9", "[0]"])
def test_product_coordinate_outside_the_support_is_refused(i, shown):
    # 9 once raised KeyError, and [0] TypeError: unhashable type
    p = ProductCondition({0: P2})
    assert p.coordinate(0) is P2
    with pytest.raises(PreconditionError,
                       match=f"^no coordinate at index {shown}$"):
        p.coordinate(i)


def test_finer_guards_still_partition():
    sched = TowerRecipe([SINGLE, SINGLE])
    cond = IterCondition(sched, [
        [({}, T1)],
        [({0: bits("00")}, F), ({0: bits("01")}, TP), ({0: bits("1")}, F)],
    ])
    r = iter_restrict(cond, bits("0"), COLUMN)
    assert sorted(g[0] for g, _ in r.coords[1]) == [bits("0"), bits("1")]


def test_sc_schedule_kinds():
    context = GenericContext({0: bits("10")})
    payloads = [F, F, full_pair(), full_pair(), F]
    cond = IterCondition(ScSchedule(1, 5),
                         [[({}, p)] for p in payloads], context)
    assert cond.kinds == (SINGLE, SINGLE, PAIR, PAIR, SINGLE)


def test_sc_schedule_reads_pair_coordinate_bits():
    context = GenericContext({0: bits("10"), 1: bits("1")})
    payloads = [F, full_pair(), full_pair(), F, full_pair()]
    cond = IterCondition(ScSchedule(0, 5),
                         [[({}, p)] for p in payloads], context)
    assert cond.kinds == (SINGLE, PAIR, PAIR, SINGLE, PAIR)


def test_sc_schedule_needs_commitments():
    with pytest.raises(PreconditionError):
        IterCondition(ScSchedule(1, 4), [[({}, F)]] * 3 + [[({}, F)]])


def test_context_consistency_checked():
    stem0 = make_tree(0, {"": "0"})
    with pytest.raises(PreconditionError):
        IterCondition(TowerRecipe([SINGLE]), [[({}, stem0)]],
                      GenericContext({0: bits("10")}))
    # compatible commitment passes
    IterCondition(TowerRecipe([SINGLE]), [[({}, stem0)]],
                  GenericContext({0: bits("01")}))


def test_pair_context_checks_both_halves():
    # the right tree of coordinate 1 has stem 0; the commitment interleaves
    # the two reals, so its odd positions belong to the right one
    stem0 = make_tree(0, {"": "0"})
    sched = TowerRecipe([SINGLE, PAIR])
    coords = [[({}, F)], [({}, PairCondition(F, stem0))]]
    with pytest.raises(PreconditionError, match="coordinate 1 is not a "
                                                "branch of any payload"):
        IterCondition(sched, coords, GenericContext({1: bits("01")}))
    IterCondition(sched, coords, GenericContext({1: bits("00")}))
    IterCondition(sched, coords, GenericContext({1: bits("10")}))


def test_sc_schedule_without_data_bits():
    for length in range(4):  # n = 2: coordinates 0-2 single, 3 the pair
        cond = IterCondition(ScSchedule(2, length), [[({}, F)]] * length)
        assert cond.kinds == (SINGLE,) * length
    # bits j = 0, 1 of g are bits 0, 1 of coordinate 0's real, and bit
    # j = 2 is bit 0 of coordinate 1's, which decides coordinate 2 + 2 + 2
    payloads = [F, F, F, full_pair(), F, full_pair(), F]
    with pytest.raises(PreconditionError) as e:
        IterCondition(ScSchedule(2, 7), [[({}, p)] for p in payloads],
                      GenericContext({0: bits("01")}))
    assert str(e.value) == ("schedule at coordinate 6 needs bit 0 of the "
                            "generic for coordinate 1")
    cond = IterCondition(ScSchedule(2, 6), [[({}, p)] for p in payloads[:6]],
                         GenericContext({0: bits("01")}))
    assert cond.kinds == (SINGLE, SINGLE, SINGLE, PAIR, SINGLE, PAIR)


def _reference_is_partition(rows, beta):
    """The exhaustiveness check by enumeration: every assignment of the
    mentioned addresses must match exactly one row."""
    if not rows:
        raise PreconditionError(f"coordinate {beta} has an empty table")
    for i, (g1, _) in enumerate(rows):
        for g2, _ in rows[i + 1:]:
            if _guards_compatible(g1, g2):
                raise PreconditionError(
                    f"coordinate {beta}: rows with compatible guards "
                    f"{g1} and {g2}")
    mention = {}
    for g, _ in rows:
        for k, addr in g.items():
            mention[k] = max(mention.get(k, 0), len(addr))
    keys = sorted(mention)
    for combo in product(*(_strings(mention[k]) for k in keys)):
        assignment = dict(zip(keys, combo))
        hits = sum(
            all(_is_prefix(addr, assignment[k]) for k, addr in g.items())
            for g, _ in rows)
        if hits != 1:
            raise PreconditionError(
                f"coordinate {beta}: guards are not exhaustive at "
                f"{assignment} (matched {hits} rows)")


@st.composite
def guard_tables(draw):
    """A partition made by splitting rows on coordinates 0 and 1 (up to 3
    address bits each), then kept, with one row dropped, or with one
    address shortened."""
    guards = [{}]
    for _ in range(draw(st.integers(0, 10))):
        i = draw(st.integers(0, len(guards) - 1))
        k = draw(st.sampled_from((0, 1)))
        addr = guards[i].get(k, ())
        if len(addr) < 3:
            guards[i:i + 1] = [{**guards[i], k: addr + (b,)} for b in (0, 1)]
    change = draw(st.sampled_from(("keep", "drop", "shorten")))
    i = draw(st.integers(0, len(guards) - 1))
    if change == "drop":
        del guards[i]
    elif change == "shorten" and guards[i]:
        k = draw(st.sampled_from(sorted(guards[i])))
        shorter = {k: guards[i][k][:-1]}
        guards[i] = {j: a for j, a in {**guards[i], **shorter}.items() if a}
    return [(g, F) for g in draw(st.permutations(guards))]


def _verdict(check, rows):
    try:
        check(rows, 2)
    except PreconditionError:
        return False
    return True


@settings(max_examples=500, deadline=None)
@given(guard_tables())
def test_partition_check_matches_enumeration(rows):
    assert _verdict(_table_is_partition, rows) == \
        _verdict(_reference_is_partition, rows)


def test_partition_check_reads_long_addresses():
    # an enumeration would list 2^22 and 2^40 assignments here
    start = time.perf_counter()
    one_cell = [[({}, F)], [({0: (0,) * 22}, F)]]
    with pytest.raises(PreconditionError, match="not exhaustive"):
        IterCondition(TowerRecipe([SINGLE, SINGLE]), one_cell)
    # first point of difference from 0^40, then 0^40 itself
    rows = [({0: (0,) * i + (1,)}, F) for i in range(40)]
    cond = IterCondition(TowerRecipe([SINGLE, SINGLE]),
                         [[({}, F)], rows + [({0: (0,) * 40}, F)]])
    assert len(cond.coords[1]) == 41
    with pytest.raises(PreconditionError, match="not exhaustive"):
        IterCondition(TowerRecipe([SINGLE, SINGLE]), [[({}, F)], rows])
    assert time.perf_counter() - start < 2


# -- serialization --------------------------------------------------------------

def test_iter_json_round_trip():
    r = iter_amalgamate(P2, SIGMA00, Q2, PAIRWISE)
    back = condition_from_json(r.to_json())
    assert iter_equal(back, r)
    assert back.kinds == r.kinds


def test_sc_json_round_trip():
    context = GenericContext({0: bits("10")})
    payloads = [F, F, full_pair(), full_pair(), F]
    cond = IterCondition(ScSchedule(1, 5),
                         [[({}, p)] for p in payloads], context)
    data = cond.to_json()
    assert data["schedule"] == {"sc": 1, "length": 5}
    back = IterCondition.from_json(data)
    assert back.kinds == cond.kinds


def test_pair_json_round_trip():
    p = PairCondition(T1, TP)
    assert condition_from_json(p.to_json()) == p


def test_schedule_json_errors():
    with pytest.raises(PreconditionError):
        schedule_from_json({"weird": 1})
    with pytest.raises(PreconditionError):
        condition_from_json({"kind": "mystery"})


# -- products --------------------------------------------------------------------

def iter_of(tree):
    return plain_iter([SINGLE], [tree])


def prod_equal(q, p):
    return prod_extends(q, p) and prod_extends(p, q)


def test_prod_restrict_positions():
    p = ProductCondition({0: iter_of(T1), 1: iter_of(TP)})
    sigma = bits("10")
    r = prod_restrict(p, sigma, [0, 1])
    # both bits land in column 0; coordinate 1 sees the empty column
    assert iter_equal(r.coordinate(0), iter_of(T1.restrict_cell(bits("10"))))
    assert iter_equal(r.coordinate(1), p.coordinate(1))
    assert prod_equal(prod_restrict(p, bits(""), [0, 1]), p)


def test_prod_restrict_fresh_indices():
    p = ProductCondition({0: iter_of(T1)})
    r = prod_restrict(p, bits("1"), [0, 7])  # 7 gets the empty column
    assert sorted(r.coords) == [0]
    with pytest.raises(PreconditionError):
        prod_restrict(p, bits("101"), [0, 7])  # column 1 nonempty at 7
    with pytest.raises(PreconditionError):
        prod_restrict(p, bits("101101"), [0, 1])  # needs three columns
    with pytest.raises(PreconditionError):
        prod_restrict(p, bits("1"), [0, 0])


def test_prod_restrict_commutes_with_merge():
    p1 = ProductCondition({0: iter_of(T1)})
    p2 = ProductCondition({5: iter_of(TP)})
    merged = ProductCondition({**p1.coords, **p2.coords})
    for sigma in all_bitstrings(2):
        lhs = prod_restrict(merged, sigma, [0])
        rhs = ProductCondition(
            {**prod_restrict(p1, sigma, [0]).coords, **p2.coords})
        assert prod_equal(lhs, rhs)


def test_prod_leq_truncation_stability():
    p = ProductCondition({0: iter_of(F), 1: iter_of(F), 2: iter_of(F)})
    q = ProductCondition({
        0: iter_of(F.restrict_cell(bits("0"))),
        1: iter_of(F),
        2: iter_of(T1),
    })
    sbar = [0, 1, 2]
    for n in range(3):
        full_answer = prod_leq(q, p, n, sbar)
        for m in range(width(n), len(sbar) + 1):
            assert prod_leq(q, p, n, sbar[:m]) == full_answer
    assert prod_leq(p, p, 2, sbar)


def test_prod_leq_off_sbar_shrink():
    p = ProductCondition({0: iter_of(F), 9: iter_of(F)})
    q = ProductCondition({0: iter_of(F), 9: iter_of(T1)})
    assert prod_leq(q, p, 1, [0])
    assert not prod_equal(q, p)
    # dropping a nontrivial coordinate is not an extension
    assert not prod_extends(ProductCondition({0: iter_of(F)}),
                            ProductCondition({9: iter_of(T1)}))
    assert prod_extends(ProductCondition({0: iter_of(T1)}),
                        ProductCondition({9: iter_of(F)}))


def test_prod_amalgamate_basic():
    p = ProductCondition({0: iter_of(F), 1: iter_of(F)})
    sigma = bits("1")
    q = ProductCondition({
        0: iter_of(F.restrict_cell(bits("11"))),
        1: iter_of(F.restrict_cell(bits("0"))),
    })
    r = prod_amalgamate(p, sigma, [0], q)
    assert prod_equal(prod_restrict(r, sigma, [0]), q)
    assert prod_extends(r, p)
    with pytest.raises(AmalgamationError):
        prod_amalgamate(p, sigma, [0], ProductCondition({0: iter_of(T1)}))


def test_prod_amalgamate_partial_equality():
    """Whenever tau differs from sigma in the doubly-first column, the
    first listed coordinate of the amalgam restricts like p's."""
    trees = distinct_trees(1, 1)
    sbar = [0, 1]
    for t0 in trees[:4]:
        p = ProductCondition({0: iter_of(t0), 1: iter_of(F)})
        for sigma in all_bitstrings(2):
            q = prod_restrict(p, sigma + bits("1"), sbar)
            r = prod_amalgamate(p, sigma, sbar, q)
            b_sigma = column(column(sigma, 0), 0)
            for tau in all_bitstrings(2):
                if column(column(tau, 0), 0) != b_sigma:
                    assert iter_equal(
                        prod_restrict(r, tau, sbar).coordinate(0),
                        prod_restrict(p, tau, sbar).coordinate(0))


def test_support_ordering():
    p = ProductCondition({(1, 0): iter_of(F), 3: iter_of(F), 0: iter_of(F)})
    assert p.support == (0, 3, (1, 0))


def test_product_json_round_trip():
    p = ProductCondition({0: iter_of(T1), (1, 2): iter_of(TP)})
    back = condition_from_json(p.to_json())
    assert prod_equal(back, p)
    assert back.support == p.support


def test_full_iter_recognition():
    # a full iteration is the full one of its kinds, whatever its guards
    guarded = IterCondition(TowerRecipe([SINGLE, PAIR]), [
        [({}, F)], [({0: (0,)}, full_pair()), ({0: (1,)}, full_pair())]])
    assert iter_equal(guarded, full_iter(guarded.kinds))
    assert not iter_equal(iter_of(T1), full_iter([SINGLE]))


def test_graded_orders_refuse_past_the_bound():
    # the graded orders answer levels up to 16 and refuse every later one
    assert iter_leq_n(P2, P2, 16, PAIRWISE)
    product = ProductCondition({0: iter_of(F)})
    for op, call in (("iter_leq_n", lambda n: iter_leq_n(P2, P2, n, PAIRWISE)),
                     ("prod_leq", lambda n: prod_leq(product, product, n,
                                                     [0]))):
        for n in (17, 10 ** 6):
            with pytest.raises(ResourceError) as e:
                call(n)
            assert str(e.value) == \
                f"{op} refuses level {n}, past the cap of 16"


def _answers_within_two_seconds(call):
    start = time.perf_counter()
    answer = call()
    assert time.perf_counter() - start < 2
    return answer


def test_graded_orders_charge_rows_per_cell():
    # each pair of rows is compared once, so neither the 2^n cells nor a
    # long sbar costs a loop
    eight = full_iter([SINGLE] * 8)
    shrunk = plain_iter([SINGLE] * 8,
                        [F] * 3 + [F.restrict_cell((0,))] + [F] * 4)
    for n in (9, 10, 12, 13, 16):
        assert _answers_within_two_seconds(lambda: iter_leq_n(eight, eight, n))
        # coordinate 3 gets a nonempty column from n = 10 on
        assert _answers_within_two_seconds(
            lambda: iter_leq_n(shrunk, eight, n)) is (n < 10)
    product = ProductCondition({i: eight for i in range(8)})
    for n in (8, 9, 16):
        assert _answers_within_two_seconds(
            lambda: prod_leq(product, product, n, range(8)))
    one = ProductCondition({0: iter_of(F)})
    assert _answers_within_two_seconds(
        lambda: prod_leq(one, one, 0, range(1 << 16)))


def test_graded_orders_charge_skeleton_entries():
    # deep payloads are compared once each, not restricted in every cell
    deep = plain_iter([SINGLE] * 8, [F.deepen(6)] * 8)
    cell = iter_restrict(deep, (0,))
    assert _answers_within_two_seconds(lambda: iter_leq_n(deep, deep, 12))
    assert iter_leq_n(cell, deep, 0)
    assert not _answers_within_two_seconds(
        lambda: iter_leq_n(cell, deep, 12))
    mixed = full_iter([SINGLE, PAIR, PAIR, PAIR, SINGLE])
    for n in (12, 13):
        assert _answers_within_two_seconds(
            lambda: iter_leq_n(mixed, mixed, n))
    pair = plain_iter([SINGLE, PAIR], [F, PairCondition(F.deepen(1), F)])
    assert _answers_within_two_seconds(
        lambda: iter_leq_n(pair, pair, 14, PAIRWISE))
    with pytest.raises(PreconditionError, match="4 nonempty columns"):
        iter_leq_n(pair, pair, 14)
    eights = plain_iter([SINGLE] * 8, [F.deepen(1)] * 8)
    product = ProductCondition({i: eights for i in range(4)})
    for n in (8, 9):
        assert _answers_within_two_seconds(
            lambda: prod_leq(product, product, n, range(4)))


def test_prod_amalgamate_where_q_lacks_an_sbar_coordinate():
    # q lacks coordinate 1, whose restriction of p is full, and 2, off sbar
    p = ProductCondition({0: iter_of(T1), 1: iter_of(F), 2: iter_of(F)})
    sigma, sbar = bits("10"), [0, 1]
    q0 = iter_restrict(prod_restrict(p, sigma, sbar).coordinate(0), bits("0"))
    out = prod_amalgamate(p, sigma, sbar, ProductCondition({0: q0}))
    assert out.support == (0, 1)
    assert iter_equal(out.coordinate(0),
                      iter_amalgamate(p.coordinate(0), column(sigma, 0), q0))
    assert iter_equal(out.coordinate(1), p.coordinate(1))
    assert prod_extends(out, p) and not prod_extends(p, out)


def test_amalgamation_counts_complement_rows_first():
    # a PAIRWISE index with k left bits leaves 2^k - 1 complement guards
    # for coordinate 1
    p = full_iter([SINGLE, SINGLE])
    for k, ok in ((12, True), (13, False)):
        sigma = (0,) * (2 * k)
        q = iter_restrict(p, sigma, PAIRWISE)
        if ok:
            r = iter_amalgamate(p, sigma, q, PAIRWISE)
            assert len(r.coords[1]) == MAX_COMPLEMENT_ROWS
            assert iter_equal(iter_restrict(r, sigma, PAIRWISE), q)
        else:
            with pytest.raises(ResourceError, match="iter_amalgamate would "
                               "build 8191 complement rows; the bound is "
                               "4096"):
                iter_amalgamate(p, sigma, q, PAIRWISE)
    # the rows of each coordinate multiply the guards of all earlier ones
    p = full_iter([SINGLE] * 14)
    sigma = (0,) * 105
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="393129 complement rows"):
        iter_amalgamate(p, sigma, iter_restrict(p, sigma))
    assert time.perf_counter() - start < 2



# -- the JSON boundary --------------------------------------------------------

def _iter_json(**change):
    data = {"kind": "iter", "schedule": {"kinds": ["single"]}, "context": {},
            "coords": [[{"guard": {}, "payload": {"depth": 0,
                                                  "skeleton": {"": ""}}}]]}
    data.update(change)
    return data


def _row_json(guard, payload):
    return [[{"guard": guard, "payload": payload}]]


@pytest.mark.parametrize("data, where", [
    (5, "condition"),
    ([], "condition"),
    ({"kind": "pair"}, "condition"),
    ({"kind": "pair", "left": {"depth": "x", "skeleton": {}},
      "right": {"depth": 0, "skeleton": {"": ""}}}, "condition.left"),
    ({"kind": "iter"}, "condition"),
    (_iter_json(schedule=5), "condition.schedule"),
    (_iter_json(schedule={"kinds": "single"}), "condition.schedule.kinds"),
    (_iter_json(schedule={"sc": 0}), "condition.schedule"),
    (_iter_json(schedule={"sc": "0", "length": 1}), "condition.schedule"),
    (_iter_json(schedule={"sc": True, "length": 1}), "condition.schedule"),
    (_iter_json(context=[]), "condition.context"),
    (_iter_json(context={"x": "1"}), "condition.context"),
    (_iter_json(coords=5), "condition.coords"),
    (_iter_json(coords={}), "condition.coords"),
    (_iter_json(coords=[5]), "condition.coords[0]"),
    (_iter_json(coords=[[5]]), "condition.coords[0][0]"),
    (_iter_json(coords=_row_json(5, {"depth": 0, "skeleton": {"": ""}})),
     "condition.coords[0][0].guard"),
    (_iter_json(coords=_row_json({"a": "1"}, {"depth": 0,
                                              "skeleton": {"": ""}})),
     "condition.coords[0][0].guard"),
    (_iter_json(coords=_row_json({}, {"depth": [], "skeleton": {}})),
     "condition.coords[0][0].payload"),
    ({"kind": "product", "coords": 5}, "condition.coords"),
    ({"kind": "product", "coords": [5]}, "condition.coords[0]"),
    ({"kind": "product", "coords": [{"index": 0}]}, "condition.coords[0]"),
    ({"kind": "product", "coords": [{"index": {}, "cond": _iter_json()}]},
     "condition.coords[0].index"),
    ({"kind": "product", "coords": [{"index": None, "cond": _iter_json()}]},
     "condition.coords[0].index"),
    ({"kind": "product", "coords": [{"index": 0, "cond": 5}]},
     "condition.coords[0].cond"),
])
def test_condition_from_json_rejects_malformed_shapes(data, where):
    with pytest.raises(InputError) as e:
        condition_from_json(data)
    assert str(e.value).startswith(where + ": ")


def test_condition_from_json_keeps_content_errors():
    for data in ({}, {"kind": "mystery"},
                 _iter_json(schedule={"weird": 1}),
                 _iter_json(schedule={"kinds": ["pair"]}),
                 _iter_json(coords=[])):
        with pytest.raises(PreconditionError):
            condition_from_json(data)
    # guard values that are not bit strings
    with pytest.raises(EngineError):
        condition_from_json(_iter_json(coords=_row_json(
            {"0": 1}, {"depth": 0, "skeleton": {"": ""}})))


def test_product_indices_decode_like_sbar():
    cond = _iter_json()
    p = condition_from_json({"kind": "product", "coords": [
        {"index": 0, "cond": cond}, {"index": "a", "cond": cond},
        {"index": [1, [2, "b"]], "cond": cond}]})
    assert set(p.support) == {0, "a", (1, (2, "b"))}


def test_long_schedule_is_refused_by_the_coordinate_count():
    # the schedule's length is checked against the coordinates given
    # before a kind is computed for any coordinate
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="expected 10{18} "):
        condition_from_json(_iter_json(
            schedule={"sc": 10 ** 18, "length": 10 ** 18}))
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("key", ["0", "00", 0.5, 0.7, True])
def test_coordinate_keys_are_ints(key):
    # int(k) would read "00" and 0.5 both as 0, and a float as its floor
    sched = TowerRecipe([SINGLE, SINGLE])
    with pytest.raises(PreconditionError, match="is not an integer"):
        GenericContext({key: bits("1")})
    with pytest.raises(PreconditionError, match="is not an integer"):
        IterCondition(sched, [[({}, F)], [({key: bits("0")}, F),
                                          ({0: bits("1")}, F)]])
    with pytest.raises(PreconditionError, match="is not an integer"):
        GenericContext({"00": (1,), 0.5: (0,)})
    assert GenericContext({0: bits("1")}).commitments == {0: (1,)}


def test_a_commitment_names_a_natural_coordinate():
    # a commitment for coordinate -1 once passed, and to_json printed it
    for commitments in ({-1: (0,)}, {0: (1,), -2: ()}):
        with pytest.raises(PreconditionError,
                           match="^a coordinate must be a natural number$"):
            IterCondition(TowerRecipe([SINGLE]), [[({}, F)]],
                          GenericContext(commitments))


@pytest.mark.parametrize("call, message", [
    (lambda: TowerRecipe(5), "kinds must be an iterable of step kinds, "
                             "not int"),
    (lambda: full_iter(5), "kinds must be an iterable of step kinds, not int"),
    (lambda: plain_iter([SINGLE], 5), "payloads must be an iterable of "
                                      "trees or pair conditions, not int"),
    (lambda: IterCondition(TowerRecipe([SINGLE]), 5),
     "coords must be an iterable of tables, not int"),
    (lambda: IterCondition(TowerRecipe([SINGLE]), [5]),
     "a coordinate table must be an iterable of rows, not int"),
    (lambda: ProductCondition(5), "coords must be a mapping"),
    (lambda: ProductCondition([5]), "coords must be a mapping"),
    (lambda: ProductCondition([(0, P2, 1)]), "coords must be a mapping"),
    (lambda: GenericContext(5), "commitments must be a mapping"),
    (lambda: GenericContext([(0, (1,), 2)]), "commitments must be a mapping"),
    (lambda: IterCondition(5, []),
     "schedule must be a TowerRecipe or an ScSchedule, not int"),
    (lambda: IterCondition(TowerRecipe([SINGLE]), [[({}, F)]], {0: (0,)}),
     "context must be a GenericContext, not dict"),
], ids=["TowerRecipe", "full_iter", "plain_iter", "IterCondition-coords",
        "IterCondition-table", "ProductCondition", "ProductCondition-entry",
        "ProductCondition-triple", "GenericContext",
        "GenericContext-triple", "IterCondition-schedule",
        "IterCondition-context"])
def test_a_value_that_cannot_be_read_is_refused(call, message):
    # each raised a bare TypeError, ValueError or AttributeError before
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        call()


def test_the_two_mappings_read_what_dict_reads():
    assert ProductCondition([(0, P2)]).coordinate(0) is P2
    assert GenericContext([(0, (1,))]).commitments == {0: (1,)}


def test_trusted_iterations_share_a_context_that_cannot_change():
    # the restrictions of one iteration share the empty context of their
    # kinds; writing a commitment into it once changed them all
    p = plain_iter([SINGLE, SINGLE], [F, F])
    a, b = iter_restrict(p, bits("0")), iter_restrict(p, bits("1"))
    assert a.context is b.context
    with pytest.raises(TypeError):
        a.context.commitments[0] = (1, 1)
    with pytest.raises(AttributeError):
        a.context.commitments = {0: (1, 1)}
    assert b.to_json()["context"] == {}
    # a context, and an iteration holding one, still copy and pickle
    cond = IterCondition(TowerRecipe([SINGLE]), [[({}, T1)]],
                         GenericContext({0: bits("01")}))
    for clone in (copy.deepcopy, lambda c: pickle.loads(pickle.dumps(c))):
        for value in (cond, a):
            twin = clone(value)
            assert twin.to_json() == value.to_json()
            with pytest.raises(TypeError):
                twin.context.commitments[0] = (1,)


def test_prod_amalgamate_reads_a_one_shot_sbar():
    # prod_restrict once consumed the iterator, and the graft loop then
    # saw no coordinate and handed back q
    p = ProductCondition({0: iter_of(T1), 1: iter_of(TP)})
    sigma = bits("01")
    q = prod_restrict(p, sigma + bits("1"), [0, 1])
    r = prod_amalgamate(p, sigma, [0, 1], q)
    assert not prod_equal(r, q)
    assert prod_equal(prod_amalgamate(p, sigma, iter([0, 1]), q), r)


def test_pair_condition_holds_two_trees():
    for left, right in ((1, 2), (F, 2), (full_pair(), F), (F, None)):
        with pytest.raises(PreconditionError, match="two trees"):
            PairCondition(left, right)
    with pytest.raises(PreconditionError):
        plain_iter([SINGLE, PAIR], [full_tree(), PairCondition(1, 2)])


def test_iter_amalgamate_keeps_rows_outside_the_sigma_cell():
    # coordinate 1's row under guard {0: 1} lies outside the 0-cell of
    # coordinate 0, so the graft leaves it as it is
    p = IterCondition(TowerRecipe([SINGLE, SINGLE]), [
        [({}, F)], [({0: bits("0")}, F), ({0: bits("1")}, T1)]])
    sigma = bits("0")
    q = iter_restrict(p, bits("00"), COLUMN)
    r = iter_amalgamate(p, sigma, q, COLUMN)
    assert ({0: bits("1")}, T1) in r.coords[1]
    assert iter_equal(condition_from_json(r.to_json()), r)  # a partition
    assert iter_equal(iter_restrict(r, sigma, COLUMN), q)
    assert iter_equal(iter_restrict(r, bits("1"), COLUMN),
                      iter_restrict(p, bits("1"), COLUMN))


def test_context_check_skips_empty_and_outside_commitments():
    # T1's stem is 0, so only the commitment 1 at coordinate 0 is refused;
    # a commitment past the length is skipped (one at -1 is refused by the
    # context itself, test_a_commitment_names_a_natural_coordinate)
    sched = TowerRecipe([SINGLE])
    for commitments in ({0: ()}, {3: bits("1")},
                        {0: bits("0"), 1: bits("1")}):
        cond = IterCondition(sched, [[({}, T1)]], GenericContext(commitments))
        assert cond.coordinate(0) == T1
    with pytest.raises(PreconditionError, match="not a branch"):
        IterCondition(sched, [[({}, T1)]], GenericContext({0: bits("1")}))


def test_bool_indices_sort_apart_from_integers():
    c = iter_of(F)
    p = ProductCondition({True: c, "a": c, (1, 0): c, 2: c, 0: c})
    assert p.support == (0, 2, (1, 0), "a", True)
    assert [item["index"] for item in p.to_json()["coords"]] == \
        [0, 2, [1, 0], "a", True]


def test_product_coordinates_are_iterations():
    for payload in (F, full_pair(), None):
        with pytest.raises(PreconditionError, match="iteration condition"):
            ProductCondition({0: iter_of(F), 1: payload})


# -- amalgamation laws over small iterations and products -----------------------

SMALL = distinct_trees(1, 1)


def _cell_addresses(sigma, mode, length):
    """Each coordinate's address under sigma, written out from the
    definitions of the two modes."""
    if mode == PAIRWISE:
        return [sigma[0::2], sigma[1::2]]
    return [column(sigma, k) for k in range(length)]


def _expected_cell(p, q, sigma, tau, mode):
    """The tau-cell of the amalgam of q into the sigma-cell of p, tau as
    long as sigma: q's coordinates up to the first whose address under
    tau leaves its address under sigma, and p's restriction from there
    on.  A tau that leaves at coordinate 0 gets p's restriction whole."""
    a = _cell_addresses(sigma, mode, p.length)
    b = _cell_addresses(tau, mode, p.length)
    j = next((k for k in range(p.length) if a[k] != b[k]), p.length)
    rest = iter_restrict(p, tau, mode)
    return IterCondition(TowerRecipe(p.kinds),
                         list(q.coords[:j]) + list(rest.coords[j:]))


def _flip_first(sigma):
    return (1 - sigma[0],) + sigma[1:]


def _conditional(p, mode):
    """p with a finer condition grafted two bits deep into coordinate 0,
    so that its later coordinates have guards that restriction by short
    indices leaves standing."""
    deep = (0, 0) if mode == COLUMN else (0, 0, 0, 0)
    return iter_amalgamate(p, deep, iter_restrict(p, deep + (1,), mode), mode)


def _shrink(cond, b, right=False):
    """cond with every payload cut down to the b side of its first
    splitting node (a pair's left tree, or its right one), guards kept:
    an extension of cond in the frame of addresses its guards are written
    in."""
    def cut(pay):
        if isinstance(pay, PairCondition):
            if right:
                return PairCondition(pay.left, pay.right.restrict_cell((b,)))
            return PairCondition(pay.left.restrict_cell((b,)), pay.right)
        return pay.restrict_cell((b,))
    return IterCondition(TowerRecipe(cond.kinds), [
        [(g, cut(pay)) for g, pay in table] for table in cond.coords])


def _is_partition(r):
    # the public constructor checks every table
    return iter_equal(IterCondition(TowerRecipe(r.kinds), r.coords), r)


def _check_iter_amalgamation(p, sigma, mode):
    n = len(sigma)
    cell = iter_restrict(p, sigma, mode)
    for q in (cell, _shrink(cell, 0), _shrink(cell, 1)):
        r = iter_amalgamate(p, sigma, q, mode)
        assert _is_partition(r)
        assert iter_equal(iter_restrict(r, sigma, mode), q)
        for tau in all_bitstrings(n):
            assert iter_equal(iter_restrict(r, tau, mode),
                              _expected_cell(p, q, sigma, tau, mode))
        assert iter_leq_n(r, p, n, mode)
    if sigma:
        # the cell next to sigma's at coordinate 0 lies outside it
        q = iter_restrict(p, _flip_first(sigma), mode)
        with pytest.raises(AmalgamationError) as e:
            iter_amalgamate(p, sigma, q, mode)
        assert str(e.value) == "q does not extend the sigma cell of p"


@pytest.mark.parametrize("mode", [COLUMN, PAIRWISE])
@pytest.mark.parametrize("second", [SINGLE, PAIR])
def test_iter_amalgamation_laws_on_small_iterations(second, mode):
    # pair coordinates are grafted by the pair payload's own graft
    seconds = (SMALL if second == SINGLE else
               [PairCondition(a, b) for a, b in product(SMALL, repeat=2)])
    for first, pay in product(SMALL, seconds):
        p = plain_iter([SINGLE, second], [first, pay])
        # guarded rows on a sample: lifting and meeting guards matters
        sample = pay in seconds[:3]
        for cond in (p, _conditional(p, mode)) if sample else (p,):
            for n in range(3):
                for sigma in all_bitstrings(n):
                    _check_iter_amalgamation(cond, sigma, mode)


@pytest.mark.parametrize("support", [(0,), (0, 1)])
def test_prod_amalgamation_laws_on_small_products(support):
    sbar = list(support)
    iters = [iter_of(t) for t in SMALL] + [
        plain_iter([SINGLE, PAIR], [t, PairCondition(t, F)]) for t in SMALL]
    iters += [_conditional(c, COLUMN) for c in iters[-3:]]
    # on two coordinates, every iteration meets a sample of the others
    for conds in product(iters, *[iters[::4]] * (len(support) - 1)):
        p = ProductCondition(dict(zip(support, conds)))
        for n in range(3):
            if width(n) > len(sbar):
                continue
            for sigma in all_bitstrings(n):
                cols = [column(sigma, k) for k in range(len(sbar))]
                cell = prod_restrict(p, sigma, sbar)
                for b in (None, 0, 1):
                    q = {i: c if b is None else _shrink(c, b)
                         for i, c in cell.coords.items()}
                    # a coordinate that q leaves full may be left out
                    for qc in (q, {i: c for i, c in q.items()
                                   if not iter_equal(
                                       c, full_iter(c.kinds))}):
                        r = prod_amalgamate(p, sigma, sbar,
                                            ProductCondition(qc))
                        assert all(_is_partition(c)
                                   for c in r.coords.values())
                        qi = {i: qc.get(i, cell.coordinate(i))
                              for i in support}
                        for tau in all_bitstrings(n):
                            want = ProductCondition({
                                i: _expected_cell(p.coordinate(i), qi[i],
                                                  cols[k],
                                                  column(tau, k), COLUMN)
                                for k, i in enumerate(sbar)})
                            assert prod_equal(prod_restrict(r, tau, sbar),
                                              want)
                        assert prod_equal(prod_restrict(r, sigma, sbar),
                                          ProductCondition(qi))
                        assert prod_leq(r, p, n, sbar)
                if sigma:
                    q = prod_restrict(p, _flip_first(sigma), sbar)
                    with pytest.raises(AmalgamationError) as e:
                        prod_amalgamate(p, sigma, sbar, q)
                    assert str(e.value) == \
                        "q does not extend the restriction of p"


def test_amalgamation_bounds_hold_without_the_payload_checks():
    # a graft whose skeleton passes MAX_SKELETON_ENTRIES, on a single and
    # on a pair coordinate, alone and inside a product
    deep = F.restrict_cell(bits("0")).deepen(16)
    p = plain_iter([SINGLE, SINGLE], [F, F])
    q = plain_iter([SINGLE, SINGLE], [deep, F])
    pp = plain_iter([SINGLE, PAIR], [F, full_pair()])
    qp = plain_iter([SINGLE, PAIR], [F, PairCondition(F, deep)])
    for call in (lambda: iter_amalgamate(p, bits("0"), q),
                 lambda: iter_amalgamate(pp, bits(""), qp),
                 lambda: prod_amalgamate(ProductCondition({0: p}), bits("0"),
                                         [0], ProductCondition({0: q})),
                 lambda: prod_amalgamate(ProductCondition({0: pp}), bits(""),
                                         [0], ProductCondition({0: qp}))):
        with pytest.raises(ResourceError, match="skeleton entries; the "
                           "bound is 65536"):
            call()
    # complement rows: column 0 of sigma holds 105 bits, which coordinate
    # 0's 14 steps split as the iteration test above does
    sbar = list(range(width(5461)))
    fourteen = full_iter([SINGLE] * 14)
    prod = ProductCondition({i: fourteen for i in sbar})
    sigma = (0,) * 5461
    assert len(column(sigma, 0)) == 105
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="393129 complement rows; the "
                       "bound is 4096"):
        prod_amalgamate(prod, sigma, sbar, prod_restrict(prod, sigma, sbar))
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("call", [
    lambda p, sbar: prod_restrict(p, bits("010"), sbar),
    lambda p, sbar: prod_leq(p, p, 3, sbar),
    lambda p, sbar: prod_amalgamate(p, bits("010"), sbar, p),
], ids=["prod_restrict", "prod_leq", "prod_amalgamate"])
def test_sbar_entries_are_judged_as_keys(call):
    # 1 == True as a key, so the two name one coordinate; a list is no key
    p = ProductCondition({0: iter_of(T1), 1: iter_of(TP)})
    with pytest.raises(PreconditionError, match="pairwise distinct"):
        call(p, [1, True])
    with pytest.raises(PreconditionError, match="hashable"):
        call(p, [1, [0]])


def test_sbar_generator_is_read_once():
    p = ProductCondition({0: iter_of(T1), 1: iter_of(TP)})
    sigma = bits("101")
    for sbar in ([1, 0], [0, 1]):
        want = prod_restrict(p, sigma, sbar).to_json()
        assert prod_restrict(p, sigma, iter(sbar)).to_json() == want
        assert prod_restrict(p, sigma, (i for i in sbar)).to_json() == want


def test_sbar_that_is_not_iterable_is_refused():
    p = ProductCondition({0: iter_of(T1), 1: iter_of(TP)})
    for call in (lambda: prod_restrict(p, (), 5),
                 lambda: prod_leq(p, p, 0, 5),
                 lambda: prod_amalgamate(p, (), 5, p)):
        with pytest.raises(PreconditionError,
                           match="sbar must be an iterable of product "
                                 "indices, not int"):
            call()
    # prod_leq checks its level n before sbar, in the order of its
    # arguments, whether sbar is iterable or not
    for sbar in ([1, True], 5):
        with pytest.raises(ResourceError, match="prod_leq refuses level 17"):
            prod_leq(p, p, 17, sbar)


# -- the graded order of products against its definition ----------------------

def _prod_leq_by_definition(q, p, n, sbar):
    """The graded order as defined: restrict both products at every index
    of length n, distributed over sbar, and compare them."""
    return all(prod_extends(prod_restrict(q, sigma, sbar),
                            prod_restrict(p, sigma, sbar))
               for sigma in all_bitstrings(n))


def _outcome(call):
    try:
        return call()
    except EngineError as e:
        return type(e), str(e)


def _products(supports, iters):
    return [ProductCondition(dict(zip(support, conds)))
            for support in supports
            for conds in product(iters, repeat=len(support))]


def test_prod_leq_matches_its_definition_on_one_step_coordinates():
    iters = [iter_of(t) for t in SMALL]
    ps = _products([(0,), (1,), (0, 1)], iters)
    qs = _products([(), (0,), (1,), (0, 1)], iters)
    sbars = [[], [0], [1], [0, 1], [1, 0], [0, 1, 2]]
    counts = Counter()
    for q, p, n, sbar in product(qs, ps, range(4), sbars):
        want = _outcome(lambda: _prod_leq_by_definition(q, p, n, sbar))
        assert _outcome(lambda: prod_leq(q, p, n, sbar)) == want
        counts[want if isinstance(want, bool) else want[0]] += 1
    assert counts == {True: 6243, False: 56512, PreconditionError: 34013}


def _mismatch_cut(q, p):
    """q with p's own coordinate from the first one, in p's order, whose
    kinds differ from q's on: the coordinates before it decide alone."""
    order = list(p.coords)
    first = next(k for k, i in enumerate(order) if i in q.coords
                 and q.coordinate(i).kinds != p.coordinate(i).kinds)
    return ProductCondition({**q.coords,
                             **{i: p.coordinate(i) for i in order[first:]}})


def _iteration_pool():
    """Single iterations, length-2 iterations with a single or a pair
    second coordinate, and guarded versions of half of the latter."""
    pool = [iter_of(t) for t in SMALL]
    pool += [plain_iter([SINGLE, second], [t, pay])
             for t in SMALL[:3] for second, pay in
             [(SINGLE, u) for u in SMALL[:3]]
             + [(PAIR, PairCondition(u, F)) for u in SMALL[:3]]]
    return pool + [_conditional(c, COLUMN) for c in pool[len(SMALL)::2]]


def _guard_mutations(data, rng):
    """data, an iteration's JSON, and copies each broken one way: a guard
    key not below its coordinate, an empty address, a payload of the other
    kind, two rows with compatible guards, a table that is not exhaustive
    and a negative commitment key."""
    def broken(edit):
        clone = json.loads(json.dumps(data))
        edit(clone["coords"], rng.randrange(len(clone["coords"])))
        return clone

    def out_of_range(coords, beta):
        rng.choice(coords[beta])["guard"][str(beta + rng.randrange(2))] = "0"

    def other_kind(coords, beta):
        row = rng.choice(coords[beta])
        single = row["payload"].get("kind") != "pair"
        row["payload"] = (full_pair() if single else F).to_json()

    def compatible(coords, beta):
        coords[beta].append(rng.choice(coords[beta]))

    def not_exhaustive(coords, beta):
        if len(coords[beta]) > 1:
            del coords[beta][rng.randrange(len(coords[beta]))]
        else:
            coords[-1][0]["guard"]["0"] = "0"

    out = [data] + [broken(edit) for edit in
                    (out_of_range, other_kind, compatible, not_exhaustive)]
    if len(data["coords"]) > 1:
        out.append(broken(lambda coords, _: coords[1][0]["guard"].update(
            {"0": ""})))
    out.append(dict(data, context={str(-1 - rng.randrange(3)): "0"}))
    return out


def _decoded_then_constructed(data, name="condition"):
    """from_json's readers on each field, then the Python constructor."""
    schedule = schedule_from_json(data["schedule"], f"{name}.schedule")
    context = _int_keyed(data.get("context", {}), f"{name}.context")
    coords = json_list(data["coords"], f"{name}.coords", lambda table, at:
                       json_list(table, at, _row_from_json))
    return IterCondition(schedule, coords, GenericContext(context))


def test_the_iteration_decoder_and_constructor_agree():
    """from_json reads each guard and context once and hands them to the
    constructor's own check: on the iteration pool and on broken copies,
    both doors accept the same iteration or refuse with the same
    message, and a decoded iteration encodes to the JSON it came from."""
    rng = random.Random(2030)
    checks = ("guard mentions coordinate", "guard addresses must be nonempty",
              "is single but payload is", "is pair but payload is",
              "rows with compatible guards", "guards are not exhaustive",
              "a coordinate must be a natural number")
    refused = set()
    for cond in _iteration_pool():
        assert iter_equal(IterCondition.from_json(cond.to_json()), cond)
        assert IterCondition.from_json(cond.to_json()).to_json() == \
            cond.to_json()
        for data in _guard_mutations(cond.to_json(), rng):
            got = _outcome(lambda: IterCondition.from_json(data))
            want = _outcome(lambda: _decoded_then_constructed(data))
            if isinstance(want, IterCondition):
                assert got.to_json() == want.to_json(), data
                assert got.coords == want.coords
            else:
                assert got == want, data
                refused.update(m for m in checks if m in want[1])
    # every mutation met the check that it breaks
    assert refused == set(checks)


def test_prod_leq_matches_its_definition_on_pair_and_guarded_coordinates():
    pool = _iteration_pool()
    rng = random.Random(2024)
    counts = Counter()
    for _ in range(3000):
        support = rng.sample(range(4), rng.randint(1, 4))
        p = ProductCondition({i: rng.choice(pool) for i in support})
        q = {}
        for i in support + [rng.randrange(5)]:
            pi = p.coords.get(i, rng.choice(pool))
            pick = rng.randrange(6)
            if pick == 0:
                q[i] = rng.choice(pool)
            elif pick == 1:
                q[i] = _shrink(pi, rng.randrange(2))
            elif pick < 5:
                sigma = tuple(rng.randrange(2)
                              for _ in range(rng.randint(0, pi.length)))
                q[i] = iter_restrict(pi, sigma)
        q = ProductCondition(q)
        sbar = rng.sample(support, rng.randint(0, len(support)))
        if rng.randrange(5) == 0:
            sbar.insert(rng.randint(0, len(sbar)), 4)
        # mostly an n whose columns sbar can take
        n = rng.choice([m for m in range(5) if width(m) <= len(sbar)]
                       if rng.randrange(5) else range(5))
        want = _outcome(lambda: _prod_leq_by_definition(q, p, n, sbar))
        got = _outcome(lambda: prod_leq(q, p, n, sbar))
        if got != want:
            # the one corner where they differ: the definition meets a
            # kind mismatch at the first index, while prod_leq finishes
            # each coordinate first and finds an earlier one failing
            assert want[0] is IncompatibleError and got is False
            assert not _prod_leq_by_definition(_mismatch_cut(q, p), p, n,
                                               sbar)
            want = "corner"
        counts[want if not isinstance(want, tuple) else want[0]] += 1
    assert counts[True] and counts[False] and counts[IncompatibleError]
    assert counts["corner"]


def test_prod_extends_is_the_graded_order_at_level_0():
    # at level 0 every address is empty, so the graded order compares
    # rows in the plain order, whatever sbar lists: prod_extends agrees
    # with prod_leq(q, p, 0, sbar) for every sbar drawn from the support,
    # and with plain extension at each coordinate, a coordinate that q
    # lacks read as the full iteration
    pool = _iteration_pool()
    rng = random.Random(2028)
    counts = Counter()
    for _ in range(1000):
        support = rng.sample(range(4), rng.randint(1, 4))
        p = ProductCondition({i: rng.choice(pool) for i in support})
        q = {}
        for i in support + [rng.randrange(5)]:
            pi = p.coords.get(i, rng.choice(pool))
            pick = rng.randrange(4)
            if pick == 0:
                q[i] = rng.choice(pool)
            elif pick < 3:
                sigma = tuple(rng.randrange(2)
                              for _ in range(rng.randint(0, pi.length)))
                q[i] = iter_restrict(pi, sigma)
        q = ProductCondition(q)
        want = _outcome(lambda: all(
            iter_leq(q.coords.get(i, full_iter(cond.kinds)), cond)
            for i, cond in p.coords.items()))
        assert _outcome(lambda: prod_extends(q, p)) == want
        for r in range(len(support) + 1):
            for sbar in combinations(support, r):
                for order in (sbar, sbar[::-1]):
                    assert _outcome(lambda: prod_leq(q, p, 0, order)) == want
        counts[want if not isinstance(want, tuple) else want[0]] += 1
    assert counts[True] and counts[False] and counts[IncompatibleError]


def test_prod_leq_finishes_each_coordinate_before_the_next():
    # coordinate 0 passes at column value 0 and fails at 1; coordinate 1
    # holds iterations of different kinds.  Asked index by index, the
    # mismatch would be met at the first index; asked coordinate by
    # coordinate, coordinate 0 fails first.
    s1 = make_tree(1, {"": "0", "0": "00", "1": "010"})
    p = ProductCondition({0: iter_of(T1), 1: full_iter([SINGLE])})
    q = ProductCondition({0: iter_of(s1), 1: full_iter([SINGLE, PAIR])})
    assert iter_leq(iter_restrict(q.coordinate(0), bits("0")),
                    iter_restrict(p.coordinate(0), bits("0")))
    assert prod_leq(q, p, 1, [0]) is False
    with pytest.raises(IncompatibleError, match="kind mismatch"):
        _prod_leq_by_definition(q, p, 1, [0])
    with pytest.raises(IncompatibleError, match="kind mismatch"):
        prod_leq(q, ProductCondition({0: iter_of(s1), 1: p.coordinate(1)}),
                 1, [0])


# -- the graded order of iterations against its definition --------------------

def _iter_leq_n_by_definition(q, p, n, mode):
    """The graded order as defined: restrict both iterations at every
    index of length n and compare them."""
    return all(iter_leq(iter_restrict(q, sigma, mode),
                        iter_restrict(p, sigma, mode))
               for sigma in all_bitstrings(n))


def _iter_leq_n_outcome(q, p, n, mode):
    """iter_leq_n's outcome, asserted equal to the definition's, message
    included; an error outcome is counted by its class."""
    want = _outcome(lambda: _iter_leq_n_by_definition(q, p, n, mode))
    assert _outcome(lambda: iter_leq_n(q, p, n, mode)) == want, \
        (q.to_json(), p.to_json(), n, mode)
    return want if isinstance(want, bool) else want[0]


PAIRS = [PairCondition(a, b) for a, b in product(SMALL, repeat=2)]


def _has_guards(cond):
    return any(guard for table in cond.coords for guard, _ in table)


def test_iter_leq_n_matches_its_definition_on_small_iterations():
    plain = [[iter_of(t) for t in SMALL],
             [plain_iter([SINGLE, SINGLE], [a, b])
              for a, b in product(SMALL, repeat=2)],
             [plain_iter([SINGLE, PAIR], [F, pair]) for pair in PAIRS]]
    fulls = [full_iter(group[0].kinds) for group in plain]
    counts = Counter()
    for mode in (COLUMN, PAIRWISE):
        # a third of the two-step iterations also come with guarded rows
        groups = [plain[0]] + [
            conds + [_conditional(c, mode) for c in conds[::3]]
            for conds in plain[1:]]
        assert all(map(_has_guards, groups[1][49:] + groups[2][49:]))
        for group in groups:
            for q, p, n in product(group, group, range(4)):
                counts[_iter_leq_n_outcome(q, p, n, mode)] += 1
        # against an iteration of other kinds
        for q, group in product(fulls, groups):
            for p, n in product(group, range(4)):
                if q.kinds != p.kinds:
                    counts[_iter_leq_n_outcome(q, p, n, mode)] += 1
    assert counts == {True: 5278, False: 64565, IncompatibleError: 1494,
                      PreconditionError: 975}


def _random_guarded(rng, kinds, mode):
    """A plain iteration of these kinds over SMALL, amalgamated with finer
    conditions until some later coordinate carries guards."""
    p = plain_iter(kinds, [rng.choice(SMALL if kind == SINGLE else PAIRS)
                           for kind in kinds])
    top = 3 if mode == PAIRWISE else max(m for m in range(6)
                                         if width(m) <= len(kinds))
    while not _has_guards(p) or rng.randrange(3) == 0:
        size = rng.randint(1, top - 1)
        sigma = tuple(rng.randrange(2) for _ in range(size))
        ext = tuple(rng.randrange(2) for _ in range(rng.randint(1, top - size)))
        cell = iter_restrict(p, sigma + ext, mode)
        if rng.randrange(2):
            cell = _shrink(cell, rng.randrange(2))
        try:
            p = iter_amalgamate(p, sigma, cell, mode)
        except AmalgamationError:
            pass
    return p


def test_iter_leq_n_matches_its_definition_on_guarded_iterations():
    kinds_pool = [(SINGLE,) + rest for k in (1, 2)
                  for rest in product((SINGLE, PAIR), repeat=k)]
    rng = random.Random(2026)
    counts = Counter()
    for _ in range(3000):
        kinds = rng.choice(kinds_pool)
        mode = PAIRWISE if len(kinds) == 2 and rng.randrange(2) else COLUMN
        p = _random_guarded(rng, kinds, mode)
        pick = rng.randrange(6)
        if pick == 0:
            q = _random_guarded(rng, kinds, mode)
        elif pick == 1:
            q = _shrink(p, rng.randrange(2))
        elif pick == 2:
            q = _random_guarded(rng, rng.choice(kinds_pool), COLUMN)
        else:
            size = rng.randint(0, 4 if mode == PAIRWISE else 2 * len(kinds))
            sigma = tuple(rng.randrange(2) for _ in range(size))
            q = _outcome(lambda: iter_restrict(p, sigma, mode))
            if not isinstance(q, IterCondition):
                q = p
            elif pick > 3:
                q = iter_amalgamate(p, sigma, _shrink(q, rng.randrange(2)),
                                    mode)
        n = rng.randrange(5)
        counts[_iter_leq_n_outcome(q, p, n, mode)] += 1
    assert min(counts[True], counts[False]) >= 500
    assert counts[IncompatibleError] and counts[PreconditionError]


# -- amalgamation checks its precondition in place ----------------------------

def _random_bits(rng, size):
    return tuple(rng.randrange(2) for _ in range(size))


def _amalgamation_case(rng, kinds_pool):
    """p, sigma, q and mode for iter_amalgamate: p plain or conditional,
    q a restriction of p at sigma, at another index, at sigma with one
    bit flipped or deeper, cut down on either half, or an iteration of
    its own."""
    kinds = rng.choice(kinds_pool)
    mode = PAIRWISE if len(kinds) == 2 and rng.randrange(2) else COLUMN
    if rng.randrange(2):
        p = _random_guarded(rng, kinds, mode)
    else:
        p = plain_iter(kinds, [rng.choice(SMALL if kind == SINGLE else PAIRS)
                               for kind in kinds])
    # a long enough index has more columns than two coordinates take
    size = rng.randint(0, 4 if mode == PAIRWISE else 2 * len(kinds) + 2)
    sigma = _random_bits(rng, size)
    pick = rng.randrange(7)
    if pick == 5:
        q = _random_guarded(rng, kinds, mode)
    elif pick == 6:
        q = _random_guarded(rng, rng.choice(kinds_pool), COLUMN)
    else:
        # one flipped bit leaves the cell in one coordinate's address,
        # on one half of a pair
        flip = rng.randrange(size) if size else 0
        tau = (sigma if pick < 2 else _random_bits(rng, size) if pick == 2
               else sigma[:flip] + (1 - sigma[flip],) + sigma[flip + 1:]
               if pick == 3 and size
               else sigma + _random_bits(rng, rng.randint(1, 2)))
        q = _outcome(lambda: iter_restrict(p, tau, mode))
        if not isinstance(q, IterCondition):
            q = p
        elif pick:
            q = _shrink(q, rng.randrange(2), rng.randrange(2))
    return p, sigma, q, mode


def test_iter_amalgamate_refuses_exactly_off_its_precondition():
    # iter_amalgamate checks each grafted pair of rows in place, and no
    # restriction of p is built; it must refuse exactly the q that do not
    # extend that restriction, with the restriction's own errors first
    kinds_pool = [(SINGLE,) + rest for k in (1, 2)
                  for rest in product((SINGLE, PAIR), repeat=k)]
    rng = random.Random(2410)
    counts = Counter()
    for _ in range(3000):
        p, sigma, q, mode = _amalgamation_case(rng, kinds_pool)
        want = _outcome(lambda: iter_leq(q, iter_restrict(p, sigma, mode)))
        got = _outcome(lambda: iter_amalgamate(p, sigma, q, mode))
        case = (p.to_json(), sigma, q.to_json(), mode)
        if want is True:
            r = got
            assert isinstance(r, IterCondition), case
            assert _is_partition(r)
            assert iter_equal(iter_restrict(r, sigma, mode), q), case
            # a cell that leaves sigma's at coordinate 0 is p's; one that
            # leaves it later holds q's payloads on a frame of guards that
            # those payloads need not keep, so no law speaks of it
            for tau in all_bitstrings(len(sigma)):
                if tau[0::2] != sigma[0::2] if mode == PAIRWISE else \
                        column(tau, 0) != column(sigma, 0):
                    assert iter_equal(iter_restrict(r, tau, mode),
                                      iter_restrict(p, tau, mode)), case
            assert iter_leq_n(r, p, len(sigma), mode), case
        elif want is False:
            assert got == (AmalgamationError,
                           "q does not extend the sigma cell of p"), case
        else:
            assert got == want, case
        kind = PAIR if PAIR in p.kinds else SINGLE
        counts[kind, want if isinstance(want, bool) else want[0]] += 1
    for kind in (SINGLE, PAIR):
        assert min(counts[kind, True], counts[kind, False]) >= 200, counts
        assert counts[kind, IncompatibleError], counts
    assert counts[SINGLE, PreconditionError], counts


def test_amalgamation_refuses_a_bad_q_before_counting_rows():
    # q misses the sigma cell, and the amalgam would need 8191 complement
    # rows: the refusal comes first
    p = full_iter([SINGLE, SINGLE])
    sigma = (0,) * 26
    q = iter_restrict(p, (1,) + sigma[1:], PAIRWISE)
    with pytest.raises(AmalgamationError,
                       match="q does not extend the sigma cell of p"):
        iter_amalgamate(p, sigma, q, PAIRWISE)
    with pytest.raises(ResourceError, match="8191 complement rows"):
        iter_amalgamate(p, sigma, iter_restrict(p, sigma, PAIRWISE),
                        PAIRWISE)


def test_prod_amalgamate_checks_every_coordinate_before_grafting():
    # coordinate 0's graft passes the skeleton bound, coordinate 1's q
    # misses the cell or has other kinds: the refusal is coordinate 1's
    deep = F.restrict_cell(bits("0")).deepen(16)
    p0 = plain_iter([SINGLE, SINGLE], [F, F])
    q0 = plain_iter([SINGLE, SINGLE], [deep, F])
    p = ProductCondition({0: p0, 1: iter_of(TP)})
    for q1, error, message in (
            (iter_of(T1), AmalgamationError,
             "q does not extend the restriction of p"),
            (full_iter([SINGLE, PAIR]), IncompatibleError, "kind mismatch")):
        q = ProductCondition({0: q0, 1: q1})
        with pytest.raises(error, match=message):
            prod_amalgamate(p, (), [0, 1], q)
    q = ProductCondition({0: q0, 1: iter_of(TP)})
    with pytest.raises(ResourceError, match="skeleton entries"):
        prod_amalgamate(p, (), [0, 1], q)


def test_prod_amalgamate_refuses_exactly_off_its_precondition():
    # a coordinate that q lacks is the full iteration of p's kinds there,
    # on sbar and off it; prod_amalgamate must refuse exactly the q that
    # do not extend p's restriction, with the restriction's own errors
    pool = [iter_of(t) for t in SMALL]
    pool += [plain_iter([SINGLE, second], [t, pay])
             for t in SMALL[:3] for second, pay in
             [(SINGLE, u) for u in SMALL[:3]]
             + [(PAIR, PairCondition(u, F)) for u in SMALL[:3]]]
    pool += [_conditional(c, COLUMN) for c in pool[len(SMALL)::2]]
    # full iterations, so that a q that leaves one out can still fit
    pool += [full_iter(kinds) for kinds in
             ([SINGLE], [SINGLE, SINGLE], [SINGLE, PAIR])] * 3
    rng = random.Random(2425)
    counts = Counter()
    for _ in range(6000):
        support = rng.sample(range(4), rng.randint(1, 4))
        p = ProductCondition({i: rng.choice(pool) for i in support})
        sbar = rng.sample(support, rng.randint(0, len(support)))
        if rng.randrange(5) == 0:
            sbar.insert(rng.randint(0, len(sbar)), 4)  # outside p's support
        # mostly a sigma whose columns sbar can take
        sigma = _random_bits(rng, rng.choice(
            [m for m in range(5) if width(m) <= len(sbar)]
            if rng.randrange(5) else range(5)))
        cell = _outcome(lambda: prod_restrict(p, sigma, sbar))
        base = cell if isinstance(cell, ProductCondition) else p
        q = {}
        for i in support + [rng.randrange(5)]:
            pick = rng.randrange(6)
            if pick == 0:
                continue  # q lacks i
            qi = base.coords.get(i, rng.choice(pool))
            q[i] = (rng.choice(pool) if pick == 1 else
                    _shrink(qi, rng.randrange(2)) if pick == 2 else qi)
        q = ProductCondition(q)
        want = _outcome(lambda: prod_extends(q, prod_restrict(p, sigma,
                                                              sbar)))
        got = _outcome(lambda: prod_amalgamate(p, sigma, sbar, q))
        case = (p.to_json(), sigma, sbar, q.to_json())
        if want is True:
            assert isinstance(got, ProductCondition), case
            assert prod_equal(prod_restrict(got, sigma, sbar), q), case
        elif want is False:
            assert got == (AmalgamationError,
                           "q does not extend the restriction of p"), case
        else:
            assert got == want, case
        lacks = set(p.coords) - set(q.coords)
        counts[want if isinstance(want, bool) else want[0]] += 1
        if want is True:
            counts["lacks on sbar"] += bool(lacks & set(sbar))
            counts["lacks off sbar"] += bool(lacks - set(sbar))
    assert min(counts.values()) >= 50, counts
    assert counts[True] >= 500 and counts[False] >= 500, counts


# the refusals of a sigma with more nonempty columns than coordinates to
# take them: the outer one (sbar's entries, an iteration's coordinates)
# and, in products, the inner one (a column against its iteration)
WIDE = [
    ("iter_restrict", lambda: iter_restrict(iter_of(F), bits("000")), 2, 1),
    ("iter_restrict", lambda: iter_restrict(P2, bits("000000")), 3, 2),
    ("prod_restrict", lambda: prod_restrict(
        ProductCondition({0: iter_of(F)}), bits("000"), [0]), 2, 1),
    ("prod_restrict", lambda: prod_restrict(
        ProductCondition({0: iter_of(F), 1: iter_of(F)}), bits("0000"),
        [0, 1]), 2, 1),
    ("prod_leq", lambda: prod_leq(
        ProductCondition({0: iter_of(F), 1: iter_of(F)}),
        ProductCondition({0: P2, 1: iter_of(F)}), 4, [0, 1]), 2, 1),
    ("prod_leq", lambda: prod_leq(
        ProductCondition({0: P2, 1: iter_of(F)}),
        ProductCondition({0: P2, 1: iter_of(F)}), 7, [0, 1]), 3, 2),
]


@pytest.mark.parametrize("op, call, columns, length", WIDE,
                         ids=[f"{w[0]}-{i}" for i, w in enumerate(WIDE)])
def test_too_wide_sigmas_keep_their_refusals(op, call, columns, length):
    with pytest.raises(PreconditionError) as e:
        call()
    assert str(e.value) == (f"sigma has {columns} nonempty columns but "
                            f"only {length} coordinates take them")
