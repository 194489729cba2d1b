import copy
import json
import random
import time
from itertools import combinations, permutations, product
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sacksforcing import implicit
from sacksforcing.cli import main
from sacksforcing.errors import ParseError, PreconditionError, ResourceError
from sacksforcing.implicit import (MAX_NESTING, And, Eq, Exists,
                                   FinStructure, Forall, Iff, Implies, Member,
                                   Not, Or, Param, Pred, Var,
                                   eval_formula, formula_size, formula_text,
                                   free_vars, imp_levels, implicit_subsets,
                                   implicitly_defined_by,
                                   parse_formula, set_members, set_of,
                                   vn_levels)

S1 = FinStructure([0])           # just the empty set
S2 = FinStructure([0, 1])        # empty set and its singleton
EMPTY = FinStructure([])


# -- set codes ------------------------------------------------------------

def test_set_code_round_trip():
    for code in range(64):
        assert set_of(set_members(code)) == code


def test_set_members():
    assert set_members(0) == ()
    assert set_members(1) == (0,)
    assert set_members(6) == (1, 2)


def test_negative_codes_rejected():
    with pytest.raises(PreconditionError):
        set_members(-1)
    with pytest.raises(PreconditionError):
        set_of([0, -2])


def test_universes_refuse_with_precondition_errors():
    # a universe that is no iterable once raised a TypeError
    with pytest.raises(PreconditionError, match="^universe must be an "
                       "iterable of set codes, not int$"):
        FinStructure(5)


F0 = parse_formula("all x. S(x) <-> x = #0")


def test_iterable_arguments_are_read_once():
    # each argument is read into a tuple once, then checked, so a
    # generator gives what its list gives
    assert FinStructure(iter([1, 0])).universe == (0, 1)
    assert set_of(c for c in (0, 1)) == 3
    for params in ([1], [0]):
        want = implicitly_defined_by(S2, F0, params)
        assert want == frozenset(params)
        assert implicitly_defined_by(S2, F0, iter(params)) == want
        assert eval_formula(F0, S2, want, params=(c for c in params))
        assert not eval_formula(F0, S2, [], params=(c for c in params))


def test_set_of_refuses_a_value_that_is_not_iterable():
    # it once raised a bare TypeError
    with pytest.raises(PreconditionError, match="^members must be an "
                       "iterable of set codes, not int$"):
        set_of(5)


def test_a_structure_holds_only_int_codes():
    # True == 1 once let True pass as a member, and so as parameter 1
    assert 1 in FinStructure([1])
    assert True not in FinStructure([1])
    assert [0] not in FinStructure([0])
    with pytest.raises(PreconditionError,
                       match="^parameter True outside the universe$"):
        eval_formula(F0, FinStructure([1]), [1], params=[True])


@pytest.mark.parametrize("call, message", [
    (lambda: eval_formula(F0, S2, [], params=5),
     "params must be an iterable of set codes, not int"),
    (lambda: implicitly_defined_by(S2, F0, params=5),
     "params must be an iterable of set codes, not int"),
    (lambda: eval_formula(F0, S2, 5, params=[0]),
     "subset must be an iterable of set codes, not int"),
    (lambda: eval_formula(F0, S2, [], params=[[0]]),
     r"parameter \[0\] outside the universe"),
    (lambda: implicitly_defined_by(S2, F0, params=[[0]]),
     r"parameter \[0\] outside the universe"),
    (lambda: eval_formula(F0, S2, [[0]], params=[0]),
     r"subset element \[0\] outside the universe"),
], ids=["eval_formula params", "implicitly_defined_by params",
        "eval_formula subset", "eval_formula unhashable params",
        "implicitly_defined_by unhashable params",
        "eval_formula unhashable subset"])
def test_codes_that_are_no_set_codes_are_refused(call, message):
    # each of these once raised TypeError: no iterable, or unhashable
    with pytest.raises(PreconditionError, match=f"^{message}$"):
        call()


@pytest.mark.parametrize("member", [implicit.MAX_LEVEL_CODE_BITS, 10 ** 30])
def test_set_of_refuses_a_member_past_the_code_bound(member):
    # 10**30 once raised a bare OverflowError, and 2**40 a MemoryError;
    # the bound is the widest code that imp_levels builds
    with pytest.raises(ResourceError, match="^members must lie below 4096: "):
        set_of([0, member])
    assert set_of([0, 4095]) == 1 | 1 << 4095


# -- structures -----------------------------------------------------------

def test_structure_universe_sorted_and_distinct():
    assert FinStructure([3, 0, 1]).universe == (0, 1, 3)
    with pytest.raises(PreconditionError):
        FinStructure([1, 1])
    with pytest.raises(PreconditionError):
        FinStructure([-1])


def test_transitivity_is_flagged_not_required():
    # {∅, {{∅}}} skips {∅}: accepted
    skew = FinStructure([0, 2])
    assert skew.universe == (0, 2)


# -- parsing and printing -------------------------------------------------

def test_parse_examples():
    assert parse_formula("all x. S(x)") == Forall("x", Pred(Var("x")))
    assert parse_formula("all x.(S(x) <-> x = #0)") == Forall(
        "x", Iff(Pred(Var("x")), Eq(Var("x"), Param(0))))
    assert parse_formula("ex y. (y in x & !S(y))") == Exists(
        "y", And(Member(Var("y"), Var("x")), Not(Pred(Var("y")))))


def test_parse_precedence():
    f = parse_formula("!S(x) & S(y) | S(z)")
    assert f == Or(And(Not(Pred(Var("x"))), Pred(Var("y"))), Pred(Var("z")))
    f = parse_formula("S(x) -> S(y) -> S(z)")  # right associative
    assert f == Implies(Pred(Var("x")), Implies(Pred(Var("y")),
                                                Pred(Var("z"))))
    f = parse_formula("S(x) -> S(y) <-> S(z)")
    assert f == Iff(Implies(Pred(Var("x")), Pred(Var("y"))), Pred(Var("z")))
    x, y, z = Pred(Var("x")), Pred(Var("y")), Pred(Var("z"))
    # every other connective nests to the left
    for token, kind in [("&", And), ("|", Or), ("<->", Iff)]:
        f = parse_formula(f"S(x) {token} S(y) {token} S(z)")
        assert f == kind(kind(x, y), z)
        f = parse_formula(f"S(x) {token} S(y) {token} S(z) {token} S(x)")
        assert f == kind(kind(kind(x, y), z), x)
    f = parse_formula("S(x) | S(y) & S(z) | S(x)")
    assert f == Or(Or(x, And(y, z)), x)
    f = parse_formula("S(x) & S(y) | S(z) -> S(x) <-> S(y) -> S(z) -> S(x)"
                      " <-> S(y) & S(z) & S(x)")
    assert f == Iff(Iff(Implies(Or(And(x, y), z), x),
                        Implies(y, Implies(z, x))),
                    And(And(y, z), x))


def test_quantifier_takes_widest_scope():
    f = parse_formula("all x. S(x) & S(x)")
    assert f == Forall("x", And(Pred(Var("x")), Pred(Var("x"))))
    g = parse_formula("S(#0) & all x. S(x) | S(#0)")
    assert g == And(Pred(Param(0)),
                    Forall("x", Or(Pred(Var("x")), Pred(Param(0)))))


def test_parse_error_positions():
    with pytest.raises(ParseError) as e:
        parse_formula("all x. x")
    assert e.value.position == 8
    with pytest.raises(ParseError) as e:
        parse_formula("S(x")
    assert e.value.position == 3
    with pytest.raises(ParseError) as e:
        parse_formula("S(x) % S(y)")
    assert e.value.position == 5
    with pytest.raises(ParseError):
        parse_formula("all in. S(#0)")
    with pytest.raises(ParseError):
        parse_formula("S(#0) S(#0)")
    with pytest.raises(ParseError):
        parse_formula("")
    with pytest.raises(ParseError, match="bad character '%'") as e:
        parse_formula("S(x)\t% S(y)")
    assert e.value.position == 5
    with pytest.raises(ParseError, match="bad character '#'") as e:
        parse_formula("S(x) & S(#)")
    assert e.value.position == 9
    with pytest.raises(ParseError, match="bad character '#'") as e:
        parse_formula("#")
    assert e.value.position == 0
    # trailing whitespace is skipped, and the end of the text is its end
    assert parse_formula("S(x) \t\n") == Pred(Var("x"))
    with pytest.raises(ParseError, match="expected a term, found ''") as e:
        parse_formula("S(x) & \t ")
    assert e.value.position == 9


def test_parse_nesting_cap():
    deep = MAX_NESTING + 1
    for text in ["!" * deep + "S(#0)", "(" * deep + "S(#0)" + ")" * deep,
                 "all x. " * deep + "S(x)", "S(#0) -> " * deep + "S(#0)",
                 "S(#0) & " * deep + "S(#0)", "!" * 3000 + "S(#0)"]:
        with pytest.raises(ParseError, match="nested deeper"):
            parse_formula(text)
    # at the cap every walk over the formula still answers
    f = parse_formula("all x. " * MAX_NESTING + "S(x)")
    assert formula_size(f) == MAX_NESTING + 2
    assert implicitly_defined_by(S1, f) == {0}
    assert eval_formula(f, S1, {0})
    # formula_text parenthesizes each quantifier: half the cap parses back
    half = parse_formula("all x. " * (MAX_NESTING // 2) + "S(x)")
    assert parse_formula(formula_text(half)) == half
    flat = parse_formula("S(#0) & " * MAX_NESTING + "S(#0)")
    assert formula_size(flat) == 3 * MAX_NESTING + 2


# a chain is a run of one connective, and each connective nests its
# right operand one level deeper than the one before it in its chain; a
# connective of another level starts a new chain
@pytest.mark.parametrize("text, position", [
    ("S(#0) & " * 64 + "S(#0) | S(#0)", None),
    ("S(#0) | " + "S(#0) & " * 64 + "S(#0)", 520),
    ("S(#0) | " + "S(#0) & " * 63 + "S(#0)", None),
    (("S(#0) & " * 40 + "S(#0) | ") * 3 + "S(#0)", None),
    ("S(#0) -> " * 63 + "S(#0) & S(#0)", None),
    ("S(#0) -> " * 64 + "S(#0) & S(#0)", 584)])
def test_parse_nesting_cap_on_mixed_chains(text, position):
    assert MAX_NESTING == 64
    if position is None:
        parse_formula(text)
        return
    with pytest.raises(ParseError, match="nested deeper") as e:
        parse_formula(text)
    assert e.value.position == position


def test_formula_text_round_trip_examples():
    for text in ["all x. S(x)",
                 "all x. (S(x) <-> x = #0)",
                 "(S(#0) -> ex y. y in x)",
                 "!all x. !(x = #1 | S(x))"]:
        f = parse_formula(text)
        assert parse_formula(formula_text(f)) == f


_names = st.sampled_from(["x", "y", "z"])
_terms = st.one_of(st.builds(Var, _names),
                   st.builds(Param, st.integers(0, 3)))
_atoms = st.one_of(st.builds(Pred, _terms),
                   st.builds(Member, _terms, _terms),
                   st.builds(Eq, _terms, _terms))
_formulas = st.recursive(
    _atoms,
    lambda inner: st.one_of(
        st.builds(Not, inner),
        st.builds(And, inner, inner),
        st.builds(Or, inner, inner),
        st.builds(Implies, inner, inner),
        st.builds(Iff, inner, inner),
        st.builds(Forall, _names, inner),
        st.builds(Exists, _names, inner)),
    max_leaves=12)


@given(_formulas)
def test_text_parse_round_trip(f):
    assert parse_formula(formula_text(f)) == f


def test_formula_size():
    assert formula_size(parse_formula("S(#0)")) == 2
    assert formula_size(parse_formula("x in y")) == 3
    assert formula_size(parse_formula("!S(#0)")) == 3
    assert formula_size(parse_formula("all x. S(x)")) == 3
    assert formula_size(parse_formula("all x. (S(x) <-> x = #0)")) == 7


def test_free_vars():
    assert free_vars(parse_formula("ex y. (y in x & !S(y))")) == {"x"}
    assert free_vars(parse_formula("all x. S(x)")) == set()


@pytest.mark.parametrize("walk", [formula_size, free_vars, formula_text])
@pytest.mark.parametrize("f", [42, And(Pred(Var("x")), "S(x)")])
def test_walks_refuse_what_is_not_a_formula_node(walk, f):
    with pytest.raises(PreconditionError, match="^not a formula node: "):
        walk(f)


@pytest.mark.parametrize("walk", [formula_size, free_vars, formula_text])
@pytest.mark.parametrize("f", [Pred(Not(Pred(Var("x")))),
                               Member(Var("x"), Not(Pred(Var("x")))),
                               Eq(Param(0), 5)])
def test_walks_refuse_a_formula_or_value_where_a_term_belongs(walk, f):
    with pytest.raises(PreconditionError, match="^not a term: "):
        walk(f)


# -- evaluation -----------------------------------------------------------

def test_eval_basics():
    f = parse_formula("all x. S(x)")
    assert eval_formula(f, S2, {0, 1})
    assert not eval_formula(f, S2, {0})
    assert eval_formula(parse_formula("#0 in #1"), S2, (), params=(0, 1))
    assert not eval_formula(parse_formula("#0 in #1"), S2, (), params=(1, 0))
    assert eval_formula(parse_formula("ex x. !x = #0"), S2, (), params=(0,))


def test_eval_alpha_equivalence():
    f = parse_formula("all x. (S(x) -> ex y. x in y)")
    g = parse_formula("all u. (S(u) -> ex w. u in w)")
    for mask in range(4):
        subset = {c for c in (0, 1) if (mask >> c) & 1}
        assert eval_formula(f, S2, subset) == eval_formula(g, S2, subset)


def test_eval_shadowing():
    f = parse_formula("all x. ex x. S(x)")
    assert eval_formula(f, S2, {0})
    assert not eval_formula(f, S2, ())


def test_eval_domain_errors():
    with pytest.raises(PreconditionError):
        eval_formula(parse_formula("S(#0)"), S2, {5})
    with pytest.raises(PreconditionError):
        eval_formula(parse_formula("S(#0)"), S2, (), params=(7,))
    with pytest.raises(PreconditionError):
        eval_formula(parse_formula("S(#1)"), S2, (), params=(0,))
    with pytest.raises(PreconditionError):
        eval_formula(parse_formula("S(x)"), S2, ())
    # the whole formula is checked, also parts the evaluation skips
    with pytest.raises(PreconditionError, match="unbound variable 'x'"):
        eval_formula(parse_formula("(all y. y = y) | S(x)"), S1, ())
    with pytest.raises(PreconditionError, match="no parameter #5"):
        eval_formula(parse_formula("all x. S(#5)"), EMPTY, ())


def _nested(node, core, depth):
    for _ in range(depth):
        core = node(core)
    return core


@pytest.mark.parametrize("walk", [
    formula_size, free_vars, formula_text,
    lambda f: eval_formula(f, S1, (), params=(0,)),
    lambda f: implicitly_defined_by(S1, f, (0,))],
    ids=["formula_size", "free_vars", "formula_text", "eval_formula",
         "implicitly_defined_by"])
def test_walks_refuse_a_formula_nested_past_the_recursion_limit(walk):
    # MAX_NESTING bounds parsed text only; a chain built in Python once
    # made each walk raise a bare RecursionError
    f = _nested(Not, Pred(Param(0)), 5000)
    with pytest.raises(ResourceError, match="recursion limit$"):
        walk(f)


def test_eval_formula_refuses_quantifiers_nested_past_the_recursion_limit():
    # the reference evaluation takes two frames per quantifier
    f = _nested(lambda g: Exists("x", g), Pred(Var("x")), 600)
    with pytest.raises(ResourceError, match="recursion limit$"):
        eval_formula(f, S1, (0,))


# -- implicit definitions ---------------------------------------------------

def test_implicitly_defined_by():
    assert implicitly_defined_by(S1, parse_formula("all x. S(x)")) == {0}
    # a tautology is satisfied by every subset, so it pins down nothing
    assert implicitly_defined_by(S1, parse_formula("all x. x = x")) is None
    assert implicitly_defined_by(S1, parse_formula("!all x. x = x")) is None
    f = parse_formula("all x. (S(x) <-> x = #0)")
    assert implicitly_defined_by(S2, f, params=(0,)) == {0}
    assert implicitly_defined_by(S2, f, params=(1,)) == {1}


def test_implicitly_defined_by_checks_the_whole_formula():
    # each part an evaluation could skip is still checked
    with pytest.raises(PreconditionError, match="unbound variable 'x'"):
        implicitly_defined_by(S1, parse_formula("(all y. y = y) | S(x)"))
    with pytest.raises(PreconditionError, match="no parameter #5"):
        implicitly_defined_by(EMPTY, parse_formula("all x. S(#5)"))
    with pytest.raises(PreconditionError, match="unbound variable 'y'"):
        implicitly_defined_by(EMPTY, parse_formula("ex x. x in y"))
    with pytest.raises(PreconditionError, match="outside the universe"):
        implicitly_defined_by(S2, parse_formula("all x. S(x)"), params=(7,))
    with pytest.raises(PreconditionError, match="not a formula node"):
        implicitly_defined_by(S1, Or(parse_formula("all x. x = x"),
                                     Var("x")))
    with pytest.raises(PreconditionError, match="not a term"):
        implicitly_defined_by(S1, Forall("x", Pred(Pred(Var("x")))))


def test_formula_cost_bounds(monkeypatch):
    def nested(d):
        return parse_formula("".join(f"all v{i}. " for i in range(d))
                             + "S(#0)")
    # a table under d quantifiers over {0, 1} has 2**d * 4 bits
    monkeypatch.setattr(implicit, "MAX_TABLE_BITS", 64)
    assert implicitly_defined_by(S2, nested(4), (0,)) is None
    with pytest.raises(ResourceError, match="^128 table bits under 5 "
                       "quantifiers over 2 elements exceed the bound 64$"):
        implicitly_defined_by(S2, nested(5), (0,))
    # a table of 2**u bits is bounded too
    assert implicitly_defined_by(FinStructure(range(6)), nested(0), (0,)) \
        is None
    with pytest.raises(ResourceError, match="^128 table bits under 0 "):
        implicitly_defined_by(FinStructure(range(7)), nested(0), (0,))
    # eval_formula visits 2**d assignments under d quantifiers
    monkeypatch.setattr(implicit, "MAX_ASSIGNMENTS", 16)
    assert eval_formula(nested(4), S2, {0}, (0,))
    with pytest.raises(ResourceError, match="^32 assignments under 5 "
                       "quantifiers over 2 elements exceed the bound 16$"):
        eval_formula(nested(5), S2, {0}, (0,))
    # the first violation left to right raises
    with pytest.raises(PreconditionError, match="no parameter #3"):
        eval_formula(Or(Pred(Param(3)), nested(5)), S2, {0}, (0,))
    with pytest.raises(ResourceError):
        eval_formula(Or(nested(5), Pred(Param(3))), S2, {0}, (0,))


@pytest.mark.parametrize("universe, text, message", [
    ([0], "(all y. y = y) | S(x)", "unbound variable 'x'"),
    ([], "all x. S(#5)", "no parameter #5"),
])
def test_cli_implicitly_defined_by_rejects_bad_formula(
        tmp_path, capsys, universe, text, message):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"universe": universe, "formula": text}))
    assert main(["eval", "implicitly_defined_by", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("PreconditionError: ") and message in err


@pytest.mark.parametrize("universe, text, message", [
    ([0], "(all y. y = y) | S(x)", "unbound variable 'x'"),
    ([], "all x. S(#5)", "no parameter #5"),
])
def test_cli_eval_rejects_bad_formula(tmp_path, capsys, universe, text,
                                      message):
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"universe": universe, "formula": text,
                                "subset": []}))
    assert main(["eval", "eval", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("PreconditionError: ") and message in err


def _defined_by_loop(structure, f, params):
    """Reference: one eval_formula per subset."""
    universe = structure.universe
    subsets = [frozenset(c for j, c in enumerate(universe) if (mask >> j) & 1)
               for mask in range(1 << len(universe))]
    sats = [s for s in subsets if eval_formula(f, structure, s, params)]
    return sats[0] if len(sats) == 1 else None


_DIFFERENTIAL_FORMULAS = [
    "all x. S(x)",
    "ex x. !S(x)",
    "all x. ex x. S(x)",                       # re-bound name
    "all x. (S(x) -> ex x. !S(x))",            # ... used before re-binding
    "ex x. all y. S(#0)",                      # vacuous quantifiers
    "all x. (S(x) <-> all y. x = #1)",
    "all x. ex y. all z. (S(x) | y in z & !S(z))",
    "all x. (S(x) <-> ex y. ex z. (y in x & z in y & !y = z))",
    "all w. (S(w) <-> ex x. (x in w & ex y. (y in x | ex z. z = y)))",
    "(all x. (S(x) <-> x = #0)) & ex y. ex z. !y = z",
    "!ex x. ex y. x in y",
    "all x. all y. (S(x) & S(y) -> x = y) & ex z. S(z)",
]


def test_implicitly_defined_by_matches_per_subset_loop():
    unique = 0
    for structure in (EMPTY, S1, S2, FinStructure([0, 2]),
                      FinStructure([0, 1, 3])):
        u = structure.size
        params = tuple(structure.universe[k % u] for k in range(2)) \
            if u else ()
        for text in _DIFFERENTIAL_FORMULAS:
            if not u and "#" in text:
                continue
            f = parse_formula(text)
            want = _defined_by_loop(structure, f, params)
            assert implicitly_defined_by(structure, f, params) == want, \
                (structure.universe, text)
            unique += want is not None
    assert unique >= 20


_universes = st.sampled_from([(), (0,), (0, 1), (1, 2), (0, 1, 3),
                              (0, 2, 3)])


@settings(max_examples=300, deadline=None)
@given(_formulas, _universes, st.data())
def test_implicitly_defined_by_matches_per_subset_loop_random(
        f, universe, data):
    for v in sorted(free_vars(f)):
        f = data.draw(st.sampled_from([Forall, Exists]))(v, f)
    if universe:
        params = tuple(data.draw(st.sampled_from(universe))
                       for _ in range(4))
    else:
        assume("#" not in formula_text(f))
        params = ()
    structure = FinStructure(universe)
    assert implicitly_defined_by(structure, f, params) == \
        _defined_by_loop(structure, f, params)


def test_implicit_subsets_smallest_cases():
    assert implicit_subsets(EMPTY, 0) == {frozenset()}
    assert implicit_subsets(EMPTY, 11) == {frozenset()}
    assert implicit_subsets(S1, 1) == frozenset()
    assert implicit_subsets(S1, 2) == {frozenset({0})}
    assert implicit_subsets(S1, 3) == {frozenset(), frozenset({0})}


def test_implicit_subsets_two_element_structure():
    # minimal sizes over {∅, {∅}}: whole universe 3, empty 4, singletons 6
    assert implicit_subsets(S2, 2) == frozenset()
    assert implicit_subsets(S2, 3) == {frozenset({0, 1})}
    assert implicit_subsets(S2, 4) == {frozenset({0, 1}), frozenset()}
    assert implicit_subsets(S2, 5) == {frozenset({0, 1}), frozenset()}
    assert implicit_subsets(S2, 6) == {frozenset({0, 1}), frozenset(),
                                       frozenset({0}), frozenset({1})}


def test_implicit_subsets_monotone_in_budget():
    for structure in (S1, S2, FinStructure([0, 2])):
        prev = frozenset()
        for budget in range(9):
            cur = implicit_subsets(structure, budget)
            assert prev <= cur
            prev = cur


def test_implicit_subsets_four_element_structure():
    got = implicit_subsets(FinStructure([0, 1, 2, 3]), 7)
    assert sorted(set_of(s) for s in got) == [0, 1, 2, 3, 4, 8, 10, 12, 15]


def test_budget_cap():
    with pytest.raises(ResourceError):
        implicit_subsets(S2, 15)


def _syntactic_defined(structure, budget):
    """Independent oracle: enumerate every closed formula up to the
    budget over two variables plus one constant per element, and collect
    what each one implicitly defines."""
    universe = structure.universe
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
    for size in range(3, budget + 1):
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

    defined = set()
    for size, fs in by_size.items():
        for f in fs:
            if free_vars(f):
                continue
            got = implicitly_defined_by(structure, f, params=universe)
            if got is not None:
                defined.add(got)
    return frozenset(defined)


def test_enumerator_matches_syntactic_oracle():
    for structure in (S1, S2, FinStructure([0, 2]), FinStructure([1, 2])):
        for budget in (4, 5):
            assert implicit_subsets(structure, budget) == \
                _syntactic_defined(structure, budget)


def _reference_atom(structure, key):
    """_atom_table one assignment at a time: block n of the table is all
    ones where the relation holds under assignment n (slot 0 varies
    fastest), or the subsets that hold the Pred term's value."""
    width, kind, a, b = key
    universe = structure.universe
    nsub = 1 << len(universe)
    members = {c: sum(1 << s for s in range(nsub) if s >> j & 1)
               for j, c in enumerate(universe)}
    table = 0
    for n, vals in enumerate(product(universe, repeat=width)):
        vals = vals[::-1]
        x = vals[a] if a >= 0 else ~a
        if kind is Pred:
            block = members[x]
        else:
            y = vals[b] if b >= 0 else ~b
            holds = (y >> x) & 1 if kind is Member else x == y
            block = (1 << nsub) - 1 if holds else 0
        table |= block << (n * nsub)
    return table


def test_atom_tables_match_the_per_assignment_loop():
    count = 0
    for r in range(6):
        for universe in combinations(range(7), r):
            for width in range(4):
                structure = FinStructure(universe)
                terms = [*range(width), *(~c for c in universe)]
                for key in [(width, Pred, t, None) for t in terms] + [
                        (width, kind, a, b) for kind in (Member, Eq)
                        for a in terms for b in terms]:
                    assert implicit._atom_table(structure, key) == \
                        _reference_atom(structure, key), (universe, key)
                    count += 1
    assert count > 27000
    # a table of MAX_TABLE_BITS bits: 4**7 assignments of 2**4 subsets
    wide = FinStructure([0, 1, 2, 5])
    assert 4 ** 7 << 4 == implicit.MAX_TABLE_BITS
    for key in ((7, Pred, 6, None), (7, Member, 0, 6), (7, Member, 3, 3),
                (7, Eq, 5, 2), (7, Member, ~2, 4), (7, Eq, 1, ~1)):
        assert implicit._atom_table(wide, key) == \
            _reference_atom(wide, key), key


def _reference_classes(structure, budget, nvars=None):
    """The enumerator before free-slot masks, saturation and the memo:
    every formula class over a nonempty structure up to the budget,
    as a map from table to smallest size, and the table fold of a
    universal quantifier.  Kept as the reference that implicit_subsets
    is tested against.  nvars, the variable slots, defaults to the
    enumerator's pool for the budget."""
    universe = structure.universe
    u = len(universe)
    if nvars is None:
        nvars = implicit._var_pool(budget)
    nsub = 1 << u
    nasg = u ** nvars
    full = (1 << (nasg * nsub)) - 1
    strides = [u ** i * nsub for i in range(nvars)]
    slot_masks = [[sum(((1 << nsub) - 1) << (a * nsub) for a in range(nasg)
                       if (a // u ** i) % u == k) for k in range(u)]
                  for i in range(nvars)]

    def fold(t, i, op, start):
        folded = start
        for k in range(u):
            folded = op(folded, (t & slot_masks[i][k]) >> (k * strides[i]))
        out = 0
        for k in range(u):
            out |= folded << (k * strides[i])
        return out

    def forall(t, i):
        return fold(t, i, int.__and__, full)

    def exists(t, i):
        return fold(t, i, int.__or__, 0)

    classes = {}
    by_size = {}

    def add(table, size):
        if table not in classes:
            classes[table] = size
            by_size.setdefault(size, []).append(table)

    atom = _reference_atom
    terms = list(range(nvars)) + [~c for c in universe]
    if budget >= 2:
        for tm in terms:
            add(atom(structure, (nvars, Pred, tm, None)), 2)
    if budget >= 3:
        for t1 in terms:
            for t2 in terms:
                add(atom(structure, (nvars, Member, t1, t2)), 3)
                add(atom(structure, (nvars, Eq, t1, t2)), 3)
    for size in range(3, budget + 1):
        for t in by_size.get(size - 1, []):
            add(~t & full, size)
            for i in range(nvars):
                add(forall(t, i), size)
                add(exists(t, i), size)
        for s1 in range(2, (size - 1) // 2 + 1):
            for t1 in by_size.get(s1, []):
                for t2 in by_size.get(size - 1 - s1, []):
                    add(t1 & t2, size)
                    add(t1 | t2, size)
                    add((~t1 | t2) & full, size)
                    add((~t2 | t1) & full, size)
                    add(~(t1 ^ t2) & full, size)
    return classes, forall


def _reference_subsets(structure, budget, nvars=None):
    universe = structure.universe
    u = len(universe)
    if u == 0:
        return frozenset({frozenset()})
    if nvars is None:
        nvars = implicit._var_pool(budget)
    classes, forall = _reference_classes(structure, budget, nvars)
    defined = set()
    for table in classes:
        if any(forall(table, i) != table for i in range(nvars)):
            continue  # open formula; its closures were enumerated too
        family = table & ((1 << (1 << u)) - 1)
        if family and family & (family - 1) == 0:
            s = family.bit_length() - 1
            defined.add(frozenset(universe[j] for j in range(u)
                                  if (s >> j) & 1))
    return frozenset(defined)


def _fresh_subsets(structure, budget):
    implicit._memo.clear()
    return implicit_subsets(structure, budget)


def test_enumerator_matches_reference():
    reference = {}
    for r in range(5):
        for universe in combinations(range(5), r):
            for budget in range(9):
                want = _reference_subsets(FinStructure(universe), budget)
                reference[universe, budget] = want
                assert _fresh_subsets(FinStructure(universe), budget) == \
                    want, (universe, budget)
    for budget in range(10):
        levels = [frozenset()]
        for _ in range(4):
            universe = tuple(sorted(levels[-1]))
            if (universe, budget) not in reference:
                reference[universe, budget] = _reference_subsets(
                    FinStructure(universe), budget)
            levels.append(frozenset(set_of(s) for s in
                                    reference[universe, budget]))
        for n in range(1, 5):
            implicit._memo.clear()
            assert imp_levels(n, budget) == levels[:n + 1], (n, budget)


def test_enumerator_classes_match_reference():
    # the answers alone hardly see a lost class: most subsets have many
    # defining formulas, and a parameter can stand for any free variable
    for universe in ((0,), (0, 1), (1, 3), (0, 1, 2), (0, 2, 3),
                     (0, 1, 2, 3)):
        for budget in range(9 if len(universe) < 4 else 8):
            structure = FinStructure(universe)
            classes, forall = _reference_classes(structure, budget)
            got = list(implicit._tables(structure, budget))
            assert {t for t, _ in got} == set(classes), (universe, budget)
            for t, free in got:
                for i in range(implicit._var_pool(budget)):
                    if not (free >> i) & 1:
                        assert forall(t, i) == t, (universe, budget, free)


def test_enumerator_pool_of_three_matches_reference():
    # budget 10 brings in the third variable: there a third of the
    # classes are negations that are never operands, and most last-size
    # tables are never built because their family is not wanted
    def single(family):
        return family and family & (family - 1) == 0

    def third(family):
        return family % 3 == 0

    for universe, budgets in (((0, 1, 2), (9, 10)), ((0, 2, 3), (9, 10)),
                              ((0, 1, 2, 3), (9, 10))):
        structure = FinStructure(universe)
        submask = (1 << (1 << len(universe))) - 1
        for budget in budgets:
            classes, forall = _reference_classes(structure, budget)
            got = list(implicit._tables(structure, budget))
            assert {t for t, _ in got} == set(classes), (universe, budget)
            for t, free in got:
                for i in range(implicit._var_pool(budget)):
                    if not (free >> i) & 1:
                        assert forall(t, i) == t, (universe, budget, free)
            # a family filter lets exactly its last-size classes through
            for wanted in (single, third):
                want = {t for t, size in classes.items()
                        if size < budget or wanted(t & submask)}
                assert {t for t, _ in implicit._tables(
                    structure, budget, wanted)} == want, (universe, budget)
            assert _fresh_subsets(structure, budget) == \
                _reference_subsets(structure, budget), (universe, budget)


def test_budget_nine_needs_no_third_slot():
    # the proof at _var_pool: up to size 9 a third slot defines nothing new
    assert implicit._var_pool(9) == 2
    for r in range(5):
        for universe in combinations(range(5), r):
            structure = FinStructure(universe)
            assert _fresh_subsets(structure, 9) == \
                _reference_subsets(structure, 9, nvars=3), universe


def test_four_free_variables_at_size_thirteen_define_no_proper_subset():
    # step 4 of the proof at _var_pool: the one sentence of size <= 13 whose
    # subformula has four free variables is Q Q Q Q over S(a), R(b, c) and
    # S(d) joined by two connectives; it defines only the empty set, only
    # the universe, or no single subset.  Leaves are taken up to the order
    # of symmetric operands, with both directions of ->; b, c take every
    # quantifier order, a comes before d (renaming swaps them)
    a, b, c, d = (Var(v) for v in "abcd")
    connectives = (And, Or, Iff, Implies, lambda x, y: Implies(y, x))
    cores = []
    for relation in (Member(b, c), Eq(b, c)):
        s_a, s_d = Pred(a), Pred(d)
        for alone, x, y in ((s_a, relation, s_d), (relation, s_a, s_d),
                            (s_d, s_a, relation)):
            for outer, inner in product(connectives, repeat=2):
                cores.append(outer(alone, inner(x, y)))
    assert all(formula_size(core) == 9 and len(free_vars(core)) == 4
               for core in cores)
    prefixes = [list(zip(kinds, order))
                for order in permutations("abcd")
                if order.index("a") < order.index("d")
                for kinds in product((Forall, Exists), repeat=4)]
    for universe in ((0, 1), (2, 3), (0, 1, 2), (0, 1, 3)):
        structure = FinStructure(universe)
        defined = set()
        for core in cores:
            for prefix in prefixes:
                f = core
                for kind, var in reversed(prefix):
                    f = kind(var, f)
                defined.add(implicitly_defined_by(structure, f))
        assert defined == {None, frozenset(), frozenset(universe)}, universe


def _membership_isomorphisms(a, b):
    # every bijection of universe a onto universe b that keeps membership
    for image in permutations(b) if len(a) == len(b) else ():
        if all((y >> x & 1) == (image[j] >> image[i] & 1)
               for i, x in enumerate(a) for j, y in enumerate(a)):
            yield dict(zip(a, image))


def test_implicit_subsets_are_invariant_under_membership_isomorphism():
    # the answers depend only on the membership graph of the universe, so
    # relabeling codes, which moves every atom table, maps them onto each
    # other: each universe of at most 4 codes from {0..7} against the
    # first universe found isomorphic to it, by every isomorphism
    implicit._memo.clear()
    classes = []        # [(representative, [(universe, isomorphisms)])]
    for r in range(5):
        for universe in combinations(range(8), r):
            for first, members in classes:
                maps = list(_membership_isomorphisms(first, universe))
                if maps:
                    members.append((universe, maps))
                    break
            else:
                classes.append((universe, []))
    assert len(classes) == 28
    found = {(first, universe): maps
             for first, members in classes for universe, maps in members}
    assert {0: 1, 1: 2} in found[(0, 1), (1, 2)]
    assert {0: 1, 1: 2, 2: 4, 3: 6} in found[(0, 1, 2, 3), (1, 2, 4, 6)]

    def agree(first, universe, maps, budgets):
        maps = list(maps)
        assert maps, (first, universe)
        for budget in budgets:
            want = implicit_subsets(FinStructure(first), budget)
            got = implicit_subsets(FinStructure(universe), budget)
            for m in maps:
                assert got == frozenset(frozenset(m[x] for x in s)
                                        for s in want), (universe, budget, m)

    for first, members in classes:
        agree(first, first, _membership_isomorphisms(first, first), range(10))
        for universe, maps in members:
            agree(first, universe, maps, range(10))
    # a few pairs of three codes on three slots, run afresh: each answers
    # every subset from budget 8 on, and the run stops there
    implicit._memo.clear()
    for first, universe in (((0, 1, 2), (1, 2, 4)), ((0, 1, 3), (1, 2, 6)),
                            ((0, 2, 3), (0, 1, 4))):
        agree(first, universe, _membership_isomorphisms(first, universe),
              (10, 11))


def test_saturated_budget_answers_a_larger_one(monkeypatch):
    implicit._memo.clear()
    powerset = implicit_subsets(S2, 6)
    assert len(powerset) == 4
    calls = []
    enumerate_ = implicit._enumerate

    def counted(structure, budget):
        calls.append((structure.universe, budget))
        return enumerate_(structure, budget)

    monkeypatch.setattr(implicit, "_enumerate", counted)
    assert implicit_subsets(S2, 9) is powerset
    assert calls == []
    # an answer short of every subset does not stand for a larger budget
    v3 = FinStructure([0, 1, 2, 3])
    assert len(implicit_subsets(v3, 8)) < 16
    implicit_subsets(v3, 9)
    assert calls == [(v3.universe, 8), (v3.universe, 9)]


def test_enumerator_saturates_on_v3():
    v3 = FinStructure([0, 1, 2, 3])
    powerset = frozenset(frozenset(c for c in range(4) if (s >> c) & 1)
                         for s in range(16))
    for budget in (11, 12, 13):
        assert _fresh_subsets(v3, budget) == powerset
    start = time.perf_counter()
    assert _fresh_subsets(v3, 14) == powerset
    assert time.perf_counter() - start < 10


def test_cli_implicit_subsets_at_the_budget_cap(tmp_path, capsys):
    implicit._memo.clear()
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"universe": [0, 1, 2, 3], "budget": 14}))
    assert main(["eval", "implicit_subsets", str(path)]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 16


def test_budget_cap_is_checked_before_the_memo(monkeypatch):
    monkeypatch.setitem(implicit._memo, S2.universe, SimpleNamespace(
        answers={15: frozenset()}, run=None))
    with pytest.raises(ResourceError):
        implicit_subsets(S2, 15)


def test_memo_is_keyed_by_universe_and_bounded():
    implicit._memo.clear()
    first = implicit_subsets(FinStructure([1, 2, 0]), 6)
    again = implicit_subsets(FinStructure([0, 1, 2]), 6)
    assert again == first and again is first
    for code in range(2 * implicit._MEMO_ENTRIES):
        implicit_subsets(FinStructure([code]), 3)
    assert len(implicit._memo) == implicit._MEMO_ENTRIES
    assert (2 * implicit._MEMO_ENTRIES - 1,) in implicit._memo


def _count_enumerations(monkeypatch):
    calls = []
    enumerate_ = implicit._enumerate

    def counted(structure, budget):
        calls.append((structure.universe, budget))
        return enumerate_(structure, budget)

    monkeypatch.setattr(implicit, "_enumerate", counted)
    return calls


def test_one_enumeration_answers_smaller_budgets_on_its_slots(monkeypatch):
    # a budget-b run completes each smaller size s as a budget-s run on
    # its slots would, and those define no more subsets at size s than
    # _var_pool(s) slots do, so every smaller budget is answered with it
    calls = _count_enumerations(monkeypatch)
    for r in range(5):
        for universe in combinations(range(5), r):
            structure = FinStructure(universe)
            runs = [(9, range(2, 9)), (4, (2, 3))]
            if r <= 3:
                runs.append((11, range(2, 11)))
            for budget, smaller in runs:
                implicit._memo.clear()
                implicit_subsets(structure, budget)
                del calls[:]
                got = {b: implicit_subsets(structure, b) for b in smaller}
                assert calls == [], (universe, budget)
                for b in smaller:
                    assert got[b] == _fresh_subsets(structure, b), \
                        (universe, budget, b)
    # a budget on fewer slots is answered as its own reference answers it
    structure = FinStructure([0, 1, 2])
    for first, then in ((9, 4), (10, 9)):
        implicit._memo.clear()
        implicit_subsets(structure, first)
        del calls[:]
        assert implicit_subsets(structure, then) == \
            _reference_subsets(structure, then)
        assert calls == []


def test_an_answer_of_every_subset_answers_every_larger_budget(monkeypatch):
    # the run that first defines every subset puts that one answer on
    # every budget up to the cap, so no larger budget enumerates again
    calls = _count_enumerations(monkeypatch)
    for universe, full in (((0, 1), 6), ((0, 1, 2), 8)):
        structure = FinStructure(universe)
        implicit._memo.clear()
        answer = implicit_subsets(structure, full)
        assert len(answer) == 1 << len(universe)
        assert len(implicit_subsets(structure, full - 1)) < len(answer)
        del calls[:]
        for budget in range(full, implicit.MAX_BUDGET + 1):
            assert implicit_subsets(structure, budget) is answer
        assert calls == []


def test_tables_report_each_stored_size_once_it_is_built():
    structure = FinStructure([0, 1])
    for budget in (0, 2, 4, 7):
        classes, _ = _reference_classes(structure, budget)
        events = []
        for t, _ in implicit._tables(
                structure, budget, done=lambda s: events.append(("done", s))):
            events.append(("table", t))
        assert [s for kind, s in events if kind == "done"] == \
            list(range(2, budget)), budget
        # a stored size's classes all come before its report, and the
        # next size's all after it
        size = 1
        for kind, x in events:
            if kind == "done":
                size = x
            elif size + 1 < budget:
                assert classes[x] == size + 1, (budget, size)
        assert [x for kind, x in events if kind == "table"] == \
            [t for t, _ in implicit._tables(structure, budget)]


def test_recorded_sizes_keep_a_full_memo_bounded():
    implicit._memo.clear()
    for code in range(implicit._MEMO_ENTRIES):
        implicit_subsets(FinStructure([code]), 0)
    structure = FinStructure([0, 1, 2])
    implicit_subsets(structure, 6)      # a new record, budgets 0-6
    implicit_subsets(S2, 3)             # another, 0-3
    implicit_subsets(structure, 9)      # the first gains 7-9
    assert len(implicit._memo) == implicit._MEMO_ENTRIES
    # the record a run adds to is newest, and one went per new record
    assert list(implicit._memo)[-2:] == [S2.universe, structure.universe]
    # it answers every subset from budget 8 on, and that answer is put on
    # every budget up to the cap
    record = implicit._memo[structure.universe]
    assert list(record.answers) == list(range(implicit.MAX_BUDGET + 1))
    assert len(record.answers[7]) < 8 == len(record.answers[8])
    assert (1,) not in implicit._memo
    assert (2,) in implicit._memo


def test_refused_run_remembers_nothing():
    implicit._memo.clear()
    implicit_subsets(S2, 3)
    # records change in place, so the snapshot is a deep copy
    before = copy.deepcopy(implicit._memo)
    assert implicit._memo[S2.universe].run[0] == 1
    with pytest.raises(ResourceError):
        implicit_subsets(FinStructure(range(20)), 4)
    with pytest.raises(ResourceError):
        implicit_subsets(FinStructure(range(9)), 10)
    assert implicit._memo == before


def test_larger_budget_continues_the_kept_sizes():
    implicit._memo.clear()
    v3 = FinStructure([0, 1, 2, 3])
    implicit_subsets(v3, 6)
    record = implicit._memo[v3.universe]
    nvars, by_size, seen, found = record.run
    assert nvars == 2 and list(by_size) == [2, 3, 4, 5]
    assert list(record.answers) == list(range(7))
    implicit_subsets(v3, 9)
    # the same run grew by the sizes it lacked
    assert record.run[1] is by_size
    assert list(by_size) == list(range(2, 9))
    assert list(record.answers) == list(range(10))


def test_continued_runs_match_fresh_runs():
    # each universe's budgets asked in three orders, the memo cleared
    # between calls, so that each call enumerates and continues whatever
    # run the earlier calls kept; a smaller budget runs afresh
    def fresh(universe, budget):
        implicit._memo.clear()
        return implicit_subsets(FinStructure(universe), budget)

    asked = {universe: range(10)
             for r in range(5) for universe in combinations(range(5), r)}
    asked.update(dict.fromkeys(((0, 1, 2), (0, 2, 3), (1, 2, 4)),
                               range(10, 12)))
    want = {(universe, budget): fresh(universe, budget)
            for universe, budgets in asked.items() for budget in budgets}
    rng = random.Random(17)
    for order in ("increasing", "decreasing", "shuffled"):
        implicit._memo.clear()
        for universe, budgets in asked.items():
            budgets = list(budgets)
            if order == "decreasing":
                budgets.reverse()
            elif order == "shuffled":
                rng.shuffle(budgets)
            for budget in budgets:
                _forget_answers()
                assert implicit_subsets(FinStructure(universe), budget) == \
                    want[universe, budget], (order, universe, budget)


def test_saturated_run_keeps_nothing():
    implicit._memo.clear()
    implicit_subsets(S2, 5)
    record = implicit._memo[S2.universe]
    assert record.run[0] == 2
    # budget 6 defines every subset of S2 and stops before its last size;
    # the run it continued is gone with it, and the answers stay
    assert len(implicit_subsets(S2, 6)) == 4
    assert record.run is None
    assert list(record.answers) == list(range(implicit.MAX_BUDGET + 1))
    assert len(record.answers[5]) < 4 == len(record.answers[6])


def _forget_answers():
    # every record's answers go and its kept run stays, so that the next
    # call enumerates and continues that run
    for record in implicit._memo.values():
        record.answers.clear()


def _kept_runs():
    return {universe: record.run for universe, record in implicit._memo.items()
            if record.run is not None}


def _kept_bits():
    # the classes each kept run holds times their table bits
    return sum(len(seen) * (len(universe) ** nvars << len(universe))
               for universe, (nvars, _, seen, _) in _kept_runs().items())


def test_kept_runs_stay_within_their_bound():
    implicit._memo.clear()
    universes = list(combinations(range(8), 4))
    for universe in universes:
        implicit_subsets(FinStructure(universe), 8)
        assert _kept_bits() <= implicit._RUN_BITS, universe
    assert universes[-1] in _kept_runs()
    assert universes[0] not in _kept_runs()
    # the oldest records dropped their runs and kept their answers
    assert all(list(implicit._memo[universe].answers) == list(range(9))
               for universe in universes)
    # a run past the bound alone is not kept, and drops nothing
    before = _kept_runs()
    implicit_subsets(FinStructure([0, 1, 2, 3]), 10)
    assert _kept_runs() == before


def test_kept_runs_drop_the_oldest_first(monkeypatch):
    implicit._memo.clear()
    # three universes of two codes, none a member of another, so their
    # runs are equal in size: the bound holds two of them
    universes = [(2, 3), (4, 5), (6, 7)]
    implicit_subsets(FinStructure(universes[0]), 5)
    bits = _kept_bits()
    monkeypatch.setattr(implicit, "_RUN_BITS", 2 * bits)
    for universe in universes[1:]:
        implicit_subsets(FinStructure(universe), 5)
    assert list(_kept_runs()) == universes[1:]
    assert _kept_bits() == 2 * bits
    assert list(implicit._memo) == universes


def test_a_smaller_pool_run_is_replaced(monkeypatch):
    # budget 7 keeps a run on two slots; budget 10 runs on three, so it
    # starts afresh and replaces it; budget 8 is then answered by that run
    calls = _count_enumerations(monkeypatch)
    implicit._memo.clear()
    v3 = FinStructure([0, 1, 2, 3])
    got = {budget: implicit_subsets(v3, budget) for budget in (7, 10, 8)}
    assert calls == [(v3.universe, 7), (v3.universe, 10)]
    assert implicit._memo[v3.universe].run is None     # past _RUN_BITS
    for budget, answer in got.items():
        assert answer == _fresh_subsets(v3, budget), budget


# -- hierarchies -----------------------------------------------------------

def test_first_level_at_any_budget():
    want = [frozenset(), frozenset({0})]
    for budget in (0, 2, 5, 11):
        assert imp_levels(1, budget) == want


def test_levels_are_subsets_of_powersets():
    for budget in (0, 3, 6, 9):
        levels = imp_levels(3, budget)
        for k in range(1, len(levels)):
            for code in levels[k]:
                assert set(set_members(code)) <= levels[k - 1]


def test_levels_match_ranks_with_enough_budget():
    assert imp_levels(3, 6) == vn_levels(3)


def test_level_four_budget_progression():
    # one more budget point completes the fourth level: at ten, exactly
    # the two "diagonal" pairs are still missing
    short = imp_levels(4, 10)
    assert sorted(set(range(16)) - set(short[4])) == [6, 9]
    assert imp_levels(4, 11) == vn_levels(4)


def test_level_universe_cap():
    with pytest.raises(ResourceError) as e:
        imp_levels(5, 11)
    assert "level 5" in str(e.value)


@pytest.mark.parametrize("universe, budget, bits", [
    (range(20), 4, 20 * 2 ** 20),        # one slot
    (range(9), 10, 9 ** 3 * 2 ** 9),     # three slots: 373,248 bits
])
def test_enumerator_refuses_wide_tables(tmp_path, capsys, universe, budget,
                                        bits):
    start = time.perf_counter()
    with pytest.raises(ResourceError) as e:
        implicit_subsets(FinStructure(universe), budget)
    assert f"{bits} table bits" in str(e.value)
    assert str(implicit.MAX_TABLE_BITS) in str(e.value)
    path = tmp_path / "payload.json"
    path.write_text(json.dumps({"universe": list(universe),
                                "budget": budget}))
    assert main(["eval", "implicit_subsets", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"ResourceError: {bits} table bits")
    assert "262144" in err
    assert time.perf_counter() - start < 2


def test_level_five_at_budget_seven_matches_reference():
    levels = imp_levels(5, 7)
    carrier = FinStructure(levels[4])
    assert carrier.size == 9
    assert levels[5] == {set_of(s) for s in _reference_subsets(carrier, 7)}
    assert len(levels[5]) == 19


def test_levels_name_the_level_they_stop_at():
    with pytest.raises(ResourceError) as e:
        imp_levels(6, 7)
    assert str(e.value).startswith("level 6 would hold set codes of ")
    for budget in range(8, 15):
        start = time.perf_counter()
        with pytest.raises(ResourceError) as e:
            imp_levels(5, budget)
        assert str(e.value).startswith("level 5: "), budget
        assert "table bits" in str(e.value)
        assert time.perf_counter() - start < 2


def test_level_count_and_code_caps():
    start = time.perf_counter()
    for budget in (0, 2):
        with pytest.raises(ResourceError) as e:
            imp_levels(2 ** 64, budget)
        assert "n = 18446744073709551616" in str(e.value)
        assert str(implicit.MAX_LEVELS) in str(e.value)
    # budgets 0 and 1 alternate, up to the cap
    assert imp_levels(implicit.MAX_LEVELS, 0)[-2:] == [frozenset({0}),
                                                       frozenset()]
    # budget 2 climbs a tower: {0}, {1}, {2}, {4}, {16}, {65536}, ...
    assert imp_levels(6, 2)[-1] == {65536}
    with pytest.raises(ResourceError) as e:
        imp_levels(7, 2)
    assert "level 7 would hold set codes of 65537 bits" in str(e.value)
    assert time.perf_counter() - start < 2


@pytest.mark.parametrize("n", [0, 2])
def test_levels_check_the_budget_up_front(n):
    for budget in ("x", -1, 1.5, True):
        with pytest.raises(PreconditionError,
                           match="^budget must be a natural number$"):
            imp_levels(n, budget)
    for budget in (implicit.MAX_BUDGET + 1, 99):
        with pytest.raises(ResourceError) as e:
            imp_levels(n, budget)
        assert str(e.value).startswith(
            f"budget {budget} exceeds {implicit.MAX_BUDGET}, ")


def test_vn_levels():
    levels = vn_levels(4)
    assert [len(lv) for lv in levels] == [0, 1, 2, 4, 16]
    assert levels[2] == {0, 1}
    assert levels[3] == {0, 1, 2, 3}
    with pytest.raises(PreconditionError):
        vn_levels(5)
