"""Every argument that must be a natural number goes through
errors.check_natural: a negative int, a float, a bool, a string or None
is refused with PreconditionError, before any work, in every layer.  And
every refusal writes a caller's value with errors.int_text, so a value
that holds an int too long for Python to print is refused all the same."""

import time

import pytest

from sacksforcing.bitseq import (bits, column, join_family, join_pair,
                                  pair_index, pair_split, width)
from sacksforcing.conditions import (
    PAIRWISE, SINGLE, IterCondition, ProductCondition, ScSchedule,
    TowerRecipe, condition_from_json, full_iter, iter_amalgamate,
    iter_leq_n, iter_restrict, plain_iter, prod_leq, prod_restrict,
    sc_schedule,
)
from sacksforcing.degrees import (Ordinal2, ScPattern, TowerCensus,
                                  census_encode, sc_census_encode,
                                  tower_degrees)
from sacksforcing.errors import (FusionError, InputError, ParseError,
                                 PreconditionError, ResourceError,
                                 check_natural, int_text)
from sacksforcing.implicit import (
    FinStructure, Param, Pred, Var, eval_formula, formula_size,
    formula_text, imp_levels, implicit_subsets, implicitly_defined_by,
    parse_formula, set_members, set_of, vn_levels,
)
from sacksforcing.trees import (
    SkeletonTree, enumerate_trees, full_tree, fusion_prefix, leq_n,
    leq_n_cellwise,
)

T = full_tree()
P = plain_iter([SINGLE], [T])
PROD = ProductCondition({0: P})

# each operation with one natural argument open
CALLS = {
    "pair_index m": lambda v: pair_index(v, 0),
    "pair_index n": lambda v: pair_index(0, v),
    "pair_split": pair_split,
    "column": lambda v: column((0, 1, 1), v),
    "width": width,
    "join_family": lambda v: join_family([], v),
    "SkeletonTree depth": lambda v: SkeletonTree(v, {(): ()}),
    "deepen": T.deepen,
    "splitting_level": T.splitting_level,
    "leq_n": lambda v: leq_n(T, T, v),
    "leq_n_cellwise": lambda v: leq_n_cellwise(T, T, v),
    "iter_leq_n": lambda v: iter_leq_n(P, P, v),
    "prod_leq": lambda v: prod_leq(PROD, PROD, v, [0]),
    "fusion_prefix": lambda v: fusion_prefix([T], [0], v),
    "fusion_prefix schedule": lambda v: fusion_prefix([T], [v], 0),
    "enumerate_trees max_depth": lambda v: enumerate_trees(v, 0),
    "enumerate_trees slack": lambda v: enumerate_trees(0, v),
    "sc_schedule n": lambda v: sc_schedule(v, (), 0),
    "sc_schedule K": lambda v: sc_schedule(0, (), v),
    "ScSchedule n": lambda v: ScSchedule(v, 0),
    "ScSchedule length": lambda v: ScSchedule(0, v),
    "Ordinal2 a": lambda v: Ordinal2(v, 0),
    "Ordinal2 b": lambda v: Ordinal2(0, v),
    "census_encode limit_bound": lambda v: census_encode({}, v, 5),
    "census_encode n_bound": lambda v: census_encode({}, 5, v),
    "sc_census_encode": lambda v: sc_census_encode((1,), v),
    "set_members": set_members,
    "set_of": lambda v: set_of([v]),
    "FinStructure": lambda v: FinStructure([v]),
    "implicit_subsets": lambda v: implicit_subsets(FinStructure([]), v),
    "imp_levels n": lambda v: imp_levels(v, 0),
    "imp_levels budget": lambda v: imp_levels(1, v),
    "vn_levels": vn_levels,
}


@pytest.mark.parametrize("value", [-1, 1.5, True, "1", None], ids=repr)
@pytest.mark.parametrize("call", sorted(CALLS))
def test_natural_arguments_refuse_other_values(call, value):
    start = time.perf_counter()
    with pytest.raises(PreconditionError, match="must be a natural number"):
        CALLS[call](value)
    assert time.perf_counter() - start < 2


def test_check_natural_returns_the_value_and_names_the_argument():
    assert check_natural(0, "n") == 0
    assert check_natural(10 ** 30, "n") == 10 ** 30
    for value in (-1, -10 ** 30, 0.0, False, None, "0", [0]):
        with pytest.raises(PreconditionError,
                           match="^budget must be a natural number$"):
            check_natural(value, "budget")


# the refusals of a natural past its bound word it with int_text, so an
# int with more digits than Python writes out is refused all the same
PAST_THE_BOUND = ["deepen", "splitting_level", "leq_n_cellwise",
                  "iter_leq_n", "prod_leq", "sc_schedule K", "imp_levels n",
                  "imp_levels budget", "implicit_subsets"]


@pytest.mark.parametrize("call", PAST_THE_BOUND)
def test_a_natural_too_long_to_print_is_refused_by_its_bit_length(call):
    with pytest.raises(ResourceError, match="<16610-bit int>"):
        CALLS[call](10 ** 5000)


def test_int_text_writes_an_int_or_its_bit_length():
    assert int_text(0) == "0"
    assert int_text(10 ** 30) == str(10 ** 30)
    assert int_text(10 ** 5000) == "<16610-bit int>"


def test_int_text_names_the_type_of_a_value_holding_such_an_int():
    assert int_text((0, 10 ** 5000)) == "<tuple>"
    assert int_text(Ordinal2(10 ** 5000, 0)) == "<Ordinal2>"
    assert int_text("single") == "'single'"
    assert int_text((0, "1")) == "(0, '1')"


HUGE = 10 ** 5000
TWO_STEPS = full_iter([SINGLE, SINGLE])

# each call that once formatted a caller's value, or a count computed from
# one, with a plain f-string, which raised a bare ValueError on HUGE:
# (call, its refusal, the stand-in that its message names HUGE by)
WRITES_A_CALLER_VALUE = {
    "column": (lambda: column((HUGE,), 0), PreconditionError, "<tuple>"),
    "check_bits": (lambda: join_pair((HUGE,), ()), PreconditionError,
                   "<tuple>"),
    "bits": (lambda: bits(HUGE), InputError, "<16610-bit int>"),
    "IterCondition.coordinate": (lambda: P.coordinate(HUGE),
                                 PreconditionError, "<16610-bit int>"),
    "ProductCondition.coordinate": (
        lambda: ProductCondition({}).coordinate(HUGE), PreconditionError,
        "<16610-bit int>"),
    "ProductCondition": (lambda: ProductCondition({HUGE: None}),
                         PreconditionError, "<16610-bit int>"),
    "prod_restrict": (
        lambda: prod_restrict(ProductCondition({}), (0,), [HUGE]),
        PreconditionError, "<16610-bit int>"),
    "guard key": (lambda: IterCondition(TowerRecipe((SINGLE, SINGLE)), [
        [({}, T)], [({HUGE: (0,)}, T)]]), PreconditionError,
        "<16610-bit int>"),
    "guard key not an int": (lambda: IterCondition(TowerRecipe((SINGLE,)), [
        [({(HUGE,): (0,)}, T)]]), PreconditionError, "<tuple>"),
    "schedule length": (lambda: IterCondition(ScSchedule(0, HUGE), []),
                        PreconditionError, "<16610-bit int>"),
    "iter_restrict mode": (lambda: iter_restrict(P, (), HUGE),
                           PreconditionError, "<16610-bit int>"),
    "condition_from_json": (lambda: condition_from_json({"kind": HUGE}),
                            PreconditionError, "<16610-bit int>"),
    "iter_amalgamate": (lambda: iter_amalgamate(
        TWO_STEPS, (0,) * 30000,
        iter_restrict(TWO_STEPS, (0,) * 30000, PAIRWISE), PAIRWISE),
        ResourceError, "<15000-bit int>"),
    "SkeletonTree depth": (lambda: SkeletonTree(HUGE, {(): ()}),
                           PreconditionError, "<16610-bit int>"),
    "fusion_prefix": (lambda: fusion_prefix([T], [0], HUGE), FusionError,
                      "<16610-bit int>"),
    "TowerRecipe": (lambda: TowerRecipe((HUGE,)), PreconditionError,
                    "<tuple>"),
    "ScPattern": (lambda: ScPattern((HUGE,)), PreconditionError, "<tuple>"),
    "TowerCensus": (lambda: TowerCensus(((HUGE, "one"),)),
                    PreconditionError, "<16610-bit int>"),
    "census_encode count": (lambda: census_encode({}, HUGE, 1),
                            PreconditionError, "<16610-bit int>"),
    "census_encode bit": (lambda: census_encode({Ordinal2(0, 0): HUGE}, 1, 1),
                          PreconditionError, "<16610-bit int>"),
    "tower poset leq": (
        lambda: tower_degrees(TowerRecipe((SINGLE,))).leq(HUGE, "d0"),
        PreconditionError, "<16610-bit int>"),
    "eval_formula subset": (
        lambda: eval_formula(Pred(Param(0)), FinStructure([0]), [HUGE], [0]),
        PreconditionError, "<16610-bit int>"),
    "eval_formula parameter": (
        lambda: eval_formula(Pred(Param(HUGE)), FinStructure([0]), []),
        PreconditionError, "#<16610-bit int>"),
    "eval_formula variable": (
        lambda: eval_formula(Pred(Var(HUGE)), FinStructure([0]), []),
        PreconditionError, "<16610-bit int>"),
    "eval_formula term": (
        lambda: eval_formula(Pred(HUGE), FinStructure([0]), []),
        PreconditionError, "<16610-bit int>"),
    "eval_formula node": (lambda: eval_formula(HUGE, FinStructure([0]), []),
                          PreconditionError, "<16610-bit int>"),
    "implicitly_defined_by parameter": (
        lambda: implicitly_defined_by(FinStructure([0]), Pred(Param(HUGE))),
        PreconditionError, "#<16610-bit int>"),
    "implicitly_defined_by width": (
        lambda: implicitly_defined_by(FinStructure(range(15000)),
                                      Pred(Param(0)), [0]),
        ResourceError, "<15001-bit int>"),
    "implicit_subsets width": (
        lambda: implicit_subsets(FinStructure(range(15000)), 10),
        ResourceError, "-bit int>"),
    "formula_text parameter": (lambda: formula_text(Pred(Param(HUGE))),
                               ResourceError, "<Pred>"),
    "formula_text variable": (lambda: formula_text(Pred(Var(HUGE))),
                              ResourceError, "<Pred>"),
    "formula_size": (lambda: formula_size(Pred(HUGE)), PreconditionError,
                     "<16610-bit int>"),
}


@pytest.mark.parametrize("call", sorted(WRITES_A_CALLER_VALUE))
def test_a_caller_value_too_long_to_print_is_refused_by_its_stand_in(call):
    run, error, stand_in = WRITES_A_CALLER_VALUE[call]
    start = time.perf_counter()
    with pytest.raises(error) as raised:
        run()
    assert time.perf_counter() - start < 2
    assert stand_in in str(raised.value)


def test_a_parameter_index_too_long_to_read_is_a_parse_error():
    with pytest.raises(ParseError, match="^a parameter index of 5000 digits, "
                                         "more than Python reads "
                                         r"\(at position 2\)$"):
        parse_formula("S(#" + "9" * 5000 + ")")
