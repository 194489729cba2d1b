"""Every argument that must be an instance of a package type, or a
mapping, goes through errors.check_type or errors.check_mapping: a value
of another type is refused with PreconditionError naming the argument,
what it must be and the type it is."""

import pytest

from sacksforcing.conditions import (
    SINGLE, PairCondition, ProductCondition, iter_equal, iter_leq,
    iter_restrict, plain_iter, prod_extends, prod_restrict,
)
from sacksforcing.degrees import (
    census_encode, poset_dot, sc_census_decode, sc_pattern, tower_degrees,
)
from sacksforcing.errors import (
    DecodeError, PreconditionError, check_mapping, check_type,
)
from sacksforcing.implicit import eval_formula, parse_formula
from sacksforcing.trees import full_tree, fusion_prefix, tree_dot

T = full_tree()
P = plain_iter([SINGLE], [T])
PROD = ProductCondition({0: P})
ALL_S = parse_formula("all x. S(x)")

# each operation with one typed argument open, and what it must be
CALLS = {
    "tree_dot": (tree_dot, "tree must be a SkeletonTree"),
    "poset_dot": (poset_dot, "poset must be a DegreePoset"),
    "fusion_prefix seq": (lambda v: fusion_prefix([T, v], [0, 0], 1),
                          r"seq\[1\] must be a SkeletonTree"),
    "tower_degrees": (tower_degrees, "recipe must be a TowerRecipe"),
    "sc_pattern": (sc_pattern, "recipe must be a TowerRecipe"),
    "iter_leq q": (lambda v: iter_leq(v, P), "q must be an IterCondition"),
    "iter_leq p": (lambda v: iter_leq(P, v), "p must be an IterCondition"),
    "iter_equal q": (lambda v: iter_equal(v, P),
                     "q must be an IterCondition"),
    "iter_equal p": (lambda v: iter_equal(P, v),
                     "p must be an IterCondition"),
    "iter_restrict": (lambda v: iter_restrict(v, (0,)),
                      "p must be an IterCondition"),
    "prod_extends q": (lambda v: prod_extends(v, PROD),
                       "q must be a ProductCondition"),
    "prod_extends p": (lambda v: prod_extends(PROD, v),
                       "p must be a ProductCondition"),
    "prod_restrict": (lambda v: prod_restrict(v, (0,), [0]),
                      "p must be a ProductCondition"),
    "eval_formula structure": (lambda v: eval_formula(ALL_S, v, ()),
                               "structure must be a FinStructure"),
    "parse_formula": (parse_formula, "text must be a str"),
}


@pytest.mark.parametrize("call", sorted(CALLS))
def test_a_typed_argument_refuses_another_type(call):
    # each once raised a bare AttributeError or TypeError
    operation, message = CALLS[call]
    with pytest.raises(PreconditionError, match=f"^{message}, not int$"):
        operation(5)


def test_the_two_sides_of_a_pair_condition_are_checked_apart():
    PairCondition(T, T)
    for left, right, side in ((5, T, "left"), (T, None, "right")):
        with pytest.raises(PreconditionError, match=f"^{side} of the two "
                           f"trees must be a SkeletonTree, not "):
            PairCondition(left, right)


class OnlyItems:
    """Has the items of a mapping, and nothing else of one."""

    def items(self):
        return [(0, "one")]


def test_a_mapping_is_read_through_its_items_alone():
    # census_encode once raised a bare TypeError from len()
    with pytest.raises(PreconditionError, match="^x must be defined on "):
        census_encode(OnlyItems(), 2, 1)
    with pytest.raises(DecodeError):
        sc_census_decode(OnlyItems())


def test_check_type_and_check_mapping_return_what_they_checked():
    assert check_type(T, (int, type(T)), "tree", "a tree") is T
    assert check_type(True, int, "n", "an int") is True
    with pytest.raises(PreconditionError,
                       match="^tree must be an int or a str, not NoneType$"):
        check_type(None, (int, str), "tree", "an int or a str")
    assert list(check_mapping({1: 2}, "m")) == [(1, 2)]
    for value, shown in ((5, "int"), ([(1, 2)], "list"), ("ab", "str")):
        with pytest.raises(PreconditionError,
                           match=f"^m must be a mapping, not {shown}$"):
            check_mapping(value, "m")
