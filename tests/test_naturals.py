"""Every argument that must be a natural number goes through
errors.check_natural: a negative int, a float, a bool, a string or None
is refused with PreconditionError, before any work, in every layer."""

import time

import pytest

from sacksforcing.bitseq import column, join_family, pair_index, pair_split, width
from sacksforcing.conditions import (
    SINGLE, ProductCondition, ScSchedule, iter_leq_n, plain_iter, prod_leq,
    sc_schedule,
)
from sacksforcing.degrees import Ordinal2, census_encode, sc_census_encode
from sacksforcing.errors import PreconditionError, check_natural
from sacksforcing.implicit import (
    FinStructure, imp_levels, implicit_subsets, set_members, set_of,
    vn_levels,
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
