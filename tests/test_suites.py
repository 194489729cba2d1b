"""A verify property reports a failure when the library is wrong.  The
failing branches of the suites are reached by seeding one fault with
monkeypatch and reading the property's result."""

from sacksforcing import conditions, suites
from sacksforcing.conditions import PAIR, PairCondition
from sacksforcing.suites import (
    DEFAULT_SEED, TREE_DEPTH, PropertyResult, _expect_raises, run_conditions,
    run_tree,
)
from sacksforcing.trees import SkeletonTree, amalgamate, enumerate_trees


def _by_name(results):
    return {r.name: r for r in results}


def test_a_failed_check_is_counted_with_at_most_five_samples():
    result = PropertyResult("odd cases fail")
    for k in range(13):
        result.check(k % 2 == 0, f"case {k}")
    assert (result.cases, result.failed, result.passed) == (13, 6, False)
    assert result.samples == [f"case {k}" for k in (1, 3, 5, 7, 9)]
    assert result.to_json()["failed"] == 6


def test_expect_raises_fails_on_a_wrong_or_a_missing_error():
    result = PropertyResult("raises KeyError")
    _expect_raises(result, KeyError, lambda: {}[0], "right")
    _expect_raises(result, KeyError, lambda: [][0], "wrong")
    _expect_raises(result, KeyError, lambda: None, "none")
    assert (result.cases, result.failed) == (3, 2)
    assert result.samples == ["wrong: raised IndexError",
                              "none: no error raised"]


def test_tree_suite_fails_on_comparable_splitting_nodes(monkeypatch):
    # (0,) and (0, 0) are comparable, and nothing in them covers a node
    # that opens with 1
    monkeypatch.setattr(SkeletonTree, "splitting_level",
                        lambda self, n: frozenset({(0,), (0, 0)}))
    antichain = _by_name(run_tree(DEFAULT_SEED))[
        "splitting levels are maximal antichains"]
    assert antichain.failed == antichain.cases > 0
    assert antichain.samples[0].startswith("level 0 of ")


def test_tree_suite_fails_when_amalgamation_moves_another_cell(monkeypatch):
    def shrink_a_neighbour(tree, sigma, graft):
        # the sigma cell is right, the cell next to it is cut down
        r = amalgamate(tree, sigma, graft)
        if not sigma:
            return r
        tau = sigma[:-1] + (1 - sigma[-1],)
        return amalgamate(r, tau, r.restrict_cell(tau + (0,)))

    monkeypatch.setattr(suites, "amalgamate", shrink_a_neighbour)
    glue = _by_name(run_tree(DEFAULT_SEED))[
        "amalgamation pins one cell, keeps the rest"]
    # only the two grafts per tree at the root index pass
    assert glue.failed == glue.cases - 2 * len(enumerate_trees(TREE_DEPTH, 2))
    assert glue.samples[0] == "sigma=0"


def test_conditions_suite_fails_when_pair_halves_swap_levels(monkeypatch):
    # the left trees of a pair take the floor of an odd level, not the
    # ceiling: only a pair coordinate whose address has odd length shows it
    pair = conditions._PAYLOADS[PAIR]
    monkeypatch.setitem(conditions._PAYLOADS, PAIR, pair._replace(
        leq=lambda q, p, n: pair.leq(PairCondition(q.right, q.left),
                                     PairCondition(p.right, p.left), n)))
    graded = _by_name(run_conditions(DEFAULT_SEED))[
        "iteration graded order agrees with its cellwise definition"]
    assert 0 < graded.failed < graded.cases
    assert all(sample.startswith("('single', 'pair")
               for sample in graded.samples)
