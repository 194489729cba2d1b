"""A verify property reports a failure when the library is wrong.  The
failing branches of the suites are reached by seeding one fault with
monkeypatch and reading the property's result."""

from sacksforcing import conditions, implicit, suites
from sacksforcing.bitseq import column, pair_index, width
from sacksforcing.conditions import (
    COLUMN, PAIR, PAIRWISE, PairCondition, iter_amalgamate, iter_restrict,
)
from sacksforcing.degrees import (
    DegreePoset, Ordinal2, census_decode, census_encode, sc_census_encode,
    sc_decode, sc_schedule, tower_degrees,
)
from sacksforcing.implicit import Exists, Forall, Member
from sacksforcing.suites import (
    DEFAULT_SEED, TREE_DEPTH, PropertyResult, _expect_raises, run_codec,
    run_conditions, run_degrees, run_imp, run_tree,
)
from sacksforcing.trees import SkeletonTree, amalgamate, enumerate_trees, leq_n


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


# -- codec ----------------------------------------------------------------

def test_codec_suite_fails_when_one_pair_index_is_off(monkeypatch):
    # pair_index(3, 4) answers 32, not 31: that pair and the split of 31
    # fail, and every order constraint still holds
    monkeypatch.setattr(suites, "pair_index",
                        lambda m, n: pair_index(m, n) + ((m, n) == (3, 4)))
    pairing = _by_name(run_codec(DEFAULT_SEED))[
        "pairing constraints and bijectivity"]
    assert (pairing.failed, pairing.cases) == (2, 15050)
    assert pairing.samples == ["m=3 n=4 k=32", "split(31)=(3,4)"]


def test_codec_suite_fails_when_columns_read_backwards(monkeypatch):
    # only sequences whose columns are palindromes come back
    monkeypatch.setattr(suites, "column",
                        lambda sigma, n: column(sigma, n)[::-1])
    reassembly = _by_name(run_codec(DEFAULT_SEED))["join/column round trip"]
    assert (reassembly.failed, reassembly.cases) == (7750, 8191)
    assert reassembly.samples[:2] == ["01", "10"]


def test_codec_suite_fails_when_split_pair_drops_an_odd_last_bit(monkeypatch):
    # every odd length fails, the sampled pairs with |x| = |y| + 1 too
    monkeypatch.setattr(suites, "split_pair",
                        lambda z: (z[0::2][:len(z) // 2], z[1::2]))
    interleave = _by_name(run_codec(DEFAULT_SEED))["interleave round trip"]
    assert (interleave.failed, interleave.cases) == (780, 1223)
    assert interleave.samples[:3] == ["0", "1", "000"]


def test_codec_suite_fails_when_width_counts_one_more(monkeypatch):
    monkeypatch.setattr(suites, "width", lambda k: width(k) + 1)
    boundaries = _by_name(run_codec(DEFAULT_SEED))[
        "width is the least covering count"]
    assert boundaries.failed == boundaries.cases == 200
    assert boundaries.samples[0] == "k=0"


# -- trees -----------------------------------------------------------------

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


def test_tree_suite_fails_when_a_cell_is_one_level_too_wide(monkeypatch):
    # the cell at sigma is the one at sigma less its last bit, so two
    # cells of a level hold each long node; level 0 still partitions
    restrict_cell = SkeletonTree.restrict_cell
    monkeypatch.setattr(SkeletonTree, "restrict_cell",
                        lambda self, sigma: restrict_cell(self, sigma[:-1]))
    partition = _by_name(run_tree(DEFAULT_SEED))[
        "cells partition the long nodes"]
    assert (partition.failed, partition.cases) == (3244, 3574)
    assert partition.samples[0] == "node 00"


def test_tree_suite_fails_when_rt_ignores_bits_past_the_depth(monkeypatch):
    # indices that differ only past the stored depth share a node
    rt = SkeletonTree.rt
    monkeypatch.setattr(SkeletonTree, "rt",
                        lambda self, sigma: rt(self, sigma[:self.depth]))
    iso = _by_name(run_tree(DEFAULT_SEED))["rt is an order isomorphism"]
    assert (iso.failed, iso.cases) == (5248, 37125)
    assert iso.samples[0] == "0,"


def test_tree_suite_fails_when_leq_n_reads_one_level_less(monkeypatch):
    monkeypatch.setattr(suites, "leq_n",
                        lambda sub, sup, n: leq_n(sub, sup, max(n - 1, 0)))
    graded = _by_name(run_tree(DEFAULT_SEED))[
        "graded order agrees with cellwise form"]
    assert (graded.failed, graded.cases) == (168, 4800)
    assert set(graded.samples) == {"n=2"}


# -- conditions ------------------------------------------------------------

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


def test_conditions_suite_fails_when_pairwise_halves_swap(monkeypatch):
    # the left half of sigma addresses coordinate 1 and the right half
    # coordinate 0: the graft lands in the right cells only where the
    # halves agree
    addresses = conditions._addresses

    def swapped(sigma, mode, length):
        addrs = addresses(sigma, mode, length)
        return addrs[::-1] if mode == PAIRWISE else addrs

    monkeypatch.setattr(conditions, "_addresses", swapped)
    worked = _by_name(run_conditions(DEFAULT_SEED))[
        "two-step amalgamation worked example"]
    assert worked.failed == 2
    assert worked.samples == ["sibling of the graft", "untouched half 0"]


def test_conditions_suite_fails_when_amalgamation_moves_another_cell(
        monkeypatch):
    def shrink_a_neighbour(p, sigma, q, mode):
        # the sigma cell is right, the cell next to it is cut down
        r = iter_amalgamate(p, sigma, q, mode)
        if mode != COLUMN or not sigma:
            return r
        tau = sigma[:-1] + (1 - sigma[-1],)
        return iter_amalgamate(r, tau, iter_restrict(r, tau + (0,), mode),
                               mode)

    monkeypatch.setattr(suites, "iter_amalgamate", shrink_a_neighbour)
    partial = _by_name(run_conditions(DEFAULT_SEED))[
        "iteration partial-equality after amalgamation"]
    assert 0 < partial.failed < partial.cases
    assert all(sample.startswith("tau=") for sample in partial.samples)


def test_conditions_suite_fails_when_product_amalgamation_forgets_p(
        monkeypatch):
    # the amalgam is q alone: its cells off sigma's are not p's
    monkeypatch.setattr(suites, "prod_amalgamate",
                        lambda p, sigma, sbar, q: q)
    prods = _by_name(run_conditions(DEFAULT_SEED))[
        "product partial-equality after amalgamation"]
    assert prods.failed == prods.cases > 0
    assert prods.samples[0] == "sigma=00 tau=01"


# -- degrees ---------------------------------------------------------------

def _degrees(name):
    return _by_name(run_degrees(DEFAULT_SEED))[name]


def test_degrees_suite_fails_when_the_census_drops_a_bit(monkeypatch):
    # the bit at w + 3 is encoded as 0: every code that sets it fails
    monkeypatch.setattr(suites, "census_encode", lambda x, limits, offsets:
                        census_encode({**x, Ordinal2(1, 3): 0}, limits,
                                      offsets))
    census = _degrees("tower census round trip")
    assert (census.failed, census.cases) == (128, 256)
    assert census.samples[0] == "code=128"


def test_degrees_suite_fails_when_the_empty_census_decodes(monkeypatch):
    monkeypatch.setattr(suites, "census_decode", lambda census:
                        census_decode(census) if census.entries else {})
    malformed = _degrees("malformed censuses are rejected")
    assert (malformed.failed, malformed.cases) == (1, 3)
    assert malformed.samples == ["empty census: no error raised"]


def test_degrees_suite_fails_when_sc_decode_drops_a_bit(monkeypatch):
    # every g but the empty one comes back a bit short
    def short(pattern):
        n, g = sc_decode(pattern)
        return n, g[:-1]

    monkeypatch.setattr(suites, "sc_decode", short)
    sc_round = _degrees("self-coding schedule round trip")
    assert (sc_round.failed, sc_round.cases) == (504, 508)
    assert sc_round.samples[0] == "n=0 g=0"


def test_degrees_suite_fails_when_the_last_data_bit_is_lost(monkeypatch):
    # the last bit of g reads as 0, so a g ending in 1 gives the pattern
    # of the g ending in 0, which came first
    monkeypatch.setattr(suites, "sc_schedule", lambda n, g, K:
                        sc_schedule(n, g[:-1] + (0,) if g else g, K))
    injective = _degrees("self-coding patterns are injective")
    assert (injective.failed, injective.cases) == (252, 508)
    assert injective.samples[0] == "pattern collision at n=0"


def test_degrees_suite_fails_when_sc_census_keeps_seven_bits(monkeypatch):
    monkeypatch.setattr(suites, "sc_census_encode", lambda h, alpha_bound:
                        sc_census_encode(h[:7], alpha_bound))
    sc_census = _degrees("self-coding census round trip")
    assert (sc_census.failed, sc_census.cases) == (256, 511)
    assert sc_census.samples[0] == "00000000"


def test_degrees_suite_fails_on_a_spare_node_above_the_tower(monkeypatch):
    def with_a_spare_top(recipe):
        poset = tower_degrees(recipe)
        return DegreePoset([*poset.nodes, "spare"],
                           [*poset.edges, (f"d{recipe.length}", "spare")])

    monkeypatch.setattr(suites, "tower_degrees", with_a_spare_top)
    counts = _degrees("tower poset node and edge counts")
    assert counts.failed == counts.cases == 63
    assert counts.samples[0] == "kinds=('single',)"


def test_degrees_suite_fails_when_join_answers_the_meet(monkeypatch):
    monkeypatch.setattr(DegreePoset, "join", DegreePoset.meet)
    lattice = _degrees("meets and joins around every diamond")
    assert lattice.failed == lattice.cases == 129
    assert lattice.samples[0] == "diamond at 1 in ('single', 'pair')"


# -- implicit definability --------------------------------------------------

def _imp(monkeypatch, name):
    # a fresh memo, dropped again after the test: a hit would answer as
    # before the fault, and no answer of the fault may outlive it
    monkeypatch.setattr(implicit, "_memo", {})
    return _by_name(run_imp(DEFAULT_SEED))[name]


def test_imp_suite_fails_when_the_empty_structure_defines_nothing(
        monkeypatch):
    subsets = implicit.implicit_subsets
    monkeypatch.setattr(implicit, "implicit_subsets", lambda structure, b:
                        subsets(structure, b) if structure.size
                        else frozenset())
    first = _imp(monkeypatch, "first level is the singleton of the empty set")
    assert first.failed == first.cases == 5
    assert first.samples[0] == "budget 0"


def test_imp_suite_fails_when_levels_code_sets_one_bit_high(monkeypatch):
    set_of = implicit.set_of
    monkeypatch.setattr(implicit, "set_of",
                        lambda members: set_of(members) << 1)
    contained = _imp(monkeypatch, "levels sit inside the powerset hierarchy")
    assert (contained.failed, contained.cases) == (35, 49)
    assert contained.samples[0] == "budget 4 level 2 code 2"


def test_imp_suite_fails_when_the_enumerator_stops_one_size_short(
        monkeypatch):
    # budget 10 leaves two sets of rank 4 undefined
    enumerate_ = implicit._enumerate
    monkeypatch.setattr(implicit, "_enumerate",
                        lambda structure, b: enumerate_(structure, b - 1))
    reaches = _imp(monkeypatch,
                   "levels reach the full ranks at the fixture budget")
    assert (reaches.failed, reaches.cases) == (1, 4)
    assert reaches.samples == ["n=4 budget 11"]


def test_imp_suite_fails_when_the_tables_read_membership_conversely(
        monkeypatch):
    # a in b is read as b in a by implicitly_defined_by only; the double
    # loop, through eval_formula, reads it right
    atom_table = implicit._atom_table

    def converse(structure, key):
        width, kind, a, b = key
        return atom_table(structure,
                          (width, kind, b, a) if kind is Member else key)

    monkeypatch.setattr(implicit, "_atom_table", converse)
    agree = _imp(monkeypatch,
                 "unique-subset search agrees with the double loop")
    assert (agree.failed, agree.cases) == (2, 11120)
    assert agree.samples == ["(all x. (S(x) -> #1 in x))",
                             "((all y. S(y)) & #1 in #0)"]


def test_imp_suite_fails_when_quantifiers_print_as_each_other(monkeypatch):
    monkeypatch.setattr(implicit, "_QUANT", {Forall: "ex", Exists: "all"})
    parsing = _imp(monkeypatch, "printed formulas parse back unchanged")
    assert (parsing.failed, parsing.cases) == (289, 300)
    assert all(sample.count("all") + sample.count("ex")
               for sample in parsing.samples)
