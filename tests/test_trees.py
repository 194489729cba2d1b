import copy
import pickle
import time
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sacksforcing.bitseq import bits, bits_str, width
from sacksforcing.conditions import (
    COLUMN, PAIRWISE, SINGLE, FixedSchedule, IterCondition, PairCondition,
    ProductCondition, iter_amalgamate, iter_restrict, plain_iter,
    prod_amalgamate, prod_restrict,
)
from sacksforcing.errors import (
    AmalgamationError, FusionError, InputError, PreconditionError,
    ResourceError,
)
from sacksforcing.trees import (
    SkeletonTree, _cell_leq, _enumeration_size, all_bitstrings, amalgamate,
    bitstrings_upto, enumerate_trees, full_tree, fusion_prefix, leq_n,
    leq_n_cellwise, subtree_leq, tree_dot,
)


def make_tree(depth, entries):
    """Helper: entries maps index strings to entry strings."""
    return SkeletonTree(depth, {bits(k): bits(v) for k, v in entries.items()})


# a small named fixture used throughout: stem 0, one child splitting at 00,
# the other only at 011
T1 = make_tree(1, {"": "0", "0": "00", "1": "011"})


def test_entry_refuses_an_index_past_the_stored_depth():
    assert full_tree().entry(()) == ()
    assert T1.entry((1,)) == bits("011")
    for tree, sigma in ((full_tree(), (1,)), (T1, (1, 0))):
        with pytest.raises(PreconditionError) as e:
            tree.entry(sigma)
        assert str(e.value) == (f"an index of length {len(sigma)} is past "
                                f"the stored depth {tree.depth}")
        assert tree.rt(sigma)       # rt answers at any length


def oracle_nodes(tree, max_len):
    """Node set up to max_len, built straight from the presentation:
    downward closure of all extensions of frontier entries."""
    nodes = set()
    for sigma in all_bitstrings(tree.depth):
        e = tree.entry(sigma)
        for k in range(len(e) + 1):
            nodes.add(e[:k])
        level = [e]
        while level and len(level[0]) < max_len:
            level = [v + (i,) for v in level for i in (0, 1)]
            nodes.update(level)
    return {v for v in nodes if len(v) <= max_len}


def oracle_subtree(sub, sup):
    """Set containment of node sets, checked up to a length beyond both
    skeletons (the trees are full binary past that point)."""
    max_len = 1 + max(
        max(len(e) for e in sub.skeleton.values()),
        max(len(e) for e in sup.skeleton.values()))
    return oracle_nodes(sub, max_len) <= oracle_nodes(sup, max_len)


# -- construction and presentation ------------------------------------------

def test_skeleton_validation():
    with pytest.raises(PreconditionError):
        make_tree(1, {"": "0", "0": "10", "1": "01"})  # 10 does not extend 00
    with pytest.raises(PreconditionError):
        SkeletonTree(1, {(): ()})  # missing indices


def test_membership_matches_oracle():
    for tree in (T1, full_tree(), make_tree(0, {"": "101"})):
        expected = oracle_nodes(tree, 6)
        for nu in bitstrings_upto(6):
            assert tree.contains(nu) == (nu in expected), nu


def test_membership_fixture_values():
    assert T1.contains(bits("0"))
    assert not T1.contains(bits("1"))
    assert T1.contains(bits("011"))
    assert not T1.contains(bits("010"))
    assert T1.contains(bits("0110"))
    assert T1.contains(())


def test_stem_and_rt():
    assert T1.stem() == bits("0")
    assert full_tree().stem() == ()
    assert T1.rt(bits("1")) == bits("011")
    assert T1.rt(bits("10")) == bits("0110")
    assert T1.rt(bits("11")) == bits("0111")
    assert T1.rt(()) == bits("0")
    # on the full tree, indices are their own splitting nodes
    for sigma in bitstrings_upto(4):
        assert full_tree().rt(sigma) == sigma


def test_splitting_levels():
    assert T1.splitting_level(0) == {bits("0")}
    assert T1.splitting_level(1) == {bits("00"), bits("011")}
    assert T1.splitting_level(2) == {
        bits("000"), bits("001"), bits("0110"), bits("0111")}


def test_splitting_level_is_maximal_antichain():
    for tree in enumerate_trees(2, 2):
        for n in range(3):
            level = tree.splitting_level(n)
            assert len(level) == 2 ** n
            for a in level:
                for b in level:
                    if a != b:
                        assert a[: len(b)] != b and b[: len(a)] != a
            # maximality: every sufficiently long node passes through one
            horizon = max(len(v) for v in level) + 1
            for nu in all_bitstrings(horizon):
                if tree.contains(nu):
                    assert any(v == nu[: len(v)] for v in level)


def test_rt_is_order_isomorphism():
    for tree in enumerate_trees(2, 2):
        idx = bitstrings_upto(3)
        for a in idx:
            for b in idx:
                prefix_ab = a == b[: len(a)]
                ra, rb = tree.rt(a), tree.rt(b)
                assert prefix_ab == (ra == rb[: len(ra)])


def test_restrict_cell_fixture():
    r = T1.restrict_cell(bits("1"))
    assert r.stem() == bits("011")
    assert r == make_tree(0, {"": "011"})
    assert T1.restrict_cell(()) == T1
    # restricting the full tree pins the stem
    assert full_tree().restrict_cell(bits("10")).stem() == bits("10")


def test_restrict_node_fixture():
    assert T1.restrict_node(bits("01")) == T1.restrict_cell(bits("1"))
    assert T1.restrict_node(bits("0")) == T1
    assert full_tree().restrict_node(bits("10")) == \
        full_tree().restrict_cell(bits("10"))
    with pytest.raises(PreconditionError):
        T1.restrict_node(bits("1"))


def test_restrict_node_matches_node_semantics():
    for tree in enumerate_trees(2, 2)[::7]:
        for tau in bitstrings_upto(4):
            if not tree.contains(tau):
                continue
            r = tree.restrict_node(tau)
            max_len = 6
            expected = {
                nu for nu in oracle_nodes(tree, max_len)
                if nu[: len(tau)] == tau[: len(nu)]}
            assert oracle_nodes(r, max_len) == expected


def test_restrict_node_is_the_cell_of_the_shortest_index_above_tau():
    # every presentation of enumerate_trees(2, 2) against every tau of at
    # most 6 bits: a node gets the cell of the shortest index whose
    # splitting node extends it, and anything else is refused
    refused = 0
    for tree, tau in product(enumerate_trees(2, 2), bitstrings_upto(6)):
        if not tree.contains(tau):
            with pytest.raises(PreconditionError) as e:
                tree.restrict_node(tau)
            assert str(e.value) == (f"{bits_str(tau) or 'the empty string'}"
                                    f" is not a node of this tree")
            refused += 1
            continue
        sigma = next(s for s in bitstrings_upto(len(tau))
                     if tree.rt(s)[: len(tau)] == tau)
        assert tree.restrict_node(tau).to_json() == \
            tree.restrict_cell(sigma).to_json(), (tree, tau)
    assert refused == 7890


def test_cells_partition_long_nodes():
    for tree in enumerate_trees(2, 2):
        n = 2
        level = tree.splitting_level(n)
        horizon = max(len(v) for v in level) + 1
        for nu in all_bitstrings(horizon):
            if tree.contains(nu):
                hits = [sigma for sigma in all_bitstrings(n)
                        if tree.restrict_cell(sigma).contains(nu)]
                assert len(hits) == 1


def test_deepen_preserves_tree():
    for tree in (T1, full_tree()):
        for d in range(tree.depth, tree.depth + 3):
            deeper = tree.deepen(d)
            assert deeper == tree
            assert deeper.depth == d
            assert hash(deeper) == hash(tree)
    with pytest.raises(PreconditionError):
        T1.deepen(0)


def test_canonical_presentation():
    assert full_tree().deepen(3).canonical().depth == 0
    assert T1.deepen(4).canonical() == T1
    assert T1.canonical().depth == 1


def test_json_round_trip():
    for tree in (T1, full_tree(), T1.deepen(2)):
        assert SkeletonTree.from_json(tree.to_json()) == tree


# -- subtree order -----------------------------------------------------------

def test_subtree_leq_matches_oracle():
    trees = enumerate_trees(1, 2)
    for sub in trees:
        for sup in trees:
            assert subtree_leq(sub, sup) == oracle_subtree(sub, sup)


def test_subtree_leq_basics():
    assert subtree_leq(T1, full_tree())
    assert not subtree_leq(full_tree(), T1)
    assert subtree_leq(T1, T1)
    assert subtree_leq(T1.restrict_cell(bits("1")), T1)


def test_leq_n_equals_cellwise_on_small_family():
    trees = enumerate_trees(1, 2)
    for sub in trees:
        for sup in trees:
            for n in range(3):
                assert leq_n(sub, sup, n) == leq_n_cellwise(sub, sup, n), \
                    (sub, sup, n)


def test_cell_order_reads_the_cell_in_place():
    # 165 presentations of 127 trees; indices up to 3 reach past every
    # stored depth of the family
    trees = enumerate_trees(2, 2)
    assert (len(trees), len(set(trees))) == (165, 127)
    for sup, sigma in product(trees, bitstrings_upto(3)):
        cell = sup.restrict_cell(sigma)
        for sub in trees:
            assert _cell_leq(sub, sup, sigma) == subtree_leq(sub, cell), \
                (sub, sup, sigma)


def test_leq_zero_is_subtree_order():
    trees = enumerate_trees(1, 2)
    for sub in trees:
        for sup in trees:
            assert leq_n(sub, sup, 0) == subtree_leq(sub, sup)


# -- amalgamation -------------------------------------------------------------

def test_amalgamate_cell_equalities():
    sigma = bits("1")
    graft = T1.restrict_cell(sigma).restrict_node(bits("0110"))
    r = amalgamate(T1, sigma, graft)
    assert r.restrict_cell(sigma) == graft
    assert r.restrict_cell(bits("0")) == T1.restrict_cell(bits("0"))
    assert leq_n(r, T1, 1)


def test_amalgamate_exhaustive_equalities():
    trees = enumerate_trees(1, 1)
    for tree in trees:
        for n in (0, 1):
            for sigma in all_bitstrings(n):
                cell = tree.restrict_cell(sigma)
                for graft in trees:
                    if not subtree_leq(graft, cell):
                        continue
                    r = amalgamate(tree, sigma, graft)
                    assert r.restrict_cell(sigma) == graft
                    for tau in all_bitstrings(n):
                        if tau != sigma:
                            assert r.restrict_cell(tau) == tree.restrict_cell(tau)
                    assert leq_n(r, tree, n)


def test_amalgamate_is_largest():
    # among bounded candidates R <= T agreeing with the graft on the
    # sigma cell and with T elsewhere, the amalgamation contains them all
    tree = T1
    sigma = bits("0")
    graft = make_tree(0, {"": "000"})
    r = amalgamate(tree, sigma, graft)
    for cand in enumerate_trees(2, 2):
        if not subtree_leq(cand, tree):
            continue
        if not subtree_leq(cand.restrict_cell(sigma), graft):
            continue
        if cand.restrict_cell(bits("1")) != tree.restrict_cell(bits("1")):
            continue
        assert subtree_leq(cand, r)


def test_amalgamate_domain_error():
    with pytest.raises(AmalgamationError):
        amalgamate(T1, bits("1"), full_tree())
    with pytest.raises(AmalgamationError):
        # a tree living in the wrong cell
        amalgamate(T1, bits("1"), T1.restrict_cell(bits("0")))


def test_amalgamate_at_root_replaces():
    graft = T1.restrict_cell(bits("0"))
    assert amalgamate(T1, (), graft) == graft


# -- fusion -------------------------------------------------------------------

def test_fusion_prefix_constant_sequence():
    seq = [T1, T1, T1]
    assert fusion_prefix(seq, [0, 0], 1) == T1
    full = full_tree()
    assert fusion_prefix([full] * 2, [0, 0, 0], 2) == full


def test_fusion_prefix_levels_agree_with_last():
    # refine strictly above the settled level at each step
    t0 = full_tree()
    t1 = amalgamate(t0, bits("0"), full_tree().restrict_cell(bits("00")))
    assert leq_n(t1, t0, 1)
    t2 = amalgamate(t1, bits("10"), t1.restrict_cell(bits("10")).restrict_node(bits("100")))
    assert leq_n(t2, t1, 2)
    seq = [t0, t1, t2]
    for n in range(2):
        prefix = fusion_prefix(seq, list(range(n + 1)), n)
        for m in range(n, len(seq)):
            for j in range(n + 1):
                assert prefix.splitting_level(j) == seq[m].splitting_level(j)


def test_fusion_prefix_on_settled_tail_is_leq_n():
    # when the tail is constant and full binary below level n, the prefix
    # coincides with the limit and the scheduled order relation holds
    base = T1.deepen(2)
    settled = SkeletonTree(2, {s: base.rt(s) for s in bitstrings_upto(2)})
    seq = [full_tree(), settled, settled, settled]
    prefix = fusion_prefix(seq, [1, 1, 1], 2)
    assert prefix == settled
    for m in range(1, len(seq)):
        assert leq_n(prefix, seq[m], 2)


def test_fusion_prefix_errors():
    with pytest.raises(FusionError):
        fusion_prefix([], [0], 0)
    with pytest.raises(FusionError):
        fusion_prefix([T1, full_tree()], [0], 0)  # increasing
    with pytest.raises(FusionError):
        # schedule claims level 0 settled from step 0, but the stem moves
        fusion_prefix([full_tree(), full_tree().restrict_cell(bits("0"))],
                      [0, 0], 1)
    with pytest.raises(FusionError):
        fusion_prefix([T1], [0], 1)  # schedule too short


# -- random presentations -----------------------------------------------------

@st.composite
def skeleton_trees(draw):
    depth = draw(st.integers(0, 2))
    skel = {(): tuple(draw(st.lists(st.integers(0, 1), max_size=2)))}
    for sigma in bitstrings_upto(depth):
        if sigma:
            ext = tuple(draw(st.lists(st.integers(0, 1), max_size=2)))
            skel[sigma] = skel[sigma[:-1]] + sigma[-1:] + ext
    return SkeletonTree(depth, skel)


@settings(max_examples=60, deadline=None)
@given(skeleton_trees())
def test_random_tree_invariants(tree):
    assert tree == tree.canonical()
    assert tree == tree.deepen(tree.depth + 1)
    assert subtree_leq(tree, full_tree())
    assert tree.contains(tree.stem())
    for sigma in bitstrings_upto(2):
        cell = tree.restrict_cell(sigma)
        assert subtree_leq(cell, tree)
        assert cell.stem() == tree.rt(sigma)


@settings(max_examples=40, deadline=None)
@given(skeleton_trees(), st.integers(0, 2))
def test_random_restrict_compose(tree, k):
    for sigma in all_bitstrings(k):
        cell = tree.restrict_cell(sigma)
        for i in (0, 1):
            assert cell.restrict_cell((i,)) == tree.restrict_cell(sigma + (i,))


def test_tree_dot_is_deterministic():
    out = tree_dot(T1)
    assert out == tree_dot(make_tree(1, {"": "0", "0": "00", "1": "011"}))
    assert out.startswith("digraph tree {")
    assert '"root" [label="0"];' in out
    assert '"root" -> "0";' in out


# -- fast paths against the frontier-listing reference ------------------------

def _reference_contains(tree, node):
    """Membership by scanning every frontier entry."""
    return any(
        e[: len(node)] == node or node[: len(e)] == e
        for e in (tree.entry(s) for s in all_bitstrings(tree.depth)))


def _reference_subtree_leq(sub, sup):
    """Deepen sub until its frontier entries are longer than every
    skeleton entry of sup; then sub lies in sup iff each of them is a node
    of sup."""
    max_len = max(len(e) for e in sup.skeleton.values())
    frontier = [sub.rt(s) for s in all_bitstrings(sub.depth)]
    extra = max(0, max_len + 1 - min(len(e) for e in frontier))
    return all(_reference_contains(sup, sub.rt(sigma))
               for sigma in all_bitstrings(sub.depth + extra))


def _reference_canonical(tree):
    """The minimal presentation as (depth, sorted entries), by dropping
    trivial deepest levels one at a time."""
    depth, skel = tree.depth, tree.skeleton
    while depth > 0 and all(skel[s] == skel[s[:-1]] + s[-1:]
                            for s in all_bitstrings(depth)):
        for s in all_bitstrings(depth):
            del skel[s]
        depth -= 1
    return depth, sorted(skel.items())


def _reference_leq_n(sub, sup, n):
    """The graded order comparing every splitting level below n."""
    return subtree_leq(sub, sup) and all(
        sub.splitting_level(m) == sup.splitting_level(m) for m in range(n))


DIFF_FAMILY = enumerate_trees(2, 2) + enumerate_trees(3, 1)


def test_subtree_leq_matches_reference():
    assert len(DIFF_FAMILY) ** 2 == 48841
    for sub in DIFF_FAMILY:
        for sup in DIFF_FAMILY:
            assert subtree_leq(sub, sup) == _reference_subtree_leq(sub, sup), \
                (sub.to_json(), sup.to_json())


def test_contains_matches_reference():
    for tree in DIFF_FAMILY:
        for nu in bitstrings_upto(6):
            assert tree.contains(nu) == _reference_contains(tree, nu), \
                (tree.to_json(), nu)


def test_equality_hash_and_cells_match_reference():
    forms = [_reference_canonical(t) for t in DIFF_FAMILY]
    for a, fa in zip(DIFF_FAMILY, forms):
        c = a.canonical()
        assert (c.depth, sorted(c.skeleton.items())) == fa
        for b, fb in zip(DIFF_FAMILY, forms):
            assert (a == b) == (fa == fb)
            if fa == fb:
                assert hash(a) == hash(b)
        for sigma in bitstrings_upto(3):
            depth = max(a.depth - len(sigma), 0)
            assert a.restrict_cell(sigma).skeleton == {
                rho: a.rt(sigma + rho) for rho in bitstrings_upto(depth)}


def test_leq_n_matches_all_levels():
    trees = enumerate_trees(2, 2)
    for sub in trees:
        for sup in trees:
            for n in range(7):
                assert leq_n(sub, sup, n) == _reference_leq_n(sub, sup, n), \
                    (sub.to_json(), sup.to_json(), n)


def test_leq_n_cost_does_not_grow_with_n():
    tree = T1.deepen(2)
    start = time.perf_counter()
    assert leq_n(tree, T1, 10 ** 6)
    assert not leq_n(T1.restrict_cell(bits("0")), T1, 10 ** 6)
    assert time.perf_counter() - start < 1


def test_subtree_leq_cost_is_bounded_by_the_skeleton():
    # a leaf against a tree with a long stem, both ways round
    long_stem = make_tree(0, {"": "0" * 10000})
    start = time.perf_counter()
    assert not subtree_leq(full_tree(), long_stem)
    assert subtree_leq(long_stem, full_tree())
    assert subtree_leq(long_stem.restrict_cell(bits("1")), long_stem)
    assert time.perf_counter() - start < 1


# -- immutability and the trusted constructor ---------------------------------

def test_trees_are_immutable():
    tree = T1.deepen(2)
    before = (tree.canonical(), hash(tree))
    for name, value in (("depth", 1), ("_skel", {(): ()}), ("_canon", None),
                        ("_hash", 0)):
        with pytest.raises(AttributeError):
            setattr(tree, name, value)
        with pytest.raises(AttributeError):
            delattr(tree, name)
    tree.skeleton[()] = bits("1")      # a copy: the tree is unchanged
    assert (tree.canonical(), hash(tree)) == before
    assert tree.depth == 2 and tree == T1
    assert copy.copy(tree) == tree
    assert pickle.loads(pickle.dumps(tree)) == tree


def _revalidate(value):
    """Rebuild a value through the public constructors, which check every
    skeleton entry and every guard partition, and compare."""
    if isinstance(value, SkeletonTree):
        again = SkeletonTree(value.depth, value.skeleton)
        assert again.skeleton == value.skeleton
        assert again == value
    elif isinstance(value, PairCondition):
        _revalidate(value.left)
        _revalidate(value.right)
    elif isinstance(value, IterCondition):
        again = IterCondition(FixedSchedule(value.kinds), value.coords)
        assert again.coords == value.coords
        for table in value.coords:
            for _, payload in table:
                _revalidate(payload)
    else:
        for i in value.support:
            _revalidate(value.coordinate(i))


def test_built_values_pass_the_public_constructors():
    built = 0
    trees = enumerate_trees(2, 2)
    for tree in trees:
        _revalidate(tree)
        for d in range(tree.depth, tree.depth + 2):
            _revalidate(tree.deepen(d))
        _revalidate(tree.deepen(tree.depth + 1).canonical())
        for sigma in bitstrings_upto(3):
            _revalidate(tree.restrict_cell(sigma))
        for n in range(3):
            for sigma in all_bitstrings(n):
                for b in all_bitstrings(1):
                    graft = tree.restrict_cell(sigma + b)
                    _revalidate(amalgamate(tree, sigma, graft))
                    built += 1
    # the iteration fixture of criterion 4
    full = full_tree()
    t_prime = make_tree(1, {"": "1", "0": "10", "1": "11"})
    p = plain_iter([SINGLE, SINGLE], [full, t_prime])
    q = plain_iter([SINGLE, SINGLE],
                   [full.restrict_cell(bits("00")), make_tree(0, {"": "100"})])
    for mode in (COLUMN, PAIRWISE):
        for sigma in bitstrings_upto(4):
            _revalidate(iter_restrict(p, sigma, mode))
            built += 1
    r = iter_amalgamate(p, bits("00"), q, PAIRWISE)
    _revalidate(r)
    for sigma in bitstrings_upto(4):
        _revalidate(iter_restrict(r, sigma, PAIRWISE))
    # the product fixtures of criterion 5
    small = list({t.canonical(): None for t in enumerate_trees(1, 1)})
    for support in ((0,), (0, 1)):
        sbar = list(support)
        for assign in product(small, repeat=len(support)):
            p = ProductCondition({i: plain_iter([SINGLE], [t])
                                  for i, t in zip(support, assign)})
            for sigma in bitstrings_upto(2):
                for ext in bitstrings_upto(1):
                    if width(len(sigma + ext)) > len(sbar):
                        continue
                    q = prod_restrict(p, sigma + ext, sbar)
                    _revalidate(q)
                    _revalidate(prod_amalgamate(p, sigma, sbar, q))
                    built += 1
    assert built > 1000


# -- the JSON boundary and the level bound ----------------------------------

@pytest.mark.parametrize("data", [
    {"depth": "x", "skeleton": {}},
    {"depth": 0, "skeleton": []},
    {"depth": True, "skeleton": {"": ""}},
    {"depth": 1.0, "skeleton": {"": "", "0": "0", "1": "1"}},
    {"depth": 0, "skeleton": {"": 5}},
    {"depth": 0, "skeleton": {"": ["0"]}},
    {"depth": 0, "skeleton": {"": None}},
])
def test_from_json_rejects_malformed_shapes(data):
    with pytest.raises(InputError, match="^tree: |^not a bit string"):
        SkeletonTree.from_json(data)


def test_from_json_names_the_field():
    with pytest.raises(InputError, match="^graft: "):
        SkeletonTree.from_json({"depth": "x", "skeleton": {}}, "graft")
    # content errors keep their class
    with pytest.raises(PreconditionError):
        SkeletonTree.from_json({"depth": 0})
    with pytest.raises(PreconditionError):
        SkeletonTree.from_json({"depth": 0, "skeleton": {"": "2"}})


def test_splitting_level_refuses_past_the_bound():
    start = time.perf_counter()
    with pytest.raises(ResourceError, match=r"2\^40 .*65536"):
        full_tree().splitting_level(40)
    assert time.perf_counter() - start < 2
    with pytest.raises(ResourceError, match=r"2\^17 "):
        T1.splitting_level(17)
    assert len(full_tree().splitting_level(16)) == 1 << 16
    with pytest.raises(PreconditionError):
        full_tree().splitting_level(-1)


def test_skeleton_needs_every_index():
    # the entry count fits depth 0 and 1, but an index is missing
    with pytest.raises(PreconditionError, match=r"missing skeleton index \(\)"):
        SkeletonTree(0, {(0,): ()})
    with pytest.raises(PreconditionError,
                       match=r"missing skeleton index \(1,\)"):
        SkeletonTree(1, {(): (), (0,): (0,), (0, 0): (0, 0)})


def test_amalgamate_refuses_past_the_bound_before_comparing():
    # the full tree is no subtree of a cell of T1, yet the skeleton bound
    # is what a too-long index meets first
    with pytest.raises(ResourceError, match=r"amalgamate would build 2\^17 "
                       "- 1 skeleton entries; the bound is 65536"):
        amalgamate(T1, bits("1" * 16), full_tree())
    with pytest.raises(AmalgamationError, match=" 111111111111110 cell"):
        amalgamate(T1, bits("1" * 14 + "0"), full_tree())
    assert amalgamate(full_tree(), bits("1" * 15),
                      full_tree().restrict_cell(bits("1" * 15))) == full_tree()


def test_fusion_prefix_refuses_a_schedule_entry_that_is_no_index():
    for entry in (-1, 1, 0.0, True, None, "0"):
        with pytest.raises(FusionError, match="^schedule\\[0\\] must be a "
                           "natural number below 1, the sequence's length$"):
            fusion_prefix([full_tree()], [entry], 0)


def test_enumeration_size_is_counted_before_building():
    for max_depth, slack in product(range(4), repeat=2):
        trees = enumerate_trees(max_depth, slack)
        assert _enumeration_size(max_depth, slack) == (
            len(trees), sum(len(t.skeleton) for t in trees))
    assert _enumeration_size(2, 2) == (165, 989)
    assert _enumeration_size(3, 3) == (6876, 95206)


@pytest.mark.parametrize("max_depth, slack",
                         [(4, 4), (3, 8), (25, 0), (0, 10 ** 18)])
def test_enumerate_trees_refuses_past_the_bound(max_depth, slack):
    start = time.perf_counter()
    with pytest.raises(ResourceError, match="enumerate_trees would build at "
                       "least [0-9]+ trees of [0-9]+ skeleton entries in "
                       "all; the bound is 1048576 entries$"):
        enumerate_trees(max_depth, slack)
    assert time.perf_counter() - start < 1


def test_tree_repr_lists_the_canonical_skeleton():
    # pytest prints this in every failed tree assertion
    assert repr(T1) == "SkeletonTree(depth=1, {e:0, 0:00, 1:011})"
    assert repr(full_tree().deepen(1)) == "SkeletonTree(depth=0, {e:e})"


def test_a_tree_equals_no_other_kind_of_value():
    assert T1.__eq__(bits("0")) is NotImplemented
    assert T1 != bits("0") and T1 != "0"
