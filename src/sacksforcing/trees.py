"""Perfect binary trees presented by a finite splitting skeleton.

A perfect tree here is an infinite downward-closed set of bit strings in
which every node has a splitting node above it.  We work with the class of
trees that are *eventually full*: below a finite depth of splitting nodes
the tree carries on as the complete binary tree.  Such a tree is captured
exactly by a skeleton: a depth d together with a map e from index strings
sigma (|sigma| <= d) to nodes, where e(sigma) is the sigma-th splitting
node and e(sigma + (i,)) extends e(sigma) + (i,).  The tree presented is
the downward closure of { e(sigma) + rho : |sigma| = d, rho any string }.

The same tree has many presentations (deepening a skeleton never changes
the tree), so equality compares the canonical minimal presentations.

Index strings address everything: rt(sigma) is the sigma-th splitting
node also beyond the stored depth, restrict_cell(sigma) is the subtree of
nodes comparable with rt(sigma), and splitting_level(n) collects the 2^n
splitting nodes with index length n.

Trees are validated once, at the boundary.  The public constructor and
``from_json`` check every entry; the trees this module and the condition
layer build themselves (deepen, canonical, restrict_cell, amalgamate, ...)
are valid by construction and come from the private ``_trusted``
constructor, which checks nothing.  Public methods check their bit-string
arguments once and hand them to unchecked private twins (``_rt``,
``_restrict_cell``, ``_contains``, ``_graft``) that internal callers use
directly.  ``_graft``, amalgamate's twin, overwrites the cell's entries
in a deepened copy of the tree's skeleton; it can skip the comparison of
the graft with its cell, but the MAX_SKELETON_ENTRIES bound holds on
every path.
Trees are immutable, so each caches its canonical form the first time
it is asked for, and ``==`` and ``hash`` reuse it.

Two queries walk the skeleton instead of listing the frontier.
``contains`` follows the node down the skeleton, taking at each splitting
entry the branch the node's next bit dictates, so it costs O(depth)
steps rather than a scan of all 2^depth frontier entries.
``_cell_leq`` and ``subtree_leq``, its root cell, walk sub's skeleton
together with sup's from the cell down, building no cell; each step goes
one level down sup's skeleton, so the cost is bounded by sup's skeleton
and not by the length of its entries.
"""

from __future__ import annotations

from itertools import product
from math import comb

from .bitseq import Bits, bits, bits_str, check_bits
from .errors import (AmalgamationError, FusionError, PreconditionError,
                     ResourceError, check_natural, json_fields, json_int)

# amalgamate refuses to build a skeleton with more entries than this, and
# the level-n queries refuse to list more than this many cells
MAX_SKELETON_ENTRIES = 1 << 16
_MAX_LEVEL = MAX_SKELETON_ENTRIES.bit_length() - 1
# enumerate_trees refuses a family of more skeleton entries than this
MAX_ENUMERATED_ENTRIES = 1 << 20

# index strings of at most this length are built once and shared
_CACHED_LENGTH = 10
_STRINGS = {}
_UPTO = {}


def _is_prefix(a: Bits, b: Bits) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a


def _strings(n: int):
    """All bit tuples of length exactly n, lexicographically, as a tuple."""
    out = _STRINGS.get(n)
    if out is None:
        out = tuple(product((0, 1), repeat=n))
        if n <= _CACHED_LENGTH:
            _STRINGS[n] = out
    return out


def _upto(n: int):
    """All bit tuples of length at most n, shortest first, as a tuple."""
    out = _UPTO.get(n)
    if out is None:
        out = tuple(s for k in range(n + 1) for s in _strings(k))
        if n <= _CACHED_LENGTH:
            _UPTO[n] = out
    return out


def _check_cells(op, n, work=None):
    """Refuse a level n that is not a natural or is past _MAX_LEVEL; work
    says what a query that loops over the 2^n cells would do there."""
    if check_natural(n, "level n") > _MAX_LEVEL:
        raise ResourceError(
            f"{op} refuses level {n}, past the cap of {_MAX_LEVEL}"
            if work is None else f"{op} would {work.format(n)}; the bound "
            f"is {MAX_SKELETON_ENTRIES}")


def all_bitstrings(n: int):
    """All bit tuples of length exactly n, lexicographically."""
    return list(_strings(n))


def bitstrings_upto(n: int):
    """All bit tuples of length at most n, shortest first."""
    return list(_upto(n))


_set = object.__setattr__


class SkeletonTree:
    # _canon is None until computed, False when this presentation is
    # already minimal, else the minimal tree
    __slots__ = ("depth", "_skel", "_canon")

    def __init__(self, depth: int, skeleton):
        check_natural(depth, "depth")
        skel = {}
        for key, entry in skeleton.items():
            skel[check_bits(key)] = check_bits(entry)
        # compare bit lengths first, so a huge depth never builds 2^depth
        count = len(skel)
        if count.bit_length() != depth + 1 or count != (2 << depth) - 1:
            raise PreconditionError(
                f"skeleton must have one entry per index of length <= {depth}")
        for sigma in _upto(depth):
            if sigma not in skel:
                raise PreconditionError(f"missing skeleton index {sigma}")
            if sigma and not _is_prefix(skel[sigma[:-1]] + sigma[-1:], skel[sigma]):
                raise PreconditionError(
                    f"entry at {sigma} does not extend its parent entry")
        self._fill(depth, {s: skel[s] for s in _upto(depth)})  # shortest first

    @classmethod
    def _trusted(cls, depth: int, skel) -> "SkeletonTree":
        """A tree from a skeleton that is valid by construction: a dict of
        bit tuples with every index of length <= depth, shortest first,
        each entry extending its parent entry plus the last index bit.
        Nothing is checked, and the dict is taken over, not copied."""
        tree = object.__new__(cls)
        tree._fill(depth, skel)
        return tree

    def _fill(self, depth, skel):
        _set(self, "depth", depth)
        _set(self, "_skel", skel)
        _set(self, "_canon", None)

    def __setattr__(self, name, value):
        raise AttributeError(f"SkeletonTree is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(
            f"SkeletonTree is immutable: cannot delete {name!r}")

    def __reduce__(self):
        return SkeletonTree, (self.depth, dict(self._skel))

    # -- presentation --------------------------------------------------

    @property
    def skeleton(self):
        return dict(self._skel)

    def entry(self, sigma) -> Bits:
        """The stored skeleton entry at an index of at most the stored
        depth; rt answers for indices of any length."""
        sigma = check_bits(sigma)
        if len(sigma) > self.depth:
            raise PreconditionError(
                f"an index of length {len(sigma)} is past the stored "
                f"depth {self.depth}")
        return self._skel[sigma]

    def deepen(self, depth: int) -> "SkeletonTree":
        """Re-present the same tree with a deeper skeleton."""
        if check_natural(depth, "depth") < self.depth:
            raise PreconditionError("deepen cannot reduce the stored depth")
        if depth == self.depth:
            return self
        skel = dict(self._skel)
        for k in range(self.depth + 1, depth + 1):
            for sigma in _strings(k):
                skel[sigma] = skel[sigma[:-1]] + sigma[-1:]
        return SkeletonTree._trusted(depth, skel)

    def canonical(self) -> "SkeletonTree":
        """The unique minimal-depth presentation of this tree.

        Its depth is the longest index whose entry does more than extend
        its parent entry by the index's last bit.  Computed once.
        """
        if self._canon is None:
            skel = self._skel
            depth = 0
            for sigma, e in skel.items():
                if len(sigma) > depth and len(e) != len(skel[sigma[:-1]]) + 1:
                    depth = len(sigma)
            canon = False
            if depth < self.depth:
                canon = SkeletonTree._trusted(depth, {
                    s: e for s, e in skel.items() if len(s) <= depth})
                _set(canon, "_canon", False)
            _set(self, "_canon", canon)
        return self._canon or self

    def __eq__(self, other):
        if not isinstance(other, SkeletonTree):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return a is b or (a.depth == b.depth and a._skel == b._skel)

    def __hash__(self):
        c = self.canonical()
        return hash((c.depth, frozenset(c._skel.items())))

    def __repr__(self):
        c = self.canonical()
        parts = ", ".join(
            f"{bits_str(k) or 'e'}:{bits_str(v) or 'e'}"
            for k, v in sorted(c._skel.items(), key=lambda kv: (len(kv[0]), kv[0])))
        return f"SkeletonTree(depth={c.depth}, {{{parts}}})"

    # -- the tree itself ------------------------------------------------

    def stem(self) -> Bits:
        return self._skel[()]

    def contains(self, node) -> bool:
        """Membership in the presented tree."""
        return self._contains(check_bits(node))

    def _contains(self, node: Bits) -> bool:
        """A string is a node exactly when it is comparable with some
        frontier entry.  Every frontier entry below index sigma extends
        e(sigma), so walk down from the root: a node that is a prefix of
        e(sigma) is in, one incomparable with it is out, and one that
        extends it can only meet the frontier below sigma + (its next
        bit,).  A node extending a frontier entry is in the full tail."""
        skel = self._skel
        sigma = ()
        while True:
            e = skel[sigma]
            if len(node) <= len(e):
                return e[: len(node)] == node
            if node[: len(e)] != e:
                return False
            if len(sigma) == self.depth:
                return True
            sigma += (node[len(e)],)

    def rt(self, sigma) -> Bits:
        """The sigma-th splitting node, for index strings of any length."""
        return self._rt(check_bits(sigma))

    def _rt(self, sigma: Bits) -> Bits:
        if len(sigma) <= self.depth:
            return self._skel[sigma]
        return self._skel[sigma[: self.depth]] + sigma[self.depth:]

    def splitting_level(self, n: int) -> frozenset:
        _check_cells("splitting_level", n, "build 2^{} splitting nodes")
        return frozenset(self._rt(sigma) for sigma in _strings(n))

    def restrict_cell(self, sigma) -> "SkeletonTree":
        """The subtree of nodes comparable with rt(sigma)."""
        return self._restrict_cell(check_bits(sigma))

    def _restrict_cell(self, sigma: Bits) -> "SkeletonTree":
        depth = self.depth - len(sigma)
        if depth <= 0:
            return SkeletonTree._trusted(0, {(): self._rt(sigma)})
        skel = self._skel
        return SkeletonTree._trusted(
            depth, {rho: skel[sigma + rho] for rho in _upto(depth)})

    def restrict_node(self, tau) -> "SkeletonTree":
        """The subtree of nodes comparable with tau (tau must be a node).

        The result equals restrict_cell at the least index sigma whose
        splitting node extends tau; one walk down the skeleton in the
        direction tau dictates finds it, or where tau leaves the tree.
        """
        tau = check_bits(tau)
        sigma = ()
        while not _is_prefix(tau, e := self._rt(sigma)):
            if tau[: len(e)] != e:
                raise PreconditionError(f"{bits_str(tau) or 'the empty string'}"
                                        f" is not a node of this tree")
            sigma = sigma + (tau[len(e)],)
        return self._restrict_cell(sigma)

    # -- serialization --------------------------------------------------

    def to_json(self):
        return {
            "depth": self.depth,
            "skeleton": {bits_str(k): bits_str(v) for k, v in self._skel.items()},
        }

    @classmethod
    def from_json(cls, data, name="tree") -> "SkeletonTree":
        """Decode to_json's object; name, its path in the input, opens
        every message, followed by the field at fault."""
        if not isinstance(data, dict) or "depth" not in data or "skeleton" not in data:
            raise PreconditionError(f"{name}: tree JSON needs 'depth' and "
                                    f"'skeleton'")
        depth = json_int(data["depth"], f"{name}: depth")
        at = f"{name}: skeleton"
        json_fields(data["skeleton"], at)
        return cls(depth, {bits(k, at): bits(v, at)
                           for k, v in data["skeleton"].items()})


def full_tree() -> SkeletonTree:
    """The complete binary tree."""
    return SkeletonTree._trusted(0, {(): ()})


def subtree_leq(sub: SkeletonTree, sup: SkeletonTree) -> bool:
    """Whether sub is a subtree (i.e. a subset of nodes) of sup."""
    return _cell_leq(sub, sup)


def _cell_leq(sub: SkeletonTree, sup: SkeletonTree, sigma: Bits = ()) -> bool:
    """Whether sub is a subtree of sup's sigma-cell, read in place.

    Walk both skeletons from the roots, asking whether the s-cell of sub
    lies in the sigma + t cell of sup.  With a = rt_sub(s) and b =
    rt_sup(sigma + t): unless b is a prefix of a, some node of the s-cell
    (a itself, or a branch leaving a below b) is outside the cell.
    Otherwise, at or past sup's stored depth the cell is full above b and
    holds the whole s-cell; before it, if a == b both cells split there
    and the two child cells must match up, and if a goes past b the
    s-cell runs into the one child cell that a's next bit names.
    """
    if len(sigma) >= sup.depth:
        return _is_prefix(sup._rt(sigma), sub._skel[()])
    stack = [((), sigma)]
    while stack:
        s, t = stack.pop()
        a, b = sub._rt(s), sup._skel[t]
        if not _is_prefix(b, a):
            return False
        if len(t) == sup.depth:
            continue
        if len(a) == len(b):
            stack.append((s + (0,), t + (0,)))
            stack.append((s + (1,), t + (1,)))
        else:
            stack.append((s, t + (a[len(b)],)))
    return True


def leq_n(sub: SkeletonTree, sup: SkeletonTree, n: int) -> bool:
    """Subtree order refined by agreement of splitting levels below n.

    Past both stored depths level m + 1 is {e + (i,) : e in level m}, so
    levels that agree at the larger depth agree at every later one and
    only the levels below min(n, larger depth + 1) are compared.

    Listed by index, a level is strictly increasing in lexicographic
    order (indices first differing at bit i name nodes past rt(their
    common prefix) + (0,) and + (1,)), so two levels are equal as sets
    exactly when they agree index by index.
    """
    top = min(check_natural(n, "level n"), max(sub.depth, sup.depth) + 1)
    return _cell_leq(sub, sup) and all(
        sub._rt(s) == sup._rt(s) for m in range(top) for s in _strings(m))


def leq_n_cellwise(sub: SkeletonTree, sup: SkeletonTree, n: int) -> bool:
    """Equivalent formulation of leq_n: cellwise subtree containment at
    every index of length n.  Kept separate so the two can be checked
    against each other."""
    _check_cells("leq_n_cellwise", n, "compare 2^{} pairs of restrictions")
    return all(
        subtree_leq(sub._restrict_cell(sigma), sup._restrict_cell(sigma))
        for sigma in _strings(n))


def amalgamate(tree: SkeletonTree, sigma, graft: SkeletonTree) -> SkeletonTree:
    """Replace the sigma-cell of tree by graft, keeping every other cell.

    graft must be a subtree of the sigma-cell.  The result R satisfies
    R.restrict_cell(sigma) == graft, R.restrict_cell(tau) ==
    tree.restrict_cell(tau) for the other indices tau of the same length,
    and leq_n(R, tree, len(sigma)).  A result whose skeleton would have
    more than MAX_SKELETON_ENTRIES entries raises ResourceError before
    anything is built or compared.
    """
    return _graft(tree, check_bits(sigma), graft, check=True)


def _graft(tree: SkeletonTree, sigma: Bits, graft: SkeletonTree,
           check=False) -> SkeletonTree:
    """amalgamate for a bit tuple sigma.  Unless check is set, graft must
    already be known to lie in the sigma-cell, and only the skeleton
    bound is checked; it comes first either way."""
    n = len(sigma)
    depth = n + max(graft.depth, max(tree.depth, n) - n)
    if depth >= _MAX_LEVEL:  # 2^(depth + 1) - 1 > MAX_SKELETON_ENTRIES
        raise ResourceError(
            f"amalgamate would build 2^{depth + 1} - 1 skeleton entries; "
            f"the bound is {MAX_SKELETON_ENTRIES}")
    if check and not _cell_leq(graft, tree, sigma):
        raise AmalgamationError(
            f"graft is not a subtree of the {bits_str(sigma) or 'root'} cell")
    skel = dict(tree.deepen(depth)._skel)
    for rho in _upto(depth - n):
        skel[sigma + rho] = graft._rt(rho)
    return SkeletonTree._trusted(depth, skel)


def fusion_prefix(seq, schedule, n: int) -> SkeletonTree:
    """Depth-n skeleton of the limit of a scheduled decreasing sequence.

    seq is a decreasing list of trees and schedule[j] (j <= n) says from
    which point on the sequence is frozen at splitting levels below j.
    The returned tree carries the splitting levels 0..n of
    seq[schedule[n]] and is full binary below them; it contains every
    later member of the sequence, so it over-approximates the limit while
    agreeing with it through the settled levels.
    """
    if not seq:
        raise FusionError("fusion_prefix needs a nonempty sequence")
    if len(schedule) < check_natural(n, "n") + 1:
        raise FusionError(f"schedule must cover levels 0..{n}")
    for j in range(n + 1):
        if type(schedule[j]) is not int or not 0 <= schedule[j] < len(seq):
            raise FusionError(f"schedule[{j}] must be a natural number "
                              f"below {len(seq)}, the sequence's length")
    for m in range(len(seq) - 1):
        if not subtree_leq(seq[m + 1], seq[m]):
            raise FusionError(f"sequence increases at step {m}")
    for j in range(n + 1):
        for m in range(schedule[j], len(seq) - 1):
            if not leq_n(seq[m + 1], seq[m], j):
                raise FusionError(
                    f"levels below {j} move at step {m}, after schedule[{j}]")
    base = seq[schedule[n]]
    return SkeletonTree._trusted(n, {rho: base._rt(rho) for rho in _upto(n)})


def _enumeration_size(max_depth: int, slack: int):
    """(trees, skeleton entries) of enumerate_trees(max_depth, slack),
    counted without building anything; the count stops as soon as the
    entries pass MAX_ENUMERATED_ENTRIES.  Depth d has E = 2^(d+1) - 1
    slots, the stem and one per edge, and a skeleton that spends t extra
    bits on them is one of 2^t C(t + E - 1, E - 1)."""
    trees = entries = 0
    for depth in range(max_depth + 1):
        slots = (2 << depth) - 1
        for t in range(slack + 1):
            count = comb(t + slots - 1, t) << t
            trees += count
            entries += count * slots
            if entries > MAX_ENUMERATED_ENTRIES:
                return trees, entries
    return trees, entries


def enumerate_trees(max_depth: int, slack: int):
    """Exhaustive bounded family of skeleton presentations.

    Yields every skeleton of depth <= max_depth in which the stem plus
    all the per-edge extensions spend at most ``slack`` bits in total
    beyond the minimal ones.  The family deliberately includes distinct
    presentations of the same tree.  A family of more than
    MAX_ENUMERATED_ENTRIES skeleton entries in all is refused before
    anything is built.
    """
    trees, entries = _enumeration_size(check_natural(max_depth, "max_depth"),
                                       check_natural(slack, "slack"))
    if entries > MAX_ENUMERATED_ENTRIES:
        raise ResourceError(
            f"enumerate_trees would build at least {trees} trees of "
            f"{entries} skeleton entries in all; the bound is "
            f"{MAX_ENUMERATED_ENTRIES} entries")
    out = []
    for depth in range(max_depth + 1):
        edges = _upto(depth)[1:]

        def assign(i, budget, skel):
            if i == len(edges):
                out.append(SkeletonTree._trusted(depth, dict(skel)))
                return
            sigma = edges[i]
            base = skel[sigma[:-1]] + sigma[-1:]
            for ext in _upto(budget):
                skel[sigma] = base + ext
                assign(i + 1, budget - len(ext), skel)
            del skel[sigma]

        for stem in _upto(slack):
            assign(0, slack - len(stem), {(): stem})
    return out


def tree_dot(tree: SkeletonTree) -> str:
    """Deterministic DOT rendering of the skeleton (indices as nodes)."""
    lines = ["digraph tree {", "  rankdir=TB;"]
    idx = _upto(tree.depth)
    for sigma in idx:
        name = bits_str(sigma) or "root"
        label = bits_str(tree._skel[sigma]) or "()"
        lines.append(f'  "{name}" [label="{label}"];')
    for sigma in idx:
        if sigma:
            parent = bits_str(sigma[:-1]) or "root"
            lines.append(f'  "{parent}" -> "{bits_str(sigma)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
