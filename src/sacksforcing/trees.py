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
the tree), so equality first reduces both sides to the canonical minimal
presentation.

Index strings address everything: rt(sigma) is the sigma-th splitting
node also beyond the stored depth, restrict_cell(sigma) is the subtree of
nodes comparable with rt(sigma), and splitting_level(n) collects the 2^n
splitting nodes with index length n.
"""

from __future__ import annotations

from itertools import product

from .bitseq import Bits, bits_str, check_bits
from .errors import (AmalgamationError, FusionError, PreconditionError,
                     ResourceError)

# amalgamate refuses to build a skeleton with more entries than this
MAX_SKELETON_ENTRIES = 1 << 16


def _is_prefix(a: Bits, b: Bits) -> bool:
    return len(a) <= len(b) and b[: len(a)] == a


def all_bitstrings(n: int):
    """All bit tuples of length exactly n, lexicographically."""
    return [tuple(p) for p in product((0, 1), repeat=n)]


def bitstrings_upto(n: int):
    """All bit tuples of length at most n, shortest first."""
    out = []
    for k in range(n + 1):
        out.extend(all_bitstrings(k))
    return out


class SkeletonTree:
    __slots__ = ("depth", "_skel")

    def __init__(self, depth: int, skeleton):
        if depth < 0:
            raise PreconditionError("depth must be a natural")
        skel = {}
        for key, entry in skeleton.items():
            skel[check_bits(key)] = check_bits(entry)
        expected = 2 ** (depth + 1) - 1
        if len(skel) != expected:
            raise PreconditionError(
                f"skeleton must have one entry per index of length <= {depth}")
        for sigma in bitstrings_upto(depth):
            if sigma not in skel:
                raise PreconditionError(f"missing skeleton index {sigma}")
            if sigma and not _is_prefix(skel[sigma[:-1]] + sigma[-1:], skel[sigma]):
                raise PreconditionError(
                    f"entry at {sigma} does not extend its parent entry")
        self.depth = depth
        self._skel = skel

    # -- presentation --------------------------------------------------

    @property
    def skeleton(self):
        return dict(self._skel)

    def entry(self, sigma) -> Bits:
        return self._skel[check_bits(sigma)]

    def deepen(self, depth: int) -> "SkeletonTree":
        """Re-present the same tree with a deeper skeleton."""
        if depth < self.depth:
            raise PreconditionError("deepen cannot reduce the stored depth")
        skel = dict(self._skel)
        for sigma in bitstrings_upto(depth):
            if len(sigma) > self.depth:
                skel[sigma] = skel[sigma[:-1]] + sigma[-1:]
        return SkeletonTree(depth, skel)

    def canonical(self) -> "SkeletonTree":
        """The unique minimal-depth presentation of this tree."""
        depth = self.depth
        skel = dict(self._skel)
        while depth > 0 and all(
                skel[sigma] == skel[sigma[:-1]] + sigma[-1:]
                for sigma in all_bitstrings(depth)):
            for sigma in all_bitstrings(depth):
                del skel[sigma]
            depth -= 1
        return SkeletonTree(depth, skel)

    def __eq__(self, other):
        if not isinstance(other, SkeletonTree):
            return NotImplemented
        a, b = self.canonical(), other.canonical()
        return a.depth == b.depth and a._skel == b._skel

    def __hash__(self):
        c = self.canonical()
        return hash((c.depth, tuple(sorted(c._skel.items()))))

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
        """Membership in the presented tree.

        A string is a node exactly when it is comparable with some
        frontier skeleton entry: prefixes are picked up by downward
        closure, extensions by the full binary tail.
        """
        node = check_bits(node)
        return any(
            _is_prefix(node, e) or _is_prefix(e, node)
            for e in (self._skel[s] for s in all_bitstrings(self.depth)))

    def rt(self, sigma) -> Bits:
        """The sigma-th splitting node, for index strings of any length."""
        sigma = check_bits(sigma)
        if len(sigma) <= self.depth:
            return self._skel[sigma]
        return self._skel[sigma[: self.depth]] + sigma[self.depth:]

    def splitting_level(self, n: int) -> frozenset:
        if n < 0:
            raise PreconditionError("level must be a natural")
        return frozenset(self.rt(sigma) for sigma in all_bitstrings(n))

    def restrict_cell(self, sigma) -> "SkeletonTree":
        """The subtree of nodes comparable with rt(sigma)."""
        sigma = check_bits(sigma)
        depth = max(self.depth - len(sigma), 0)
        skel = {rho: self.rt(sigma + rho) for rho in bitstrings_upto(depth)}
        return SkeletonTree(depth, skel)

    def restrict_node(self, tau) -> "SkeletonTree":
        """The subtree of nodes comparable with tau (tau must be a node).

        The result equals restrict_cell at the least index sigma whose
        splitting node extends tau; we find it by walking the skeleton in
        the direction tau dictates.
        """
        tau = check_bits(tau)
        if not self.contains(tau):
            raise PreconditionError(f"{bits_str(tau) or 'the empty string'} "
                                    f"is not a node of this tree")
        sigma = ()
        while not _is_prefix(tau, self.rt(sigma)):
            sigma = sigma + (tau[len(self.rt(sigma))],)
        return self.restrict_cell(sigma)

    # -- serialization --------------------------------------------------

    def to_json(self):
        return {
            "depth": self.depth,
            "skeleton": {bits_str(k): bits_str(v) for k, v in self._skel.items()},
        }

    @classmethod
    def from_json(cls, data) -> "SkeletonTree":
        from .bitseq import bits
        if not isinstance(data, dict) or "depth" not in data or "skeleton" not in data:
            raise PreconditionError("tree JSON needs 'depth' and 'skeleton'")
        skel = {bits(k): bits(v) for k, v in data["skeleton"].items()}
        return cls(data["depth"], skel)


def full_tree() -> SkeletonTree:
    """The complete binary tree."""
    return SkeletonTree(0, {(): ()})


def node_set(tree: SkeletonTree, max_len: int):
    """All nodes of the tree up to the given length, as a set."""
    out = set()
    for nu in bitstrings_upto(max_len):
        if tree.contains(nu):
            out.add(nu)
    return out


def subtree_leq(sub: SkeletonTree, sup: SkeletonTree) -> bool:
    """Whether sub is a subtree (i.e. a subset of nodes) of sup.

    Deepen sub until its frontier entries are longer than every skeleton
    entry of sup; then sub is contained in sup iff each frontier entry is
    a node of sup, because everything beyond sup's entries is either
    outside sup or in its full binary tail.
    """
    max_len = max(len(e) for e in sup._skel.values())
    frontier = [sub.rt(s) for s in all_bitstrings(sub.depth)]
    extra = max(0, max_len + 1 - min(len(e) for e in frontier))
    for sigma in all_bitstrings(sub.depth + extra):
        if not sup.contains(sub.rt(sigma)):
            return False
    return True


def leq_n(sub: SkeletonTree, sup: SkeletonTree, n: int) -> bool:
    """Subtree order refined by agreement of splitting levels below n."""
    if n < 0:
        raise PreconditionError("level must be a natural")
    if not subtree_leq(sub, sup):
        return False
    return all(sub.splitting_level(m) == sup.splitting_level(m) for m in range(n))


def leq_n_cellwise(sub: SkeletonTree, sup: SkeletonTree, n: int) -> bool:
    """Equivalent formulation of leq_n: cellwise subtree containment at
    every index of length n.  Kept separate so the two can be checked
    against each other."""
    if n < 0:
        raise PreconditionError("level must be a natural")
    return all(
        subtree_leq(sub.restrict_cell(sigma), sup.restrict_cell(sigma))
        for sigma in all_bitstrings(n))


def amalgamate(tree: SkeletonTree, sigma, graft: SkeletonTree) -> SkeletonTree:
    """Replace the sigma-cell of tree by graft, keeping every other cell.

    graft must be a subtree of the sigma-cell.  The result R satisfies
    R.restrict_cell(sigma) == graft, R.restrict_cell(tau) ==
    tree.restrict_cell(tau) for the other indices tau of the same length,
    and leq_n(R, tree, len(sigma)).  A result whose skeleton would have
    more than MAX_SKELETON_ENTRIES entries raises ResourceError before
    anything is built.
    """
    sigma = check_bits(sigma)
    n = len(sigma)
    extra = max(graft.depth, max(tree.depth, n) - n)
    entries = 2 ** (n + extra + 1) - 1
    if entries > MAX_SKELETON_ENTRIES:
        raise ResourceError(
            f"amalgamate would build {entries} skeleton entries; the bound "
            f"is {MAX_SKELETON_ENTRIES}")
    if not subtree_leq(graft, tree.restrict_cell(sigma)):
        raise AmalgamationError(
            f"graft is not a subtree of the {bits_str(sigma) or 'root'} cell")
    skel = {}
    for rho in bitstrings_upto(n + extra):
        if len(rho) >= n and rho[:n] == sigma:
            skel[rho] = graft.rt(rho[n:])
        else:
            skel[rho] = tree.rt(rho)
    return SkeletonTree(n + extra, skel)


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
    if len(schedule) < n + 1:
        raise FusionError(f"schedule must cover levels 0..{n}")
    for j in range(n + 1):
        if not 0 <= schedule[j] < len(seq):
            raise FusionError(f"schedule[{j}] is outside the sequence")
    for m in range(len(seq) - 1):
        if not subtree_leq(seq[m + 1], seq[m]):
            raise FusionError(f"sequence increases at step {m}")
    for j in range(n + 1):
        for m in range(schedule[j], len(seq) - 1):
            if not leq_n(seq[m + 1], seq[m], j):
                raise FusionError(
                    f"levels below {j} move at step {m}, after schedule[{j}]")
    base = seq[schedule[n]]
    return SkeletonTree(n, {rho: base.rt(rho) for rho in bitstrings_upto(n)})


def enumerate_trees(max_depth: int, slack: int):
    """Exhaustive bounded family of skeleton presentations.

    Yields every skeleton of depth <= max_depth in which the stem plus
    all the per-edge extensions spend at most ``slack`` bits in total
    beyond the minimal ones.  The family deliberately includes distinct
    presentations of the same tree.
    """
    out = []
    for depth in range(max_depth + 1):
        edges = [sigma for sigma in bitstrings_upto(depth) if sigma]

        def assign(i, budget, skel):
            if i == len(edges):
                out.append(SkeletonTree(depth, dict(skel)))
                return
            sigma = edges[i]
            base = skel[sigma[:-1]] + sigma[-1:]
            for ext in bitstrings_upto(budget):
                skel[sigma] = base + ext
                assign(i + 1, budget - len(ext), skel)
            del skel[sigma]

        for stem in bitstrings_upto(slack):
            assign(0, slack - len(stem), {(): stem})
    return out


def tree_dot(tree: SkeletonTree) -> str:
    """Deterministic DOT rendering of the skeleton (indices as nodes)."""
    lines = ["digraph tree {", "  rankdir=TB;"]
    idx = sorted(bitstrings_upto(tree.depth), key=lambda s: (len(s), s))
    for sigma in idx:
        name = bits_str(sigma) or "root"
        label = bits_str(tree.entry(sigma)) or "()"
        lines.append(f'  "{name}" [label="{label}"];')
    for sigma in idx:
        if sigma:
            parent = bits_str(sigma[:-1]) or "root"
            lines.append(f'  "{parent}" -> "{bits_str(sigma)}";')
    lines.append("}")
    return "\n".join(lines) + "\n"
