"""Reference computations the benchmark checks outputs against.

Nothing here calls the evaluators under test: formulas are evaluated by
an independent bitmask evaluator, trees are reduced to a canonical
presentation by their own code, and results are digested so that the
values pinned at one commit can be compared with any later run.
"""

from __future__ import annotations

import hashlib
import json

VARS = ("x", "y")
_VAR_BIT = {"x": 1, "y": 2}
BINARY_OPS = ("And", "Or", "Implies", "Iff")
QUANTIFIERS = ("Forall", "Exists")


# -- the criterion-10 formula population ---------------------------------------

class FormulaPopulation:
    """Every closed formula of size <= max_size over x, y and k
    parameters, built as the acceptance test's generator builds them,
    addressed by rank so that a uniform sample needs no enumeration.

    ``count[s][F]`` is the number of formulas of exact size s whose free
    variables are exactly F (bit 1 for x, bit 2 for y).
    """

    def __init__(self, implicit, k: int, max_size: int = 7):
        self.ast = implicit
        self.terms = [implicit.Var(v) for v in VARS] + [
            implicit.Param(i) for i in range(k)]
        self.max_size = max_size
        count = {s: [0, 0, 0, 0] for s in range(max_size + 1)}
        for t in self.terms:
            count[2][self._fv(t)] += 1
        for t1 in self.terms:
            for t2 in self.terms:
                count[3][self._fv(t1) | self._fv(t2)] += 2
        for size in range(3, max_size + 1):
            for f in range(4):
                c = count[size - 1][f]
                count[size][f] += c
                for v in VARS:
                    count[size][f & ~_VAR_BIT[v]] += 2 * c
            for s1, s2 in self._splits(size):
                for f1 in range(4):
                    for f2 in range(4):
                        count[size][f1 | f2] += (
                            4 * count[s1][f1] * count[s2][f2])
        self.count = count
        self.closed = sum(count[s][0] for s in count)

    @staticmethod
    def _splits(size):
        return [(s1, size - 1 - s1) for s1 in range(2, size - 2)]

    def _fv(self, term):
        return _VAR_BIT.get(getattr(term, "name", None), 0)

    def closed_formula(self, rank: int):
        """The rank-th closed formula, 0 <= rank < self.closed."""
        for size in range(2, self.max_size + 1):
            if rank < self.count[size][0]:
                return self._unrank(size, 0, rank)
            rank -= self.count[size][0]
        raise IndexError("rank outside the population")

    def _unrank(self, size, fv, rank):
        ast = self.ast
        if size == 2:
            terms = [t for t in self.terms if self._fv(t) == fv]
            return ast.Pred(terms[rank])
        if size == 3:
            for t1 in self.terms:
                for t2 in self.terms:
                    if self._fv(t1) | self._fv(t2) == fv:
                        if rank < 2:
                            return (ast.Member, ast.Eq)[rank](t1, t2)
                        rank -= 2
        # unary productions, in the order the generator adds them
        c = self.count[size - 1][fv]
        if rank < c:
            return ast.Not(self._unrank(size - 1, fv, rank))
        rank -= c
        for v in VARS:
            bit = _VAR_BIT[v]
            for inner in (fv, fv | bit) if not fv & bit else ():
                c = self.count[size - 1][inner]
                if rank < 2 * c:
                    q = (ast.Forall, ast.Exists)[rank % 2]
                    return q(v, self._unrank(size - 1, inner, rank // 2))
                rank -= 2 * c
        for s1, s2 in self._splits(size):
            for f1 in range(4):
                for f2 in range(4):
                    if f1 | f2 != fv:
                        continue
                    c1, c2 = self.count[s1][f1], self.count[s2][f2]
                    if rank < 4 * c1 * c2:
                        op = getattr(ast, BINARY_OPS[rank % 4])
                        i1, i2 = divmod(rank // 4, c2)
                        return op(self._unrank(s1, f1, i1),
                                  self._unrank(s2, f2, i2))
                    rank -= 4 * c1 * c2
        raise IndexError("rank outside the population")


# -- the bitmask evaluator ------------------------------------------------------

def satisfying_subsets(f, universe, env=None) -> int:
    """Mask with bit m set when the subset whose positions are the bits
    of m satisfies f; parameter #i names universe[i]."""
    u = len(universe)
    full = (1 << (1 << u)) - 1
    pred = [sum(1 << m for m in range(1 << u) if (m >> j) & 1)
            for j in range(u)]
    position = {c: j for j, c in enumerate(universe)}

    def val_in(t, env):
        if type(t).__name__ == "Var":
            return env[t.name]
        return universe[t.index]

    def go(g, env):
        kind = type(g).__name__
        if kind == "Pred":
            return pred[position[val_in(g.term, env)]]
        if kind == "Member":
            return full if (val_in(g.right, env) >> val_in(g.left, env)) & 1 \
                else 0
        if kind == "Eq":
            return full if val_in(g.left, env) == val_in(g.right, env) else 0
        if kind == "Not":
            return full ^ go(g.body, env)
        if kind in QUANTIFIERS:
            forall = kind == "Forall"
            out = full if forall else 0
            for c in universe:
                m = go(g.body, {**env, g.var: c})
                out = out & m if forall else out | m
            return out
        a, b = go(g.left, env), go(g.right, env)
        if kind == "And":
            return a & b
        if kind == "Or":
            return a | b
        if kind == "Implies":
            return (full ^ a) | b
        if kind == "Iff":
            return full ^ (a ^ b)
        raise TypeError(f"not a formula node: {g!r}")

    return go(f, dict(env or {}))


def unique_subset(f, universe):
    """The one satisfying subset as a frozenset of codes, or None."""
    mask = satisfying_subsets(f, universe)
    if mask == 0 or mask & (mask - 1):
        return None
    m = mask.bit_length() - 1
    return frozenset(universe[j] for j in range(len(universe))
                     if (m >> j) & 1)


# -- canonical forms and digests ------------------------------------------------

def _bits(b):
    return "".join(map(str, b))


def tree_normal_form(depth, skeleton):
    """Minimal-depth presentation of a skeleton tree as sorted
    (index, entry) bitstring pairs: a frontier level whose entries all
    just extend their parent by the index bit carries no information."""
    skel = {tuple(k): tuple(v) for k, v in skeleton.items()}
    while depth > 0:
        level = [s for s in skel if len(s) == depth]
        if any(skel[s] != skel[s[:-1]] + s[-1:] for s in level):
            break
        for s in level:
            del skel[s]
        depth -= 1
    return sorted((_bits(k), _bits(v)) for k, v in skel.items())


def normal_form(value):
    """JSON-ready normal form of a result; presentations of the same
    tree and reorderings of guarded rows map to the same value."""
    kind = type(value).__name__
    if kind == "SkeletonTree":
        return ["tree", tree_normal_form(value.depth, value.skeleton)]
    if kind == "PairCondition":
        return ["pair", normal_form(value.left), normal_form(value.right)]
    if kind == "IterCondition":
        return ["iter", list(value.kinds), [
            sorted(json.dumps([sorted((k, _bits(a)) for k, a in g.items()),
                               normal_form(pay)])
                   for g, pay in table)
            for table in value.coords]]
    if kind == "ProductCondition":
        return ["product", [[repr(i), normal_form(value.coordinate(i))]
                            for i in value.support]]
    if isinstance(value, (frozenset, set)):
        return sorted(normal_form(v) for v in value)
    if isinstance(value, tuple) and all(v in (0, 1) for v in value):
        return _bits(value)
    if isinstance(value, (list, tuple)):
        return [normal_form(v) for v in value]
    return value


def json_normal_form(value):
    """normal_form for decoded CLI output: tree presentations inside it
    are reduced, condition rows sorted."""
    if isinstance(value, dict):
        if set(value) == {"depth", "skeleton"}:
            skel = {tuple(int(c) for c in k): tuple(int(c) for c in v)
                    for k, v in value["skeleton"].items()}
            return ["tree", tree_normal_form(value["depth"], skel)]
        out = {k: json_normal_form(v) for k, v in value.items()}
        if out.get("kind") == "iter":
            out["coords"] = [sorted(json.dumps(row, sort_keys=True)
                                    for row in table)
                             for table in out["coords"]]
        return out
    if isinstance(value, list):
        return [json_normal_form(v) for v in value]
    return value


def digest(value) -> str:
    """Eight hex digits identifying a normal form."""
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(text.encode(), digest_size=4).hexdigest()


def token(value) -> str:
    """Pinned token of one result: '0'/'1' for booleans, else a digest."""
    if isinstance(value, bool):
        return "1" if value else "0"
    return digest(normal_form(value))
