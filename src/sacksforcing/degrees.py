"""Degree lattices at desk scale.

A single-step extension stacks one new degree on the old top; a
two-sided step inserts a pair of mutually incomparable degrees between
consecutive chain points (a diamond).  This module builds the resulting
finite posets from step recipes, and implements the two bit-codings that
ride on them:

* the tower census, recording for each tower height whether the model
  keeps ONE maximal tower of that height or unboundedly MANY;
* the line/diamond pattern of a self-coding recipe, which stores a base
  n (the level of the first diamond, minus one) and a bit string g (one
  bit per level after the base block).

The census decoders are checked inverses: each encodes its answer again
and returns it only when that gives back the input, and raises
DecodeError otherwise.  sc_decode is an exact inverse with no such
check: lines up to level n, a diamond at n+1 and one level per bit of g
are the whole pattern of (n, g), and a pattern with no diamond raises
DecodeError.

Step recipes (TowerRecipe) and the self-coding rule (sc_schedule) live
in the condition layer, where the same kinds schedule iterations; this
module re-exports them.

Uncountable multiplicities are collapsed to the symbolic count MANY:
the codings only ever consume the one/many distinction, and removing
half of an unbounded family leaves it unbounded.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain

from .bitseq import Bits, check_bits
from .conditions import (MAX_SCHEDULE_STEPS, PAIR, SINGLE, TowerRecipe,
                         sc_schedule)
from .errors import (DecodeError, InputError, PreconditionError,
                     check_items, check_mapping, check_natural, check_type,
                     json_choice, json_fields, json_int, json_list)

ONE = "one"
MANY = "many"

LINE = "line"
DIAMOND = "diamond"


@dataclass(frozen=True, order=True)
class Ordinal2:
    """w*a + b with naturals a, b; lexicographic order is ordinal order."""

    a: int
    b: int

    def __post_init__(self):
        check_natural(self.a, "ordinal part a")
        check_natural(self.b, "ordinal part b")

    @property
    def is_zero(self):
        return self.a == 0 and self.b == 0

    def to_json(self):
        return [self.a, self.b]

    @classmethod
    def from_json(cls, data, name="ordinal"):
        if not isinstance(data, list) or len(data) != 2:
            raise InputError(f"{name}: expected [a, b] with naturals a, b")
        return cls(json_int(data[0], name, 0), json_int(data[1], name, 0))


class DegreePoset:
    """Finite poset given by Hasse edges; must be acyclic with a unique
    minimal node."""

    def __init__(self, nodes, edges):
        for field, value in (("nodes", nodes), ("edges", edges)):
            if not isinstance(value, (list, tuple)):
                raise InputError(f"poset: {field}: expected a list")
        if any(not isinstance(e, (list, tuple)) or len(e) != 2 for e in edges):
            raise InputError("poset: edges: expected [lower, upper] pairs")
        self.nodes, self.edges = tuple(nodes), tuple(map(tuple, edges))
        if not all(isinstance(v, str) for v in chain(self.nodes, *self.edges)):
            raise InputError("poset: node labels must be strings")
        self._index = {v: i for i, v in enumerate(self.nodes)}
        if len(self._index) != len(self.nodes):
            raise PreconditionError("duplicate node labels")
        for lo, hi in self.edges:
            if lo not in self._index or hi not in self._index:
                raise PreconditionError(f"edge ({lo}, {hi}) off the node set")
        succ = {v: [] for v in self.nodes}
        indegree = dict.fromkeys(self.nodes, 0)
        for lo, hi in self.edges:
            succ[lo].append(hi)
            indegree[hi] += 1
        minimal = [v for v in self.nodes if indegree[v] == 0]
        # Kahn's algorithm: a node is placed once all its lower covers are
        order = list(minimal)
        for v in order:
            for w in succ[v]:
                indegree[w] -= 1
                if indegree[w] == 0:
                    order.append(w)
        if len(order) != len(self.nodes):
            raise PreconditionError("order relation has a cycle")
        if len(minimal) != 1:
            raise PreconditionError(f"expected a unique bottom, got {minimal}")
        self.bottom = minimal[0]
        self._order, self._succ = order, succ

    @cached_property
    def _masks(self):
        # up[v] (down[v]) ORs the bits of v and the nodes above (below) it,
        # and the inverse maps give each mask's node (no two nodes share
        # one).  Their size is quadratic in the nodes, so they wait for use
        up = {v: 1 << i for v, i in self._index.items()}
        down = dict(up)
        for v in reversed(self._order):
            for w in self._succ[v]:
                up[v] |= up[w]
        for v in self._order:       # v's down-set is complete here
            for w in self._succ[v]:
                down[w] |= down[v]
        return up, down, *({m: v for v, m in d.items()} for d in (up, down))

    def _masks_for(self, *labels):
        for v in labels:
            if not isinstance(v, str) or v not in self._index:
                raise PreconditionError(f"{v!r} is not a node of the poset")
        return self._masks

    def to_json(self):
        return {"nodes": list(self.nodes),
                "edges": [list(e) for e in self.edges]}

    def leq(self, x, y) -> bool:
        return bool(self._masks_for(x, y)[0][x] >> self._index[y] & 1)

    def meet(self, x, y):
        """The node whose down-set is the AND of x's and y's, or None."""
        _, down, _, with_down = self._masks_for(x, y)
        return with_down.get(down[x] & down[y])

    def join(self, x, y):
        """The node whose up-set is the AND of x's and y's, or None."""
        up, _, with_up, _ = self._masks_for(x, y)
        return with_up.get(up[x] & up[y])


def tower_degrees(recipe: TowerRecipe) -> DegreePoset:
    """The chain d0 < d1 < ... with a diamond spliced into every pair
    step."""
    check_type(recipe, TowerRecipe, "recipe", "a TowerRecipe")
    nodes = [f"d{beta}" for beta in range(recipe.length + 1)]
    edges = []
    for beta, kind in enumerate(recipe.kinds):
        if kind == SINGLE:
            edges.append((f"d{beta}", f"d{beta + 1}"))
        else:
            for i in (0, 1):
                side = f"d{beta}.{i}"
                nodes.append(side)
                edges.append((f"d{beta}", side))
                edges.append((side, f"d{beta + 1}"))
    return DegreePoset(nodes, edges)


def _label_key(label):
    body = label[1:] if label.startswith("d") else label
    try:
        parts = tuple(int(x) for x in body.split("."))
        return (0, parts, "")
    except ValueError:
        return (1, (), label)


def poset_dot(poset: DegreePoset) -> str:
    check_type(poset, DegreePoset, "poset", "a DegreePoset")
    # a DOT ID in quotes escapes its backslashes and quotes
    ids = {v: '"%s"' % v.replace("\\", "\\\\").replace('"', '\\"')
           for v in poset.nodes}
    lines = ["digraph degrees {", "  rankdir=BT;"]
    for v in sorted(poset.nodes, key=_label_key):
        lines.append(f"  {ids[v]};")
    for lo, hi in sorted(poset.edges, key=lambda e: (_label_key(e[0]),
                                                     _label_key(e[1]))):
        lines.append(f"  {ids[lo]} -> {ids[hi]};")
    lines.append("}")
    return "\n".join(lines) + "\n"


# -- tower censuses -------------------------------------------------------------

@dataclass(frozen=True)
class TowerCensus:
    """ONE/MANY verdicts keyed by tower height."""

    entries: tuple  # sorted ((height, verdict), ...)

    def __post_init__(self):
        try:
            entries = dict(self.entries)
        except (TypeError, ValueError):
            raise PreconditionError("census entries must be (height, "
                                    "verdict) pairs") from None
        cooked = tuple(sorted(entries.items()))
        object.__setattr__(self, "entries", cooked)
        for height, verdict in cooked:
            if not isinstance(height, Ordinal2) or height.is_zero:
                raise PreconditionError(f"bad census height {height!r}")
            if verdict not in (ONE, MANY):
                raise PreconditionError(f"bad census verdict {verdict!r}")

    def to_json(self):
        return {"entries": [[h.to_json(), v] for h, v in self.entries]}

    @classmethod
    def from_json(cls, data, name="census"):
        json_fields(data, name)
        return cls(tuple(json_list(data.get("entries"), name, _census_entry)))


def _census_entry(entry, name):
    if not isinstance(entry, list) or len(entry) != 2:
        raise InputError(f"{name}: expected [[a, b], verdict]")
    return Ordinal2.from_json(entry[0], name), entry[1]


def bit_function_from_json(data, name="x"):
    """census_encode's argument from a JSON list of [a, n, bit] triples."""
    return dict(json_list(data, name, _bit_entry))


def _bit_entry(entry, name):
    if not isinstance(entry, list) or len(entry) != 3:
        raise InputError(f"{name}: expected [a, n, bit]")
    return Ordinal2.from_json(entry[:2], name), json_int(entry[2], name)


def census_encode(x, limit_bound: int, n_bound: int) -> TowerCensus:
    """Turn a bit function on limit-plus-natural indices into the tower
    census it forces: at height base+2n+1 a unique tower survives exactly
    when the bit at base+n is 0, and heights base+2n+2 always keep many."""
    # the count first: the keys of huge bounds could not all be built,
    # and past it there are only len(x) of them
    count = (check_natural(limit_bound, "limit_bound")
             * check_natural(n_bound, "n_bound"))
    x = dict(check_mapping(x, "x"))
    if len(x) != count or count and set(x) != {
            Ordinal2(a, n) for a in range(limit_bound) for n in range(n_bound)}:
        raise PreconditionError(
            f"x must be defined on exactly {limit_bound} limits x "
            f"{n_bound} offsets")
    entries = {}
    for key, bit in x.items():
        if bit not in (0, 1):
            raise PreconditionError(f"bit function value {bit!r}")
        entries[Ordinal2(key.a, 2 * key.b + 1)] = ONE if bit == 0 else MANY
        entries[Ordinal2(key.a, 2 * key.b + 2)] = MANY
    return TowerCensus(tuple(entries.items()))


def census_decode(census: TowerCensus):
    """Inverse of census_encode on its range, checked by encoding the
    answer again; anything else is rejected."""
    entries = check_type(census, TowerCensus, "census",
                         "a TowerCensus").entries
    # bit n at limit a is read off height w*a + 2n + 1
    x = {Ordinal2(h.a, h.b // 2): 0 if verdict == ONE else 1
         for h, verdict in entries if h.b % 2}
    limits = 1 + max((key.a for key in x), default=-1)
    offsets = 1 + max((key.b for key in x), default=-1)
    # the count first: a grid that x cannot fill is never built
    if not x or len(x) != limits * offsets or census_encode(
            x, limits, offsets) != census:
        raise DecodeError("census is not the encoding of a bit function")
    return x


# -- self-coding patterns --------------------------------------------------------

@dataclass(frozen=True)
class ScPattern:
    levels: tuple

    def __post_init__(self):
        levels = check_items(self.levels, "levels", "pattern levels")
        object.__setattr__(self, "levels", levels)
        if any(v not in (LINE, DIAMOND) for v in levels):
            raise PreconditionError(f"bad pattern levels: {levels!r}")
        if levels and levels[0] != LINE:
            raise PreconditionError("level 0 must be a line")

    def to_json(self):
        return {"levels": list(self.levels)}

    @classmethod
    def from_json(cls, data, name="pattern"):
        json_fields(data, name)
        return cls(tuple(json_list(data.get("levels"), name, lambda lv, at:
                                   json_choice(lv, at, (LINE, DIAMOND)))))


def sc_pattern(recipe: TowerRecipe) -> ScPattern:
    check_type(recipe, TowerRecipe, "recipe", "a TowerRecipe")
    return ScPattern(tuple(
        LINE if kind == SINGLE else DIAMOND for kind in recipe.kinds))


def sc_decode(pattern: ScPattern):
    """Read (n, g) back off a line/diamond pattern: n is one less than
    the first diamond level, g has one bit per level past n+1."""
    levels = check_type(pattern, ScPattern, "pattern", "an ScPattern").levels
    first = next((k for k, v in enumerate(levels) if v == DIAMOND), None)
    if first is None:
        raise DecodeError("pattern has no diamond level")
    n = first - 1       # ScPattern makes level 0 a line, so n >= 0
    g = tuple(1 if levels[n + 2 + j] == DIAMOND else 0
              for j in range(len(levels) - n - 2))
    return n, g


def sc_census_encode(h, alpha_bound: int):
    """One surviving self-coding real per base n with h(n)=1, many
    otherwise; alpha_bound is how many copies 'many' stands for."""
    h = check_bits(h)
    if check_natural(alpha_bound, "alpha_bound") < 2:
        raise PreconditionError("alpha_bound must be at least 2")
    return {n: (ONE if h[n] else MANY) for n in range(len(h))}


def sc_census_decode(census) -> Bits:
    """Inverse of sc_census_encode, checked by encoding the answer
    again."""
    entries = dict(check_mapping(census, "census"))
    h = tuple(1 if entries.get(n) == ONE else 0 for n in range(len(entries)))
    if sc_census_encode(h, 2) != census:
        raise DecodeError("census is not the encoding of a bit string")
    return h
