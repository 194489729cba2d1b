"""Conditions built from perfect trees: pairs, finite iterations, and
finite-support products of iterations.

The restriction calculus threads one index string sigma through a whole
condition.  Two distribution modes exist:

* COLUMN: coordinate k of an iteration receives column(sigma, k); this is
  the general scheme and works for any length.
* PAIRWISE: only for length-2 iterations; the left/right halves of the
  interleave go to the two coordinates.

A coordinate of an iteration may be *conditional*: its value can depend
on which cells the generics of earlier coordinates go through.  We keep
each coordinate as a guarded table, a finite list of (guard, payload)
rows whose guards are pairwise incompatible and jointly exhaustive.  A
guard maps earlier coordinate positions to cell addresses, read as "the
generic of that coordinate passes through this cell of its own payload".
Restriction specializes guards (dropping rows that die), and
amalgamation creates them: grafting q onto the sigma-cell of p yields
rows that use q's payloads inside the sigma-cells and keep p's payloads
on the complementary cells.

Schedules are recipes: a TowerRecipe, the validated step kinds a degree
tower is built from, is also the fixed schedule of an iteration, and
ScSchedule reads the data bits of the self-coding rule off the context
and hands them to sc_schedule, so IterCondition takes its kinds from
schedule.recipe(context).  What a coordinate does with its payload
(type, full value, membership, restriction, graded order, amalgamation)
is looked up by kind in one table, _PAYLOADS.

Each argument is checked once, where it enters: a condition by its
constructor or from_json, and sigma, the mode and sbar by the public
operation, whose private twins trust them.  An iteration's two doors read
each guard once, the constructor by _coordinate and check_bits and
from_json by _int_keyed, and share one check of the rest (_check): the
keys' range, nonempty addresses, payload kinds, partitions and
commitments.  GenericContext builds a nonempty context from JSON, and
an empty guard or context from JSON needs no reader.  Every iteration
without commitments shares one frozen context, EMPTY_CONTEXT, and a table
of one row is a partition exactly when its guard is empty, which
_table_is_partition tests first.  Operations build iterations unchecked,
as full_iter does, each under the fixed schedule of its kinds, with no
commitments.  Amalgamation restricts nothing: _iter_graft checks each
pair of rows a graft joins in place, q's payload against the cell of
p's, and only then counts complement rows and builds, _graft and
_pair_graft checking the skeleton bound; a product checks every
coordinate before it grafts any.  The graded orders
check one index of length n for all 2^n and restrict nothing: they share
one loop, which compares pairs of rows at the lengths of their
addresses, and iter_leq and prod_extends are their level 0.  A coordinate
that a product q lacks reads as the full iteration of p's kinds, the
weakest condition (_at).  A sigma's addresses are its columns: the
nonempty ones, listed once per short sigma (_columns), padded to one per
coordinate by _spread, which refuses a sigma with more columns than
coordinates; a product spreads each column so in turn.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

from .bitseq import _columns, bits, bits_str, check_bits, pair_split, split_pair
from .errors import (AmalgamationError, IncompatibleError, InputError,
                     PreconditionError, ResourceError, check_items,
                     check_natural, check_type, int_text, json_choice,
                     json_fields, json_int, json_int_keys, json_list)
from .trees import (SkeletonTree, _cell_leq, _check_cells, _graft,
                    _is_prefix, _strings, full_tree, leq_n)

SINGLE = "single"
PAIR = "pair"

COLUMN = "column"
PAIRWISE = "pairwise"

MAX_COMPLEMENT_ROWS = 1 << 12  # complement rows iter_amalgamate builds


# -- pair conditions ---------------------------------------------------------

@dataclass(frozen=True)
class PairCondition:
    left: SkeletonTree
    right: SkeletonTree

    def __post_init__(self):
        check_type(self.left, SkeletonTree, "left of the two trees",
                   "a SkeletonTree")
        check_type(self.right, SkeletonTree, "right of the two trees",
                   "a SkeletonTree")

    def to_json(self):
        return {"kind": "pair", "left": self.left.to_json(),
                "right": self.right.to_json()}

    @classmethod
    def from_json(cls, data, name="condition"):
        left, right = json_fields(data, name, "left", "right")
        return cls(SkeletonTree.from_json(left, f"{name}.left"),
                   SkeletonTree.from_json(right, f"{name}.right"))


def full_pair() -> PairCondition:
    return PairCondition(full_tree(), full_tree())


def pair_restrict(p: PairCondition, sigma) -> PairCondition:
    """Split sigma into its interleave halves and restrict componentwise."""
    left_addr, right_addr = split_pair(sigma)
    return PairCondition(p.left._restrict_cell(left_addr),
                         p.right._restrict_cell(right_addr))


def _pair_graft(p: PairCondition, sigma, q: PairCondition):
    """Graft q's halves onto p's at the halves of the bit tuple sigma.
    q must extend the sigma cell of p; only the skeleton bound is checked."""
    return PairCondition(_graft(p.left, sigma[0::2], q.left),
                         _graft(p.right, sigma[1::2], q.right))


def _pair_contains(p: PairCondition, node) -> bool:
    return p.left._contains(node[0::2]) and p.right._contains(node[1::2])


# what the condition layer does with a coordinate's payload, by its kind;
# leq is the graded order at a level n, where a pair's left trees take
# n - n//2 bits of the index and its right trees n//2, and cell_leq the
# order into the cell at an index, by default the root: the plain order
_Payload = namedtuple("_Payload", "type full contains restrict leq cell_leq "
                                  "graft")
_PAYLOADS = {
    SINGLE: _Payload(SkeletonTree, full_tree(), SkeletonTree._contains,
                     SkeletonTree._restrict_cell, leq_n, _cell_leq, _graft),
    PAIR: _Payload(PairCondition, full_pair(), _pair_contains, pair_restrict,
                   lambda q, p, n: leq_n(q.left, p.left, n - n // 2)
                   and leq_n(q.right, p.right, n // 2),
                   lambda q, p, s=(): _cell_leq(q.left, p.left, s[0::2])
                   and _cell_leq(q.right, p.right, s[1::2]), _pair_graft),
}


# -- recipes, schedules and generic contexts -----------------------------------

@dataclass(frozen=True)
class TowerRecipe:
    """Step kinds, step 0 single: the steps of a degree tower, and the
    fixed schedule of an iteration."""

    kinds: tuple

    def __post_init__(self):
        kinds = check_items(self.kinds, "kinds", "step kinds")
        object.__setattr__(self, "kinds", kinds)
        if kinds.count(SINGLE) + kinds.count(PAIR) != len(kinds):
            raise PreconditionError(f"bad kinds: {int_text(kinds)}")
        if kinds and kinds[0] != SINGLE:
            raise PreconditionError("step 0 must be single")

    @property
    def length(self):
        return len(self.kinds)

    def recipe(self, context):
        return self

    def to_json(self):
        return {"kinds": list(self.kinds)}

    @classmethod
    def from_json(cls, data, name="kinds"):
        json_fields(data, name)
        kinds = data.get("kinds")
        if not isinstance(kinds, list):
            json_list(kinds, name, None)    # words the refusal of a list
        # name is already the path of the list, and names a bad kind too
        return cls(tuple([json_choice(k, name, (SINGLE, PAIR))
                          for k in kinds]))

MAX_SCHEDULE_STEPS = 1 << 16     # the longest schedule sc_schedule builds


def sc_schedule(n: int, g, K: int) -> TowerRecipe:
    """Step kinds of the self-coding recipe with base n and data g,
    truncated to K steps: singles up to n, a pair at n+1, then one pair
    or single per bit of g."""
    g = check_bits(g)
    check_natural(n, "n")
    if check_natural(K, "K") > MAX_SCHEDULE_STEPS:
        raise ResourceError(f"K={int_text(K)} exceeds {MAX_SCHEDULE_STEPS} "
                            f"steps, the supported maximum")
    if K > n + 2 + len(g):
        raise PreconditionError(
            f"K={K} needs {K - n - 2} data bits, g has {len(g)}")
    kinds = [SINGLE] * min(n + 1, K) + [PAIR] + [PAIR if b else SINGLE
                                                 for b in g]
    return TowerRecipe(tuple(kinds[:K]))


class ScSchedule:
    """The self-coding schedule with base n, truncated to length steps.

    Its data g is read off the context: bit j of g is bit m of the real
    committed for coordinate src, where (src, m) = pair_split(j).  Since
    src <= j < n+2+j, that real belongs to a coordinate strictly below
    the one bit j decides.
    """

    def __init__(self, n: int, length: int):
        self.n = check_natural(n, "n")
        self.length = check_natural(length, "length")

    def recipe(self, context):
        g = []
        for j in range(self.length - self.n - 2):
            src, m = pair_split(j)
            committed = context.commitments.get(src, ())
            if len(committed) <= m:
                raise PreconditionError(
                    f"schedule at coordinate {self.n + 2 + j} needs bit {m} "
                    f"of the generic for coordinate {src}")
            g.append(committed[m])
        return sc_schedule(self.n, g, self.length)

    def to_json(self):
        return {"sc": self.n, "length": self.length}


@dataclass(frozen=True, eq=False)
class GenericContext:
    """Finite commitments about coordinate generics: for coordinate k, a
    prefix of the real that coordinate contributes (for a pair coordinate,
    of the interleave of its two reals).  Trusted iterations of one kinds
    tuple share one context, so it is frozen and its commitments are a
    read-only view."""

    commitments: dict | None = None

    def __post_init__(self):
        try:
            commitments = dict(self.commitments or ()).items()
        except (TypeError, ValueError):
            raise PreconditionError("commitments must be a mapping") from None
        object.__setattr__(self, "commitments", MappingProxyType({
            check_natural(_coordinate(k), "a coordinate"): check_bits(v)
            for k, v in commitments}))

    def __reduce__(self):  # a view neither pickles nor deep-copies
        return GenericContext, (dict(self.commitments),)

    def to_json(self):
        return {str(k): bits_str(v) for k, v in sorted(self.commitments.items())}


# the empty context: frozen, so every iteration without commitments shares it
EMPTY_CONTEXT = GenericContext()


# the schedule of a trusted iteration, built and validated once per kinds
# tuple and shared, with EMPTY_CONTEXT, by every such iteration
_plain = lru_cache(maxsize=64)(TowerRecipe)


def _coordinate(k):
    """A coordinate position: only an int, so no two keys name one."""
    if type(k) is not int:
        raise PreconditionError(f"coordinate {int_text(k)} is not an integer")
    return k


def _int_keyed(data, name):
    """A JSON object of bit strings keyed by integers, decoded."""
    return {k: bits(v, f"{name}.{k}")
            for k, v in json_int_keys(data, name).items()}


def schedule_from_json(data, name="schedule"):
    json_fields(data, name)
    if "kinds" in data:
        return TowerRecipe.from_json(data, f"{name}.kinds")
    if "sc" in data:
        n, length = json_fields(data, name, "sc", "length")
        return ScSchedule(json_int(n, f"{name}: sc"),
                          json_int(length, f"{name}: length"))
    raise PreconditionError(f"{name}: schedule JSON needs 'kinds' or 'sc'")


# -- guard calculus -----------------------------------------------------------

def _guards_compatible(g1, g2) -> bool:
    for k in g1.keys() & g2.keys():
        a, b = g1[k], g2[k]
        if not (_is_prefix(a, b) or _is_prefix(b, a)):
            return False
    return True


def _guard_meet(g1, g2):
    out = dict(g1)
    for k, b in g2.items():
        a = out.get(k)
        out[k] = b if a is None or len(b) >= len(a) else a
    return out


def _complement_guards(guard):
    """Pairwise-incompatible guards jointly covering the complement of
    ``guard``, by first point of difference."""
    items = sorted(guard.items())
    return [{**dict(items[:i]), k: other} for i, (k, addr) in enumerate(items)
            for other in _strings(len(addr)) if other != addr]


def _table_is_partition(rows, beta):
    """Rows must be pairwise incompatible and jointly exhaustive over the
    cells they mention.  Pairwise-incompatible guards are disjoint
    cylinders, a guard with b address bits covering 2^-b of the space, so
    they cover it exactly when their measures add up to 1.  One row is a
    partition exactly when its guard is empty."""
    if len(rows) == 1 and not rows[0][0]:
        return
    if not rows:
        raise PreconditionError(f"coordinate {beta} has an empty table")
    for i, (g1, _) in enumerate(rows):
        for g2, _ in rows[i + 1:]:
            if _guards_compatible(g1, g2):
                raise PreconditionError(
                    f"coordinate {beta}: rows with compatible guards "
                    f"{g1} and {g2}")
    mention = {}
    for g, _ in rows:
        for k, addr in g.items():
            mention[k] = max(mention.get(k, 0), len(addr))
    top = sum(mention.values())
    covered = sum(1 << top - sum(map(len, g.values())) for g, _ in rows)
    if covered != 1 << top:
        raise PreconditionError(
            f"coordinate {beta}: guards are not exhaustive")


# -- iteration conditions ------------------------------------------------------

class IterCondition:
    """A finite iteration condition: one guarded table per coordinate."""

    def __init__(self, schedule, coords, context: GenericContext | None = None):
        check_type(schedule, (TowerRecipe, ScSchedule), "schedule",
                   "a TowerRecipe or an ScSchedule")
        if context is not None:
            check_type(context, GenericContext, "context", "a GenericContext")
        tables = []
        for beta, table in enumerate([
                check_items(table, "a coordinate table", "rows")
                for table in check_items(coords, "coords", "tables")]):
            rows = []
            for row in table:
                try:
                    guard, payload = row
                    items = guard.items()
                except (TypeError, ValueError, AttributeError):
                    raise PreconditionError(
                        f"coordinate {beta}: a row must be a pair of a guard "
                        f"mapping and a payload") from None
                rows.append(({_coordinate(k): check_bits(addr)
                              for k, addr in items}, payload))
            tables.append(rows)
        self._check(schedule, tables, context or EMPTY_CONTEXT)

    def _check(self, schedule, coords, context):
        """Both doors' one check of tables, guards keyed by int to bits."""
        # the coordinate count comes first: it bounds the schedule's length
        if len(coords) != schedule.length:
            raise PreconditionError(
                f"expected {int_text(schedule.length)} coordinates, got "
                f"{len(coords)}")
        self.schedule = schedule
        self.context = context
        self.kinds = schedule.recipe(context).kinds
        cooked = []
        for beta, rows in enumerate(coords):
            for guard, payload in rows:
                for k, addr in guard.items():
                    if not 0 <= k < beta:
                        raise PreconditionError(
                            f"guard mentions coordinate {int_text(k)}, not "
                            f"below {beta}")
                    if not addr:
                        raise PreconditionError(
                            "guard addresses must be nonempty")
                if not isinstance(payload, _PAYLOADS[self.kinds[beta]].type):
                    raise PreconditionError(
                        f"coordinate {beta} is {self.kinds[beta]} but "
                        f"payload is {type(payload).__name__}")
            _table_is_partition(rows, beta)
            cooked.append(tuple(rows))
        self.coords = tuple(cooked)
        for beta, committed in context.commitments.items():
            if beta < self.length and committed and not any(
                    _PAYLOADS[self.kinds[beta]].contains(payload, committed)
                    for _, payload in self.coords[beta]):
                raise PreconditionError(
                    f"context commitment for coordinate {beta} is not a "
                    f"branch of any payload")

    @classmethod
    def _trusted(cls, kinds, coords) -> "IterCondition":
        """An iteration under TowerRecipe(kinds), kinds a checked tuple,
        with no commitments, from tables valid by construction: guards with
        int keys below their coordinate and nonempty bit-tuple addresses,
        payloads of the coordinate's kind, rows forming a partition."""
        cond = object.__new__(cls)
        cond.schedule, cond.context = _plain(kinds), EMPTY_CONTEXT
        cond.kinds = kinds
        cond.coords = tuple(map(tuple, coords))
        return cond

    @property
    def length(self):
        return len(self.kinds)

    def coordinate(self, beta):
        """The payload at an unconditional coordinate (single-row table)."""
        if not 0 <= _coordinate(beta) < self.length:
            raise PreconditionError(
                f"no coordinate {int_text(beta)}: the length is {self.length}")
        table = self.coords[beta]
        if len(table) != 1 or table[0][0]:
            raise PreconditionError(f"coordinate {beta} is conditional")
        return table[0][1]

    def to_json(self):
        return {
            "kind": "iter",
            "schedule": self.schedule.to_json(),
            "context": self.context.to_json(),
            "coords": [
                [{"guard": {str(k): bits_str(v) for k, v in g.items()},
                  "payload": pay.to_json()}
                 for g, pay in table]
                for table in self.coords],
        }

    @classmethod
    def from_json(cls, data, name="condition"):
        sched, tables = json_fields(data, name, "schedule", "coords")
        schedule = schedule_from_json(sched, f"{name}.schedule")
        context = data.get("context", {})
        if context != {}:                   # an empty one needs no reader
            context = _int_keyed(context, f"{name}.context")
        coords = json_list(tables, f"{name}.coords", lambda table, at:
                           json_list(table, at, _row_from_json))
        cond = object.__new__(cls)
        cond._check(schedule, coords,
                    GenericContext(context) if context else EMPTY_CONTEXT)
        return cond


def _row_from_json(row, name):
    guard, payload = json_fields(row, name, "guard", "payload")
    if guard != {}:                         # an empty one needs no reader
        guard = _int_keyed(guard, f"{name}.guard")
    pair = isinstance(payload, dict) and payload.get("kind") == "pair"
    decode = PairCondition.from_json if pair else SkeletonTree.from_json
    return guard, decode(payload, f"{name}.payload")


def plain_iter(kinds, payloads) -> IterCondition:
    """Iteration with unconditional coordinates."""
    return IterCondition(TowerRecipe(kinds), [[({}, p)] for p in check_items(
        payloads, "payloads", "trees or pair conditions")])


def full_iter(kinds) -> IterCondition:
    """The weakest iteration of these kinds; only the kinds are checked."""
    kinds = TowerRecipe(kinds).kinds
    return IterCondition._trusted(kinds, [[({}, _PAYLOADS[k].full)]
                                          for k in kinds])


def _spread(cols, length):
    """cols, the nonempty columns of a sigma, padded with empty ones to
    one per coordinate of length; refuses more columns than that."""
    if len(cols) > length:
        raise PreconditionError(
            f"sigma has {len(cols)} nonempty columns but only {length} "
            f"coordinates take them")
    return cols + ((),) * (length - len(cols))


def _addresses(sigma, mode, length):
    """Check sigma and mode for an iteration of this length, and give
    each of its coordinates its address."""
    sigma = check_bits(sigma)
    if mode == COLUMN:
        return _spread(_columns(sigma), length)
    if mode != PAIRWISE:
        raise PreconditionError(f"unknown mode {int_text(mode)}")
    if length != 2:
        raise PreconditionError("pairwise mode needs a length-2 iteration")
    return [sigma[0::2], sigma[1::2]]


def iter_restrict(p: IterCondition, sigma, mode=COLUMN) -> IterCondition:
    """Restrict every coordinate by its share of sigma, specializing
    guards: implied guard entries drop, refined ones keep their residual
    address, incompatible rows die."""
    check_type(p, IterCondition, "p", "an IterCondition")
    return _iter_restrict(p, _addresses(sigma, mode, p.length))


def _iter_restrict(p: IterCondition, addrs) -> IterCondition:
    """iter_restrict with coordinate k's address at addrs[k]; addrs may
    run past p's length.  Checks nothing."""
    new_coords = []
    for m, table in enumerate(p.coords):
        restrict = _PAYLOADS[p.kinds[m]].restrict
        rows = []
        for guard, payload in table:
            residual = {}
            for k, b in guard.items():
                a = addrs[k]
                if not _is_prefix(b, a):
                    if not _is_prefix(a, b):
                        break  # the row dies
                    residual[k] = b[len(a):]
            else:
                rows.append((residual, restrict(payload, addrs[m])))
        new_coords.append(rows)
    return IterCondition._trusted(p.kinds, new_coords)


def _graded_leq(q: IterCondition, p: IterCondition, levels=()) -> bool:
    """Wherever two rows of a coordinate m can both apply, q's payload
    extends p's in the kind's graded order at level levels[m] or 0."""
    if q.kinds != p.kinds:
        raise IncompatibleError(f"kind mismatch: {q.kinds} vs {p.kinds}")
    for m, kind in enumerate(p.kinds):
        n = levels[m] if levels else 0
        leq = _PAYLOADS[kind].leq if n else _PAYLOADS[kind].cell_leq
        for gq, pay_q in q.coords[m]:
            for gp, pay_p in p.coords[m]:
                if gq and gp and not _guards_compatible(gq, gp):
                    continue
                if not (leq(pay_q, pay_p, n) if n else leq(pay_q, pay_p)):
                    return False
    return True


def iter_leq(q: IterCondition, p: IterCondition) -> bool:
    """Extension order, evaluated per shared guard refinement: wherever
    two rows can both apply, q's payload must extend p's."""
    check_type(q, IterCondition, "q", "an IterCondition")
    check_type(p, IterCondition, "p", "an IterCondition")
    return _graded_leq(q, p)


def iter_equal(q: IterCondition, p: IterCondition) -> bool:
    return iter_leq(q, p) and iter_leq(p, q)


def iter_leq_n(q: IterCondition, p: IterCondition, n: int, mode=COLUMN) -> bool:
    """The graded order: every length-n index restricts q to an
    extension of the matching restriction of p.

    Coordinate m's rows are restricted to m's address, of length L_m, and
    kept or cut by their guard keys' addresses: in both modes, positions
    of the index disjoint from m's.  Two rows outlive those with
    compatible residual guards at some index exactly when their guards
    are compatible, m's address still taking all 2^L_m values.  So the
    order holds exactly when every compatible pair of rows passes the
    kind's graded order at level L_m.  The first index's checks stand
    for all 2^n."""
    _check_cells("iter_leq_n", n)
    first = (0,) * n
    _addresses(first, mode, q.length)
    return _graded_leq(q, p, [*map(len, _addresses(first, mode, p.length))])


def iter_amalgamate(p: IterCondition, sigma, q: IterCondition,
                    mode=COLUMN) -> IterCondition:
    """Graft q onto the sigma-cell of p.

    Coordinate m uses the amalgamated payload when all earlier
    coordinates pass through their sigma-cells, and keeps p's payload on
    the complementary cells; restricting the result back to sigma gives
    q, and restricting to an index that already differs at coordinate 0
    gives p's restriction.
    """
    addrs = _addresses(sigma, mode, p.length)
    build = _iter_graft(p, addrs, q)
    if build is None:
        raise AmalgamationError("q does not extend the sigma cell of p")
    return build()


def _iter_graft(p: IterCondition, addrs, q: IterCondition):
    """Walk the pairs of rows that grafting q onto the cell of p at the
    coordinate addresses addrs joins; answer the function that bounds the
    complement rows and builds.  The check shares the walk: the answer is
    None exactly when not iter_leq(q, _iter_restrict(p, addrs))."""
    if q.kinds != p.kinds:
        raise IncompatibleError(f"kind mismatch: {q.kinds} vs {p.kinds}")
    # coordinate m's rows meet 2^|addr_k| - 1 complement guards per k < m
    plan, count, guards = [], 0, 0
    for m, table in enumerate(p.coords):
        addr, cell_leq = addrs[m], _PAYLOADS[p.kinds[m]].cell_leq
        sguard = {k: addrs[k] for k in range(m) if addrs[k]}
        count += len(table) * guards
        guards += (1 << len(addr)) - 1
        rows = []
        for guard, payload in table:
            if guard and not _guards_compatible(guard, sguard):
                rows.append((guard, payload, None))
                continue
            inside = _guard_meet(guard, sguard) if guard else sguard
            pairs = []
            for gq, pay_q in q.coords[m]:
                if gq:  # q's guards address cells of the sigma cell
                    gq = {k: addrs[k] + b for k, b in gq.items()}
                    if not _guards_compatible(inside, gq):
                        continue
                if not cell_leq(pay_q, payload, addr):
                    return None
                pairs.append((_guard_meet(inside, gq) if gq else inside, pay_q))
            rows.append((guard, payload, pairs))
        plan.append((sguard, rows))

    def build():
        if count > MAX_COMPLEMENT_ROWS:
            raise ResourceError(
                f"iter_amalgamate would build {int_text(count)} complement "
                f"rows; the bound is {MAX_COMPLEMENT_ROWS}")
        coords = []
        for m, (sguard, planned) in enumerate(plan):
            graft = _PAYLOADS[p.kinds[m]].graft
            comps = _complement_guards(sguard) if sguard else ()
            rows = []
            for guard, payload, pairs in planned:
                if pairs is None:
                    rows.append((guard, payload))
                    continue
                for g, pay_q in pairs:
                    rows.append((g, graft(payload, addrs[m], pay_q)))
                for comp in comps:
                    if not guard:
                        rows.append((comp, payload))
                    elif _guards_compatible(guard, comp):
                        rows.append((_guard_meet(guard, comp), payload))
            coords.append(rows)
        return IterCondition._trusted(p.kinds, coords)
    return build


# -- product conditions --------------------------------------------------------

def _index_sort_key(i):
    if isinstance(i, bool):
        return (3, "", repr(i))
    if isinstance(i, int):
        return (0, "", (i,))
    if isinstance(i, tuple) and all(isinstance(x, int) for x in i):
        return (1, "", i)
    if isinstance(i, str):
        return (2, i, ())
    return (3, "", repr(i))


def index_from_json(v, name="index"):
    """A product index: an integer, a string, or a list of indices."""
    if isinstance(v, bool) or not isinstance(v, (int, str, list)):
        raise InputError(f"{name}: indices are integers, strings, or lists")
    if isinstance(v, list):
        return tuple(json_list(v, name, index_from_json))
    return v


class ProductCondition:
    """Finite-support product of iteration conditions, indexed by opaque
    ordered labels."""

    def __init__(self, coords):
        try:
            self._coords = dict(coords)
        except (TypeError, ValueError):
            raise PreconditionError("coords must be a mapping") from None
        for i, cond in self._coords.items():
            if not isinstance(cond, IterCondition):
                raise PreconditionError(
                    f"coordinate {int_text(i)} must be an iteration condition")

    @property
    def support(self):
        return tuple(sorted(self._coords, key=_index_sort_key))

    @property
    def coords(self):
        return dict(self._coords)

    def coordinate(self, i):
        try:
            return self._coords[i]
        except (KeyError, TypeError):
            raise PreconditionError(
                f"no coordinate at index {int_text(i)}") from None

    def to_json(self):
        return {
            "kind": "product",
            "coords": [{"index": list(i) if isinstance(i, tuple) else i,
                        "cond": self._coords[i].to_json()}
                       for i in self.support],
        }

    @classmethod
    def from_json(cls, data, name="condition"):
        (items,) = json_fields(data, name, "coords")
        return cls(dict(json_list(items, f"{name}.coords", _coord_from_json)))


def _coord_from_json(item, name):
    idx, cond = json_fields(item, name, "index", "cond")
    return (index_from_json(idx, f"{name}.index"),
            IterCondition.from_json(cond, f"{name}.cond"))


def _sbar(sbar):
    """sbar as a tuple of product indices that are distinct as keys."""
    sbar = check_items(sbar, "sbar", "product indices")
    try:
        distinct = len(set(sbar)) == len(sbar)
    except TypeError:
        raise PreconditionError("sbar entries must be hashable product "
                                "indices") from None
    if not distinct:
        raise PreconditionError("sbar entries must be pairwise distinct")
    return sbar


def _shares(sigma, sbar, *prods):
    """Check sigma, its columns distributed over the checked tuple sbar,
    against each of prods in turn.  For each entry i of sbar in some
    product's support, in sbar's order, give (i, addrs): the addresses
    that i's column of sigma gives the coordinates of the longest
    iteration at i."""
    cols = _addresses(sigma, COLUMN, len(sbar))
    shares = {}
    for p in prods:
        for i, addr in zip(sbar, cols):
            cond = p._coords.get(i)
            if cond is None:
                if addr:
                    raise PreconditionError(
                        f"cannot restrict coordinate {int_text(i)} outside "
                        f"the support")
                continue
            spread = _spread(_columns(addr), len(cond.kinds))
            if len(spread) > len(shares.get(i, ())):
                shares[i] = spread
    return [(i, shares[i]) for i in sbar if i in shares]


def prod_restrict(p: ProductCondition, sigma, sbar) -> ProductCondition:
    """Distribute the columns of sigma over the coordinates listed in
    sbar; everything else is untouched."""
    coords = check_type(p, ProductCondition, "p", "a ProductCondition").coords
    for i, addrs in _shares(sigma, _sbar(sbar), p):
        if any(addrs):  # an empty column leaves its coordinate as it is
            coords[i] = _iter_restrict(coords[i], addrs)
    return ProductCondition(coords)


def _at(q: ProductCondition, i, kinds) -> IterCondition:
    """q's iteration at i; where q lacks i, the full one of these kinds."""
    return q._coords[i] if i in q._coords else full_iter(kinds)


def prod_extends(q: ProductCondition, p: ProductCondition) -> bool:
    """Plain coordinatewise extension: the graded order at level 0."""
    check_type(q, ProductCondition, "q", "a ProductCondition")
    check_type(p, ProductCondition, "p", "a ProductCondition")
    return prod_leq(q, p, 0, ())


def prod_leq(q: ProductCondition, p: ProductCondition, n: int, sbar) -> bool:
    """The graded order: every length-n index, distributed over sbar,
    restricts q to an extension of the matching restriction of p.

    Coordinate i's comparison reads only i's column of the index, L_i
    distinct positions, which take all 2^L_i values as the index runs
    over all 2^n.  So the order holds exactly when each coordinate passes
    iter_leq_n at level L_i, which compares its rows at the lengths of
    the column's addresses; one index's checks stand for all 2^n."""
    _check_cells("prod_leq", n)
    levels = {i: [len(a) for a in addrs]
              for i, addrs in _shares((0,) * n, _sbar(sbar), q, p)}
    return all(_graded_leq(_at(q, i, cond.kinds), cond, levels.get(i, ()))
               for i, cond in p._coords.items())


def prod_amalgamate(p: ProductCondition, sigma, sbar,
                    q: ProductCondition) -> ProductCondition:
    """Coordinatewise amalgamation along sbar, every coordinate of p
    checked, in p's order, before any is grafted; off sbar the result
    takes q's coordinates."""
    addrs, builds = dict(_shares(sigma, _sbar(sbar), p)), {}
    for i, cond in p._coords.items():
        qi = _at(q, i, cond.kinds)
        if i in addrs:
            ok = builds[i] = _iter_graft(cond, addrs[i], qi)
        else:
            ok = _graded_leq(qi, cond)
        if not ok:
            raise AmalgamationError("q does not extend the restriction of p")
    return ProductCondition({**q._coords, **{i: builds[i]() for i in addrs}})


def condition_from_json(data, name="condition"):
    """Decode any condition's to_json object; name labels InputError
    messages with the path of data in the input."""
    json_fields(data, name)
    kind = data.get("kind")
    if kind == "pair":
        return PairCondition.from_json(data, name)
    if kind == "iter":
        return IterCondition.from_json(data, name)
    if kind == "product":
        return ProductCondition.from_json(data, name)
    raise PreconditionError(f"{name}: unknown condition kind {int_text(kind)}")
