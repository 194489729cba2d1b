"""Implicit definability over finite membership structures.

The language has one extra unary predicate symbol S on top of membership
and equality.  A subset S0 of a finite structure X is *implicitly
defined* by a formula phi (with parameters from X) when S0 is the one
and only subset for which (X, in, S0) satisfies phi.  Collecting every
subset so definable within a formula-size budget, and iterating from the
empty structure with each level's members re-coded as sets, climbs a
hierarchy; with enough budget it walks the finite cumulative ranks level
by level, because parameters make every subset of a finite structure
pin-downable.  Formula syntax is read from the tables _BINARY, _INFIX,
_QUANT and _RELATION; formula_size, free_vars and formula_text use _parts.

Hereditarily finite sets are coded by naturals: bit i of the code of b
is set exactly when the set coded by i is a member of b.  Equal codes
mean equal sets, so levels compare as plain sets of naturals.

The enumerator in implicit_subsets works with semantic tables instead of
formula syntax: one big integer per formula class, one bit per
(variable-assignment, subset) pair.  Two formulas with the same table
are interchangeable everywhere, so keeping the smallest size per table
loses nothing.  A table is closed, the table of a sentence, exactly when
every assignment's block of 2**u bits equals the first one, which one
multiply and one compare decide.  Each class also carries the free-slot
mask of the formula that first gave it: mask 0 proves it closed, and a
quantifier on a slot outside the mask would give the same table back,
so it is not tried.  A class first given by a negation is never an
operand: each use of !a has an equivalent of the same or smaller size
built from the others (!!a = a, all x.!a = !ex x.a, !a & b = !(b -> a),
!a | b = a -> b, !a -> b = a | b, b -> !a = !(b & a), !a <-> b =
!(a <-> b)).  The last size is only asked whether a closed table
defines one new subset, and its *family*, the first block, costs no
full table: the family of t1 op t2 is f1 op f2, a negation flips it,
and a quantifier ANDs or ORs the blocks along its slot.  So operands are
grouped by family, and a full table is built only for an operation
whose family is a single subset not yet defined.  The defined family
only grows with the size, so the enumeration stops as soon as every
subset is defined.  Each universe has one record of its answers, those
of every smaller budget too, and of its last run's stored sizes, which
a larger budget on the same slots continues (see _enumerate).
implicitly_defined_by computes the same tables for one given
formula, which decides all subsets in a single pass over it.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from itertools import combinations, product
from types import SimpleNamespace

from .errors import (ParseError, PreconditionError, ResourceError,
                     check_items, check_natural, check_type)

# the largest budget the enumerator accepts.  Up to 13 its slots define
# every subset that a formula of the budget's size defines, and at 14 it
# counts the formulas on three variables (see _var_pool)
MAX_BUDGET = 14


# -- set codes ------------------------------------------------------------------

def set_members(code: int):
    """Member codes of the set coded by ``code``, ascending."""
    check_natural(code, "a set code")
    return tuple(i for i in range(code.bit_length()) if code >> i & 1)


def set_of(members) -> int:
    code = 0
    for m in check_items(members, "members", "set codes"):
        code |= 1 << check_natural(m, "a set code")
    return code


class FinStructure:
    """A finite universe of set codes with the induced membership
    relation.  It need not be transitive."""

    def __init__(self, universe):
        codes = sorted(check_natural(c, "a set code")
                       for c in check_items(universe, "universe", "set codes"))
        if len(set(codes)) != len(codes):
            raise PreconditionError("universe has repeated elements")
        self.universe = tuple(codes)
        self._index = {c: i for i, c in enumerate(codes)}
        # see _atom_table
        self._atom_tables = {}

    @property
    def size(self):
        return len(self.universe)

    def __contains__(self, code):
        return type(code) is int and code in self._index

    def _codes(self, values, name, what):
        """values, an iterable of codes in the universe, as a tuple; name
        is the argument, what one of its entries, in messages."""
        values = check_items(values, name, "set codes")
        for c in values:
            if c not in self:
                raise PreconditionError(f"{what} {c!r} outside the universe")
        return values


# -- formulas ---------------------------------------------------------------------

@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Param:
    index: int


@dataclass(frozen=True)
class Member:
    left: object
    right: object


@dataclass(frozen=True)
class Eq:
    left: object
    right: object


@dataclass(frozen=True)
class Pred:
    term: object


@dataclass(frozen=True)
class Not:
    body: object


@dataclass(frozen=True)
class And:
    left: object
    right: object


@dataclass(frozen=True)
class Or:
    left: object
    right: object


@dataclass(frozen=True)
class Implies:
    left: object
    right: object


@dataclass(frozen=True)
class Iff:
    left: object
    right: object


@dataclass(frozen=True)
class Forall:
    var: str
    body: object


@dataclass(frozen=True)
class Exists:
    var: str
    body: object


# the binary connectives, loosest first: node type -> (token, operation
# on tables whose bits all lie in ``ones``); only -> is right-associative
_BINARY = {Iff: ("<->", lambda a, b, ones: a ^ b ^ ones),
           Implies: ("->", lambda a, b, ones: a ^ ones | b),
           Or: ("|", lambda a, b, ones: a | b),
           And: ("&", lambda a, b, ones: a & b)}
_INFIX = {token: (kind, at)
          for at, (kind, (token, _)) in enumerate(_BINARY.items())}
_QUANT = {Forall: "all", Exists: "ex"}
_RELATION = {Member: "in", Eq: "="}


def _parts(f):
    """(terms, subformulas) of formula node f; PreconditionError for any
    other value, and for a term position that holds no term."""
    kind = type(f)
    if kind is Not or kind in _QUANT:
        return (), (f.body,)
    if kind in _BINARY:
        return (), (f.left, f.right)
    if kind is not Pred and kind not in _RELATION:
        raise PreconditionError(f"not a formula node: {f!r}")
    terms = (f.term,) if kind is Pred else (f.left, f.right)
    for t in terms:
        if type(t) is not Var and type(t) is not Param:
            raise PreconditionError(f"not a term: {t!r}")
    return terms, ()


def formula_size(f) -> int:
    """AST node count; terms count as one node each."""
    terms, subformulas = _parts(f)
    return 1 + len(terms) + sum(map(formula_size, subformulas))


def free_vars(f):
    terms, subformulas = _parts(f)
    out = {t.name for t in terms if type(t) is Var}
    for g in subformulas:
        out |= free_vars(g)
    return out - {f.var} if type(f) in _QUANT else out


def formula_text(f) -> str:
    """Parseable rendering; binary connectives are parenthesized."""
    terms, subformulas = _parts(f)
    texts = [t.name if type(t) is Var else f"#{t.index}" for t in terms]
    texts += map(formula_text, subformulas)
    kind = type(f)
    if kind is Pred:
        return f"S({texts[0]})"
    if kind in _RELATION:
        return f"{texts[0]} {_RELATION[kind]} {texts[1]}"
    if kind is Not:
        return "!" + texts[0]
    if kind in _QUANT:
        # parenthesized so it survives as the left operand of a binary:
        # the parser gives quantifiers the widest possible scope
        return f"({_QUANT[kind]} {f.var}. {texts[0]})"
    return f"({texts[0]} {_BINARY[kind][0]} {texts[1]})"


# text nested deeper than this is a ParseError: each parenthesis,
# negation, quantifier and binary connective nests what follows it one
# level deeper, until its group ends.  At the cap a parse runs 256
# frames deeper than that of S(#0) under parentheses and 193 under
# quantifiers, and every walk stays well inside the recursion limit.
# formula_text parenthesizes each quantifier and binary connective, so
# its text of a formula nested MAX_NESTING // 2 deep always parses back.
MAX_NESTING = 64

_TOKEN = re.compile(
    r"\s*(?:(<->|->|[()=.&|!]|#\d+|[A-Za-z_][A-Za-z0-9_]*)|(\S))")
_KEYWORDS = {"all", "ex", "in", "S"}


def _tokenize(text):
    tokens = []
    for m in _TOKEN.finditer(text):
        if m[2]:
            raise ParseError(f"bad character {m[2]!r}", m.start(2))
        tokens.append((m[1], m.start(1)))
    tokens.append(("", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.k = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.k][0]

    def pos(self):
        return self.tokens[self.k][1]

    def take(self, expected=None):
        tok, pos = self.tokens[self.k]
        if expected is not None and tok != expected:
            raise ParseError(f"expected {expected!r}, found {tok!r}", pos)
        self.k += 1
        return tok

    def deeper(self):
        if self.depth == MAX_NESTING:
            raise ParseError(f"formula nested deeper than {MAX_NESTING} "
                             f"levels", self.pos())
        self.depth += 1

    def nested(self, parse):
        self.deeper()
        out = parse()
        self.depth -= 1
        return out

    def formula(self, level=0):
        """Connectives of levels from level on, by precedence climbing.  A
        chain, a run of one level, nests each right operand one level
        deeper; the next chain restarts at this call's starting depth."""
        top, chain = self.depth, None
        left = self.unary()
        kind, at = _INFIX.get(self.peek(), (None, -1))
        while at >= level:
            self.take()
            if at != chain:
                self.depth, chain = top, at
            self.deeper()
            left = kind(left, self.formula(at if kind is Implies else at + 1))
            kind, at = _INFIX.get(self.peek(), (None, -1))
        self.depth = top
        return left

    def unary(self):
        tok = self.peek()
        if tok == "!":
            self.take()
            return Not(self.nested(self.unary))
        if tok in ("all", "ex"):
            self.take()
            var = self.variable()
            self.take(".")
            body = self.nested(self.formula)
            return (Forall if tok == "all" else Exists)(var, body)
        return self.primary()

    def primary(self):
        tok = self.peek()
        if tok == "(":
            self.take()
            inner = self.nested(self.formula)
            self.take(")")
            return inner
        if tok == "S":
            self.take()
            self.take("(")
            term = self.term()
            self.take(")")
            return Pred(term)
        left = self.term()
        op = self.peek()
        for kind, token in _RELATION.items():
            if op == token:
                self.take()
                return kind(left, self.term())
        raise ParseError(f"expected 'in' or '=', found {op!r}", self.pos())

    def variable(self, what="a variable"):
        tok, pos = self.tokens[self.k]
        if not tok or not tok[0].isalpha() or tok in _KEYWORDS:
            raise ParseError(f"expected {what}, found {tok!r}", pos)
        self.k += 1
        return tok

    def term(self):
        if self.peek().startswith("#"):
            return Param(int(self.take()[1:]))
        return Var(self.variable("a term"))


def parse_formula(text: str):
    parser = _Parser(check_type(text, str, "text", "a str"))
    out = parser.formula()
    if parser.peek() != "":
        raise ParseError(f"unexpected {parser.peek()!r} after formula",
                         parser.pos())
    return out


# -- evaluation -------------------------------------------------------------------

def eval_formula(f, structure: FinStructure, subset, params=()) -> bool:
    """Tarskian satisfaction over the structure's universe, with the
    predicate symbol read as membership in ``subset``.  The whole formula
    is checked first (see _formula_table), so a fault raises even where
    the evaluation would skip it."""
    check_type(structure, FinStructure, "structure", "a FinStructure")
    subset = frozenset(structure._codes(subset, "subset", "subset element"))
    params = structure._codes(params, "params", "parameter")
    _formula_table(structure, f, params, None)

    def term_val(t, env):
        return env[t.name] if isinstance(t, Var) else params[t.index]

    def sat(g, env):
        if isinstance(g, Pred):
            return term_val(g.term, env) in subset
        if isinstance(g, Member):
            return bool(term_val(g.right, env) >> term_val(g.left, env) & 1)
        if isinstance(g, Eq):
            return term_val(g.left, env) == term_val(g.right, env)
        if isinstance(g, Not):
            return not sat(g.body, env)
        if isinstance(g, And):
            return sat(g.left, env) and sat(g.right, env)
        if isinstance(g, Or):
            return sat(g.left, env) or sat(g.right, env)
        if isinstance(g, Implies):
            return (not sat(g.left, env)) or sat(g.right, env)
        if isinstance(g, Iff):
            return sat(g.left, env) == sat(g.right, env)
        if isinstance(g, Forall):
            return all(sat(g.body, {**env, g.var: c})
                       for c in structure.universe)
        return any(sat(g.body, {**env, g.var: c})       # Exists
                   for c in structure.universe)

    return sat(f, {})


# a structure caches at most _CACHE_ENTRIES atom tables of at most
# _CACHE_BITS bits each: 512 KB at worst
_CACHE_BITS = 1 << 12
_CACHE_ENTRIES = 1 << 10


def _repunit(count, step):
    """``count`` one bits, ``step`` bits apart, from bit 0."""
    return ((1 << count * step) - 1) // ((1 << step) - 1)


def _members_mask(u, j):
    """The 2**u-bit mask of the subsets of u positions that hold j."""
    half = 1 << j
    return (((1 << half) - 1) << half) * _repunit(1 << u >> j + 1, half << 1)


def _slot(u, width, i):
    """(stride, selector) of slot i in a table over ``width`` slots and
    u > 0 positions: the slot steps to its next value every ``stride``
    bits, and the selector has bit 0 of each block where it takes its
    first value, so ``selector << k * stride`` is that of position k."""
    stride = u ** i << u
    return stride, (_repunit(u ** i, 1 << u)
                    * _repunit(u ** (width - i - 1), stride * u))


def _selectors(structure, width, t):
    """(position, selector) for each value that term t takes in a table
    over ``width`` slots of a nonempty structure (see _atom_table)."""
    u = structure.size
    if t < 0:
        return ((structure._index[~t], _repunit(u ** width, 1 << u)),)
    stride, selector = _slot(u, width, t)
    return [(k, selector << k * stride) for k in range(u)]


def _atom_table(structure, key):
    """Table of the atomic formula ``key = (width, kind, a, b)`` over
    ``width`` variable slots, cached on the structure while small.

    Terms a and b are slot numbers (>= 0) or complemented codes
    (``~code``); b is None for Pred.  Bit ``n * 2**u + s`` is set when
    the atom holds under assignment n, whose slot i takes the value at
    position ``(n // u**i) % u``, and the subset with position mask s.

    Each value of a term has a selector, bit 0 of every block where the
    term takes it (see _slot); a constant's one is bit 0 of every block.
    Pred sums each selector times its value's members mask, and a
    relation fills the blocks of the selector ANDs of the value pairs
    where it holds: O(u**2) big-integer operations in all.
    """
    cache = structure._atom_tables
    table = cache.get(key)
    if table is not None:
        return table
    width, kind, a, b = key
    universe = structure.universe
    u = len(universe)
    if not u:
        return 0        # no assignment over a slot, and no constant
    table = 0
    if kind is Pred:
        for k, s in _selectors(structure, width, a):
            table += _members_mask(u, k) * s
    else:
        for (k, s), (m, t) in product(_selectors(structure, width, a),
                                      _selectors(structure, width, b)):
            if universe[m] >> universe[k] & 1 if kind is Member else k == m:
                table += s & t
        table *= (1 << (1 << u)) - 1
    if u ** width << u <= _CACHE_BITS and len(cache) < _CACHE_ENTRIES:
        cache[key] = table
    return table


# neither table evaluator builds a table wider than MAX_TABLE_BITS, and
# eval_formula visits at most MAX_ASSIGNMENTS assignments around an atom
MAX_TABLE_BITS = 1 << 18
MAX_ASSIGNMENTS = 1 << 16


def _refuse(cost, what, depth, n, bound):
    raise ResourceError(f"{cost} {what} under {depth} quantifiers over "
                        f"{n} elements exceed the bound {bound}")


def _counted_atom(structure, key):
    """The check-only walk's atom: it counts its assignments, n**depth."""
    n, depth = structure.size, key[0]
    if n ** depth > MAX_ASSIGNMENTS:
        _refuse(n ** depth, "assignments", depth, n, MAX_ASSIGNMENTS)
    return 0


def _formula_table(structure, f, params, atom):
    """Check f against the contract of eval_formula and
    implicitly_defined_by, and return its table over the structure.

    params is the tuple that FinStructure._codes gave the caller.  The
    contract covers the whole formula, whatever an evaluation could skip:
    every ``#k`` names a parameter, every variable is bound, and every
    node is a formula with terms in term positions.  The first violation,
    left to right, raises PreconditionError, or ResourceError where the
    cost bound is passed.

    The table semantics is that of implicit_subsets: a subformula under
    d quantifiers becomes a table of u**d * 2**u bits, and a quantifier
    folds its variable's slot, always the last, away; atoms get their
    tables from ``atom``, which is _atom_table.  No table wider than
    MAX_TABLE_BITS is built.  With ``atom`` None the walk only checks: it
    runs with u = 0, where a table has at most one bit, and counts each
    atom's assignments against MAX_ASSIGNMENTS.
    """
    if atom is None:
        u, atom = 0, _counted_atom
    else:
        u = structure.size
        if 1 << u > MAX_TABLE_BITS:
            _refuse(1 << u, "table bits", 0, u, MAX_TABLE_BITS)

    def term(t, scope):
        if type(t) is Var:
            if t.name not in scope:
                raise PreconditionError(f"unbound variable {t.name!r}")
            return scope[t.name]
        if type(t) is Param:
            if not 0 <= t.index < len(params):
                raise PreconditionError(f"no parameter #{t.index}")
            return ~params[t.index]
        raise PreconditionError(f"not a term: {t!r}")

    def table(g, scope, depth, bits):
        kind = type(g)
        if kind is Pred:
            return atom(structure, (depth, Pred, term(g.term, scope), None))
        if kind is Member or kind is Eq:
            return atom(structure, (depth, kind, term(g.left, scope),
                                    term(g.right, scope)))
        if kind is Forall or kind is Exists:
            if bits * u > MAX_TABLE_BITS:
                _refuse(bits * u, "table bits", depth + 1, u, MAX_TABLE_BITS)
            body = table(g.body, {**scope, g.var: depth}, depth + 1,
                         bits * u)
            if kind is Forall:
                out = (1 << bits) - 1
                for k in range(u):
                    out &= body >> (k * bits)
                return out
            out = 0
            for k in range(u):
                out |= body >> (k * bits)
            return out & ((1 << bits) - 1)
        if kind is Not:
            return table(g.body, scope, depth, bits) ^ ((1 << bits) - 1)
        if kind in _BINARY:
            return _BINARY[kind][1](table(g.left, scope, depth, bits),
                                    table(g.right, scope, depth, bits),
                                    (1 << bits) - 1)
        raise PreconditionError(f"not a formula node: {g!r}")

    return table(f, {}, 0, 1 << u)


def implicitly_defined_by(structure: FinStructure, f, params=()):
    """The unique satisfying subset, or None when zero or several
    subsets satisfy the formula.

    The whole formula is checked before any answer is given, as in
    eval_formula, so the answer never depends on which parts an
    evaluation could skip.  One pass over the formula decides all 2**u
    subsets at once (see _formula_table).  eval_formula is the reference
    this is tested against.
    """
    params = structure._codes(params, "params", "parameter")
    family = _formula_table(structure, f, params, _atom_table)
    u = structure.size
    if not family or family & (family - 1):
        return None
    s = family.bit_length() - 1
    return frozenset(structure.universe[j] for j in range(u) if (s >> j) & 1)


# -- the budgeted enumerator --------------------------------------------------------

def _var_pool(budget: int) -> int:
    # enough variable slots that formulas on them define, at each size up
    # to the budget, every subset that formulas on more slots define (up
    # to 13; budget 14 is at the end).  A sentence needs k + 1 slots only
    # when, however its bound variables are renamed, some subformula psi
    # has k + 1 free variables, which k + 1 quantifiers above psi bind.
    # An open formula with a closed table keeps its family when each free
    # variable becomes a parameter, at the same size, so sentences are all
    # there is.  Counting nodes:
    # - two slots first matter at size 5: psi has a relating atom, 3 nodes;
    # - three at size 10: psi has at least 6 nodes, S(v) op R(y, z) with R
    #   in {in, =}, so the one sentence of size <= 9 that needs three slots
    #   is Q Q Q (S(v) op R(y, z)), in any order, and v occurs only in S;
    # - four past size 13:
    #   1. psi has four free variables; an atom has at most two, S(t) one;
    #   2. S occurs: a sentence without it holds for every subset or none;
    #   3. if psi has no S it has two relating atoms and a connective, 7
    #      nodes, and four quantifiers, S and its connective make 14;
    #   4. if psi has S it has at least 9 nodes, and the only psi of 9 joins
    #      S(a), R(b, c) and S(d), with a, b, c, d distinct, by two
    #      connectives, so at size <= 13 the sentence is Q Q Q Q psi;
    #   5. a and d occur only in S, and as for v above, re-indexing their
    #      quantifiers by any permutation pi of the universe shows that the
    #      sentence holds for S exactly when it holds for pi[S]: a family
    #      of one subset is {empty} or {X}, both defined at size 4.
    # Budget 14 runs on three slots, and counts only formulas on them.
    return 1 + (budget >= 5) + (budget >= 10)


# _memo holds one record per universe, for at most _MEMO_ENTRIES of them,
# the oldest going first: ``answers``, budget -> answer for each budget its
# runs answered, one frozenset for consecutive equal answers, an answer of
# every subset at budget s on every budget from s to MAX_BUDGET; and
# ``run``, (nvars, by_size, seen, found) of its last whole run, or None
# (see _enumerate).  The kept runs hold at most _RUN_BITS classes times
# table bits in all; past it the oldest records drop their runs and keep
# their answers.  Measured with tracemalloc on CPython 3.11: {0,1,2,3}
# at budget 9 keeps 3,225 classes of 256 bits (0.8 Mbit) in 0.4 MB, {0..4}
# at 9 keeps 5,380 of 800 bits (4.3 Mbit) in 1.4 MB, and the fullest mix
# found, 256 universes of three codes at budget 7, holds 14 MB.  {0,1,2,3}
# at 10, 41,465 classes of 1,024 bits that would hold 11 MB, is not kept
_MEMO_ENTRIES = 256
_RUN_BITS = 1 << 23
_memo = {}


def _check_budget(budget):
    if check_natural(budget, "budget") > MAX_BUDGET:
        raise ResourceError(
            f"budget {budget} exceeds {MAX_BUDGET}, the largest budget "
            f"the enumerator runs (its slots are proved complete up to "
            f"13, and 14 counts formulas on three variables)")


def implicit_subsets(structure: FinStructure, budget: int):
    """Every subset implicitly defined by some formula of AST size at
    most ``budget``, parameters included as constant-size-one terms; at
    budget 14, by some such formula on three variables (see _var_pool).

    The empty structure is special-cased: it has exactly one subset, and
    that subset is returned at every budget rather than making the
    answer depend on which vacuously-true formula first fits the budget.
    The answers are remembered on the universe's record in _memo, with
    those of every smaller budget and the last run's stored sizes (see
    _enumerate), and an answer of every subset answers larger budgets.
    Tables of u**_var_pool(budget) * 2**u bits past MAX_TABLE_BITS are
    refused.
    """
    _check_budget(budget)
    record = _memo.get(structure.universe)
    answer = record.answers.get(budget) if record else None
    return _enumerate(structure, budget) if answer is None else answer


def _enumerate(structure, budget):
    """implicit_subsets on a miss: one run of _tables answers ``budget``
    and each smaller budget the record lacks, up to the first answer of
    every subset, which answers every larger one too.
    _tables builds a stored size s as a budget-s run on the same slots
    does, and that run's last size finds the closed families size s
    holds: the subsets defined once size s is done answer budget s (every
    subset, for sizes a stop cuts short), on any slots, since more slots
    never define fewer subsets and _var_pool(s) define all there are.

    A whole run keeps its stored sizes, seen set and found as the
    record's ``run``, which a later run on as many slots continues when
    its budget is no smaller; any other run starts afresh and replaces
    it.  That is exact: every run on the same slots builds a stored size
    s the same way, because ``wanted`` acts only at the last size, and
    once size s is done, seen holds exactly the classes of sizes <= s,
    and found the subsets they define, as found does at the end of a run
    whose last size is s.  The run is taken off the record first and put
    back only when the loop ends without a stop, so a refused, failed,
    interrupted or saturated run keeps no tables; nor does one that
    stores nothing or that alone passes _RUN_BITS.  The record becomes
    the newest.
    """
    universe = structure.universe
    u = len(universe)
    nvars = _var_pool(budget)
    width = u ** nvars << u         # table bits
    if width > MAX_TABLE_BITS:
        _refuse(width, "table bits", nvars, u, MAX_TABLE_BITS)
    record = _memo.get(universe) or SimpleNamespace(answers={}, run=None)
    run, record.run = record.run, None
    if run is None or run[0] != nvars or len(run[1]) + 2 > budget:
        run = (nvars, {}, set(), 0)
    _, by_size, seen, found = run       # found, bit s: mask s is defined
    nsub = 1 << u
    submask = (1 << nsub) - 1
    # a table is closed when every assignment's block equals block 0
    every = _repunit(u ** nvars, nsub)
    # size -> found once that size is done: sizes 0 and 1 hold no formula,
    # and every budget defines the one subset of the empty universe
    masks = {0: 0, 1: 0} if u else {0: 1}

    def wanted(family):
        # one subset, not defined yet
        return family & (family - 1) == 0 and family & ~found

    for t, free in _tables(structure, budget, wanted,
                           lambda size: masks.setdefault(size, found),
                           (by_size, seen)) if u else ():
        family = t & submask
        if family & (family - 1) == 0 and family \
                and (not free or t == family * every):
            found |= family
            if found == submask:
                break       # every subset is defined already
    else:
        if 0 < len(seen) * width <= _RUN_BITS:
            record.run = (nvars, by_size, seen, found)
    answers = record.answers
    answer = frozenset()
    for size in range(budget + 1):
        if size not in answers:
            mask = masks.get(size, found)
            # answers only grow with the budget: an equal count is equal
            if mask.bit_count() != len(answer):
                answer = frozenset(
                    frozenset(universe[j] for j in range(u) if s >> j & 1)
                    for s in range(nsub) if mask >> s & 1)
            answers[size] = answer
        answer = answers[size]
        if len(answer) == nsub:
            answers.update(dict.fromkeys(range(size, MAX_BUDGET + 1), answer))
            break
    _memo.pop(universe, None)
    _memo[universe] = record
    if len(_memo) > _MEMO_ENTRIES:
        del _memo[next(iter(_memo))]
    if record.run:
        kept = [(r, len(r.run[2]) * (len(k) ** r.run[0] << len(k)))
                for k, r in _memo.items() if r.run]
        total = sum(bits for _, bits in kept)
        for r, bits in kept:
            if total <= _RUN_BITS:
                break
            r.run = None
            total -= bits
    return answer


# _BINARY's operations and the converse one (the stored sizes inline them)
_CONNECTIVES = (*(op for _, op in _BINARY.values()),
                lambda a, b, ones: b ^ ones | a)


def _tables(structure, budget, wanted=lambda f: True, done=lambda s: None,
            kept=None):
    """(table, free-slot mask) for each formula class of size at most
    ``budget`` over a nonempty structure, smallest size first.

    Each class below the budget comes once, with the mask of the formula
    that first gave it.  The mask is syntactic, so it may hold slots the
    table ignores: mask 0 proves a table closed, and a quantifier on a
    slot outside the mask gives back its operand, so it is skipped.

    The negations of a size are tried first, and a class they give, the
    negation of a class a one size smaller, is yielded but never used as
    an operand.  No class is lost, nor reached later: each use of !a has
    an equivalent of the same or smaller size built from the others, as
    !!a = a, Q!a = !Q'a (Q' the other quantifier), !a & b = !(b -> a),
    !a | b = a -> b, !a -> b = a | b, b -> !a = !(b & a) and
    !a <-> b = !(a <-> b).

    Nothing is built from the last size, so its tables are not stored
    and may repeat a class.  Each is decided on its family first, block
    0 of its table, which costs no full table: the family of t1 op t2 is
    f1 op f2, a negation flips its operand's, and a quantifier ANDs (all)
    or ORs (ex) the blocks along its slot.  The operands of a binary
    connective are grouped by family, and a table is built only where
    ``wanted(family)`` holds; without ``wanted``, every family is.
    ``done(size)`` is called once each stored size has been yielded.

    ``kept`` is (by_size, seen) of a whole earlier run on the same
    universe and slots, whose stored sizes all lie below ``budget``.  Its
    sizes are neither built nor yielded again, and the sizes built here
    are added to it.
    """
    universe = structure.universe
    u = len(universe)
    nvars = _var_pool(budget)
    nsub = 1 << u
    submask = (1 << nsub) - 1
    full = (1 << (u ** nvars * nsub)) - 1

    # per slot i: its bit, the shifts to its other values, the bits of
    # the assignments where it takes the first value (its selector's
    # blocks filled), and the multiplier that copies such bits to every
    # value of slot i
    folds = []
    for i in range(nvars):
        stride, selector = _slot(u, nvars, i)
        folds.append((1 << i, range(stride, stride * u, stride),
                      selector * submask, _repunit(u, stride)))

    def fold(t, shifts):
        # the tables of all and ex over the slot, before their copying
        all_k = any_k = t
        for k in shifts:
            shifted = t >> k
            all_k &= shifted
            any_k |= shifted
        return all_k, any_k

    # term -> free-slot mask: slot numbers, then complemented codes
    terms = {**{i: 1 << i for i in range(nvars)}, **{~c: 0 for c in universe}}
    # size -> [(table, free-slot mask)], negations left out; the tables
    # of every stored class
    by_size, seen = kept or ({}, set())

    def atoms(size):
        if size == 2:
            for tm, free in terms.items():
                yield _atom_table(structure, (nvars, Pred, tm, None)), free
        if size == 3:
            for t1, free1 in terms.items():
                for t2, free2 in terms.items():
                    for kind in (Member, Eq):
                        yield (_atom_table(structure, (nvars, kind, t1, t2)),
                               free1 | free2)

    def candidates(size):
        # every class of the size but the negations
        yield from atoms(size)
        for t, free in by_size.get(size - 1, ()):
            for bit, shifts, first, copies in folds:
                if free & bit:
                    all_k, any_k = fold(t, shifts)
                    yield (all_k & first) * copies, free ^ bit
                    yield (any_k & first) * copies, free ^ bit
        for s1 in range(2, (size - 1) // 2 + 1):
            left, right = by_size[s1], by_size[size - 1 - s1]
            for n, (t1, free1) in enumerate(left):
                # the connectives are symmetric, both implications are
                # tried, and t op t is t or true: an equal-size pair is
                # needed once, and never a class with itself
                not1 = t1 ^ full
                for t2, free2 in right[n + 1:] if left is right else right:
                    free = free1 | free2
                    yield t1 & t2, free
                    yield t1 | t2, free
                    yield not1 | t2, free
                    yield t2 ^ full | t1, free
                    yield not1 ^ t2, free

    for size in range(len(by_size) + 2, budget):
        for t, free in by_size.get(size - 1, ()):
            t ^= full
            if t not in seen:
                seen.add(t)
                yield t, free
        level = by_size[size] = []
        for t, free in candidates(size):
            if t not in seen:
                seen.add(t)
                level.append((t, free))
                yield t, free
        done(size)
    if budget < 2:
        return
    # the last size, each operation decided on its family first
    for t, free in atoms(budget):
        if wanted(t & submask):
            yield t, free
    for t, free in by_size.get(budget - 1, ()):
        family = t & submask
        if wanted(family ^ submask):
            yield t ^ full, free
        for bit, shifts, first, copies in folds:
            if free & bit:
                all_f = any_f = family
                for k in shifts:
                    block = t >> k & submask
                    all_f &= block
                    any_f |= block
                want_all, want_any = wanted(all_f), wanted(any_f)
                if want_all or want_any:
                    all_k, any_k = fold(t, shifts)
                    if want_all:
                        yield (all_k & first) * copies, free ^ bit
                    if want_any:
                        yield (any_k & first) * copies, free ^ bit
    groups = {}     # size -> [(family, [(table, free-slot mask)])]
    for size in range(2, budget - 2):
        by_family = {}
        for t, free in by_size[size]:
            by_family.setdefault(t & submask, []).append((t, free))
        groups[size] = list(by_family.items())
    for s1 in range(2, (budget - 1) // 2 + 1):
        left, right = groups[s1], groups[budget - 1 - s1]
        for n, (f1, g1) in enumerate(left):
            for f2, g2 in right[n:] if left is right else right:
                for op in _CONNECTIVES:
                    if wanted(op(f1, f2, submask)):
                        for (t1, free1), (t2, free2) in (
                                combinations(g1, 2) if g1 is g2
                                else product(g1, g2)):
                            yield op(t1, t2, full), free1 | free2


# -- hierarchies ---------------------------------------------------------------------

# imp_levels builds at most MAX_LEVELS levels, and no set code of more
# than MAX_LEVEL_CODE_BITS bits, so every code prints (Python refuses to
# print an int of more than 4300 digits), and names the level where
# implicit_subsets refuses.  From budget 2 on, the codes grow as a tower
# and meet a bound by level 7; budgets 0 and 1 alternate between the
# empty level and {0} for ever.
MAX_LEVELS = 64
MAX_LEVEL_CODE_BITS = 1 << 12


def imp_levels(n: int, budget: int):
    """Levels 0..n of the iterated implicitly-definable powerset, each a
    set of set codes; level 0 is empty."""
    if check_natural(n, "n") > MAX_LEVELS:
        raise ResourceError(f"n = {n} levels exceeds {MAX_LEVELS}, the "
                            f"supported maximum")
    _check_budget(budget)
    levels = [frozenset()]
    for k in range(1, n + 1):
        carrier = sorted(levels[-1])
        # the widest code of level k has one bit per code up to the
        # largest member
        if carrier and carrier[-1] >= MAX_LEVEL_CODE_BITS:
            raise ResourceError(
                f"level {k} would hold set codes of {carrier[-1] + 1} bits; "
                f"{MAX_LEVEL_CODE_BITS} is the supported maximum")
        try:
            family = implicit_subsets(FinStructure(carrier), budget)
        except ResourceError as e:
            raise ResourceError(f"level {k}: {e}") from None
        levels.append(frozenset(set_of(s) for s in family))
    return levels


def vn_levels(n: int):
    """Levels 0..n of the plain cumulative ranks: each level is the full
    powerset of the previous one, as set codes."""
    if check_natural(n, "n") > 4:
        raise PreconditionError("rank levels above 4 are too large to build")
    levels = [frozenset()]
    for _ in range(n):
        prev = sorted(levels[-1])
        levels.append(frozenset(
            set_of(prev[j] for j in range(len(prev)) if (mask >> j) & 1)
            for mask in range(1 << len(prev))))
    return levels
