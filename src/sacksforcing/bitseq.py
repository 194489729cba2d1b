"""Finite binary sequences and the position codec used to pack families of
them into a single sequence.

A bit string is a plain tuple of 0/1 ints.  Two packing schemes live here:

* the pairwise interleave ``join_pair``, which alternates two sequences
  bit by bit, and
* the indexed family join ``join_family``, which places bit m of the n-th
  sequence at position ``pair_index(n, m)`` of the result.

``pair_index`` is the classic diagonal pairing (m + n)(m + n + 1)/2 + m.
It is a bijection from pairs of naturals onto the naturals, is strictly
increasing in each argument, and satisfies pair_index(0, 0) == 0,
pair_index(0, 1) == 1, and pair_index(m, n) > max(m, n) everywhere else.
Those facts are what make the column decomposition below well behaved, so
the test suite checks them explicitly.
"""

from __future__ import annotations

from math import isqrt

from .errors import (InputError, PreconditionError, check_items, check_natural,
                     int_text)

Bits = tuple[int, ...]

# index strings and bit tuples' columns this short are built once and shared
_CACHED_LENGTH = 10
_COLUMNS = {}

_BIT_CODES = str.maketrans("01", "\x00\x01")


def bits(text: str, name="text") -> Bits:
    """Parse a string over {0,1} into a bit tuple ("" gives the empty one).
    This is the JSON reader of bit strings: name, the path of text in the
    input, opens the message of the InputError a value that is not a
    string raises, and of the PreconditionError a bad character raises.
    A checked text maps "0" and "1" to the code points 0 and 1, whose
    UTF-8 bytes are the ints 0 and 1 of the tuple."""
    if not isinstance(text, str):
        raise InputError(f"{name}: not a bit string: {int_text(text)}")
    if text.strip("01"):
        raise PreconditionError(f"{name}: not a bit string: {text!r}")
    return tuple(text.translate(_BIT_CODES).encode())


def bits_str(b: Bits) -> str:
    return "".join(["01"[x] for x in b])


def check_bits(b) -> Bits:
    try:
        b = tuple(b)
    except TypeError:
        raise PreconditionError(f"not a bit sequence: {int_text(b)}") from None
    for x in b:     # an int, not a bool or a float, and 0 or 1
        if type(x) is not int or x >> 1:
            raise PreconditionError(f"not a bit sequence: {int_text(b)}")
    return b


def join_pair(x: Bits, y: Bits) -> Bits:
    """Interleave x and y, x on even positions and y on odd ones.

    The lengths must satisfy len(y) in {len(x), len(x) - 1}; those are the
    only two shapes a strict alternation x(0), y(0), x(1), y(1), ... can
    end in.
    """
    x, y = check_bits(x), check_bits(y)
    if len(y) not in (len(x), len(x) - 1):
        raise PreconditionError(
            f"join_pair needs len(y) in {{len(x), len(x)-1}}, "
            f"got {len(x)} and {len(y)}")
    out = [0] * (len(x) + len(y))
    out[0::2] = x
    out[1::2] = y
    return tuple(out)


def split_pair(z: Bits) -> tuple[Bits, Bits]:
    """Undo join_pair: return (even positions, odd positions)."""
    z = check_bits(z)
    return z[0::2], z[1::2]


def pair_index(m: int, n: int) -> int:
    """Diagonal pairing of (m, n); see the module docstring for its laws."""
    check_natural(m, "m")
    check_natural(n, "n")
    return (m + n) * (m + n + 1) // 2 + m


def pair_split(p: int) -> tuple[int, int]:
    """Inverse of pair_index."""
    w = (isqrt(8 * check_natural(p, "p") + 1) - 1) // 2
    m = p - w * (w + 1) // 2
    return m, w - m


def column(sigma: Bits, n: int) -> Bits:
    """The n-th column of sigma: bit m is sigma[pair_index(n, m)].

    Because the pairing is increasing in each argument the defined
    positions of a column are an initial segment, so the result is again
    a plain bit tuple.
    """
    return _column(check_bits(sigma), check_natural(n, "n"))


def _column(sigma: Bits, n: int) -> Bits:
    """column for a checked bit tuple sigma and natural n; checks nothing."""
    # pair_index(n, 0) == n(n+3)/2, and each step is one longer than the last
    out = []
    p, step = n * (n + 3) // 2, n + 1
    while p < len(sigma):
        out.append(sigma[p])
        p += step
        step += 1
    return tuple(out)


def _columns(sigma: Bits) -> tuple:
    """Every nonempty column of the checked bit tuple sigma, in order."""
    out = _COLUMNS.get(sigma)
    if out is None:
        out = tuple(_column(sigma, n) for n in range(width(len(sigma))))
        if len(sigma) <= _CACHED_LENGTH:
            _COLUMNS[sigma] = out
    return out


def width(k: int) -> int:
    """Number of nonempty columns of a length-k sequence.

    Equivalently the least n with pair_index(n, 0) >= k; columns at or
    beyond it are empty for every sigma of length k.
    """
    # pair_index(n, 0) == n(n+3)/2; the floor root is the least n or one less
    n = (isqrt(8 * check_natural(k, "k") + 9) - 3) // 2
    return n if n * (n + 3) // 2 >= k else n + 1


def join_family(xs, length: int) -> Bits:
    """Pack the family xs into one sequence of the given length.

    Position p of the result is bit m of xs[n] where (n, m) is the pairing
    split of p.  Every position below ``length`` must be covered, i.e. the
    family has to supply column n up to the length the codec demands.
    """
    xs = [check_bits(x) for x in check_items(xs, "xs", "bit sequences")]
    out = []
    for p in range(check_natural(length, "length")):
        n, m = pair_split(p)
        if n >= len(xs) or m >= len(xs[n]):
            raise PreconditionError(
                f"family is missing bit {m} of member {n} "
                f"(needed at position {p})")
        out.append(xs[n][m])
    return tuple(out)
