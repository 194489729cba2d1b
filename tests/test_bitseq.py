import pytest
from hypothesis import given
from hypothesis import strategies as st

from sacksforcing.bitseq import (
    bits, bits_str, check_bits, column, join_family, join_pair, pair_index,
    pair_split, split_pair, width,
)
from sacksforcing.conditions import (SINGLE, GenericContext, IterCondition,
                                     TowerRecipe, sc_schedule)
from sacksforcing.errors import PreconditionError
from sacksforcing.trees import SkeletonTree, full_tree

bit_strings = st.lists(st.integers(0, 1), max_size=24).map(tuple)


@pytest.mark.parametrize("call", [lambda: column(5, 0),
                                  lambda: full_tree().rt(5),
                                  lambda: sc_schedule(0, 5, 0)])
def test_a_value_that_is_not_iterable_is_not_a_bit_sequence(call):
    with pytest.raises(PreconditionError, match="^not a bit sequence: 5$"):
        call()


def test_a_family_that_is_not_iterable_is_refused():
    # it once raised a bare TypeError
    with pytest.raises(PreconditionError, match="^xs must be an iterable of "
                       "bit sequences, not int$"):
        join_family(5, 0)


@pytest.mark.parametrize("value", [(0, 2), [1, 0, -1], "01"])
def test_an_entry_that_is_not_a_bit_is_refused(value):
    with pytest.raises(PreconditionError, match="^not a bit sequence: "):
        check_bits(value)


def _guarded(address):
    """An iteration whose coordinate 1 is guarded by coordinate 0 at
    address and at the other one-bit address."""
    other = (1 - int(address[0]),)
    return IterCondition(TowerRecipe([SINGLE, SINGLE]), [
        [({}, full_tree())],
        [({0: address}, full_tree()), ({0: other}, full_tree())]])


@pytest.mark.parametrize("bit", [0.0, 1.0, False, True])
@pytest.mark.parametrize("build", [
    lambda b: SkeletonTree(0, {(): (0, b)}),
    lambda b: SkeletonTree(1, {(): (), (b,): (int(b),),
                               (1 - int(b),): (1 - int(b),)}),
    lambda b: _guarded((b,)),
    lambda b: GenericContext({0: (b,)}),
], ids=["entry", "key", "guard", "commitment"])
def test_a_bit_that_is_not_an_int_is_refused(build, bit):
    # each once built, and its repr and to_json raised a TypeError
    with pytest.raises(PreconditionError, match="^not a bit sequence: "):
        build(bit)
    build(int(bit))


# -- pairwise join ----------------------------------------------------------

def test_join_pair_examples():
    assert join_pair(bits("10"), bits("1")) == bits("110")
    assert join_pair(bits("10"), bits("11")) == bits("1101")
    assert join_pair((), ()) == ()


def test_join_pair_against_placement_oracle():
    # independent construction: write each bit into an explicit slot table
    for x in [(), (1,), (0, 1), (1, 1, 0), (0, 0, 1, 1)]:
        for cut in (len(x), len(x) - 1):
            if cut < 0:
                continue
            y = tuple(1 - b for b in x[:cut])
            slots = {}
            for k, b in enumerate(x):
                slots[2 * k] = b
            for k, b in enumerate(y):
                slots[2 * k + 1] = b
            expected = tuple(slots[p] for p in range(len(slots)))
            assert join_pair(x, y) == expected


def test_join_pair_length_mismatch():
    with pytest.raises(PreconditionError):
        join_pair(bits("1"), bits("011"))
    with pytest.raises(PreconditionError):
        join_pair(bits("11"), ())


@given(bit_strings)
def test_split_after_join_round_trip(z):
    left, right = split_pair(z)
    assert len(right) in (len(left), len(left) - 1) or z == ()
    assert join_pair(left, right) == z


@given(bit_strings, bit_strings)
def test_join_then_split(x, y):
    if len(y) not in (len(x), len(x) - 1):
        return
    assert split_pair(join_pair(x, y)) == (x, y)


# -- diagonal pairing -------------------------------------------------------

def test_pair_index_base_cases():
    assert pair_index(0, 0) == 0
    assert pair_index(0, 1) == 1
    assert pair_index(1, 0) == 2
    assert pair_index(0, 2) == 3
    assert pair_index(1, 1) == 4
    assert pair_index(2, 0) == 5


def test_pair_index_laws():
    seen = {}
    for m in range(100):
        for n in range(100):
            p = pair_index(m, n)
            assert p not in seen, (m, n, seen[p])
            seen[p] = (m, n)
            if (m, n) not in ((0, 0), (0, 1)):
                assert p > max(m, n)
            assert pair_index(m + 1, n) > p
            assert pair_index(m, n + 1) > p
    # surjectivity onto an initial segment
    assert sorted(seen.keys())[:5050] == list(range(5050))


def test_pair_split_inverts():
    for p in range(2000):
        m, n = pair_split(p)
        assert pair_index(m, n) == p


# -- columns and width ------------------------------------------------------

def test_column_positions():
    # positions of column 0 are 0, 1, 3, 6, ...; of column 1 are 2, 4, 7, ...
    sigma = bits("10110")
    assert column(sigma, 0) == (sigma[0], sigma[1], sigma[3])
    assert column(sigma, 1) == (sigma[2], sigma[4])
    assert column(sigma, 2) == ()
    assert column((), 0) == ()


def test_width_values():
    assert width(0) == 0
    assert width(1) == 1
    assert width(5) == 2
    for k in range(64):
        n = width(k)
        assert pair_index(n, 0) >= k
        assert n == 0 or pair_index(n - 1, 0) < k


def _width_by_search(k):
    n = 0
    while pair_index(n, 0) < k:
        n += 1
    return n


def test_width_closed_form_matches_the_search():
    assert all(width(k) == _width_by_search(k) for k in range(10_000))
    for n in range(10 ** 9 - 3, 10 ** 9 + 4):
        first = pair_index(n, 0)
        assert width(first - 1) == width(first) == n
        assert width(first + 1) == n + 1


def test_width_marks_last_nonempty_column():
    for k in range(1, 40):
        sigma = tuple(1 for _ in range(k))
        n = width(k)
        assert column(sigma, n) == ()
        assert column(sigma, n - 1) != ()


# -- family join ------------------------------------------------------------

def test_join_family_small():
    # position 0 and 1 read member 0, position 2 reads member 1
    assert join_family([bits("10"), bits("1")], 3) == bits("101")
    assert join_family([], 0) == ()
    assert join_family([bits("1")], 1) == bits("1")


def test_join_family_against_position_oracle():
    xs = [bits("1011"), bits("010"), bits("11")]
    for length in range(9):
        expected = []
        for p in range(length):
            n, m = pair_split(p)
            expected.append(xs[n][m])
        assert join_family(xs, length) == tuple(expected)


def test_join_family_missing_bit():
    with pytest.raises(PreconditionError):
        join_family([bits("10")], 3)  # position 2 needs member 1
    with pytest.raises(PreconditionError):
        join_family([bits("1"), bits("1")], 4)  # position 3 needs bit 1 of member 0


def test_columns_of_join_family_recover_members():
    xs = [bits("101"), bits("01"), bits("1")]
    for length in range(7):
        try:
            z = join_family(xs, length)
        except PreconditionError:
            continue
        for n in range(width(length)):
            col = column(z, n)
            assert col == xs[n][: len(col)]


@given(st.lists(bit_strings, max_size=4))
def test_join_family_columns_are_prefixes(xs):
    total = sum(len(x) for x in xs)
    for length in range(total + 1):
        try:
            z = join_family(xs, length)
        except PreconditionError:
            continue
        assert len(z) == length
        for n in range(width(length)):
            col = column(z, n)
            assert n < len(xs) and col == xs[n][: len(col)]


def test_bits_parse_and_print():
    assert bits("") == ()
    assert bits("0110") == (0, 1, 1, 0)
    assert bits_str((1, 0)) == "10"
    with pytest.raises(PreconditionError):
        bits("012")
