import random
import re
import time
from itertools import product

import pytest

from sacksforcing.bitseq import bits
from sacksforcing.conditions import PAIR, SINGLE
from sacksforcing.degrees import (
    DIAMOND, LINE, MANY, MAX_SCHEDULE_STEPS, ONE,
    DegreePoset, Ordinal2, ScPattern, TowerCensus, TowerRecipe,
    census_decode, census_encode, poset_dot, sc_census_decode,
    sc_census_encode, sc_decode, sc_pattern, sc_schedule, tower_degrees,
)
from sacksforcing.errors import (DecodeError, InputError, PreconditionError,
                                 ResourceError)
from sacksforcing.trees import all_bitstrings, bitstrings_upto


def all_recipes(max_length):
    yield TowerRecipe(())
    for length in range(1, max_length + 1):
        for tail in product((SINGLE, PAIR), repeat=length - 1):
            yield TowerRecipe((SINGLE,) + tail)


def test_a_pattern_that_is_not_iterable_is_refused():
    # it once raised a bare TypeError
    with pytest.raises(PreconditionError, match="^levels must be an iterable "
                       "of pattern levels, not int$"):
        ScPattern(5)


def test_a_census_that_is_not_a_sequence_of_pairs_is_refused():
    # it once raised a bare TypeError
    with pytest.raises(PreconditionError, match="^census entries must be "
                       r"\(height, verdict\) pairs$"):
        TowerCensus(5)


def test_a_bit_function_that_is_not_a_mapping_is_refused():
    # it once raised a bare TypeError
    with pytest.raises(PreconditionError,
                       match="^x must be a mapping, not int$"):
        census_encode(5, 1, 1)


def test_a_census_to_decode_that_is_not_a_census_is_refused():
    # it once raised a bare AttributeError
    with pytest.raises(PreconditionError,
                       match="^census must be a TowerCensus, not int$"):
        census_decode(5)


def test_a_pattern_to_decode_that_is_not_a_pattern_is_refused():
    # it once raised a bare AttributeError
    with pytest.raises(PreconditionError,
                       match="^pattern must be an ScPattern, not int$"):
        sc_decode(5)


def test_a_self_coding_census_that_is_not_a_mapping_is_refused():
    # it once raised a bare TypeError
    with pytest.raises(PreconditionError,
                       match="^census must be a mapping, not int$"):
        sc_census_decode(5)


# -- ordinals -------------------------------------------------------------------

def test_ordinal_basics():
    zero = Ordinal2(0, 0)
    omega = Ordinal2(1, 0)
    assert zero.is_zero
    assert not omega.is_zero
    assert zero < Ordinal2(0, 5) < omega < Ordinal2(1, 1) < Ordinal2(2, 0)
    assert Ordinal2.from_json(Ordinal2(1, 3).to_json()) == Ordinal2(1, 3)
    with pytest.raises(PreconditionError):
        Ordinal2(-1, 0)


# -- tower posets ----------------------------------------------------------------

def test_single_step_chain():
    poset = tower_degrees(TowerRecipe((SINGLE,)))
    assert poset.nodes == ("d0", "d1")
    assert poset.leq("d0", "d1") and not poset.leq("d1", "d0")
    assert poset.bottom == "d0"


def test_pair_step_diamond():
    poset = tower_degrees(TowerRecipe((SINGLE, PAIR)))
    assert len(poset.nodes) == 5
    assert len(poset.edges) == 5
    assert not poset.leq("d1.0", "d1.1")
    assert not poset.leq("d1.1", "d1.0")
    for side in ("d1.0", "d1.1"):
        assert poset.leq("d1", side) and poset.leq(side, "d2")


def test_node_and_edge_counts():
    for recipe in all_recipes(6):
        poset = tower_degrees(recipe)
        pairs = sum(1 for k in recipe.kinds if k == PAIR)
        singles = recipe.length - pairs
        assert len(poset.nodes) == recipe.length + 1 + 2 * pairs
        assert len(poset.edges) == singles + 4 * pairs


def test_diamonds_are_lattice_points():
    for recipe in all_recipes(6):
        poset = tower_degrees(recipe)
        for beta, kind in enumerate(recipe.kinds):
            if kind != PAIR:
                continue
            lo, hi = f"d{beta}.0", f"d{beta}.1"
            assert poset.meet(lo, hi) == f"d{beta}"
            assert poset.join(lo, hi) == f"d{beta + 1}"


def test_recipe_validation():
    with pytest.raises(PreconditionError):
        TowerRecipe((PAIR,))
    with pytest.raises(PreconditionError):
        TowerRecipe(("mystery",))
    assert TowerRecipe.from_json(
        TowerRecipe((SINGLE, PAIR)).to_json()) == TowerRecipe((SINGLE, PAIR))


def test_poset_validation():
    with pytest.raises(PreconditionError):
        DegreePoset(["a", "b"], [("a", "b"), ("b", "a")])  # cycle
    with pytest.raises(PreconditionError):
        DegreePoset(["a", "b", "c"], [("a", "c"), ("b", "c")])  # two bottoms
    with pytest.raises(PreconditionError):
        DegreePoset(["a", "a"], [])
    with pytest.raises(PreconditionError):
        DegreePoset(["a"], [("a", "zzz")])


def test_poset_order_matches_a_search():
    # random DAGs above node 0; leq against a plain graph search
    rng = random.Random(3)
    for _ in range(200):
        n = rng.randrange(1, 12)
        edges = {(rng.randrange(hi), hi) for hi in range(1, n)}
        edges |= {tuple(sorted(rng.sample(range(n), 2)))
                  for _ in range(rng.randrange(n + 1)) if n > 1}
        labels = [f"v{i}" for i in rng.sample(range(n), n)]
        poset = DegreePoset(labels, [(labels[a], labels[b])
                                     for a, b in sorted(edges)])
        assert poset.bottom == labels[0]
        for a in range(n):
            seen, todo = {a}, [a]
            while todo:
                v = todo.pop()
                for lo, hi in edges:
                    if lo == v and hi not in seen:
                        seen.add(hi)
                        todo.append(hi)
            for b in range(n):
                assert poset.leq(labels[a], labels[b]) == (b in seen)
    # a long chain is no deeper for the checks than a short one
    chain = DegreePoset([f"c{i}" for i in range(3000)],
                        [(f"c{i}", f"c{i + 1}") for i in range(2999)])
    assert chain.leq("c0", "c2999") and not chain.leq("c2999", "c0")
    with pytest.raises(PreconditionError, match="cycle"):
        DegreePoset([f"c{i}" for i in range(3000)],
                    [(f"c{i}", f"c{i + 1}") for i in range(2999)]
                    + [("c2999", "c1")])


def _reference_meet_join(poset, x, y):
    """Meet and join as the unique maximal common lower bound and the
    unique minimal common upper bound, found by scanning every node."""
    def extreme(candidates, above):
        picked = [c for c in candidates if not any(
            d != c and (poset.leq(c, d) if above else poset.leq(d, c))
            for d in candidates)]
        return picked[0] if len(picked) == 1 else None
    nodes = poset.nodes
    lower = [z for z in nodes if poset.leq(z, x) and poset.leq(z, y)]
    upper = [z for z in nodes if poset.leq(x, z) and poset.leq(y, z)]
    return extreme(lower, True), extreme(upper, False)


def _random_posets(seed, count):
    """Random DAGs above node 0, with labels in a random order."""
    rng = random.Random(seed)
    for _ in range(count):
        n = rng.randrange(1, 12)
        edges = {(rng.randrange(hi), hi) for hi in range(1, n)}
        edges |= {tuple(sorted(rng.sample(range(n), 2)))
                  for _ in range(rng.randrange(n + 1)) if n > 1}
        labels = [f"v{i}" for i in rng.sample(range(n), n)]
        yield DegreePoset(labels, [(labels[a], labels[b])
                                   for a, b in sorted(edges)])


def test_meet_and_join_match_a_scan():
    posets = [tower_degrees(r) for r in all_recipes(6)]
    posets += list(_random_posets(3, 200))
    # a poset without some meets and joins: two bottoms of a pair of
    # tops, under a common bottom
    posets.append(DegreePoset(
        ["0", "a", "b", "c", "d"],
        [("0", "a"), ("0", "b"), ("a", "c"), ("a", "d"), ("b", "c"),
         ("b", "d")]))
    missing = 0
    for poset in posets:
        for x in poset.nodes:
            for y in poset.nodes:
                expected = _reference_meet_join(poset, x, y)
                assert (poset.meet(x, y), poset.join(x, y)) == expected
                missing += None in expected
    assert missing > 0


@pytest.mark.parametrize("call", ["leq", "meet", "join"])
@pytest.mark.parametrize("args", [("zz", "d0"), ("d0", "zz"), (0, "d0"),
                                  ("d0", ["d1"])])
def test_poset_answers_only_about_its_nodes(call, args):
    poset = tower_degrees(TowerRecipe((SINGLE, PAIR)))
    bad = args[0] if args[1] in poset.nodes else args[1]
    with pytest.raises(PreconditionError, match="^" + re.escape(repr(bad))):
        getattr(poset, call)(*args)


# -- tower censuses ---------------------------------------------------------------

def grid(limit_bound, n_bound):
    return [Ordinal2(a, n)
            for a in range(limit_bound) for n in range(n_bound)]


def test_census_encode_all_zero():
    x = {key: 0 for key in grid(2, 3)}
    census = dict(census_encode(x, 2, 3).entries)
    for height, verdict in census.items():
        assert verdict == (ONE if height.b % 2 == 1 else MANY)


def test_census_encode_fixture_values():
    x = {key: 0 for key in grid(2, 2)}
    x[Ordinal2(0, 0)] = 1
    census = dict(census_encode(x, 2, 2).entries)
    assert census[Ordinal2(0, 1)] == MANY   # bit 1 at index 0
    assert census[Ordinal2(1, 1)] == ONE    # bit 0 at the first limit
    assert census[Ordinal2(0, 2)] == MANY


def test_census_round_trip_exhaustive():
    keys = grid(2, 4)
    for assignment in product((0, 1), repeat=len(keys)):
        x = dict(zip(keys, assignment))
        assert census_decode(census_encode(x, 2, 4)) == x


def test_census_encode_domain_errors():
    with pytest.raises(PreconditionError):
        census_encode({Ordinal2(0, 0): 0}, 1, 2)  # missing (0,1)
    x = {key: 0 for key in grid(1, 1)}
    x[Ordinal2(5, 5)] = 0
    with pytest.raises(PreconditionError):
        census_encode(x, 1, 1)  # stray key
    with pytest.raises(PreconditionError):
        census_encode({Ordinal2(0, 0): 2}, 1, 1)


def test_census_encode_compares_the_count_first():
    # an equal count still needs the same keys
    with pytest.raises(PreconditionError):
        census_encode({Ordinal2(0, 0): 0, Ordinal2(0, 5): 0}, 1, 2)
    start = time.perf_counter()
    with pytest.raises(PreconditionError):
        census_encode({Ordinal2(0, 0): 0}, 2 ** 64, 2 ** 64)
    assert dict(census_encode({}, 2 ** 64, 0).entries) == {}
    with pytest.raises(PreconditionError,
                       match="^limit_bound must be a natural number$"):
        census_encode({}, -1, -1)
    assert time.perf_counter() - start < 2


def test_malformed_census_rejection():
    good = census_encode({key: 0 for key in grid(1, 2)}, 1, 2)
    table = dict(good.entries)

    bad = dict(table)
    bad[Ordinal2(0, 2)] = ONE  # even offset must be many
    with pytest.raises(DecodeError):
        census_decode(TowerCensus(tuple(bad.items())))

    bad = dict(table)
    del bad[Ordinal2(0, 2)]  # odd height left without its even partner
    with pytest.raises(DecodeError):
        census_decode(TowerCensus(tuple(bad.items())))

    bad = dict(table)
    del bad[Ordinal2(0, 1)]
    with pytest.raises(DecodeError):
        census_decode(TowerCensus(tuple(bad.items())))

    with pytest.raises(DecodeError):
        census_decode(TowerCensus(()))

    # ragged: the second limit block is shallower than the first
    ragged = census_encode({key: 0 for key in grid(2, 2)}, 2, 2)
    ragged = dict(ragged.entries)
    del ragged[Ordinal2(1, 3)]
    del ragged[Ordinal2(1, 4)]
    with pytest.raises(DecodeError):
        census_decode(TowerCensus(tuple(ragged.items())))

    with pytest.raises(PreconditionError):
        TowerCensus(((Ordinal2(0, 0), ONE),))  # zero height
    with pytest.raises(PreconditionError):
        TowerCensus(((Ordinal2(0, 1), "几"),))


def _reference_census_decode(census):
    """census_decode as it stood with hand checks of the encoder's range."""
    table = dict(census.entries)
    x = {}
    for height, verdict in table.items():
        if height.b % 2 == 0:
            if verdict != MANY:
                raise DecodeError(
                    f"height {height} must report many towers")
            partner = Ordinal2(height.a, height.b - 1)
            if partner not in table:
                raise DecodeError(f"height {height} has no odd partner")
        else:
            n = (height.b - 1) // 2
            if Ordinal2(height.a, height.b + 1) not in table:
                raise DecodeError(f"height {height} has no even partner")
            x[Ordinal2(height.a, n)] = 0 if verdict == ONE else 1
    if not x:
        raise DecodeError("empty census")
    n_bounds = {key.b for key in x}
    per_limit = {}
    for key in x:
        per_limit.setdefault(key.a, set()).add(key.b)
    shape = {frozenset(v) for v in per_limit.values()}
    if len(shape) != 1 or shape.pop() != set(range(max(n_bounds) + 1)):
        raise DecodeError("census heights do not form a full grid")
    if set(per_limit) != set(range(max(per_limit) + 1)):
        raise DecodeError("census limits do not form an initial segment")
    return x


def _outcome(decode, census):
    try:
        return decode(census)
    except (DecodeError, PreconditionError, TypeError) as e:
        return type(e)


def test_census_decode_matches_the_reference():
    """Every census over the nonzero heights w*a + b with a < 2, b < 5,
    each height absent, one or many: the answers agree, and where the
    reference raised, census_decode raises DecodeError."""
    heights = [h for h in grid(2, 5) if not h.is_zero]
    answers = 0
    for verdicts in product((None, ONE, MANY), repeat=len(heights)):
        census = TowerCensus(tuple((h, v) for h, v in zip(heights, verdicts)
                                   if v is not None))
        expected = _outcome(_reference_census_decode, census)
        got = _outcome(census_decode, census)
        if isinstance(expected, dict):
            assert got == expected
            answers += 1
        else:
            assert got is DecodeError, (census, expected, got)
    # the grids 1x1 and 1x2 at limit 0 and 2x1 and 2x2, four bit
    # functions each size
    assert answers == 2 + 4 + 4 + 16


def test_census_decode_rejects_limit_and_huge_heights():
    with pytest.raises(DecodeError):
        census_decode(TowerCensus(((Ordinal2(1, 0), MANY),)))
    huge = TowerCensus(((Ordinal2(10 ** 18, 1), ONE),
                        (Ordinal2(10 ** 18, 2), MANY)))
    start = time.perf_counter()
    with pytest.raises(DecodeError):
        census_decode(huge)
    assert time.perf_counter() - start < 1


def test_census_reindex_identity():
    """Cutting half of each even-height family re-creates the lower
    heights, but many minus half is still many: the census is unchanged."""
    x = {key: (key.a + key.b) % 2 for key in grid(2, 3)}
    census = census_encode(x, 2, 3)
    reindexed = {
        height: (MANY if height.b % 2 == 0 else verdict)
        for height, verdict in census.entries}
    assert TowerCensus(tuple(reindexed.items())) == census


def test_census_json_round_trip():
    census = census_encode({key: 1 for key in grid(2, 2)}, 2, 2)
    assert TowerCensus.from_json(census.to_json()) == census


# -- self-coding schedules and patterns --------------------------------------------

def test_sc_schedule_cases():
    assert sc_schedule(1, bits("10"), 5).kinds == \
        (SINGLE, SINGLE, PAIR, PAIR, SINGLE)
    assert sc_schedule(0, bits(""), 2).kinds == (SINGLE, PAIR)
    for n in range(3):
        for g in all_bitstrings(2):
            recipe = sc_schedule(n, g, n + 2 + len(g))
            assert recipe.kinds[0] == SINGLE
            assert recipe.kinds[n + 1] == PAIR
    # truncation before the first pair is allowed
    assert sc_schedule(2, bits(""), 2).kinds == (SINGLE, SINGLE)
    with pytest.raises(PreconditionError):
        sc_schedule(1, bits("1"), 5)  # needs two data bits


def test_sc_schedule_length_bound():
    start = time.perf_counter()
    K = MAX_SCHEDULE_STEPS
    assert len(sc_schedule(K - 2, bits(""), K).kinds) == K
    with pytest.raises(ResourceError, match=f"^K={K + 1} exceeds {K} steps"):
        sc_schedule(K - 1, bits(""), K + 1)
    with pytest.raises(ResourceError):
        sc_schedule(10 ** 8, bits(""), 10 ** 8)
    assert time.perf_counter() - start < 2


def test_sc_pattern_values():
    assert sc_pattern(TowerRecipe((SINGLE, SINGLE))).levels == (LINE, LINE)
    pattern = sc_pattern(sc_schedule(1, bits("10"), 5))
    assert pattern.levels == (LINE, LINE, DIAMOND, DIAMOND, LINE)
    assert len(pattern.levels) == 5


def test_sc_pattern_matches_poset_shape():
    """Dual route: a level is a diamond exactly when the rendered poset
    grew side nodes there."""
    for n in range(3):
        for g in bitstrings_upto(3):
            recipe = sc_schedule(n, g, n + 2 + len(g))
            pattern = sc_pattern(recipe)
            poset = tower_degrees(recipe)
            for k, level in enumerate(pattern.levels):
                assert (level == DIAMOND) == (f"d{k}.0" in poset.nodes)


def test_sc_decode_values():
    assert sc_decode(ScPattern((LINE, LINE, DIAMOND, DIAMOND, LINE))) == \
        (1, (1, 0))
    assert sc_decode(ScPattern((LINE, DIAMOND))) == (0, ())
    with pytest.raises(DecodeError):
        sc_decode(ScPattern((LINE, LINE, LINE)))
    with pytest.raises(PreconditionError):
        ScPattern((DIAMOND, LINE))


def test_sc_round_trip_exhaustive():
    seen = {}
    for n in range(4):
        for g in bitstrings_upto(6):
            pattern = sc_pattern(sc_schedule(n, g, n + 2 + len(g)))
            assert sc_decode(pattern) == (n, g)
            key = pattern.levels
            assert seen.setdefault(key, (n, g)) == (n, g)


def test_sc_round_trip_on_prefixes():
    n, g = 2, bits("1011")
    for K in range(n + 2, n + 2 + len(g) + 1):
        pattern = sc_pattern(sc_schedule(n, g, K))
        assert sc_decode(pattern) == (n, g[: K - n - 2])


def test_sc_pattern_json_round_trip():
    pattern = sc_pattern(sc_schedule(1, bits("10"), 5))
    assert ScPattern.from_json(pattern.to_json()) == pattern


# -- self-coding censuses -----------------------------------------------------------

def test_sc_census_values():
    assert sc_census_encode(bits("10"), 2) == {0: ONE, 1: MANY}
    assert sc_census_encode(bits("000"), 5) == {0: MANY, 1: MANY, 2: MANY}
    with pytest.raises(PreconditionError):
        sc_census_encode(bits("1"), 1)


def test_sc_census_round_trip():
    for h in bitstrings_upto(8):
        assert sc_census_decode(sc_census_encode(h, 3)) == h


def test_sc_census_decode_errors():
    with pytest.raises(DecodeError):
        sc_census_decode({0: ONE, 2: MANY})
    with pytest.raises(DecodeError):
        sc_census_decode({0: "some"})


def _reference_sc_census_decode(census):
    """sc_census_decode as it stood with hand checks of the encoder's
    range."""
    keys = sorted(census)
    if keys != list(range(len(keys))):
        raise DecodeError("bases must form an initial segment of naturals")
    for v in census.values():
        if v not in (ONE, MANY):
            raise DecodeError(f"bad verdict {v!r}")
    return tuple(1 if census[n] == ONE else 0 for n in keys)


def _sc_censuses():
    """1,364 maps: one to five entries, entry j one of four (key,
    verdict) choices, so keys may skip, repeat, or be strings."""
    for k in range(1, 6):
        for picks in product(range(4), repeat=k):
            yield dict([(j, ONE), (j, MANY), (j + 1, ONE), (str(j), MANY)][c]
                       for j, c in enumerate(picks))


def test_sc_census_decode_matches_the_reference():
    censuses = list(_sc_censuses())
    assert len(censuses) == 1364
    outcomes = {DecodeError: 0, TypeError: 0, tuple: 0}
    for census in censuses:
        expected = _outcome(_reference_sc_census_decode, census)
        got = _outcome(sc_census_decode, census)
        if isinstance(expected, tuple):
            assert got == expected
            outcomes[tuple] += 1
        else:
            assert got is DecodeError, (census, expected, got)
            outcomes[expected] += 1
    assert all(outcomes.values()), outcomes


# -- rendering ------------------------------------------------------------------------

def test_poset_dot_deterministic():
    poset = tower_degrees(sc_schedule(0, bits("1"), 3))
    first = poset_dot(poset)
    assert first == poset_dot(tower_degrees(sc_schedule(0, bits("1"), 3)))
    assert first.startswith("digraph degrees {")
    assert '"d1" -> "d1.0";' in first
    assert first.count("->") == len(poset.edges)


def test_poset_dot_snapshot():
    poset = tower_degrees(TowerRecipe((SINGLE, PAIR)))
    assert poset_dot(poset) == (
        'digraph degrees {\n'
        '  rankdir=BT;\n'
        '  "d0";\n'
        '  "d1";\n'
        '  "d1.0";\n'
        '  "d1.1";\n'
        '  "d2";\n'
        '  "d0" -> "d1";\n'
        '  "d1" -> "d1.0";\n'
        '  "d1" -> "d1.1";\n'
        '  "d1.0" -> "d2";\n'
        '  "d1.1" -> "d2";\n'
        "}\n"
    )


# -- the JSON boundary ---------------------------------------------------------

@pytest.mark.parametrize("decode, data", [
    (TowerRecipe.from_json, {"kinds": 5}),
    (TowerRecipe.from_json, {"kinds": ["single", "triple"]}),
    (TowerRecipe.from_json, ["single"]),
    (TowerCensus.from_json, []),
    (TowerCensus.from_json, {"entries": 5}),
    (TowerCensus.from_json, {"entries": [5]}),
    (TowerCensus.from_json, {"entries": [[[0, 1]]]}),
    (TowerCensus.from_json, {"entries": [[[0, True], "one"]]}),
    (TowerCensus.from_json, {"entries": [[[0, -1], "one"]]}),
    (TowerCensus.from_json, {"entries": [[["0", 1], "one"]]}),
    (ScPattern.from_json, {}),
    (ScPattern.from_json, ["line"]),
    (ScPattern.from_json, {"levels": ["line", "square"]}),
    (Ordinal2.from_json, ["3", True]),
    (Ordinal2.from_json, [1.0, 0]),
    (Ordinal2.from_json, [1, -1]),
    (Ordinal2.from_json, [1, 2, 3]),
    (Ordinal2.from_json, {"a": 1, "b": 2}),
])
def test_from_json_rejects_malformed_shapes(decode, data):
    with pytest.raises(InputError):
        decode(data)


def test_from_json_names_the_field():
    with pytest.raises(InputError, match=r"^census\[1\]: "):
        TowerCensus.from_json({"entries": [[[0, 1], ONE], [[0], MANY]]})
    with pytest.raises(InputError, match="^h: "):
        Ordinal2.from_json(["3", True], "h")
    # content errors keep their class
    with pytest.raises(PreconditionError):
        TowerRecipe.from_json({"kinds": ["pair"]})
    with pytest.raises(PreconditionError):
        TowerCensus.from_json({"entries": [[[0, 1], "few"]]})


@pytest.mark.parametrize("nodes, edges", [
    ([0], [[0]]),
    (["a", "b"], [["a", "b", "a"]]),
    (["a", "b"], ["ab"]),
    ("ab", [["a", "b"]]),
    (["a", "b"], "ab"),
    ([0, 1], [[0, 1]]),
    ([["a"]], []),
    (["a"], [[["a"], "a"]]),
])
def test_poset_rejects_malformed_shapes(nodes, edges):
    with pytest.raises(InputError, match="^poset: "):
        DegreePoset(nodes, edges)


def test_poset_json():
    poset = tower_degrees(TowerRecipe((SINGLE, PAIR)))
    data = poset.to_json()
    assert data["nodes"] == list(poset.nodes)
    assert data["edges"] == [list(e) for e in poset.edges]
    back = DegreePoset(data["nodes"], data["edges"])
    assert (back.nodes, back.edges) == (poset.nodes, poset.edges)


def test_pattern_levels_are_lines_or_diamonds():
    for levels in ((LINE, "square"), (LINE, DIAMOND, None), ("diamond ",)):
        with pytest.raises(PreconditionError, match="bad pattern levels"):
            ScPattern(levels)
    assert ScPattern([LINE, DIAMOND]).levels == (LINE, DIAMOND)
