"""The JSON readers that stand behind ``eval`` answer and refuse as their
plain forms do: bit strings, schedule kinds, generic contexts and guard
tables, and the payload file that holds them.  Each case names the class
and the message that the plain reader gives."""

import itertools
import json

import pytest

from sacksforcing.bitseq import bits
from sacksforcing.cli import main
from sacksforcing.conditions import (EMPTY_CONTEXT, GenericContext,
                                     IterCondition, TowerRecipe,
                                     _table_is_partition, full_iter,
                                     full_tree, schedule_from_json)
from sacksforcing.errors import EngineError, InputError, PreconditionError

DEPTH0 = {"depth": 0, "skeleton": {"": ""}}


def outcome(call):
    """("ok", the answer) or (the EngineError's class name, its message)."""
    try:
        return "ok", call()
    except EngineError as e:
        return type(e).__name__, str(e)


def plain_bits(text, name):
    """bits as a plain check and map(int): the reference it must match."""
    if not isinstance(text, str):
        raise InputError(f"{name}: not a bit string: {text!r}")
    if text.strip("01"):
        raise PreconditionError(f"{name}: not a bit string: {text!r}")
    return tuple(map(int, text))


BIT_TEXTS = ["".join(t) for n in range(4)
             for t in itertools.product("012 ٠", repeat=n)]


@pytest.mark.parametrize("text", BIT_TEXTS + [None, 0, [], b"0"], ids=repr)
def test_bits_reads_as_map_int_does(text):
    got, want = (outcome(lambda: f(text, "x.sigma"))
                 for f in (bits, plain_bits))
    assert got == want
    if got[0] == "ok":
        assert all(type(b) is int for b in got[1])


KINDS_CASES = [
    (["single", 5], ("InputError", 'schedule.kinds: expected "single" or '
                                   '"pair"')),
    (["pair"], ("PreconditionError", "step 0 must be single")),
    ([], ("ok", {"kinds": []})),
    ("single", ("InputError", "schedule.kinds: expected a list")),
    ([["single"]], ("InputError", 'schedule.kinds: expected "single" or '
                                  '"pair"')),
    ({}, ("InputError", "schedule.kinds: expected a list")),
    (None, ("InputError", "schedule.kinds: expected a list")),
    (["single", "pair"], ("ok", {"kinds": ["single", "pair"]})),
]


@pytest.mark.parametrize("kinds, want", KINDS_CASES, ids=json.dumps)
def test_schedule_kinds_answer_or_refuse_as_before(kinds, want):
    assert outcome(lambda: schedule_from_json({"kinds": kinds}).to_json()) \
        == want


def test_a_schedule_needs_one_of_its_two_keys():
    # with both keys, kinds is read and sc is not
    both = {"kinds": ["single"], "sc": 0, "length": 1}
    assert schedule_from_json(both).to_json() == {"kinds": ["single"]}
    assert outcome(lambda: schedule_from_json({**both, "kinds": 5})) == (
        "InputError", "schedule.kinds: expected a list")
    assert outcome(lambda: schedule_from_json({"length": 1})) == (
        "PreconditionError", "schedule: schedule JSON needs 'kinds' or 'sc'")


def iteration(coords, **extra):
    return {"kind": "iter", "schedule": {"kinds": ["single"] * len(coords)},
            "coords": coords, **extra}


CONTEXT_CASES = [
    ({}, ("ok", {})),
    ([], ("InputError", "condition.context: expected a JSON object")),
    (None, ("InputError", "condition.context: expected a JSON object")),
    ({"0": "1"}, ("ok", {"0": "1"})),
    ({"01": "1"}, ("InputError", "condition.context: keys must be integers, "
                   "written without a plus sign, spaces or leading zeros")),
]


@pytest.mark.parametrize("context, want", CONTEXT_CASES, ids=json.dumps)
def test_contexts_answer_or_refuse_as_before(context, want):
    data = iteration([[{"guard": {}, "payload": DEPTH0}]], context=context)
    assert outcome(
        lambda: IterCondition.from_json(data).context.to_json()) == want


def test_empty_contexts_are_one_frozen_object():
    one = iteration([[{"guard": {}, "payload": DEPTH0}]])
    decoded = [IterCondition.from_json(one).context,
               IterCondition.from_json({**one, "context": {}}).context,
               IterCondition(TowerRecipe(("single",)),
                             [[({}, full_tree())]]).context,
               full_iter(("single", "pair")).context]
    assert all(c is EMPTY_CONTEXT for c in decoded)
    assert dict(EMPTY_CONTEXT.commitments) == {}
    with pytest.raises(AttributeError):
        EMPTY_CONTEXT.commitments = {0: (1,)}
    assert GenericContext() is not EMPTY_CONTEXT


def test_one_guarded_row_is_not_a_partition():
    guarded = [[{"guard": {}, "payload": DEPTH0}],
               [{"guard": {"0": "1"}, "payload": DEPTH0}]]
    want = ("PreconditionError", "coordinate 1: guards are not exhaustive")
    assert outcome(lambda: IterCondition.from_json(iteration(guarded))) \
        == want
    assert outcome(lambda: _table_is_partition([({0: (1,)}, None)], 1)) \
        == want
    assert outcome(lambda: _table_is_partition([({}, None)], 1)) \
        == ("ok", None)


@pytest.mark.parametrize("data, err", [
    (b"", "input error: Expecting value: line 1 column 1 (char 0)\n"),
    (None, "input error: [Errno 21] Is a directory: '{path}'\n"),
    ("missing", "input error: [Errno 2] No such file or directory: "
                "'{path}'\n"),
], ids=["empty file", "directory", "missing path"])
def test_an_unreadable_payload_file_is_refused_with_its_os_text(
        tmp_path, capsys, data, err):
    path = tmp_path / "payload.json"
    if data is None:
        path.mkdir()
    elif data != "missing":
        path.write_bytes(data)
    assert main(["eval", "width", str(path)]) == 1
    assert capsys.readouterr() == ("", err.format(path=path))
