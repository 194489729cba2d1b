import argparse
import io
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import sacksforcing
from sacksforcing import cli, errors
from sacksforcing.bitseq import pair_index
from sacksforcing.cli import _OPS, build_parser, main
from sacksforcing.conditions import (SINGLE, ProductCondition, full_iter,
                                     full_tree, iter_restrict, plain_iter)
from sacksforcing.errors import InputError, json_int_keys
from sacksforcing.suites import DEFAULT_SEED, PropertyResult


def write_json(tmp_path, payload, name="payload.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def run_eval(tmp_path, op, payload, capsys):
    code = main(["eval", op, write_json(tmp_path, payload)])
    out = capsys.readouterr()
    return code, out.out.strip(), out.err


# -- verify ---------------------------------------------------------------

def test_verify_codec_passes(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["verify", "codec", "--json-report", str(report_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "pairing constraints" in out
    assert "codec suite: " in out
    report = json.loads(report_path.read_text())
    assert report["suite"] == "codec"
    assert report["seed"] == DEFAULT_SEED
    assert isinstance(report["seconds"], float) and report["seconds"] > 0
    assert report["passed"]
    assert all(p["cases"] > 0 and p["failed"] == 0
               for p in report["properties"])


@pytest.mark.parametrize("argv", [["tree", "--depth", "4"],
                                  ["imp", "--budget", "15"],
                                  ["degrees", "--n-bound", "2"]])
def test_verify_sizes_are_not_options(capsys, argv):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as e:
        main(["verify"] + argv)
    assert e.value.code == 2
    assert time.perf_counter() - start < 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_seed_reaches_the_report(tmp_path, capsys):
    report_path = tmp_path / "report.json"
    assert main(["verify", "conditions", "--seed", "7",
                 "--json-report", str(report_path)]) == 0
    assert "conditions suite: " in capsys.readouterr().out
    report = json.loads(report_path.read_text())
    assert report["seed"] == 7 and report["passed"]


@pytest.mark.parametrize("seed, message", [
    ("18446744073709551616", "seed must fit in 64 bits"),
    ("-1", "seed must fit in 64 bits"),
    ("seven", "invalid _seed value: 'seven'")])
def test_verify_seed_outside_64_bits_is_usage_error(capsys, seed, message):
    with pytest.raises(SystemExit) as e:
        main(["verify", "conditions", "--seed", seed])
    assert e.value.code == 2
    assert f"argument --seed: {message}" in capsys.readouterr().err


def test_verify_unknown_suite_is_usage_error(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "bogus"])
    assert e.value.code == 2


def test_unknown_flag_rejected(capsys):
    with pytest.raises(SystemExit) as e:
        main(["verify", "codec", "--frobnicate"])
    assert e.value.code == 2


def test_verify_reports_a_failed_property(tmp_path, capsys, monkeypatch):
    broken = PropertyResult("a seeded fault")
    broken.check(True)
    broken.check(False, "case 1")
    monkeypatch.setattr(cli, "run_suite", lambda suite, seed: [broken])
    report_path = tmp_path / "report.json"
    assert main(["verify", "codec", "--json-report", str(report_path)]) == 1
    out = capsys.readouterr().out
    assert "FAIL  a seeded fault (2 cases): 1 failed, e.g. case 1\n" in out
    assert not json.loads(report_path.read_text())["passed"]


def test_entrypoint_exits_with_the_status_of_main(tmp_path, capsys,
                                                  monkeypatch):
    good = write_json(tmp_path, {"m": 2, "n": 3})
    assert main(["eval", "pair_index", good]) == 0
    want = capsys.readouterr().out
    for path, status in ((good, 0), (str(tmp_path / "missing.json"), 1)):
        monkeypatch.setattr(sys, "argv",
                            ["sacksforcing", "eval", "pair_index", path])
        with pytest.raises(SystemExit) as e:
            cli.entrypoint()
        assert e.value.code == status
        assert capsys.readouterr().out == (want if status == 0 else "")


def test_encode_refuses_a_value_it_has_no_json_for():
    with pytest.raises(InputError, match="^cannot encode object$"):
        cli._encode(object())
    with pytest.raises(InputError, match="^cannot encode complex$"):
        cli._encode([0, 1j])


# -- eval -----------------------------------------------------------------

def test_parser_is_built_once_and_keeps_no_state(tmp_path, capsys):
    good = write_json(tmp_path, {"m": 2, "n": 3}, "good.json")
    bad = write_json(tmp_path, {"m": "x", "n": 3}, "bad.json")
    build_parser.cache_clear()

    def valid():
        assert main(["eval", "pair_index", good]) == 0
        out = capsys.readouterr()
        assert out.err == ""
        return out.out

    first = valid()
    assert json.loads(first) == 17
    assert build_parser.cache_info().misses == 0    # read without a parser
    helps = []
    for argv, code in ((["eval", "no_such_op", good], 2),
                       (["eval", "pair_index", good, "--frobnicate"], 2),
                       (["eval", "--help"], 0),
                       (["eval", "pair_index", bad], 1),
                       (["eval", "--help"], 0)):
        if code == 1:
            assert main(argv) == 1
        else:
            with pytest.raises(SystemExit) as e:
                main(argv)
            assert e.value.code == code
        out = capsys.readouterr()
        if argv[1] == "--help":
            helps.append(out.out)
        else:
            assert out.out == "" and out.err
        assert valid() == first
    assert helps[0] == helps[1] and "INPUT" in helps[0]
    assert build_parser.cache_info().misses == 1


# argv tokens: positionals to argparse ("pair_index", "no_such_op", "-", "",
# the paths), options (the rest, "-dash.json" a path that opens with "-")
TOKENS = ["pair_index", "no_such_op", "-", "", "good.json", "-1", "--", "-h",
          "--help", "--frobnicate", "--list", "-dash.json"]
DASHED = {t for t in TOKENS if t.startswith("-") and t != "-"}
ARGV_GRID = ([[first, op, path] for first in ("eval", "verify", "dot")
              for op in TOKENS for path in TOKENS]
             + [["eval", t] for t in TOKENS]
             + [["eval", "pair_index", "good.json", t] for t in TOKENS]
             + [["eval", t, "good.json", "good.json"] for t in TOKENS])


def argparse_main(argv):
    """main without its plain-eval reader: argparse reads every argv."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "eval":
        return cli.cmd_eval(args.op, args.input)
    if args.command == "verify":
        return cli.cmd_verify(args)
    return cli.cmd_dot(args, parser)


def test_plain_eval_reader_agrees_with_argparse(tmp_path, monkeypatch,
                                                capsys):
    monkeypatch.chdir(tmp_path)
    for name in ("good.json", "-dash.json"):
        write_json(tmp_path, {"m": 2, "n": 3}, name)
    parse = argparse.ArgumentParser.parse_known_args
    parses = []
    monkeypatch.setattr(argparse.ArgumentParser, "parse_known_args",
                        lambda self, *a: parses.append(a) or parse(self, *a))

    def outcome(run, argv):
        monkeypatch.setattr(sys, "stdin", io.StringIO('{"m": 2, "n": 3}'))
        try:
            code = run(argv)
        except SystemExit as e:
            code = e.code
        out = capsys.readouterr()
        return code, out.out, out.err

    accepted, differ = [], []
    for argv in ARGV_GRID:
        parses.clear()
        got = outcome(main, argv)
        if not parses:
            accepted.append(argv)
            args = build_parser().parse_args(argv)
            assert (args.command, args.op, args.input) == tuple(argv)
        if got != outcome(argparse_main, argv):
            differ.append(argv)
    assert differ == []
    assert accepted == [argv for argv in ARGV_GRID if len(argv) == 3
                        and argv[0] == "eval" and not DASHED & set(argv)]
    assert len(accepted) == 25


def test_main_reads_sys_argv(tmp_path, monkeypatch, capsys):
    path = write_json(tmp_path, {"m": 2, "n": 3})
    monkeypatch.setattr(sys, "argv", ["sacksforcing", "eval", "pair_index",
                                      path])
    assert main() == 0
    assert json.loads(capsys.readouterr().out) == 17
    monkeypatch.setattr(sys, "argv", ["sacksforcing", "eval", "--help"])
    with pytest.raises(SystemExit) as e:
        main()
    assert e.value.code == 0
    assert "usage: sacksforcing eval" in capsys.readouterr().out


OPS_LIST = """\
pair_index m n
pair_split k
join_pair x y
split_pair sigma
column sigma n
join_family columns length
width k
rt tree sigma
stem tree
restrict_cell tree sigma
restrict_node tree tau
subtree_leq sub sup
leq_n sub sup n
amalgamate tree sigma graft
iter_restrict condition sigma [mode]
iter_leq q p
iter_leq_n q p n [mode]
iter_equal q p
iter_amalgamate p sigma q [mode]
prod_restrict product sigma sbar
prod_extends q p
prod_leq q p n sbar
prod_amalgamate p sigma sbar q
tower_degrees kinds
sc_schedule n g length
sc_pattern kinds
sc_decode pattern
census_encode x limit_bound n_bound
census_decode census
sc_census_encode h alpha_bound
sc_census_decode census
parse formula
eval formula universe subset [params]
implicitly_defined_by universe formula [params]
implicit_subsets universe budget
imp_levels n budget
vn_levels n
"""


def test_eval_list_prints_each_operation_and_its_fields(capsys):
    with pytest.raises(SystemExit) as e:
        main(["eval", "--list"])
    assert e.value.code == 0
    out = capsys.readouterr()
    assert (out.out, out.err) == (OPS_LIST, "")
    assert len(OPS_LIST.splitlines()) == 37


def test_eval_list_leaves_op_and_input_required(capsys):
    with pytest.raises(SystemExit) as e:
        main(["eval", "pair_index"])
    assert e.value.code == 2
    assert "required: INPUT" in capsys.readouterr().err


def test_eval_rt(tmp_path, capsys):
    code, out, _ = run_eval(
        tmp_path, "rt",
        {"tree": {"depth": 1, "skeleton": {"": "", "0": "0", "1": "1"}},
         "sigma": "11"},
        capsys)
    assert code == 0
    assert json.loads(out) == "11"


def test_eval_sc_decode(tmp_path, capsys):
    code, out, _ = run_eval(
        tmp_path, "sc_decode",
        {"pattern": ["line", "line", "diamond", "diamond", "line"]}, capsys)
    assert code == 0
    assert json.loads(out) == {"n": 1, "g": "10"}


def test_eval_pair_index(tmp_path, capsys):
    code, out, _ = run_eval(tmp_path, "pair_index", {"m": 2, "n": 3}, capsys)
    assert code == 0
    assert json.loads(out) == 17


def test_eval_imp_levels(tmp_path, capsys):
    code, out, _ = run_eval(tmp_path, "imp_levels", {"n": 3, "budget": 6},
                            capsys)
    assert code == 0
    assert json.loads(out) == [[], [0], [0, 1], [0, 1, 2, 3]]


@pytest.mark.parametrize("budget, message", [
    # budget 0 alternates between [] and [0] for ever; budget 2 climbs
    # a tower of codes, 2**65536 at level 7
    (0, "n = 18446744073709551616 levels exceeds 64"),
    (2, "n = 18446744073709551616 levels exceeds 64"),
])
def test_eval_imp_levels_refuses_a_huge_n(tmp_path, capsys, budget, message):
    start = time.perf_counter()
    code, out, err = run_eval(tmp_path, "imp_levels",
                              {"n": 2 ** 64, "budget": budget}, capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err.startswith(f"ResourceError: {message}")


def test_eval_imp_levels_refuses_a_code_past_the_bound(tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = run_eval(tmp_path, "imp_levels", {"n": 7, "budget": 2},
                              capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err.startswith("ResourceError: level 7 would hold set codes of "
                          "65537 bits; 4096 ")


@pytest.mark.parametrize("bounds", [(2 ** 64, 2 ** 64), (2 ** 64, 1),
                                    (1, 2 ** 64)])
def test_eval_census_encode_with_huge_bounds(tmp_path, capsys, bounds):
    limit_bound, n_bound = bounds
    start = time.perf_counter()
    code, out, err = run_eval(tmp_path, "census_encode",
                              {"x": [[0, 0, 0]], "limit_bound": limit_bound,
                               "n_bound": n_bound}, capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err.startswith(f"PreconditionError: x must be defined on exactly "
                          f"{limit_bound} limits x {n_bound} offsets")


def test_eval_amalgamate_domain_error(tmp_path, capsys):
    code, _, err = run_eval(
        tmp_path, "amalgamate",
        {"tree": {"depth": 0, "skeleton": {"": "0"}},
         "sigma": "",
         "graft": {"depth": 0, "skeleton": {"": "1"}}},
        capsys)
    assert code == 1
    assert "AmalgamationError" in err


def test_eval_schema_mismatch_names_field(tmp_path, capsys):
    code, _, err = run_eval(
        tmp_path, "rt",
        {"tree": {"depth": 0, "skeleton": {"": ""}}}, capsys)
    assert code == 1
    assert "sigma" in err
    code, _, err = run_eval(tmp_path, "pair_index", {"m": "two", "n": 3},
                            capsys)
    assert code == 1
    assert "m:" in err


OPERATIONS = """
    pair_index pair_split join_pair split_pair column join_family width
    rt stem restrict_cell restrict_node subtree_leq leq_n amalgamate
    iter_restrict iter_leq iter_leq_n iter_equal iter_amalgamate
    prod_restrict prod_extends prod_leq prod_amalgamate
    tower_degrees sc_schedule sc_pattern sc_decode census_encode
    census_decode sc_census_encode sc_census_decode
    parse eval implicitly_defined_by implicit_subsets imp_levels vn_levels
""".split()


def test_eval_offers_every_operation():
    assert len(OPERATIONS) == 37
    assert sorted(_OPS) == sorted(OPERATIONS)


@pytest.mark.parametrize("op", sorted(_OPS))
def test_eval_payload_errors_name_the_first_field(tmp_path, capsys, op):
    first = _OPS[op][1][0][0]
    code, out, err = run_eval(tmp_path, op, {}, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"InputError: {first}: missing field")
    code, out, err = run_eval(tmp_path, op, [], capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"InputError: {first}: payload is not")


def test_eval_pair_split_prints_a_list(tmp_path, capsys):
    # a tuple of 0s and 1s would otherwise be encoded as the bits "01"
    assert run_eval(tmp_path, "pair_split", {"k": 1}, capsys) \
        == (0, "[0, 1]", "")


def test_eval_width_of_a_huge_length(tmp_path, capsys):
    start = time.perf_counter()
    code, out, _ = run_eval(tmp_path, "width", {"k": 10 ** 18}, capsys)
    assert time.perf_counter() - start < 2
    assert (code, json.loads(out)) == (0, 1414213561)


def test_eval_amalgamate_past_the_skeleton_bound(tmp_path, capsys):
    leaf = {"depth": 0, "skeleton": {"": ""}}
    start = time.perf_counter()
    code, out, err = run_eval(tmp_path, "amalgamate",
                              {"tree": leaf, "sigma": "0" * 24,
                               "graft": leaf}, capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err.startswith("ResourceError: amalgamate would build 2^25 - 1 ")
    assert "65536" in err


def test_eval_amalgamate_at_a_huge_index(tmp_path, capsys):
    # the entry count has far more than the 4300 digits that Python
    # prints of an int, so the message gives it as a power of two
    leaf = {"depth": 0, "skeleton": {"": ""}}
    start = time.perf_counter()
    code, out, err = run_eval(tmp_path, "amalgamate",
                              {"tree": leaf, "sigma": "0" * 20000,
                               "graft": leaf}, capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err == ("ResourceError: amalgamate would build 2^20001 - 1 "
                   "skeleton entries; the bound is 65536\n")


LEAF = {"depth": 0, "skeleton": {"": ""}}
LONG_STEM = {"depth": 0, "skeleton": {"": "0" * 24}}


def test_eval_subtree_leq_against_a_long_stem(tmp_path, capsys):
    start = time.perf_counter()
    result = run_eval(tmp_path, "subtree_leq",
                      {"sub": LEAF, "sup": LONG_STEM}, capsys)
    assert time.perf_counter() - start < 2
    assert result == (0, "false", "")


def test_eval_amalgamate_into_a_long_stem(tmp_path, capsys):
    graft = {"depth": 0, "skeleton": {"": "0" * 24 + "10"}}
    start = time.perf_counter()
    code, out, err = run_eval(tmp_path, "amalgamate",
                              {"tree": LONG_STEM, "sigma": "1",
                               "graft": graft}, capsys)
    assert time.perf_counter() - start < 2
    assert (code, err) == (0, "")
    assert json.loads(out) == {"depth": 1, "skeleton": {
        "": "0" * 24, "0": "0" * 25, "1": "0" * 24 + "10"}}


def test_eval_leq_n_at_a_huge_level(tmp_path, capsys):
    tree = {"depth": 1, "skeleton": {"": "0", "0": "00", "1": "011"}}
    start = time.perf_counter()
    result = run_eval(tmp_path, "leq_n",
                      {"sub": tree, "sup": tree, "n": 10 ** 6}, capsys)
    assert time.perf_counter() - start < 2
    assert result == (0, "true", "")


ITER = {"kind": "iter", "schedule": {"kinds": ["single"]},
        "coords": [[{"guard": {}, "payload": LEAF}]]}
PRODUCT = {"kind": "product", "coords": [{"index": 0, "cond": ITER}]}


@pytest.mark.parametrize("op, payload", [
    ("iter_leq_n", {"q": ITER, "p": ITER, "n": 40}),
    ("prod_leq", {"q": PRODUCT, "p": PRODUCT, "n": 40, "sbar": [0]}),
])
def test_eval_graded_order_past_the_bound(tmp_path, capsys, op, payload):
    start = time.perf_counter()
    code, out, err = run_eval(tmp_path, op, payload, capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err == f"ResourceError: {op} refuses level 40, past the cap of 16\n"


def test_eval_tree_with_a_huge_depth(tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = run_eval(
        tmp_path, "rt",
        {"tree": {"depth": 10 ** 18, "skeleton": {"": ""}}, "sigma": "0"},
        capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err.startswith("PreconditionError: skeleton must have one entry")


def test_eval_parse(tmp_path, capsys):
    code, out, err = run_eval(tmp_path, "parse",
                              {"formula": "ex y. (y in x & !S(y))"}, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {"free": ["x"], "size": 8,
                               "text": "(ex y. (y in x & !S(y)))"}


def test_eval_formula_that_is_not_a_string(tmp_path, capsys):
    code, out, err = run_eval(tmp_path, "parse", {"formula": 5}, capsys)
    assert (code, out) == (1, "")
    assert err == "InputError: formula: expected a formula string\n"


def test_eval_parse_deep_nesting_is_a_parse_error(tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = run_eval(tmp_path, "parse",
                              {"formula": "!" * 3000 + "S(#0)"}, capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err.startswith("ParseError: formula nested deeper than")


def test_eval_unknown_op_is_usage_error(tmp_path, capsys):
    with pytest.raises(SystemExit) as e:
        main(["eval", "nosuchop", write_json(tmp_path, {})])
    assert e.value.code == 2


def test_eval_bad_json_file(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    assert main(["eval", "rt", str(path)]) == 1


def test_eval_integer_past_the_digit_limit(tmp_path, capsys):
    path = tmp_path / "long.json"
    path.write_text('{"k": ' + "7" * 5000 + "}")
    start = time.perf_counter()
    assert main(["eval", "width", str(path)]) == 1
    assert time.perf_counter() - start < 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("input error: Exceeds the limit (4300 digits)")


@pytest.mark.parametrize("command", ["verify", "dot"])
def test_output_path_that_cannot_be_written(tmp_path, capsys, command):
    out = tmp_path / "missing" / "out"
    argv = (["verify", "codec", "--json-report", str(out)]
            if command == "verify" else
            ["dot", write_json(tmp_path, {"kinds": ["single"]}), str(out)])
    assert main(argv) == 1
    assert capsys.readouterr().err.startswith("output error: ")
    assert not out.exists()


@pytest.mark.parametrize("command", ["eval", "dot"])
def test_undecodable_input_bytes(tmp_path, capsys, command):
    # the payload is UTF-8 only: a byte it cannot hold, a byte order mark
    # and UTF-16 text are all refused, each with the decoder's message
    cases = [(b'{"k": 1\xff}', "'utf-8' codec can't decode byte"),
             (b'\xef\xbb\xbf{"k": 3}', "Unexpected UTF-8 BOM"),
             ('{"k": 3}'.encode("utf-16"),
              "'utf-8' codec can't decode byte 0xff")]
    for data, message in cases:
        path = str(tmp_path / "bytes.json")
        (tmp_path / "bytes.json").write_bytes(data)
        argv = (["eval", "width", path] if command == "eval"
                else ["dot", path, "-"])
        start = time.perf_counter()
        assert main(argv) == 1
        assert time.perf_counter() - start < 2
        out = capsys.readouterr()
        assert out.out == ""
        assert out.err.startswith("input error: " + message), out.err


@pytest.mark.parametrize("data", [b'{"k":\r\n 3,\r\n x}', b'{"k":\r 3,\r x}',
                                  b'{"k":\n 3,\n x}'])
def test_a_line_break_counts_as_one_character(tmp_path, capsys, data):
    """CRLF and CR read as one newline each, as in text mode, so a JSON
    error names the same line, column and character in every case."""
    (tmp_path / "lines.json").write_bytes(data)
    assert main(["eval", "width", str(tmp_path / "lines.json")]) == 1
    assert capsys.readouterr().err == (
        "input error: Expecting property name enclosed in double quotes: "
        "line 3 column 2 (char 11)\n")


def test_eval_unprintable_result(tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = run_eval(tmp_path, "pair_index",
                              {"m": 1, "n": 10 ** 3999}, capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err.startswith("ResourceError: a result of 26568 bits has more "
                          "than 4300 digits")


_TWO_STEPS = full_iter([SINGLE, SINGLE])
# payloads whose refusal once wrote a count or an index of more digits
# than Python writes, or reads, and ended in a ValueError traceback
LONG_VALUES = {
    "iter_amalgamate": lambda: {
        "p": _TWO_STEPS.to_json(), "sigma": "0" * 30000, "mode": "pairwise",
        "q": iter_restrict(_TWO_STEPS, (0,) * 30000, "pairwise").to_json()},
    "implicit_subsets": lambda: {"universe": list(range(15000)),
                                 "budget": 10},
    "implicitly_defined_by": lambda: {"universe": list(range(15000)),
                                      "formula": "S(#0)", "params": [0]},
    "parse": lambda: {"formula": "S(#" + "9" * 5000 + ")"},
}


@pytest.mark.parametrize("op", sorted(LONG_VALUES))
def test_eval_refuses_a_value_too_long_to_write_in_one_line(op, tmp_path,
                                                            capsys):
    path = write_json(tmp_path, LONG_VALUES[op]())
    start = time.perf_counter()
    code = main(["eval", op, path])
    assert time.perf_counter() - start < 2
    out = capsys.readouterr()
    assert (code, out.out) == (1, "")
    assert out.err.count("\n") == 1 and out.err.endswith("\n")
    assert issubclass(getattr(errors, out.err.split(":")[0]),
                      errors.EngineError)


def _eval_in_child(tmp_path, op, payload, digits):
    """cmd_eval in a child process whose Python prints ints of at most
    digits digits (0: of any length)."""
    src = os.path.dirname(os.path.dirname(sacksforcing.__file__))
    env = {**os.environ, "PYTHONINTMAXSTRDIGITS": str(digits),
           "PYTHONPATH": os.pathsep.join(
               filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run(
        [sys.executable, "-m", "sacksforcing", "eval", op,
         write_json(tmp_path, payload)],
        capture_output=True, text=True, env=env)


_DIGIT_LIMIT = pytest.mark.skipif(
    not hasattr(sys, "get_int_max_str_digits"),
    reason="this Python prints ints of any length")


@_DIGIT_LIMIT
def test_eval_refuses_a_result_past_a_lowered_digit_limit(tmp_path):
    proc = _eval_in_child(tmp_path, "pair_index",
                          {"m": 10 ** 399, "n": 10 ** 399}, 640)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr == ("ResourceError: a result of 2652 bits has more "
                           "than 640 digits, Python's print limit\n")


@_DIGIT_LIMIT
def test_eval_prints_a_long_result_without_a_digit_limit(tmp_path):
    proc = _eval_in_child(tmp_path, "pair_index", {"m": 1, "n": 10 ** 3999},
                          0)
    assert (proc.returncode, proc.stderr) == (0, "")
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        expected = str(pair_index(1, 10 ** 3999))
    finally:
        sys.set_int_max_str_digits(limit)
    assert len(expected) == 7998
    assert proc.stdout == expected + "\n"


def test_eval_sc_schedule_past_the_step_bound(tmp_path, capsys):
    start = time.perf_counter()
    code, out, err = run_eval(tmp_path, "sc_schedule",
                              {"n": 10 ** 8, "g": "", "length": 10 ** 8},
                              capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err.startswith("ResourceError: K=100000000 exceeds 65536 steps")


def _iter_payloads():
    """Small guard-table payloads that look costly: a partition check over
    2^22 assignments and an amalgamation that would print 41.7 MB, both
    refused, and graded orders over 2^16 cells, which compare each pair
    of rows once and answer."""
    full = {"depth": 0, "skeleton": {"": ""}}
    single = {"kinds": ["single", "single"]}
    q = {"kind": "iter", "schedule": single, "coords": [
        [{"guard": {}, "payload": full}],
        [{"guard": {"0": "0" * 22}, "payload": full}]]}
    p = {"kind": "iter", "schedule": single,
         "coords": [[{"guard": {}, "payload": full}]] * 2}
    yield "iter_leq", {"q": q, "p": p}, (1, "PreconditionError: coordinate "
                                         "1: guards are not exhaustive")
    p14 = full_iter(["single"] * 14)
    sigma = (0,) * 105
    yield "iter_amalgamate", {
        "p": p14.to_json(), "sigma": "0" * 105,
        "q": iter_restrict(p14, sigma).to_json()}, \
        (1, "ResourceError: iter_amalgamate would build 393129 complement "
            "rows")
    p8 = full_iter(["single"] * 8).to_json()
    yield "iter_leq_n", {"q": p8, "p": p8, "n": 16}, (0, "true")
    product = ProductCondition(
        {i: full_iter(["single"] * 8) for i in range(8)}).to_json()
    for n in (12, 16):
        yield "prod_leq", {"q": product, "p": product, "n": n,
                           "sbar": list(range(8))}, (0, "true")


@pytest.mark.parametrize("op, payload, expected", list(_iter_payloads()),
                         ids=["partition", "amalgamate", "iter_leq_n",
                              "prod_leq 12", "prod_leq 16"])
def test_eval_guard_tables_within_bounds(tmp_path, capsys, op, payload,
                                         expected):
    start = time.perf_counter()
    code, out, err = run_eval(tmp_path, op, payload, capsys)
    assert time.perf_counter() - start < 2
    if expected[0]:
        assert (code, out) == (1, "")
        assert err.startswith(expected[1])
    else:
        assert (code, out, err) == (0, expected[1], "")
    assert "Traceback" not in err


def test_eval_graded_order_charges_skeleton_entries(tmp_path, capsys):
    # eight coordinates, each the full tree presented at depth 6, are
    # compared once each; cutting coordinate 0 to a cell fails at n = 12
    deep = plain_iter([SINGLE] * 8, [full_tree().deepen(6)] * 8)
    for q, answer in ((deep, "true"),
                      (iter_restrict(deep, (0,)), "false")):
        start = time.perf_counter()
        code, out, err = run_eval(tmp_path, "iter_leq_n",
                                  {"q": q.to_json(), "p": deep.to_json(),
                                   "n": 12}, capsys)
        assert time.perf_counter() - start < 2
        assert (code, out, err) == (0, answer, "")


@pytest.mark.parametrize("op, payload, message", [
    ("census_decode", {"census": [[[1, 0], "many"]]},
     "DecodeError: census is not the encoding of a bit function"),
    ("census_decode", {"census": [[[10 ** 18, 1], "one"],
                                  [[10 ** 18, 2], "many"]]},
     "DecodeError: "),
    ("sc_census_decode", {"census": {"0": "one", "x": "many"}},
     "InputError: census: keys must be integers"),
    ("sc_census_decode", {"census": {"0": "one", "2": "many"}},
     "DecodeError: census is not the encoding of a bit string"),
    ("iter_restrict", {"condition": {**ITER, "schedule": {
        "kinds": ["single", "x"]}}, "sigma": ""},
     "InputError: condition.schedule.kinds: "),
    ("iter_restrict", {"condition": {**ITER, "schedule": {
        "kinds": ["pair"]}}, "sigma": ""},
     "PreconditionError: step 0 must be single"),
    ("iter_restrict", {"condition": {**ITER, "context": {"a": "0"}},
                       "sigma": ""},
     "InputError: condition.context: keys must be integers"),
])
def test_eval_decodes_each_shape_once(tmp_path, capsys, op, payload,
                                      message):
    code, out, err = run_eval(tmp_path, op, payload, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(message)


@pytest.mark.parametrize("key", ["00", " 1", "1 ", "+2", "-0", "1_0",
                                 "\u0663", "x", ""])
def test_integer_keys_are_read_once(key):
    assert json_int_keys({"-3": 1, "0": 2, "10": 3}, "m") == \
        {-3: 1, 0: 2, 10: 3}
    with pytest.raises(InputError, match="^m: keys must be integers"):
        json_int_keys({"7": 0, key: 1}, "m")


@pytest.mark.parametrize("op, payload, path", [
    ("sc_census_decode", {"census": {"0": "one", "00": "many"}}, "census"),
    ("sc_census_decode", {"census": {"0": "one", " 1": "many", "+2": "one"}},
     "census"),
    ("iter_restrict", {"condition": {**ITER, "context": {"01": "0"}},
                       "sigma": ""}, "condition.context"),
])
def test_eval_refuses_keys_that_fold(tmp_path, capsys, op, payload, path):
    code, out, err = run_eval(tmp_path, op, payload, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"InputError: {path}: keys must be integers")


PAIR = {"kind": "pair", "left": LEAF, "right": LEAF}


@pytest.mark.parametrize("op, payload, message", [
    ("iter_leq", {"q": PAIR, "p": ITER}, "q: expected a condition of kind iter"),
    ("iter_restrict", {"condition": PRODUCT, "sigma": ""},
     "condition: expected a condition of kind iter"),
    ("prod_extends", {"q": ITER, "p": PRODUCT},
     "q: expected a condition of kind product"),
    ("prod_leq", {"q": PRODUCT, "p": PAIR, "n": 0, "sbar": []},
     "p: expected a condition of kind product"),
])
def test_eval_rejects_a_condition_of_the_wrong_kind(tmp_path, capsys, op,
                                                     payload, message):
    code, out, err = run_eval(tmp_path, op, payload, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"InputError: {message}")


DEEP = "all x. " + "".join(f"all v{i}. " for i in range(20)) + "S(x)"


@pytest.mark.parametrize("op, payload, message", [
    ("implicitly_defined_by", {"universe": [0, 1, 2, 3], "formula": DEEP},
     "1048576 table bits under 8 quantifiers over 4 elements exceed the "
     "bound 262144"),
    ("eval", {"formula": DEEP, "universe": [0, 1, 2, 3], "subset": [0]},
     "4398046511104 assignments under 21 quantifiers over 4 elements "
     "exceed the bound 65536"),
    ("implicitly_defined_by",
     {"universe": list(range(40)), "formula": "S(#0)", "params": [0]},
     "1099511627776 table bits under 0 quantifiers over 40 elements "
     "exceed the bound 262144"),
], ids=["deep table", "deep evaluation", "wide universe"])
def test_eval_formula_past_the_cost_bound(tmp_path, capsys, op, payload,
                                          message):
    start = time.perf_counter()
    code, out, err = run_eval(tmp_path, op, payload, capsys)
    assert time.perf_counter() - start < 2
    assert (code, out) == (1, "")
    assert err == f"ResourceError: {message}\n"


# -- dot ------------------------------------------------------------------

def dot_lines(text):
    nodes = [ln for ln in text.splitlines()
             if ln.strip().endswith(";") and "->" not in ln
             and "rankdir" not in ln]
    edges = [ln for ln in text.splitlines() if "->" in ln]
    return nodes, edges


def test_dot_recipe_counts(tmp_path, capsys):
    path = write_json(tmp_path, {"kinds": ["single", "pair"]})
    assert main(["dot", path, "-"]) == 0
    nodes, edges = dot_lines(capsys.readouterr().out)
    assert len(nodes) == 5
    assert len(edges) == 5


def test_dot_chain(tmp_path, capsys):
    path = write_json(tmp_path, {"kinds": ["single"]})
    assert main(["dot", path, "-"]) == 0
    nodes, edges = dot_lines(capsys.readouterr().out)
    assert len(nodes) == 2
    assert len(edges) == 1


def test_dot_deterministic(tmp_path, capsys):
    path = write_json(tmp_path, {"nodes": ["bot", "b", "a", "top"],
                                 "edges": [["bot", "a"], ["bot", "b"],
                                           ["a", "top"], ["b", "top"]]})
    first = tmp_path / "first.dot"
    second = tmp_path / "second.dot"
    assert main(["dot", path, str(first)]) == 0
    assert main(["dot", path, str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_dot_tree(tmp_path, capsys):
    path = write_json(tmp_path, {"depth": 1,
                                 "skeleton": {"": "0", "0": "00",
                                              "1": "011"}})
    assert main(["dot", path, "-"]) == 0
    assert "digraph" in capsys.readouterr().out


def test_dot_long_chain_poset(tmp_path, capsys):
    n = 3000
    path = write_json(tmp_path, {
        "nodes": [f"n{i}" for i in range(n)],
        "edges": [[f"n{i}", f"n{i + 1}"] for i in range(n - 1)]})
    start = time.perf_counter()
    assert main(["dot", path, "-"]) == 0
    assert time.perf_counter() - start < 2
    nodes, edges = dot_lines(capsys.readouterr().out)
    assert (len(nodes), len(edges)) == (n, n - 1)


def test_dot_escapes_quotes_and_backslashes_in_labels(tmp_path, capsys):
    # unescaped, 'a"b' would close its quoted ID early and 'c\\' would
    # escape the closing quote
    path = write_json(tmp_path, {"nodes": ["d0", 'a"b', "c\\"],
                                 "edges": [["d0", 'a"b'], ["d0", "c\\"]]})
    assert main(["dot", path, "-"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "digraph degrees {", "  rankdir=BT;",
        '  "d0";', '  "a\\"b";', '  "c\\\\";',
        '  "d0" -> "a\\"b";', '  "d0" -> "c\\\\";', "}"]


@pytest.mark.parametrize("argv", [["eval", "tower_degrees"], ["dot"]])
def test_long_recipe_stays_linear(tmp_path, capsys, argv):
    # one single step, then 15,999 pair steps: 48,001 degrees
    path = write_json(tmp_path, {"kinds": ["single"] + ["pair"] * 15999})
    start = time.perf_counter()
    assert main(argv + [path] + (["-"] if argv == ["dot"] else [])) == 0
    assert time.perf_counter() - start < 2
    assert '"d16000"' in capsys.readouterr().out


@pytest.mark.parametrize("obj, field", [
    ({"nodes": [[1]], "edges": []}, "poset"),
    ({"nodes": ["a"], "edges": [1]}, "poset"),
    ({"depth": "x", "skeleton": {"": ""}}, "tree"),
    ({"kinds": "single"}, "kinds"),
    ({"nodes": "ab", "edges": [["a", "b"]]}, "poset: nodes"),
    ({"nodes": ["a", "b"], "edges": "ab"}, "poset: edges"),
    ({"nodes": ["a", "b"], "edges": [["a", "b", "a"]]}, "poset: edges"),
    ({"nodes": ["a", "b"], "edges": [["a"]]}, "poset: edges"),
    ({"nodes": [0, 1], "edges": [[0, 1]]}, "poset"),
])
def test_dot_malformed_object(tmp_path, capsys, obj, field):
    assert main(["dot", write_json(tmp_path, obj), "-"]) == 1
    assert capsys.readouterr().err.startswith(f"InputError: {field}: ")


def test_dot_unsupported_kind(tmp_path, capsys):
    path = write_json(tmp_path, {"what": 1})
    with pytest.raises(SystemExit) as e:
        main(["dot", path, "-"])
    assert e.value.code == 2


# -- nesting past the recursion limit -------------------------------------

def _deep_list(depth):
    return "[" * depth + "]" * depth


@pytest.mark.parametrize("argv, text, error", [
    (["eval", "pair_index", "-"], f'{{"m": {_deep_list(5000)}, "n": 0}}',
     "input error: "),
    (["eval", "pair_index", "IN"], f'{{"m": {_deep_list(5000)}, "n": 0}}',
     "input error: "),
    (["dot", "IN", "-"], _deep_list(5000), "input error: "),
    # decoded, but nested too deep for the product index reader
    (["eval", "prod_restrict", "IN"],
     '{"product": {"kind": "product", "coords": []}, "sigma": "0", '
     f'"sbar": {_deep_list(400)}}}', "RecursionError: "),
], ids=["eval stdin", "eval file", "dot", "eval work"])
def test_deeply_nested_json_is_one_error_line(tmp_path, argv, text, error):
    # each once ended in a traceback; the child starts from an empty stack
    path = tmp_path / "deep.json"
    path.write_text(text)
    src = os.path.dirname(os.path.dirname(sacksforcing.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "sacksforcing",
         *(str(path) if a == "IN" else a for a in argv)],
        input=text, capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith(error)
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


# -- installed entry point --------------------------------------------------

def test_module_invocation_smoke():
    # the child imports the package from where this process did, which
    # may be a plain checkout's src/ put on the path by pytest
    src = os.path.dirname(os.path.dirname(sacksforcing.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sacksforcing", "verify", "codec"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert proc.returncode == 0
    assert "pass" in proc.stdout


# every name the package exported when __init__.py imported each layer
EXPORTS = """
    AmalgamationError DecodeError DegreePoset EngineError FinStructure
    FusionError IncompatibleError InputError IterCondition Ordinal2
    PairCondition ParseError PreconditionError ProductCondition
    ResourceError ScPattern SkeletonTree TowerCensus TowerRecipe
    amalgamate bits bits_str census_decode census_encode column
    enumerate_trees eval_formula formula_size formula_text full_tree
    fusion_prefix imp_levels implicit_subsets implicitly_defined_by
    iter_amalgamate iter_equal iter_leq iter_leq_n iter_restrict
    join_family join_pair leq_n pair_index pair_split parse_formula
    plain_iter poset_dot prod_amalgamate prod_extends prod_leq
    prod_restrict sc_census_decode sc_census_encode sc_decode
    sc_pattern sc_schedule set_members set_of split_pair subtree_leq
    tower_degrees tree_dot vn_levels width
""".split()


def test_eval_loads_only_the_layer_of_its_operation(tmp_path):
    # one child process, its imports logged by -X importtime on stderr
    src = os.path.dirname(os.path.dirname(sacksforcing.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "sacksforcing", "eval",
         "pair_index", write_json(tmp_path, {"m": 2, "n": 3})],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": path})
    assert (proc.returncode, proc.stdout) == (0, "17\n")
    loaded = {line.rsplit("|", 1)[-1].strip()
              for line in proc.stderr.splitlines()
              if line.startswith("import time:")}
    assert {"sacksforcing.cli", "sacksforcing.bitseq"} <= loaded
    assert not loaded & {"argparse", *(f"sacksforcing.{m}" for m in (
        "implicit", "conditions", "trees", "degrees", "suites"))}
    # the names load on first use, each from its own layer
    assert len(EXPORTS) == 64
    assert set(EXPORTS) <= set(dir(sacksforcing))
    star = {}
    exec("from sacksforcing import *", star)
    for name in EXPORTS:
        assert star[name] is getattr(sacksforcing, name)
        assert star[name].__module__.startswith("sacksforcing.")
    with pytest.raises(AttributeError, match="has no attribute 'no_such'"):
        sacksforcing.no_such


PINNED = json.loads((Path(__file__).parents[1] / "perfbench"
                     / "pinned.json").read_text(encoding="utf-8"))
MALFORMED = [(op, payload, token)
             for op, payload, bad, token in PINNED["cli_eval"] if bad]


def test_pinned_catalogue_has_51_malformed_payloads():
    assert len(MALFORMED) == 51


@pytest.mark.parametrize("op, payload, token", MALFORMED,
                         ids=[f"{i}-{m[0]}" for i, m in enumerate(MALFORMED)])
def test_eval_keeps_the_pinned_error_classes(tmp_path, capsys, op, payload,
                                             token):
    code, out, err = run_eval(tmp_path, op, payload, capsys)
    assert out == ""
    assert f"{code}:{err.split(':', 1)[0]}" == token


def test_eval_replays_the_pinned_catalogue(tmp_path, capsys, monkeypatch):
    # every pinned payload keeps its exit code and its output digest or
    # error class, judged by the benchmark's own reader and token; the
    # benchmark's folder is only read, so no bytecode is written there
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1] / "perfbench"))
    import workloads
    catalogue = workloads.load_pinned()["cli_eval"]
    assert len(catalogue) == 311
    differ = []
    for i, (op, payload, _, token) in enumerate(catalogue):
        code = main(["eval", op, write_json(tmp_path, payload)])
        out, err = capsys.readouterr()
        got = workloads.cli_token((code, out, err))
        if got != token:
            differ.append((i, op, got, token))
    assert differ == []


GUARDED = {"kind": "iter", "schedule": {"kinds": ["single", "single"]},
           "coords": [[{"guard": {}, "payload": LEAF}],
                      [{"guard": {"0": "2"}, "payload": LEAF},
                       {"guard": {"0": "1"}, "payload": LEAF}]]}


@pytest.mark.parametrize("op, payload, path", [
    ("column", {"sigma": "2", "n": 0}, "sigma"),
    ("iter_restrict", {"condition": GUARDED, "sigma": ""},
     "condition.coords[1][0].guard.0"),
    ("iter_restrict", {"condition": {**ITER, "context": {"0": "2"}},
                       "sigma": ""}, "condition.context.0"),
    ("rt", {"tree": {"depth": 0, "skeleton": {"": "2"}}, "sigma": ""},
     "tree: skeleton"),
    ("join_family", {"columns": ["01", "2"], "length": 2}, "columns[1]"),
])
def test_eval_reads_every_bit_string_alike(tmp_path, capsys, op, payload,
                                           path):
    code, out, err = run_eval(tmp_path, op, payload, capsys)
    assert (code, out) == (1, "")
    assert err == f"PreconditionError: {path}: not a bit string: '2'\n"


@pytest.mark.parametrize("op, payload, message", [
    ("join_family", {"columns": ["01", 3], "length": 2},
     "columns[1]: not a bit string: 3"),
    ("eval", {"formula": "S(#0)", "universe": [0, 1], "subset": [0, "1"]},
     "subset[1]: expected an integer"),
    ("prod_restrict", {"product": PRODUCT, "sigma": "", "sbar": [0, None]},
     "sbar[1]: indices are integers"),
    ("census_encode", {"x": [[0, 0, 1], [0, 1]], "limit_bound": 1,
                       "n_bound": 2}, "x[1]: expected [a, n, bit]"),
    ("census_encode", {"x": [[0, -1, 1]], "limit_bound": 1, "n_bound": 1},
     "x[0]: expected an integer >= 0"),
    ("sc_decode", {"pattern": ["line", "dot"]},
     'pattern[1]: expected "line" or "diamond"'),
    ("iter_restrict", {"condition": ITER, "sigma": "", "mode": "diagonal"},
     'mode: expected "column" or "pairwise"'),
    ("sc_census_encode", {"h": "1", "alpha_bound": 1},
     "alpha_bound: expected an integer >= 2"),
])
def test_eval_list_and_scalar_readers_name_the_field(tmp_path, capsys, op,
                                                     payload, message):
    code, out, err = run_eval(tmp_path, op, payload, capsys)
    assert (code, out) == (1, "")
    assert err.startswith(f"InputError: {message}")


@pytest.mark.parametrize("bit, error", [
    (True, "InputError: x[0]: expected an integer"),
    (1.0, "InputError: x[0]: expected an integer"),
    (2, "PreconditionError: bit function value 2"),
])
def test_eval_census_encode_reads_the_bit_as_an_integer(tmp_path, capsys,
                                                       bit, error):
    code, out, err = run_eval(tmp_path, "census_encode",
                              {"x": [[0, 0, bit]], "limit_bound": 1,
                               "n_bound": 1}, capsys)
    assert (code, out) == (1, "")
    assert err == error + "\n"
