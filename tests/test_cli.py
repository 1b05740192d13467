import argparse
import hashlib
import io
import json
import os
import resource
import string
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import product
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pwenum
from oracles import cover_poset_enumerator, reference_poly, reference_text, span_words
from pwenum import cli, codes
from pwenum.cli import (
    FIXTURES,
    NAMED_CODES,
    build_parser,
    main,
    parse_code_spec,
    parse_poset_spec,
    parse_ring_spec,
    run_fuzz,
)
from pwenum.codes import LinearCode, dual_indicator, dual_weight_spectrum
from pwenum.enumerators import level_enumerator
from pwenum.macwilliams import KINDS, render, verify_identity
from pwenum.posets import LevelStructure
from pwenum.rings import RING_KINDS, make_ring


def test_parse_ring_spec():
    assert parse_ring_spec("F2").q == 2
    assert parse_ring_spec("F4").kind == "GF"
    assert parse_ring_spec("Z6").q == 6
    assert parse_ring_spec('{"kind":"Zm","m":4}').q == 4
    with pytest.raises(ValueError):
        parse_ring_spec("F5")


def test_parse_ring_spec_from_file(tmp_path):
    path = tmp_path / "ring.json"
    path.write_text(json.dumps({"kind": "F2u"}))
    assert parse_ring_spec(str(path)).kind == "F2u"


def test_a_file_does_not_hide_an_alias(tmp_path, monkeypatch):
    # a file in the working directory used to override a ring or poset alias of its name;
    # named codes already came first.  A path with a directory part still reads the file.
    monkeypatch.chdir(tmp_path)
    (tmp_path / "F2").write_text(json.dumps({"kind": "Zm", "m": 3}))
    (tmp_path / "antichain:4").write_text(json.dumps({"kind": "chain", "n": 4}))
    (tmp_path / "ex51").write_text(json.dumps({"length": 4, "generators": [[1, 1, 1, 1]]}))
    base = ["enum", "--kind", "complete"]
    aliases = ["--ring", "F2", "--poset", "antichain:4", "--code", "ex51"]
    assert _call(base + aliases) == (0, "z_{1:0} + z_{1:2} + 2z_{1:3}\n", "")
    files = ["--ring", "./F2", "--poset", "./antichain:4", "--code", "./ex51"]
    text = "z_{1:0}z_{2:0}z_{3:0}z_{4:0} + 2z_{1:1}z_{2:1}z_{3:1}z_{4:1}\n"
    assert _call(base + files) == (0, text, "")


@pytest.mark.parametrize(
    "spec, expected",
    [
        ("chain3", (1, 1, 1)),
        ("chain:3", (1, 1, 1)),
        ("antichain:4", (4,)),
        ("leveled:2,1,1", (2, 1, 1)),
        ('{"kind":"chain","n":3}', (1, 1, 1)),
        ('{"kind":"antichain","n":4}', (4,)),
        ('{"kind":"leveled","levels":[2,1,1]}', (2, 1, 1)),
        ("antichain:0", "the size n of an antichain poset must be a positive integer, got 0"),
        ("mystery:3", "cannot interpret poset spec 'mystery:3'"),
        # an empty size used to be dropped, so that these read as leveled:2,1,1
        ("leveled:2,,1,1", "cannot interpret poset spec 'leveled:2,,1,1'"),
        ("leveled:,2,1,1", "cannot interpret poset spec 'leveled:,2,1,1'"),
    ],
)
def test_parse_poset_spec(spec, expected):
    # a hierarchical poset is read as its level sizes: no Poset is built
    if isinstance(expected, tuple):
        assert parse_poset_spec(spec) == LevelStructure(expected)
        return
    with pytest.raises(ValueError, match=expected):
        parse_poset_spec(spec)
    rc, out, err = _call(["enum", "--kind", "level", "--ring", "F2", "--code", "ex51", "--poset", spec])
    assert (rc, out) == (2, "") and err.startswith("input error: ") and expected in err


def test_parse_code_spec():
    ring = parse_ring_spec("F2")
    assert parse_code_spec("C1", ring).size == 2
    inline = parse_code_spec('{"length":4,"generators":[[1,0,1,0],[0,1,1,1]]}', ring)
    assert (inline.n, inline.generators) == (4, ((1, 0, 1, 0), (0, 1, 1, 1)))
    assert inline.size == 4
    with pytest.raises(ValueError):
        parse_code_spec("no-such-code", ring)
    with pytest.raises(ValueError):
        parse_code_spec('{"length":4}', ring)


# Each catalog alias's size, names and the first 16 hex digits of the SHA-256 of its addition
# then multiplication rows joined; each named code's length and generators.
CATALOG_TABLES = {
    "F2": (2, ("0", "1"), "090b5ea336d2a3fa"),
    "F3": (3, ("0", "1", "2"), "f9287b0c3bb4fee9"),
    "F4": (4, ("0", "1", "a", "1+a"), "fc7e342da9b4f0b5"),
    "Z4": (4, ("0", "1", "2", "3"), "14256a5e831d6cd0"),
    "F2u": (4, ("0", "1", "u", "1+u"), "16f4521d465aa926"),
    "F2v": (4, ("0", "1", "v", "1+v"), "2cf3a3359ec04a7c"),
}
NAMED_GENERATORS = {
    "c1": (3, ((0, 0, 1),)),
    "c2": (3, ((1, 1, 1),)),
    "ex51": (4, ((1, 0, 1, 0), (0, 1, 1, 1))),
    "hamming74": (
        7,
        ((1, 0, 0, 0, 0, 1, 1), (0, 1, 0, 0, 1, 0, 1), (0, 0, 1, 0, 1, 1, 0), (0, 0, 0, 1, 1, 1, 1)),
    ),
}


def test_every_catalog_alias_and_named_code_reads_to_its_pinned_tables_and_generators():
    assert list(CATALOG_TABLES) == list(cli.CATALOG_RINGS) and set(NAMED_GENERATORS) == set(NAMED_CODES)
    for alias, (q, names, digest) in CATALOG_TABLES.items():
        for text in (alias, f" {alias} "):
            ring = parse_ring_spec(text)
            rows = b"".join(ring.add_table + ring.mul_table)
            assert (ring.q, ring.names, hashlib.sha256(rows).hexdigest()[:16]) == (q, names, digest)
    f2 = parse_ring_spec("F2")
    for name, pinned in NAMED_GENERATORS.items():
        code = parse_code_spec(name, f2)
        assert (code.n, code.generators) == pinned
    code = parse_code_spec(" EX51 ", f2)
    assert (code.n, code.generators) == NAMED_GENERATORS["ex51"]


def test_enum_level_command(capsys):
    rc = main(["enum", "--kind", "level", "--ring", "F2", "--poset", "chain3", "--code", "C1"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1 + z_3"


def test_enum_dual_and_transform_agree(capsys):
    base = ["enum", "--kind", "mspotty", "--t", "2,1,1", "--ring", "F2",
            "--poset", "leveled:2,1,1", "--code", "ex51", "--dual"]
    assert main(base) == 0
    direct = capsys.readouterr().out
    assert main(base + ["--via-transform"]) == 0
    assert capsys.readouterr().out == direct
    assert direct.strip() == "1 + z_1z_2 + z_1z_2z_3 + z_1z_3"


def test_enum_poset_kind(capsys):
    rc = main(["enum", "--kind", "poset", "--ring", "F2", "--poset", "chain3",
               "--code", "C2", "--dual"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1 + x^2 + 2x^3"


def test_enum_json_output_is_deterministic(capsys):
    args = ["enum", "--kind", "complete", "--ring", "F2", "--poset", "leveled:2,1,1",
            "--code", "ex51", "--out", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["kind"] == "complete"
    assert payload["enumerator"][0] == {
        "coeff": 1,
        "vars": [
            {"kind": "weight", "level": 1, "w": 0},
            {"kind": "weight", "level": 2, "w": 0},
            {"kind": "weight", "level": 3, "w": 0},
        ],
    }


def test_verify_command(capsys):
    rc = main(["verify", "--kind", "mspotty", "--t", "2,1,1", "--ring", "F2",
               "--poset", "leveled:2,1,1", "--code", "ex51"])
    assert rc == 0
    assert "EQUAL" in capsys.readouterr().out


def test_verify_json_report(capsys):
    rc = main(["verify", "--kind", "byte", "--ring", "F2",
               "--poset", "leveled:2,1,1", "--code", "ex51", "--out", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is True
    assert payload["lhs"] == payload["rhs"]


def _golden(name):
    return json.loads((Path(__file__).parent / "golden" / name).read_text())


def _argv_id(record):
    return " ".join(record["argv"]) or "(no arguments)"


def _call(argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    return rc, out.getvalue(), err.getvalue()


@pytest.mark.parametrize("record", _golden("weight_kinds_cli.json"), ids=_argv_id)
def test_weight_kind_output_matches_golden(record):
    # captured before the weight kinds compared spectra and rendered them lazily
    assert _call(record["argv"]) == (record["rc"], record["stdout"], record["stderr"])


@pytest.mark.parametrize("record", _golden("byte_routes_cli.json"), ids=_argv_id)
def test_byte_route_output_matches_golden(record):
    # captured before byte verify compared pattern indices and the join emitted them:
    # verify, enum (direct, --dual, --dual --via-transform) and dual, text and JSON,
    # on ex51 and hamming74 over F2, Z4, F4 and GF(9) with q^n <= 2^16
    assert _call(record["argv"]) == (record["rc"], record["stdout"], record["stderr"])


@pytest.mark.parametrize("record", _golden("poset_and_level_order_cli.json"), ids=_argv_id)
def test_poset_level_order_and_paper_output_matches_golden(record):
    # captured while enumerators were polynomials of sorted variables: enum --kind poset,
    # direct and --dual, over F2, Z4 and GF(9) with chain, antichain, leveled and cover
    # posets; level and mspotty spectra with zero level-1 weights next to later ones;
    # and the exact paper-examples report
    assert _call(record["argv"]) == (record["rc"], record["stdout"], record["stderr"])


@pytest.mark.parametrize("record", _golden("fuzz_cli.json"), ids=_argv_id)
def test_fuzz_output_matches_golden(record):
    # captured while the byte transform chose between two layouts: 40 instances
    # of seeds 1-3, text and JSON
    assert _call(record["argv"]) == (record["rc"], record["stdout"], record["stderr"])


@pytest.mark.parametrize("record", _golden("cli_usage.json"), ids=_argv_id)
def test_usage_and_help_match_golden(record, monkeypatch):
    # captured while every call built all five subparsers; help wraps at COLUMNS
    monkeypatch.setenv("COLUMNS", "80")
    expected = (record["rc"], record["stdout"], record["stderr"])
    assert _call(record["argv"]) == expected
    if record["subprocess"]:  # main(None) reads sys.argv itself
        done = _run_cli(*record["argv"])
        assert (done.returncode, done.stdout, done.stderr) == expected


EX51 = ["--ring", "F2", "--code", "ex51", "--poset", "leveled:2,1,1"]


def _fresh_call(argv):
    """_call with every parser built anew, as in a process's first call."""
    cli._parser.cache_clear()
    return _call(argv)


def test_a_reused_parser_carries_nothing_from_one_call_to_the_next(monkeypatch):
    # main builds each parser once a process; every call must print what a fresh parser prints
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["enum", "--kind", "complete", *EX51, "--dual", "--out", "json"],
        ["enum", "--kind", "complete", *EX51],
        ["verify", "--kind", "mspotty", *EX51, "--t", "2,1,1", "--cap", "8"],  # q^n = 16 is over it
        ["verify", "--kind", "mspotty", *EX51, "--t", "2,1,1"],
        ["verify", "--kind", "nope", *EX51],
        ["verify", "--kind", "level", *EX51],
        ["-h"],
        ["verify", "--kind", "level", *EX51],
        ["nope"],
        ["enum", "--kind", "level", *EX51, "--dual"],
    ]
    fresh = [_fresh_call(argv) for argv in calls]
    assert [rc for rc, _, _ in fresh] == [0, 0, 3, 0, 2, 0, 0, 0, 2, 0]
    cli._parser.cache_clear()
    assert [_call(argv) for argv in calls] == fresh


def test_help_wraps_at_the_columns_of_each_call(monkeypatch):
    cli._parser.cache_clear()
    reused, fresh = [], []
    for columns in ("40", "100"):
        monkeypatch.setenv("COLUMNS", columns)
        reused.append(_call(["verify", "-h"]))
    for columns in ("40", "100"):
        monkeypatch.setenv("COLUMNS", columns)
        fresh.append(_fresh_call(["verify", "-h"]))
    assert reused == fresh
    assert reused[0][1] != reused[1][1]


def test_main_builds_its_parser_once(monkeypatch):
    # building the parser takes about half of a small verify's time, so main builds it once
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    cli._parser.cache_clear()
    calls = [
        ["enum", "--kind", "complete", *EX51],
        ["dual", "--ring", "F2", "--code", "ex51"],
        ["verify", "--kind", "complete", *EX51],
        ["fuzz", "--fuzz-iters", "0"],
        ["paper-examples"],
    ]
    for _ in range(4):
        assert [_call(argv)[0] for argv in calls] == [0] * 5
    assert built == ["pwenum", *(f"pwenum {argv[0]}" for argv in calls)]


def test_a_parser_from_build_parser_is_the_callers_own():
    # main keeps its parser to itself: a caller that edits one it built changes no later call
    level = ["verify", "--kind", "level", *EX51]
    cli._parser.cache_clear()
    assert _call(level) == (0, "level: EQUAL\n", "")
    mine = build_parser()
    assert mine is not build_parser()
    subcommands = next(a for a in mine._actions if isinstance(a, argparse._SubParsersAction))
    subcommands.choices["verify"].set_defaults(func=_refuse)
    assert mine.parse_args(level).func is _refuse
    assert _call(level) == (0, "level: EQUAL\n", "")


def _refuse(*args, **kwargs):
    raise AssertionError("this route must not build it")


def _refuse_dual_listing(monkeypatch):
    for name in ("codes.dual_code", "cli.dual_code", "codes.dual_words", "cli.dual_words", "macwilliams.dual_words"):
        monkeypatch.setattr(f"pwenum.{name}", _refuse)


def _refuse_rendering(monkeypatch):
    for module in ("pwenum.macwilliams", "pwenum.cli"):
        monkeypatch.setattr(f"{module}.render", _refuse)
    for kind, entry in KINDS.items():
        monkeypatch.setitem(KINDS, kind, entry._replace(terms=_refuse))


@pytest.mark.parametrize("kind", ["complete", "level", "mspotty"])
def test_weight_kinds_list_no_dual_words(kind, monkeypatch, capsys):
    _refuse_dual_listing(monkeypatch)
    base = ["--kind", kind, "--ring", "Z4", "--code", "hamming74", "--poset", "leveled:3,2,2",
            "--t", "2,1,2"]
    assert main(["enum", "--dual", *base]) == 0
    direct = capsys.readouterr().out
    assert main(["enum", "--dual", "--via-transform", *base]) == 0
    assert capsys.readouterr().out == direct
    # a text EQUAL renders neither side, not even one term
    _refuse_rendering(monkeypatch)
    assert main(["verify", *base]) == 0
    assert capsys.readouterr().out == f"{kind}: EQUAL\n"


def test_a_text_byte_verify_builds_no_dual_word_or_polynomial(monkeypatch, capsys):
    _refuse_dual_listing(monkeypatch)
    _refuse_rendering(monkeypatch)
    for ring, code, poset in (("Z4", "hamming74", "leveled:3,2,2"), ("F2", "ex51", "leveled:2,1,1")):
        argv = ["verify", "--kind", "byte", "--ring", ring, "--code", code, "--poset", poset]
        assert main(argv) == 0
        assert capsys.readouterr().out == "byte: EQUAL\n"


def test_a_differing_byte_identity_prints_both_polynomials(monkeypatch, capsys):
    def one_word_short(code, cap=None):
        indicator = bytearray(dual_indicator(code, cap))
        indicator[indicator.rindex(0x80)] = 0  # the dual's last word in index order
        return bytes(indicator)

    monkeypatch.setattr("pwenum.macwilliams.dual_indicator", one_word_short)
    argv = ["verify", "--kind", "byte", "--ring", "F2", "--code", "ex51", "--poset", "leveled:2,1,1"]
    assert main(argv) == 1
    # the fixture's terms in pattern order; the dual's last word in that order is 1110
    last = " + z_{1:11}z_{2:1}z_{3:0}"
    transform = "z_{1:00}z_{2:0}z_{3:0} + z_{1:01}z_{2:0}z_{3:1} + z_{1:10}z_{2:1}z_{3:1}" + last
    assert sorted(transform.split(" + ")) == sorted(FIXTURES["byte_dual"].split(" + "))
    direct = transform[: -len(last)]
    expected = f"byte: DIFFER\n  transform: {transform}\n  direct:    {direct}\n"
    assert capsys.readouterr().out == expected
    assert main(argv + ["--out", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is False
    assert len(payload["lhs"]) == 4 and payload["rhs"] == payload["lhs"][:3]


@pytest.mark.parametrize("kind, t", [("complete", None), ("level", None), ("mspotty", "2,1,1")])
def test_a_differing_spectrum_prints_both_polynomials(kind, t, monkeypatch, capsys):
    def doubled_zero_word(code, levels, cap=None):
        spectrum = dual_weight_spectrum(code, levels, cap)
        spectrum[0] += 1  # the weight key of the zero word
        return spectrum

    monkeypatch.setattr("pwenum.macwilliams.dual_weight_spectrum", doubled_zero_word)
    argv = ["verify", "--kind", kind, "--ring", "F2", "--code", "ex51", "--poset", "leveled:2,1,1"]
    argv += ["--t", t] if t else []
    assert main(argv) == 1
    fixture = {"complete": "complete_dual", "level": "plain_dual", "mspotty": "spotty_dual"}[kind]
    transform = {  # the fixture's terms in print order
        "complete": "z_{1:0}z_{2:0}z_{3:0} + z_{1:1}z_{2:0}z_{3:1} + z_{1:1}z_{2:1}z_{3:1} + z_{1:2}z_{2:1}z_{3:0}",
        "level": "1 + z_1z_2z_3 + z_1z_3 + z_1^2z_2",
        "mspotty": "1 + z_1z_2 + z_1z_2z_3 + z_1z_3",
    }[kind]
    assert sorted(transform.split(" + ")) == sorted(FIXTURES[fixture].split(" + "))
    # the zero word's term sorts first: z_{1:0}z_{2:0}z_{3:0}, or 1 for the plain variables
    direct = "2" + (transform if kind == "complete" else transform[1:])
    expected = f"{kind}: DIFFER\n  transform: {transform}\n  direct:    {direct}\n"
    assert capsys.readouterr().out == expected
    assert main(argv + ["--out", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["equal"] is False
    assert payload["lhs"][1:] == payload["rhs"][1:]
    assert (payload["lhs"][0]["coeff"], payload["rhs"][0]["coeff"]) == (1, 2)


def test_verify_records_t_only_for_the_kind_that_reads_it():
    # it used to record "t":[99] for a level check, unread and unchecked, one entry for two levels
    argv = ["verify", "--ring", "F2", "--poset", "leveled:2,1", "--code", "c1", "--out", "json"]
    rc, out, err = _call([*argv, "--kind", "level", "--t", "99"])
    assert (rc, err) == (0, "") and "t" not in json.loads(out)["instance"]
    rc, out, err = _call([*argv, "--kind", "mspotty", "--t", "2,1"])
    assert (rc, err) == (0, "") and json.loads(out)["instance"]["t"] == [2, 1]
    assert _call([*argv, "--kind", "mspotty", "--t", "99"]) == (2, "", "input error: t has 1 entries for 2 levels\n")


@pytest.mark.parametrize("t", ["abc", "9"])
@pytest.mark.parametrize(
    "kind, poset",
    [("byte", "leveled:2,1,1"), ("complete", "leveled:2,1,1"), ("level", "leveled:2,1,1"),
     ("poset", "chain:4")],
)
def test_kinds_that_do_not_fold_ignore_t(kind, poset, t):
    # --t abc used to exit 2 for the byte, complete and level kinds but not for poset,
    # and --t 9 passed unchecked with one entry for three levels
    base = ["--kind", kind, "--ring", "F2", "--code", "ex51", "--poset", poset]
    runs = [["enum", *base], ["enum", "--dual", *base]]
    if "transform" in KINDS[kind].routes:
        runs.append(["verify", *base])
    for argv in runs:
        plain = _call(argv)
        assert plain[0] == 0 and _call([*argv, "--t", t]) == plain


def test_a_generator_that_is_not_a_list_is_named():
    # these once failed with Python's own text, or read an object's keys as the word
    for generators, word in [("[1,1]", "1"), ("[null]", "None"), ('[{"a":1},[1,1]]', "{'a': 1}")]:
        argv = ["verify", "--kind", "complete", "--ring", "F2", "--poset", "leveled:1,1",
                "--code", f'{{"length":2,"generators":{generators}}}']
        assert _call(argv) == (2, "", f"input error: word {word} is not a list of element indices\n")


def test_input_errors_exit_2(capsys):
    assert main(["enum", "--kind", "level", "--ring", "F2",
                 "--poset", "antichain:0", "--code", "C1"]) == 2
    assert main(["enum", "--kind", "level", "--ring", "F9x",
                 "--poset", "chain3", "--code", "C1"]) == 2
    assert main(["enum", "--kind", "mspotty", "--ring", "F2",
                 "--poset", "chain3", "--code", "C1"]) == 2  # missing --t
    assert main(["enum", "--kind", "byte", "--ring", "F2",
                 "--poset", "chain3", "--code", "C1", "--via-transform"]) == 2
    capsys.readouterr()


def test_levels_out_of_coordinate_order_are_an_input_error(capsys):
    # levels {3} < {1, 2}: each block is contiguous, but they come in the wrong
    # order; this used to print the enumerator of leveled:1,2, whose level 1 is {1}
    code = json.dumps({"length": 3, "generators": [[1, 0, 0], [0, 1, 1]]})
    poset = json.dumps({"kind": "cover", "n": 3, "covers": [[3, 1], [3, 2]]})
    assert main(["enum", "--kind", "level", "--ring", "F2", "--code", code, "--poset", poset]) == 2
    assert capsys.readouterr() == ("", (
        "input error: level 1 holds positions [3] but must be the contiguous "
        "coordinate block starting at position 1\n"
    ))


def test_deeply_nested_json_is_an_input_error(capsys):
    deep = "[" * 100_000 + "]" * 100_000
    base = {"--ring": "F2", "--poset": "chain3", "--code": "C1"}
    for flag, spec in (
        ("--ring", '{"kind":%s}' % deep),
        ("--poset", '{"kind":%s}' % deep),
        ("--code", '{"length":%s}' % deep),
    ):
        argv = ["enum", "--kind", "level"]
        for name, value in {**base, flag: spec}.items():
            argv.append(f"{name}={value}")
        assert main(argv) == 2
        assert capsys.readouterr().err == "input error: JSON input is nested too deeply\n"


def test_cap_exit_3(capsys):
    assert main(["dual", "--ring", "F2", "--code", "C1", "--cap", "4"]) == 3
    # every enum route refuses q^n = 2^4 > 4, the transform routes included
    base = ["enum", "--ring", "F2", "--poset", "leveled:2,1,1", "--code", "ex51",
            "--t", "2,1,1", "--dual", "--cap", "4"]
    for kind in ("byte", "complete", "level", "mspotty"):
        for route in ([], ["--via-transform"]):
            assert main(base + ["--kind", kind] + route) == 3
    assert capsys.readouterr().out == ""


class _Reached(Exception):
    """Raised by a patched kernel, to show that a route got to it."""


@pytest.mark.parametrize("route", [
    ["verify", "--kind", "complete"],
    ["verify", "--kind", "level"],
    ["verify", "--kind", "mspotty", "--t", "2,1,1"],
    ["enum", "--kind", "complete", "--dual", "--via-transform"],
])
def test_the_cap_is_checked_before_the_contraction(route, monkeypatch):
    # the cap bounds the contraction's dense state: prod(n_j + 1) <= 2^n <= q^n <= cap
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr("pwenum.macwilliams.krawtchouk_contraction", reached)
    argv = route + ["--ring", "F2", "--poset", "leveled:2,1,1", "--code", "ex51"]
    over = (3, "", "resource cap exceeded: q^n = 2^4 exceeds cap 15\n")
    assert _call(argv + ["--cap", "15"]) == over
    # under the cap the route calls the module global, which a tracer may rebind
    with pytest.raises(_Reached):
        _call(argv + ["--cap", "16"])


@pytest.mark.parametrize("route", [
    ["verify"],
    ["enum"],
    ["enum", "--dual"],
    ["enum", "--dual", "--via-transform"],
])
@pytest.mark.parametrize("t, message", [
    ("2" + ",1" * 17, "t entry 2 outside 1..1"),
    ("1" * 17, "t has 1 entries for 18 levels"),
    ("0" + ",1" * 17, "t entry 0 outside 1..1"),
])
def test_a_malformed_t_is_refused_before_any_word_is_spanned(route, t, message, monkeypatch):
    # the fold used to check t after both routes had run: 1.1-1.4 s on this code
    argv = route + ["--kind", "mspotty", "--ring", "F2", "--poset", "chain:18", "--t", t]
    argv += ["--code", '{"length":18,"generators":[]}']
    refused = (2, "", f"input error: {message}\n")
    assert _call(argv) == refused

    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.setattr(LinearCode, "words", property(reached))  # no code's words are listed
    assert _call(argv) == refused


@pytest.mark.parametrize("n, argv, message", [
    # spanning this code took 25 s before its poset was refused
    (400_000, ["enum", "--kind", "poset", "--poset", "chain:400000"],
     "poset down-sets hold at least 80000200000 entries, over the cap 16777216"),
    (20, ["enum", "--kind", "level", "--poset", "chain:20", "--cap", "100"],
     "poset down-sets hold at least 210 entries, over the cap 100"),
    (20, ["enum", "--kind", "level", "--poset", "leveled:10,10", "--dual", "--cap", "1000"],
     "q^n = 2^20 exceeds cap 1000"),
    (20, ["verify", "--kind", "byte", "--poset", "leveled:10,10", "--cap", "1000"],
     "q^n = 2^20 exceeds cap 1000"),
    (20, ["dual", "--cap", "1000"], "q^n = 2^20 exceeds cap 1000"),
])
def test_over_cap_inputs_are_refused_before_spanning(n, argv, message, monkeypatch):
    def reached(*args, **kwargs):
        raise _Reached

    monkeypatch.delenv("PWE_CAP", raising=False)
    monkeypatch.setattr(LinearCode, "words", property(reached))  # no code's words are listed
    code = json.dumps({"length": n, "generators": [[1] * n]})
    assert _call(argv + ["--ring", "F2", "--code", code]) == (3, "", f"resource cap exceeded: {message}\n")


@pytest.mark.parametrize("argv", [
    ["enum", *kind, "--dual", "--ring", "Z4", "--code", "hamming74", "--poset", "leveled:3,2,2"]
    for kind in (["--kind", "complete"], ["--kind", "level"], ["--kind", "mspotty", "--t", "2,1,2"])
] + [
    ["enum", "--kind", "poset", "--dual", "--ring", "F2", "--code", "hamming74", "--poset", "chain:7"],
    ["enum", "--kind", "poset", "--dual", "--ring", "F3", "--code", "hamming74", "--poset", "leveled:3,4"],
    ["enum", "--kind", "poset", "--dual", "--ring", "Z4", "--code", "ex51",
     "--poset", '{"kind":"cover","n":4,"covers":[[1,3],[2,3]]}'],
    ["enum", "--kind", "byte", "--dual", "--ring", "F2u", "--code", "ex51", "--poset", "leveled:2,1,1"],
    ["dual", "--ring", "F2u", "--code", "ex51"],
    ["dual", "--ring", "Z4", "--code", "hamming74"],
])
def test_no_dual_route_lists_a_word_of_the_code(argv, monkeypatch):
    # the dual routes read the generators alone, so a code whose words cannot be built prints the same
    printed = _call(argv)
    assert printed[0] == 0 and printed[1]
    monkeypatch.setattr(LinearCode, "span_columns", _refuse)
    assert _call(argv) == printed


@pytest.mark.parametrize("argv", [
    ["verify", *kind, "--ring", "Z4", "--code", "hamming74", "--poset", "leveled:3,2,2"]
    for kind in (["--kind", "complete"], ["--kind", "level"], ["--kind", "mspotty", "--t", "2,1,2"])
] + [
    ["enum", "--kind", "complete", "--ring", "F3", "--code", "hamming74", "--poset", "leveled:3,4"],
    ["enum", "--kind", "level", "--ring", "F2u", "--code", "ex51", "--poset", "leveled:2,1,1"],
    ["enum", "--kind", "mspotty", "--t", "2,1,2", "--dual", "--via-transform", "--ring", "Z4",
     "--code", "hamming74", "--poset", "leveled:3,2,2"],
    ["enum", "--kind", "poset", "--ring", "F2", "--code", "hamming74", "--poset", "chain:7"],
    ["enum", "--kind", "poset", "--ring", "F3", "--code", "hamming74", "--poset", "leveled:3,4"],
])
def test_no_weight_route_encodes_a_word(argv, monkeypatch):
    # the code's spectrum is counted off the span's byte columns, unkept, so a code whose listing raises prints the same
    printed = _call(argv)
    assert printed[0] == 0 and printed[1]
    monkeypatch.setattr(LinearCode, "words", property(_refuse))
    assert _call(argv) == printed


@pytest.mark.parametrize("q, n, generators, cover_n", [
    (3, 20_000, [[i % 3 for i in range(20_000)], [i // 7 % 3 for i in range(20_000)]], 20_000),
    # a cover poset's masks take about n^2/16 bytes, 625 MB at n = 100,000: its route runs at 20,000
    (2, 100_000, [], 20_000),
], ids=["F3-two-generators", "F2-zero-code"])
def test_the_long_code_routes_print_the_span_column_rows_with_no_indicator_read(q, n, generators, cover_n, monkeypatch):
    # the byte and cover-poset code routes print the span's words as the rows of its byte columns
    # (LinearCode.span_columns), cut by strided slices: an index of n log2(q) bits a word, encoded and
    # decoded again, takes time quadratic in n. Only an indicator over R^n, held to the cap, is read off
    # to words, and a long code has none
    for name in ("codes.indicator_words", "enumerators.indicator_words", "codes.dual_indicator"):
        monkeypatch.setattr(f"pwenum.{name}", _refuse)
    ring = {2: "F2", 3: "F3"}[q]
    words = span_words(make_ring("Zm", m=q), n, generators)
    code = json.dumps({"length": n, "generators": generators})
    for shape, blocks in ((f"antichain:{n}", [(0, n)]), (f"leveled:1,{n - 1}", [(0, 1), (1, n)])):
        monos = (tuple(((s, "byte", w[lo:hi]), 1) for s, (lo, hi) in enumerate(blocks, 1)) for w in words)
        byte = reference_text(dict.fromkeys(monos, 1))
        assert _call(["enum", "--kind", "byte", "--ring", ring, "--poset", shape, "--code", code]) == (
            0, byte + "\n", ""
        )
    # 1 below 2 within the left half, 3 below the last position across the cut
    covers = [[1, 2], [3, cover_n]]
    words = [w[:cover_n] for w in words]
    code = json.dumps({"length": cover_n, "generators": [g[:cover_n] for g in generators]})
    poset = json.dumps({"kind": "cover", "n": cover_n, "covers": covers})
    argv = ["enum", "--kind", "poset", "--ring", ring, "--poset", poset, "--code", code, "--cap", str(cover_n**2)]
    weights = reference_text(reference_poly("poset", cover_poset_enumerator(words, covers)))
    assert _call(argv) == (0, weights + "\n", "")


@pytest.mark.parametrize("command", ["verify", "enum"])
def test_a_spectrum_that_counts_the_zero_lane_twice_is_an_integrity_failure(command, monkeypatch):
    # the transform route divides by the spectrum's own total, so a miscount would print EQUAL on verify
    # and wrong coefficients on enum; a uniform one, every lane twice, is divided out by z = q^k/|C|. Here
    # the zero lane counts twice and every other lane once: 5 lanes of key 0 where z = 4 (g2 = 2 g1)
    span_columns = LinearCode.span_columns

    def zero_lane_twice(code):
        columns, z = span_columns(code)
        return [column[:1] + column for column in columns], z

    monkeypatch.setattr(LinearCode, "span_columns", zero_lane_twice)
    code = '{"length":4,"generators":[[1,3,2,1],[2,2,0,2]]}'
    argv = [command, "--kind", "complete", "--ring", "Z4", "--poset", "leveled:2,2", "--code", code]
    message = ("integrity failure: weight key 0 is counted 5 times, z = q^k/|C| = 4: each count must be"
               " z times a word count, 1 at key 0\n")
    assert _call(argv) == (1, "", message)


@pytest.mark.parametrize("command", ["verify", "enum", "dual"])
@pytest.mark.parametrize("cap", ["0", "-5"])
def test_a_non_positive_cap_is_an_input_error(command, cap):
    # it used to exit 3, "code length 3 exceeds cap -5", as if the input were too big
    argv = [command, "--ring", "F2", "--code", "C1", "--cap", cap]
    argv += [] if command == "dual" else ["--kind", "level", "--poset", "chain:3"]
    assert _call(argv) == (2, "", f"input error: --cap must be positive, got {cap}\n")


HAMMING_VERIFY = ["verify", "--kind", "complete", "--ring", "F2", "--poset", "antichain:7",
                  "--code", "hamming74"]


@pytest.mark.parametrize("raw", ["abc", "5.0", "0", "-3"])
def test_a_bad_pwe_cap_is_one_input_error_naming_it(raw, monkeypatch):
    # a non-integer used to print int()'s own message, which does not name PWE_CAP
    monkeypatch.setenv("PWE_CAP", raw)
    expected = f"input error: PWE_CAP must be a positive integer, got {raw!r}\n"
    assert _call(HAMMING_VERIFY) == (2, "", expected)


def test_pwe_cap_holds_unless_cap_is_given(monkeypatch):
    monkeypatch.setenv("PWE_CAP", "100")
    assert _call(HAMMING_VERIFY) == (3, "", "resource cap exceeded: q^n = 2^7 exceeds cap 100\n")
    assert _call(HAMMING_VERIFY + ["--cap", "200"]) == (0, "complete: EQUAL\n", "")


def test_a_negative_fuzz_iteration_count_is_an_input_error():
    # it used to print "fuzz: -1 instances, 0 failures" and exit 0
    expected = (2, "", "input error: --fuzz-iters must not be negative, got -1\n")
    assert _call(["fuzz", "--fuzz-iters", "-1"]) == expected
    assert _call(["fuzz", "--fuzz-iters", "0"])[0] == 0


def test_argparse_errors_exit_2(capsys):
    assert main(["enum", "--kind", "bogus", "--ring", "F2",
                 "--poset", "chain3", "--code", "C1"]) == 2
    capsys.readouterr()


def test_dual_command(capsys):
    rc = main(["dual", "--ring", "F2", "--code", "C1"])
    assert rc == 0
    assert capsys.readouterr().out.split() == ["000", "010", "100", "110"]
    rc = main(["dual", "--ring", "F2", "--code", "C1", "--out", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["size"] == 4 and payload["length"] == 3


@pytest.mark.parametrize(
    "record", [r for r in _golden("byte_routes_cli.json") if r["argv"][0] == "dual"], ids=_argv_id
)
def test_dual_prints_its_golden_lines_with_no_code_listed(record, monkeypatch):
    # the words print straight off dual_words; only --out json picks the dual's generators
    monkeypatch.setattr(LinearCode, "words", property(_refuse))
    if "json" not in record["argv"]:
        monkeypatch.setattr("pwenum.cli.dual_code", _refuse)
    assert _call(record["argv"]) == (record["rc"], record["stdout"], record["stderr"])


def test_dual_of_the_length_0_code_is_the_empty_word():
    argv = ["dual", "--ring", "F2", "--code", '{"length":0,"generators":[]}', "--out", "json"]
    expected = '{"codewords":[[]],"generators":[],"length":0,"size":1}\n'
    assert _call(argv) == (0, expected, "")


def test_paper_examples_command(capsys):
    rc = main(["paper-examples"])
    out = capsys.readouterr().out
    assert rc == 0
    lines = [line for line in out.splitlines() if line.strip()]
    assert len(lines) == 16
    assert all(line.startswith("PASS") for line in lines)


def test_fuzz_command_deterministic(capsys):
    args = ["fuzz", "--fuzz-iters", "5", "--seed", "42", "--out", "json"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert main(args) == 0
    assert capsys.readouterr().out == first
    payload = json.loads(first)
    assert payload["count"] == 5 and not payload["failures"]


def _run_cli(*argv, preexec_fn=None):
    src = Path(pwenum.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    return subprocess.run(
        [sys.executable, "-m", "pwenum.cli", *argv],
        capture_output=True, text=True, env=env, timeout=60, preexec_fn=preexec_fn,
    )


def test_fuzz_bound_below_ring_sizes_terminates():
    done = _run_cli("fuzz", "--fuzz-iters", "3", "--seed", "1", "--cap", "3", "--out", "json")
    payload = json.loads(done.stdout)
    assert payload["count"] == 3
    for record in payload["instances"]:
        assert record["ring"] in ("F2", "F3") and sum(record["levels"]) == 1
    refused = _run_cli("fuzz", "--fuzz-iters", "3", "--cap", "1")
    assert refused.returncode == 2
    assert "below the smallest catalog ring size" in refused.stderr


def test_fuzz_small_bound_spans_many_generators():
    # 3 generators of length 1 over F2 span at most 2 words, within a bound of 3
    done = _run_cli("fuzz", "--fuzz-iters", "3", "--seed", "1", "--cap", "3")
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.strip() == "fuzz: 3 instances, 0 failures (seed 1, bound 3)"


def test_run_fuzz_records_unexpected_errors(monkeypatch):
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise RuntimeError("boom")
        return verify_identity(*args, **kwargs)

    monkeypatch.setattr("pwenum.cli.verify_identity", flaky)
    result = run_fuzz(3, seed=3)
    first, *rest = result["instances"]
    assert first["error"] == "RuntimeError: boom" and not first["ok"]
    assert result["failures"] == [first]
    assert len(rest) == 2 and all(record["ok"] for record in rest)


def test_run_fuzz_records():
    result = run_fuzz(8, seed=3)
    assert result["count"] == 8
    assert not result["failures"]
    for record in result["instances"]:
        assert record["ok"]
        assert record["duality"]
        for kind in ("byte", "complete", "level", "mspotty"):
            assert record[kind] is True


def test_cli_reuses_library_enumerators(capsys):
    # the CLI result must equal the library call bit for bit
    ring = parse_ring_spec("F2")
    code = parse_code_spec("c1", ring)
    chain = parse_poset_spec("chain3")
    expected = render("level", level_enumerator(code, chain), levels=chain)
    main(["enum", "--kind", "level", "--ring", "F2", "--poset", "chain3", "--code", "c1"])
    assert capsys.readouterr().out.strip() == expected


PARITY_RINGS = (
    "F2", "F3", "F4", "Z4", "F2u", "F2v",
    '{"kind":"GF","p":2,"k":3,"modulus":[1,1,0,1]}',
    '{"kind":"GF","p":3,"k":2,"modulus":[1,0,1]}',
)
PARITY_POSETS = {"c1": "leveled:2,1", "c2": "leveled:1,2", "ex51": "leveled:2,1,1",
                 "hamming74": "leveled:3,2,2"}


@pytest.mark.parametrize("ring", PARITY_RINGS)
def test_byte_dual_routes_print_identical_text(ring, capsys):
    q = parse_ring_spec(ring).q
    for name, poset in PARITY_POSETS.items():
        if q ** NAMED_CODES[name]["length"] > 2**14:  # hamming74 over GF(8) and GF(9)
            continue
        argv = ["enum", "--kind", "byte", "--ring", ring, "--code", name, "--poset", poset, "--dual"]
        assert main(argv) == 0
        direct = capsys.readouterr().out
        assert main(argv + ["--via-transform"]) == 0
        assert capsys.readouterr().out == direct


VALID_RING_OBJS = (
    {"kind": "Zm", "m": 2},
    {"kind": "Zm", "m": 64},
    {"kind": "F2u"},
    {"kind": "F2v"},
    {"kind": "GF", "p": 3, "k": 2, "modulus": [2, 0, 2]},
    {"kind": "GF", "p": 2, "k": 6, "modulus": [1, 1, 0, 0, 0, 0, 1]},
)
_GF_OBJS = [obj for obj in VALID_RING_OBJS if obj["kind"] == "GF"]
# an explicit alphabet spares hypothesis its one-off build of the unicode tables
_ALPHABET = string.printable + "\x00é∘\u2028\ud800"
# no integers: each of these is malformed wherever a parameter or a coefficient goes
_JUNK_SCALAR = st.one_of(st.text(_ALPHABET, max_size=4), st.floats(), st.booleans(), st.none())
_JUNK = st.one_of(_JUNK_SCALAR, st.lists(_JUNK_SCALAR, min_size=1, max_size=3))
_SMALL_FIELDS = [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6), (3, 2), (3, 3), (5, 2), (7, 2)]


def _poly_product(f, g, p):
    out = [0] * (len(f) + len(g) - 1)
    for i, x in enumerate(f):
        for j, y in enumerate(g):
            out[i + j] = (out[i + j] + x * y) % p
    return out


@st.composite
def _bad_params(draw):
    obj = dict(draw(st.sampled_from([o for o in VALID_RING_OBJS if len(o) > 1])))
    name = draw(st.sampled_from(sorted(set(obj) - {"kind"})))
    if name == "modulus" and draw(st.booleans()):
        modulus = list(obj["modulus"])
        modulus[draw(st.integers(0, len(modulus) - 1))] = draw(_JUNK)
        obj["modulus"] = modulus
    else:
        obj[name] = draw(_JUNK_SCALAR if name == "modulus" else _JUNK)
    return obj


@st.composite
def _reducible_modulus(draw):
    p, k = draw(st.sampled_from(_SMALL_FIELDS))
    d = draw(st.integers(1, k - 1))
    coeff = st.integers(0, p - 1)
    f = [draw(coeff) for _ in range(d)] + [1]
    g = [draw(coeff) for _ in range(k - d)] + [1]
    scale = draw(st.integers(1, p - 1))
    return {"kind": "GF", "p": p, "k": k, "modulus": [c * scale for c in _poly_product(f, g, p)]}


@st.composite
def _wrong_length(draw):
    obj = dict(draw(st.sampled_from(_GF_OBJS)))
    modulus = list(obj["modulus"])
    if draw(st.booleans()):
        modulus = modulus[: draw(st.integers(0, len(modulus) - 1))]
    else:
        modulus += draw(st.lists(st.integers(0, 3), min_size=1, max_size=3))
    obj["modulus"] = modulus
    return obj


@st.composite
def _extra_key(draw):
    obj = dict(draw(st.sampled_from(VALID_RING_OBJS)))
    key = draw(st.text(_ALPHABET, max_size=6).filter(lambda key: key not in obj))
    obj[key] = draw(st.one_of(st.integers(), _JUNK))
    return obj


_MALFORMED_OBJS = st.one_of(
    # wrong or missing kinds
    st.builds(
        lambda kind, obj: {**obj, "kind": kind},
        st.one_of(
            st.text(_ALPHABET, max_size=6).filter(lambda k: k not in RING_KINDS),
            st.integers(),
            _JUNK.filter(lambda k: k not in RING_KINDS),  # its text may spell a kind, such as GF
        ),
        st.sampled_from(VALID_RING_OBJS),
    ),
    st.sampled_from(VALID_RING_OBJS).map(lambda obj: {k: v for k, v in obj.items() if k != "kind"}),
    _bad_params(),
    # non-prime p, k <= 0, oversize rings
    st.builds(
        lambda p, k: {"kind": "GF", "p": p, "k": k, "modulus": [0] * k + [1]},
        st.integers(-5, 64).filter(lambda p: p < 2 or any(p % d == 0 for d in range(2, p))),
        st.integers(1, 2),
    ),
    st.builds(
        lambda k: {"kind": "GF", "p": 2, "k": k, "modulus": [1, 1]}, st.integers(max_value=0)
    ),
    st.builds(
        lambda m: {"kind": "Zm", "m": m}, st.one_of(st.integers(max_value=1), st.integers(65))
    ),
    st.builds(
        lambda pk, extra: {"kind": "GF", "p": pk[0], "k": pk[1] + extra, "modulus": [0, 1]},
        st.sampled_from([(2, 7), (3, 4), (5, 3), (7, 3), (11, 2), (67, 1), (10**12 + 39, 1)]),
        st.integers(0, 10**9),
    ),
    _reducible_modulus(),
    _wrong_length(),
    _extra_key(),
)


def _nested(depth):
    return '{"kind":"Zm","m":' + "[" * depth + "]" * depth + "}"


@st.composite
def ring_specs(draw):
    """(spec text, expected exit code, or None where either 0 or 2 may hold)."""
    choice = draw(st.integers(0, 5))
    if choice == 0:
        return json.dumps(draw(st.sampled_from(VALID_RING_OBJS))), 0
    if choice <= 2:
        return json.dumps(draw(_MALFORMED_OBJS)), 2
    if choice == 3:
        text = json.dumps(draw(st.sampled_from(VALID_RING_OBJS)))
        return text[: draw(st.integers(0, len(text) - 1))], 2
    if choice == 4:
        return _nested(draw(st.integers(1, 5000))), 2
    return draw(st.text(_ALPHABET, max_size=20)), None  # may spell an alias such as F2 or Z7


@settings(max_examples=300)
@given(ring_specs())
def test_malformed_ring_specs_are_input_errors(case):
    spec, expected = case
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        # --ring=SPEC, so a spec starting with '-' is not read as an option
        rc = main(["verify", "--kind", "level", f"--ring={spec}", "--poset", "antichain:1",
                   "--code", '{"length":1,"generators":[[1]]}'])
    assert rc == expected if expected is not None else rc in (0, 2)
    if rc == 0:
        assert (out.getvalue(), err.getvalue()) == ("level: EQUAL\n", "")
    else:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("input error: ")


# --code, --poset and --t: one of the three is malformed, the other two are valid
_VALID = {"--code": '{"length":3,"generators":[[1,0,1]]}', "--poset": "leveled:2,1", "--t": "1,1"}
_JSON_JUNK = st.one_of(
    _JUNK,
    st.integers(-3, 0),
    st.dictionaries(st.text(_ALPHABET, max_size=3), _JUNK_SCALAR, max_size=2),
)
_BAD_ENTRY = st.one_of(_JUNK, st.integers(max_value=-1), st.integers(min_value=2))


def _truncated(text):
    return st.integers(0, len(text) - 1).map(lambda k: text[:k])


@st.composite
def _bad_code(draw):
    gens = [[1, 0, 1]]
    choice = draw(st.integers(0, 6))
    if choice == 0:
        obj = {"length": draw(st.one_of(_JSON_JUNK, st.just(3.0))), "generators": gens}
    elif choice == 1:
        obj = {"length": 3, "generators": draw(st.one_of(_JUNK_SCALAR, st.integers(), st.just({})))}
    elif choice == 2:
        word = [1, 0, 1]
        word[draw(st.integers(0, 2))] = draw(_BAD_ENTRY)
        obj = {"length": 3, "generators": [word]}
    elif choice == 3:
        word = draw(st.lists(st.integers(0, 1), max_size=6).filter(lambda w: len(w) != 3))
        obj = {"length": 3, "generators": [word]}
    elif choice == 4:
        obj = draw(st.sampled_from([{"length": 3}, {"generators": gens}, {}]))
    elif choice == 5:  # a valid code whose length the poset does not match
        obj = {"length": draw(st.integers(0, 40).filter(lambda n: n != 3)), "generators": []}
    else:
        return draw(_truncated(_VALID["--code"]))
    return json.dumps(obj)


@st.composite
def _bad_poset(draw):
    choice = draw(st.integers(0, 6))
    if choice == 0:  # shorthand of the wrong size
        kind = draw(st.sampled_from(["chain", "antichain"]))
        return f"{kind}:{draw(st.integers(0, 60).filter(lambda n: n != 3))}"
    if choice == 1:
        sizes = draw(st.lists(st.integers(0, 20), min_size=1, max_size=4))
        if sum(sizes) == 3 and 0 not in sizes:
            sizes.append(0)
        return "leveled:" + ",".join(map(str, sizes))
    if choice == 2:
        obj = {"kind": draw(st.one_of(st.text(_ALPHABET, max_size=8), _JUNK)), "n": 3}
        if obj["kind"] in ("chain", "antichain", "cover"):
            obj["n"] = 0
    elif choice == 3:
        kind = draw(st.sampled_from(["chain", "antichain", "cover"]))
        obj = {"kind": kind, "n": draw(_JSON_JUNK), "covers": []}
    elif choice == 4:
        levels = [2, 1]
        levels[draw(st.integers(0, 1))] = draw(_JSON_JUNK)
        obj = {"kind": "leveled", "levels": draw(st.sampled_from([levels, [], "2,1", None]))}
    elif choice == 5:  # not a list of integer pairs, a cycle, or not hierarchical
        covers = draw(st.one_of(
            _JSON_JUNK,
            st.lists(
                st.lists(st.one_of(st.integers(1, 3), _JUNK_SCALAR), max_size=3),
                min_size=1,
                max_size=3,
            ).filter(lambda c: not all(len(p) == 2 and all(type(x) is int for x in p) for p in c)),
            st.sampled_from([[[1, 2], [2, 1]], [[1, 1]], [[1, 4]], [[0, 1]], [[1, 2]], [[2, 3]]]),
        ))
        obj = {"kind": "cover", "n": 3, "covers": covers}
    else:
        return draw(_truncated('{"kind":"leveled","levels":[2,1]}'))
    return json.dumps(obj)


# free text, which may spell a valid t, is drawn by malformed_specs
_BAD_T = st.one_of(
    st.lists(st.integers(1, 2), max_size=4)
    .filter(lambda t: len(t) != 2)
    .map(lambda t: ",".join(map(str, t))),
    st.tuples(st.integers(-3, 10**30), st.integers(-3, 10**30))
    .filter(lambda t: not (1 <= t[0] <= 2 and t[1] == 1))
    .map(lambda t: f"{t[0]},{t[1]}"),
)


@st.composite
def malformed_specs(draw):
    """(flag, spec, expected exit code, or None where either 0 or 2 may hold)."""
    flag = draw(st.sampled_from(sorted(_VALID)))
    if draw(st.integers(0, 5)) == 0:
        return flag, draw(st.text(_ALPHABET, max_size=20)), None  # may spell a valid spec
    strategy = {"--code": _bad_code(), "--poset": _bad_poset(), "--t": _BAD_T}[flag]
    return flag, draw(strategy), 2


@settings(max_examples=300)
@given(malformed_specs())
def test_malformed_code_poset_and_t_specs_are_input_errors(case):
    flag, spec, expected = case
    out, err = io.StringIO(), io.StringIO()
    argv = ["verify", "--kind", "mspotty", "--ring", "F2"]
    for name, value in {**_VALID, flag: spec}.items():
        argv.append(f"{name}={value}")
    with redirect_stdout(out), redirect_stderr(err):
        rc = main(argv)
    assert rc == expected if expected is not None else rc in (0, 2)
    if rc == 0:
        assert (out.getvalue(), err.getvalue()) == ("mspotty: EQUAL\n", "")
    else:
        lines = err.getvalue().splitlines()
        assert out.getvalue() == ""
        assert len(lines) == 1 and lines[0].startswith("input error: ")


def _limit_memory():  # 1 GiB of address space, so a poset built in full fails fast
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


def _zero_code(n):
    return json.dumps({"length": n, "generators": []})


@pytest.mark.parametrize(
    "poset, code, rc, message",
    [
        ("leveled:99999999", "c1", 2, "poset size 99999999 does not match code length 3"),
        ('{"kind":"chain","n":100000000}', "c1", 2, "does not match code length 3"),
        ("chain:20000", _zero_code(20000), 3, "poset down-sets hold at least 200010000 entries"),
        ("leveled:10000,10000", _zero_code(20000), 3, "down-sets hold at least 100020000 entries"),
        ("covers.json", _zero_code(20000), 3, "over the cap 1000000"),
    ],
)
def test_oversized_posets_are_refused_before_they_are_built(tmp_path, poset, code, rc, message):
    if poset == "covers.json":  # a chain given by its covers, too long for one argument
        covers = [[i, i + 1] for i in range(1, 20000)]
        (tmp_path / poset).write_text(json.dumps({"kind": "cover", "n": 20000, "covers": covers}))
        poset = str(tmp_path / poset)
    done = _run_cli("verify", "--kind", "complete", "--ring", "F2", "--poset", poset,
                    "--code", code, "--cap", "1000000", preexec_fn=_limit_memory)
    assert done.returncode == rc, done.stderr[-2000:]
    assert done.stdout == "" and message in done.stderr and len(done.stderr.splitlines()) == 1


@pytest.mark.parametrize(
    "kind, n, shape, rc",
    [
        ("level", 5792, "chain", 0),
        ("poset", 5792, "chain", 0),
        ("poset", 5792, "pair", 0),
        ("poset", 5793, "pair", 3),
        ("level", 5793, "pair", 3),
    ],
)
def test_cover_posets_inside_the_default_cap_fit_in_1_gib(tmp_path, kind, n, shape, rc):
    # 5,792 is the longest chain the default cap 2^24 allows; given by covers, it is read as its
    # levels.  A single pair leaves a Poset whose masks take n(n+1)/2 bits: 16,776,528 at 5,792,
    # and past the cap at 5,793, where both kinds refuse it before a mask is built
    pairs = [[i, i + 1] for i in range(1, n)] if shape == "chain" else [[1, 2]]
    path = tmp_path / "covers.json"
    path.write_text(json.dumps({"kind": "cover", "n": n, "covers": pairs}))
    start = time.perf_counter()
    done = _run_cli("enum", "--kind", kind, "--ring", "F2", "--poset", str(path),
                    "--code", _zero_code(n), preexec_fn=_limit_memory)
    seconds = time.perf_counter() - start
    assert done.returncode == rc, done.stderr[-2000:]
    if rc == 0:
        assert (done.stdout, done.stderr) == ("1\n", "")
    else:
        assert (done.stdout, done.stderr) == ("", (
            "resource cap exceeded: poset down-sets hold at least 16782321 bits, over the cap 16777216\n"
        ))
        assert seconds < 1


@pytest.mark.parametrize(
    "argv",
    [
        ("dual",),
        ("verify", "--kind", "byte", "--poset", "antichain:64"),
        ("enum", "--kind", "byte", "--poset", "antichain:64", "--dual"),
        ("enum", "--kind", "poset", "--poset", "antichain:64", "--dual"),
    ],
)
def test_the_listing_routes_check_the_cap_before_building_half_words(argv):
    # each half of F2^64 has 2^32 words, far over 1 GiB if built before the check
    done = _run_cli(*argv, "--ring", "F2", "--code", _zero_code(64), preexec_fn=_limit_memory)
    assert (done.returncode, done.stdout) == (3, ""), done.stderr[-2000:]
    assert done.stderr == "resource cap exceeded: q^n = 2^64 exceeds cap 16777216\n"


def _twin_code(h):  # generators e_i + e_(h+i): the dual is every word (a, a) with a in F2^h
    return json.dumps({"length": 2 * h, "generators": [[int(j in (i, h + i)) for j in range(2 * h)] for i in range(h)]})


@pytest.mark.parametrize(
    "argv, terms",
    [
        (("--code", json.dumps({"length": 40, "generators": [[1] * 40]}), "--poset", "antichain:40"),
         ["0" * 40, "1" * 40]),
        (("--code", _twin_code(12), "--poset", "antichain:24", "--dual"),
         ["".join(a) * 2 for a in product("01", repeat=12)]),
    ],
)
def test_byte_rendering_builds_variables_only_for_blocks_that_occur(argv, terms):
    # one level of 40 (or 24) coordinates could hold 2^40 (2^24) blocks, far over 1 GiB if all built
    done = _run_cli("enum", "--kind", "byte", "--ring", "F2", *argv, preexec_fn=_limit_memory)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr[-2000:]
    assert done.stdout == " + ".join(f"z_{{1:{t}}}" for t in terms) + "\n"
    done = _run_cli("enum", "--kind", "byte", "--ring", "F2", *argv, "--out", "json",
                    preexec_fn=_limit_memory)
    assert done.returncode == 0, done.stderr[-2000:]
    assert json.loads(done.stdout) == {"kind": "byte", "enumerator": [
        {"coeff": 1, "vars": [{"level": 1, "kind": "byte", "pattern": [int(x) for x in t]}]}
        for t in terms
    ]}


def test_a_byte_verify_of_2_to_the_24_patterns_fits_in_1_gib():
    # the Yates rows of GF(64)^4 take 64 MiB; each coordinate pass holds its old and new rows
    ring = json.dumps({"kind": "GF", "p": 2, "k": 6, "modulus": [1, 1, 0, 0, 0, 0, 1]})
    code = json.dumps({"length": 4, "generators": [[1, 2, 3, 4]]})
    done = _run_cli("verify", "--kind", "byte", "--ring", ring, "--poset", "antichain:4", "--code", code,
                    preexec_fn=_limit_memory)
    assert (done.returncode, done.stdout, done.stderr) == (0, "byte: EQUAL\n", "")


# Runs the CLI with its arguments from a small interpreter, RLIMIT_AS = 1 GiB set in preexec_fn and a
# 20 s timeout, and prints its exit code, output and own ru_maxrss (os.wait4) as JSON.  A forked child
# counts the pages it shares with its parent until it execs in its ru_maxrss, so a child of the
# test process itself would read the test process's size.
_MEASURED_RUN = """
import json, os, resource, subprocess, sys, tempfile, time
def limit():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))
with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
    child = subprocess.Popen([sys.executable, "-m", "pwenum.cli", *sys.argv[1:]], stdout=out, stderr=err, preexec_fn=limit)
    deadline = time.monotonic() + 20
    while not (ended := os.wait4(child.pid, os.WNOHANG))[0] and time.monotonic() < deadline:
        time.sleep(0.01)
    timed_out = not ended[0]
    if timed_out:
        child.kill()
        ended = os.wait4(child.pid, 0)
    child.returncode = os.waitstatus_to_exitcode(ended[1])  # reaped here, so Popen must not wait
    out.seek(0)
    err.seek(0)
    print(json.dumps({"timed_out": timed_out, "rc": child.returncode, "stdout": out.read().decode(),
                      "stderr": err.read().decode(), "maxrss_kb": ended[2].ru_maxrss}))
"""


@pytest.mark.parametrize("ring, n", [("F2", 24), ("Z4", 12)])
def test_a_byte_verify_of_the_whole_ambient_space_fits_in_150_mib(ring, n):
    # the dual of the zero code is all 2^24 words; each side is one 2^24-byte indicator
    src = Path(pwenum.__file__).resolve().parent.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    argv = ["verify", "--kind", "byte", "--ring", ring, "--poset", f"antichain:{n}", "--code", _zero_code(n)]
    done = subprocess.run([sys.executable, "-c", _MEASURED_RUN, *argv], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr[-2000:]
    run = json.loads(done.stdout)
    assert not run["timed_out"]
    assert (run["rc"], run["stdout"], run["stderr"]) == (0, "byte: EQUAL\n", "")
    assert run["maxrss_kb"] <= 150 * 1024, f"peak RSS {run['maxrss_kb']} KiB"


ZERO_24 = ("--ring", "F2", "--poset", "antichain:24", "--code", _zero_code(24))


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--kind", "complete"),
        ("verify", "--kind", "level"),
        ("verify", "--kind", "mspotty", "--t", "5"),
        ("enum", "--kind", "complete", "--dual"),
        ("enum", "--kind", "poset", "--dual"),  # ended in MemoryError while the dual was listed
    ],
)
def test_the_whole_ambient_space_as_a_dual_is_counted_not_listed(argv):
    # the dual of the zero code of length 24 is all 2^24 words of F2^24, inside the default cap
    done = _run_cli(*argv, *ZERO_24, preexec_fn=_limit_memory)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr[-2000:]
    if argv[0] == "verify":
        assert done.stdout == f"{argv[2]}: EQUAL\n"
    else:
        var = {"complete": lambda p: f"z_{{1:{p}}}", "poset": lambda p: f"x^{p}" if p > 1 else "x" * p}
        spell = var[argv[2]]
        terms = (f"{comb(24, p) if 0 < p < 24 or not spell(p) else ''}{spell(p)}" for p in range(25))
        assert done.stdout == " + ".join(terms) + "\n"
    refused = _run_cli(*argv, *ZERO_24, "--cap", "1000000", preexec_fn=_limit_memory)
    assert (refused.returncode, refused.stdout) == (3, "")
    assert refused.stderr == "resource cap exceeded: q^n = 2^24 exceeds cap 1000000\n"


def test_a_long_half_is_counted_by_the_trellis_not_listed_as_byte_columns(monkeypatch):
    # RM(1,7), [128, 8]: the all-ones row and the 7 bit rows of i < 128, verified past the default cap.
    # Each half of the cut has 2^64 words, far past the trellis's bound of 64·2·2^8·65 steps, so the
    # dual's spectrum counts both halves by the trellis and lists no 64-coordinate half as byte columns.
    listed = []

    def half_syndromes(ring, columns, k):
        listed.append(len(columns))
        assert len(columns) < 64, "a 64-coordinate half was listed as byte columns"
        return real(ring, columns, k)

    real = codes._half_syndromes
    monkeypatch.setattr(codes, "_half_syndromes", half_syndromes)
    code = json.dumps({"length": 128, "generators": [[1] * 128] + [[(i >> b) & 1 for i in range(128)] for b in range(7)]})
    argv = ["verify", "--kind", "complete", "--ring", "F2", "--poset", "leveled:64,64", "--code", code]
    assert _call([*argv, "--cap", str(2**130)]) == (0, "complete: EQUAL\n", "")
    assert 64 not in listed
