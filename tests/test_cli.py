"""Tests for the command-line interface."""

from __future__ import annotations

import gc
import hashlib
import io
import json
import os
import random
import subprocess
import sys
import time
import weakref
from contextlib import redirect_stderr, redirect_stdout

import click
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

import prx
from prx.cli import _splittable, main
from prx.errors import StateCapExceeded
from prx.semantics import BOX, DIAMOND, membership, membership_diamond_fixed_word
from prx.syntax import Alphabet, parse

AB = Alphabet("01")


@pytest.fixture()
def runner():
    return CliRunner()


def invoke(runner, *args):
    return runner.invoke(main, list(args))


class TestMember:
    def test_diamond_true(self, runner):
        res = invoke(runner, "member", "--alphabet", "01", "--semantics", "diamond",
                     "--expr", "(0$x)*1($x$y)*", "--word", "01110")
        assert res.exit_code == 0
        assert res.output == "true\n"

    def test_box_false(self, runner):
        res = invoke(runner, "member", "--alphabet", "01", "--semantics", "box",
                     "--expr", "(0|1)*$x$y(0|1)*", "--word", "1001")
        assert res.exit_code == 1
        assert res.output == "false\n"

    def test_empty_word_underscore(self, runner):
        res = invoke(runner, "member", "--alphabet", "01", "--expr", "_", "--word", "_")
        assert res.exit_code == 0
        assert res.output == "true\n"

    def test_json_report(self, runner):
        res = invoke(runner, "member", "--alphabet", "01", "--semantics", "diamond",
                     "--expr", "(0$x)*1($x$y)*", "--word", "01110", "--output", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert set(data) == {"answer", "witness", "valuation", "stats"}
        assert data["answer"] is True
        assert data["valuation"] == {"x": "1", "y": "0"}
        assert set(data["stats"]) == {"valuations", "states"}

    def test_witness_flag_prints_valuation(self, runner):
        res = invoke(runner, "member", "--alphabet", "01", "--semantics", "diamond",
                     "--expr", "(0$x)*1($x$y)*", "--word", "01110", "--witness")
        assert res.exit_code == 0
        assert res.output == "true\nx=1,y=0\n"

    def test_parse_error_exits_2(self, runner):
        res = invoke(runner, "member", "--alphabet", "01", "--expr", "$x(", "--word", "0")
        assert res.exit_code == 2
        assert "error:" in res.output

    def test_valuation_cap_exits_2(self, runner):
        res = invoke(runner, "member", "--alphabet", "01", "--expr", "$x$y$z",
                     "--word", "000", "--max-valuations", "4")
        assert res.exit_code == 2


class TestMemberFast:
    def test_box_simple(self, runner):
        res = invoke(runner, "member", "--alphabet", "01", "--semantics", "box",
                     "--expr", "$x$y", "--word", "10", "--fast")
        assert res.exit_code == 1
        assert res.output == "false\n"

    def test_box_not_simple_exits_2(self, runner):
        res = invoke(runner, "member", "--alphabet", "01", "--semantics", "box",
                     "--expr", "$x$x", "--word", "00", "--fast")
        assert res.exit_code == 2

    def test_diamond_star_free(self, runner):
        res = invoke(runner, "member", "--alphabet", "01", "--semantics", "diamond",
                     "--expr", "0$x 1", "--word", "011", "--fast")
        assert res.exit_code == 0

    def test_diamond_with_star_reports_valuation(self, runner):
        res = invoke(runner, "member", "--alphabet", "01", "--semantics", "diamond",
                     "--expr", "($x$x)*", "--word", "1111", "--fast", "--output", "json")
        assert res.exit_code == 0
        assert json.loads(res.output)["valuation"] == {"x": "1"}

    def test_diamond_wildcards_decide_what_no_other_route_can(self, runner):
        # 2^16 binding sets for the binding search, 2^32 valuations for
        # plain membership: only the wildcard reachability answers.
        args = ["member", "--alphabet", "01", "--semantics", "diamond", "--expr",
                "".join(f"($a{i}|$b{i})" for i in range(16)), "--word", "0110100110010110"]
        res = invoke(runner, *args, "--fast")
        assert (res.exit_code, res.stdout, res.stderr) == (0, "true\n", "")
        res = invoke(runner, *args)
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "error: 4294967296 valuations exceed the cap of 1000000\n"
        with pytest.raises(StateCapExceeded, match="^the fixed-word search exceeded the cap "
                           "of 65536 states$"):
            membership_diamond_fixed_word(parse(args[6], AB), args[8], AB)

    @pytest.mark.parametrize("semantics,expr,fast", [
        ("diamond", "($x$x)*", False),
        ("box", "$x$y", True),
        ("diamond", "($x$x)*", True),
        ("diamond", "0$x 1", True),
    ], ids=["plain", "box", "diamond-binding", "diamond-star-free"])
    def test_a_foreign_word_letter_has_one_error_text(self, runner, semantics, expr, fast):
        res = invoke(runner, "member", "--alphabet", "01", "--semantics", semantics,
                     "--expr", expr, "--word", "019", *(["--fast"] if fast else []))
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "error: letter '9' is not in the alphabet\n"

    def test_agrees_with_general_path(self, runner):
        for expr, word in (("$x$y|01", "01"), ("($x|1)(0|$y)", "10"), ("(0|1)*", "0")):
            for sem in ("box", "diamond"):
                fast = invoke(runner, "member", "--alphabet", "01", "--semantics", sem,
                              "--expr", expr, "--word", word, "--fast")
                slow = invoke(runner, "member", "--alphabet", "01", "--semantics", sem,
                              "--expr", expr, "--word", word)
                assert fast.output.splitlines()[0] == slow.output.splitlines()[0]


class TestNonempty:
    def test_box_variable(self, runner):
        res = invoke(runner, "nonempty", "--alphabet", "01", "--semantics", "box",
                     "--expr", "$x")
        assert res.exit_code == 1
        assert res.output == "false\n"

    def test_witness_line(self, runner):
        res = invoke(runner, "nonempty", "--alphabet", "01", "--semantics", "box",
                     "--expr", "(0|1)*$x1$x2(0|1)*", "--witness")
        assert res.exit_code == 0
        assert res.output == "true\n00110\n"

    def test_fast_star_free(self, runner):
        res = invoke(runner, "nonempty", "--alphabet", "01", "--semantics", "box",
                     "--expr", "($x|0)($y|1)", "--fast", "--witness")
        assert res.exit_code == 0
        assert res.output == "true\n01\n"

    def test_fast_rejects_stars(self, runner):
        res = invoke(runner, "nonempty", "--alphabet", "01", "--semantics", "box",
                     "--expr", "(0|1)*", "--fast")
        assert res.exit_code == 2

    def test_fast_rejects_diamond(self, runner):
        res = invoke(runner, "nonempty", "--alphabet", "01", "--semantics", "diamond",
                     "--expr", "$x", "--fast")
        assert res.exit_code == 2


class TestUniversalContainsIntersect:
    def test_universal_diamond(self, runner):
        res = invoke(runner, "universal", "--alphabet", "01", "--semantics", "diamond",
                     "--expr", "($x(0|1)*)|_")
        assert res.exit_code == 0

    def test_universal_counterexample_epsilon(self, runner):
        res = invoke(runner, "universal", "--alphabet", "01", "--semantics", "box",
                     "--expr", "$x(0|1)*", "--witness")
        assert res.exit_code == 1
        lines = res.output.splitlines()
        assert lines[0] == "false"
        assert lines[1] == "_"

    def test_universal_box_reports_the_first_non_universal_valuation(self, runner):
        # The search meets x=1's counterexample 0 before x=0's 11; the report
        # belongs to x=0, the first valuation in enumeration order.
        res = invoke(runner, "universal", "--alphabet", "01", "--semantics", "box",
                     "--expr", "_|$x(0|1)*|1|10(0|1)*|11(0|1)(0|1)*", "--output", "json")
        assert res.exit_code == 1
        assert res.output == (
            '{"answer": false, "witness": "11", "valuation": {"x": "0"}, '
            '"stats": {"valuations": 1, "states": 7}}\n'
        )

    # The search for the first non-universal valuation fits under both caps;
    # the search of that one instance for its counterexample does not fit
    # under the smaller.
    @pytest.mark.parametrize("expr,witness,x,valuations,states", [
        ("_|$x(0|1)*|1|11|(10|110|111(0|1))(0|1)*", "111", "0", 1, 11),
        ("_|1(0|1)*|0|00|(01|001|000(0|1))(0|1)*|$x(0|1)*", "000", "1", 2, 8),
    ], ids=["first-valuation", "second-valuation"])
    def test_universal_box_caps_the_counterexample_instance(self, runner, expr, witness, x,
                                                            valuations, states):
        args = ("universal", "--alphabet", "01", "--semantics", "box", "--expr", expr)
        res = invoke(runner, *args, "--max-states", str(states - 1))
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == f"error: search exceeded the cap of {states - 1} states\n"
        res = invoke(runner, *args, "--max-states", str(states), "--output", "json")
        assert (res.exit_code, res.stderr) == (1, "")
        assert res.stdout == (
            f'{{"answer": false, "witness": "{witness}", "valuation": {{"x": "{x}"}}, '
            f'"stats": {{"valuations": {valuations}, "states": {states}}}}}\n'
        )

    def test_contains_counterexample(self, runner):
        res = invoke(runner, "contains", "--alphabet", "01", "--semantics", "diamond",
                     "--lhs", "$x$y", "--rhs", "$x$x", "--witness")
        assert res.exit_code == 1
        assert res.output == "false\n01\n"

    def test_contains_empty_lhs(self, runner):
        res = invoke(runner, "contains", "--alphabet", "01", "--semantics", "box",
                     "--lhs", "$x$x", "--rhs", "@")
        assert res.exit_code == 0

    def test_intersect(self, runner):
        res = invoke(runner, "intersect", "--alphabet", "01", "--semantics", "box",
                     "--expr", "(0|1)*$x1$x2(0|1)*", "--regular", "1*")
        assert res.exit_code == 1
        res = invoke(runner, "intersect", "--alphabet", "01", "--semantics", "diamond",
                     "--expr", "$x", "--regular", "1")
        assert res.exit_code == 0

    def test_box_intersect_searches_past_the_product_cap(self, runner):
        # The certainty automaton of the 16 instances alone has more than the
        # default 65 536 states; the pairs are searched up to the first
        # accepting one without building it.
        args = ("intersect", "--alphabet", "01", "--semantics", "box",
                "--expr", "(0|1)*$x1$x2$x3$x4(0|1)*", "--regular", "(0|1)*11")
        res = invoke(runner, *args, "--witness")
        assert (res.exit_code, res.output) == (0, "true\n0110000100111101011\n")
        res = invoke(runner, *args, "--output", "json")
        assert json.loads(res.output)["stats"] == {"valuations": 16, "states": 25185}

    def test_diamond_contains_counts_the_pairs_discovered(self, runner):
        res = invoke(runner, "contains", "--alphabet", "01", "--semantics", "diamond",
                     "--lhs", "$x$y", "--rhs", "$x$x", "--output", "json")
        assert res.output == (
            '{"answer": false, "witness": "01", "valuation": null, '
            '"stats": {"valuations": 6, "states": 7}}\n'
        )

    def test_intersect_rejects_variables_in_regular(self, runner):
        res = invoke(runner, "intersect", "--alphabet", "01", "--expr", "$x",
                     "--regular", "$y")
        assert res.exit_code == 2


class TestDomains:
    def test_member_box_infinite_domain(self, runner, tmp_path):
        spec = tmp_path / "domains.json"
        spec.write_text('{"x": "0*"}')
        res = invoke(runner, "member", "--alphabet", "01", "--semantics", "box",
                     "--expr", "$x 1", "--word", "01", "--domains", str(spec))
        assert res.exit_code == 1

    def test_nonempty_epsilon_witness(self, runner, tmp_path):
        spec = tmp_path / "domains.json"
        spec.write_text('{"x": "0*"}')
        res = invoke(runner, "nonempty", "--alphabet", "01", "--semantics", "box",
                     "--expr", "($x|_)1*", "--domains", str(spec), "--witness")
        assert res.exit_code == 0
        assert res.output == "true\n_\n"

    def test_diamond_infinite_domain_exits_2(self, runner, tmp_path):
        spec = tmp_path / "domains.json"
        spec.write_text('{"x": "0*"}')
        res = invoke(runner, "nonempty", "--alphabet", "01", "--semantics", "diamond",
                     "--expr", "$x", "--domains", str(spec))
        assert res.exit_code == 2

    def test_bad_domains_json_exits_2(self, runner, tmp_path):
        spec = tmp_path / "domains.json"
        spec.write_text('["not", "a", "mapping"]')
        res = invoke(runner, "nonempty", "--alphabet", "01", "--expr", "$x",
                     "--domains", str(spec))
        assert res.exit_code == 2

    def test_fast_with_domains_exits_2(self, runner, tmp_path):
        spec = tmp_path / "domains.json"
        spec.write_text('{"x": "0|1"}')
        res = invoke(runner, "member", "--alphabet", "01", "--expr", "$x",
                     "--word", "0", "--domains", str(spec), "--fast")
        assert res.exit_code == 2

    @pytest.mark.parametrize("text,kind", [
        ('{"x": 1}', "int"), ('{"x": {"a": 1}}', "dict"), ('{"x": ["0", "1"]}', "list"),
    ])
    def test_domain_values_that_are_not_strings_exit_2(self, runner, tmp_path, text, kind):
        spec = tmp_path / "domains.json"
        spec.write_text(text)
        res = invoke(runner, "member", "--alphabet", "01", "--expr", "$x",
                     "--word", "0", "--domains", str(spec))
        assert res.exit_code == 2
        assert res.stderr == f"error: domain for 'x' must be an expression string, not {kind}\n"
        assert res.stdout == ""

    def test_json_stats_count_valuations_and_automaton_states(self, runner, tmp_path):
        # Membership: valuations up to the reported one, states of the
        # expression's automaton; the others: valuations combined, states
        # of the automaton the answer was read from.
        spec = tmp_path / "domains.json"
        spec.write_text('{"x": "00|01"}')
        res = invoke(runner, "member", "--alphabet", "01", "--semantics", "diamond",
                     "--expr", "$x", "--word", "01", "--domains", str(spec),
                     "--output", "json")
        assert json.loads(res.output) == {
            "answer": True, "witness": None, "valuation": {"x": "01"},
            "stats": {"valuations": 2, "states": 2},
        }
        spec.write_text('{"y": "1|_", "x": "0*"}')
        res = invoke(runner, "member", "--alphabet", "01", "--expr", "$x 1 $y",
                     "--word", "1", "--domains", str(spec), "--output", "json")
        assert json.loads(res.output)["valuation"] == {"y": ""}
        assert json.loads(res.output)["stats"] == {"valuations": 1, "states": 6}
        # Box nonemptiness steps mask states over the domain words: the
        # witness "" is found at the start.
        spec.write_text('{"x": "0|1"}')
        res = invoke(runner, "nonempty", "--alphabet", "01", "--expr", "($x|_)1*",
                     "--domains", str(spec), "--output", "json")
        assert json.loads(res.output)["stats"] == {"valuations": 2, "states": 1}


#: sha256 of `build-nfa --alphabet 01 --format json` and `--format dot` output.
#: The JSON digests are those of `json.dumps(nfa_to_json(a), indent=2)` and a
#: newline, so they pin `export_json` and the ε-free automata byte for byte.
_BUILD_NFA_DIGESTS = [
    ('diamond', '($x1)*',
     'fd0eac97c47789a30badc47dc51d8e26d07309fe3a37924527acc87aca0a3353',
     'c66ffa78c013ba88ebd5dfd5b68256e3a24026ed7686ea7c005e5ba006b9e7e3'),
    ('diamond', '($x1$x2)*',
     'baafbaf185bfd9b5b9af0ac986555b5dbcd24f40f94fe26aa2dc7492068b84b2',
     '21f379396f92cd7b4c219beaca508b7f299422c1f83ae6ddb14b1969da63cc38'),
    ('diamond', '($x1$x2$x3)*',
     'c92cf0662df1cfe061c50aa6cdf0e40ef2adbd3de3677912a4de732421d78960',
     '42c43a9e54abe9cf1c4cf29f2298e0724b4ff9d8dccb0149320191d1110f044c'),
    ('diamond', '($x1$x2$x3$x4)*',
     'c377fe9c8a73fe1b5acf18868d674b86f8d5cd5390d936679014144b0929e244',
     '1ad2a1b843719bef04d56849e8709eec2e87eb2823fc8b96c162f376ac41419f'),
    ('diamond', '($x1$x2$x3$x4$x5)*',
     'df491a995608a2309e03bfc4eecb1f2cac4da65daba23956d668bdbfa9bc8273',
     '79acb26596c584c9d137551d3437172a79a28212365289e55a271e7b73dae7ee'),
    ('diamond', '($x1$x2$x3$x4$x5$x6)*',
     '510b6253a5e23c443cdc8513781042f437d3e90ef62ef80ddd35d4d3222a7274',
     '4edda7f1f443a89b69cecf687b81d4c86ec7a0542c2c46e94daf97377ae8c869'),
    ('diamond', '($x1$x2$x3$x4$x5$x6$x7)*',
     '119092730325bd2a2897e9affd6d6088997295e95437519245a1344d7cd8af47',
     '955ddb967ede4b4b36da582bce11ee287643a06daa4a54ee254f36251fddd100'),
    # Relabelling moves the start's letter edge 1 behind its variable edges 0.
    ('diamond', '($x|$y|1)*0',
     '79ae279cf8d04f89ac7bef1c27570c470fb3447086cd9093c9fc1ed634e0ee0b',
     'b04f7b54628e1c20cdee4f4afe49a26e5e36ba69e8a2d066824bf3227d626fa2'),
    ('box', '((0|1)(0|1))*$x1$x2((0|1)(0|1))*',
     'c559c8545c6fce29072a05bfbcab0aba142cd249a6e174a37e82ae8c16107e69',
     '875194f92557050a65d08b20bcbb5a37845c2356f30028b58ce57ee9da300d62'),
    ('box', '(0|1)*$x1$x2(0|1)*',
     '0b632fbe91509df7dbb9c844af6bbd63c5b46145f7f9e5bbcd6605d1c99a9e0d',
     'c06ff09afa6924801699fde2a6feaa53cc5c32cb130979890ae6363885a0112d'),
]

# Certainty over domains, on the enumerate and the finitary route, where
# several sources of one $x edge start the same image's chain.
_DOMAIN_BUILD_NFA_DIGESTS = [
    ('box', '(0|1)*$x 1', '{"x": "01|1|_"}',
     'e664e2df7a5b36086fe0412c427ccdca11db242aac576b28f43749402b3618ac',
     '0ca9ba6be586f0cdc05d3c48437cc39631570eca55d72eb16b188d7ed52e98d1'),
    ('box', '(0|1)*$x(0|1)*|$y', '{"x": "01|10", "y": "1*"}',
     '9af332349a8c598f8e09cbdd284b37bb610f7ff80c4fd4b2de944336404f5e23',
     '8e42daeac15f77fbfcde1b08e43a580ed421e7991a21d012069438eacd3fc374'),
]
_PINNED = [(sem, expr, None, j, d) for sem, expr, j, d in _BUILD_NFA_DIGESTS]
_PINNED += _DOMAIN_BUILD_NFA_DIGESTS


class TestBuildNfa:
    def test_dot_output(self, runner):
        res = invoke(runner, "build-nfa", "--alphabet", "01", "--semantics", "diamond",
                     "--expr", "$x")
        assert res.exit_code == 0
        assert res.output.startswith("digraph")
        assert "doublecircle" in res.output

    def test_json_output(self, runner):
        res = invoke(runner, "build-nfa", "--alphabet", "01", "--semantics", "box",
                     "--expr", "(0|1)*$x$y(0|1)*", "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert set(data) == {"states", "initial", "finals", "transitions"}

    def test_out_file(self, runner, tmp_path):
        target = tmp_path / "nfa.dot"
        res = invoke(runner, "build-nfa", "--alphabet", "01", "--expr", "0|1",
                     "--out", str(target))
        assert res.exit_code == 0
        assert target.read_text().startswith("digraph")

    def test_state_cap_exits_2(self, runner):
        res = invoke(runner, "build-nfa", "--alphabet", "01", "--semantics", "box",
                     "--expr", "(0|1)*$x$y(0|1)*", "--max-states", "4")
        assert res.exit_code == 2

    @pytest.mark.parametrize("option", [["--witness"], ["--output", "json"]])
    def test_report_options_are_not_declared(self, runner, option):
        res = invoke(runner, "build-nfa", "--alphabet", "01", "--expr", "$x", *option)
        assert res.exit_code == 2
        assert "No such option" in res.output

    @pytest.mark.parametrize(
        "semantics,expr,domains,json_digest,dot_digest", _PINNED,
        ids=[f"{sem}-{expr}" + (f"-{doms}" if doms else "") for sem, expr, doms, _, _ in _PINNED],
    )
    def test_output_bytes_are_pinned(self, runner, tmp_path, semantics, expr, domains,
                                     json_digest, dot_digest):
        extra = []
        if domains is not None:
            spec = tmp_path / "domains.json"
            spec.write_text(domains)
            extra = ["--domains", str(spec)]
        for fmt, digest in (("json", json_digest), ("dot", dot_digest)):
            res = invoke(runner, "build-nfa", "--alphabet", "01", "--semantics", semantics,
                         "--expr", expr, "--format", fmt, *extra)
            assert res.exit_code == 0
            assert hashlib.sha256(res.stdout_bytes).hexdigest() == digest

    def test_certainty_caps_count_the_product_only(self, runner):
        # No instance is determinized on its own, so a cap that one
        # instance's subset construction passed lets the product answer,
        # or is passed by the product instead.
        res = invoke(runner, "build-nfa", "--alphabet", "01", "--semantics", "box",
                     "--expr", "$x$y", "--max-states", "1", "--format", "dot")
        assert (res.exit_code, res.stderr) == (0, "")
        assert res.stdout == (
            'digraph nfa {\n  rankdir=LR;\n  __start [shape=point, label=""];\n'
            '  q0 [shape=circle, label="q0"];\n  __start -> q0;\n}\n'
        )
        res = invoke(runner, "build-nfa", "--alphabet", "01", "--semantics", "box",
                     "--expr", "(0|1)*$x(0|1)*", "--max-states", "2")
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "error: product exceeded the cap of 2 states\n"

    def test_possibility_union_honours_the_state_cap(self, runner):
        # 8 instances of 8 states each, and the union's own start.
        args = ["build-nfa", "--alphabet", "01", "--semantics", "diamond",
                "--expr", "($x1$x2$x3)*", "--format", "json"]
        res = invoke(runner, *args, "--max-states", "65")
        assert (res.exit_code, res.stderr) == (0, "")
        assert json.loads(res.stdout)["states"] == 65
        res = invoke(runner, *args, "--max-states", "64")
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "error: union exceeded the cap of 64 states\n"

    def test_domains_construction(self, runner, tmp_path):
        spec = tmp_path / "domains.json"
        spec.write_text('{"x": "00|01"}')
        res = invoke(runner, "build-nfa", "--alphabet", "01", "--semantics", "diamond",
                     "--expr", "$x", "--domains", str(spec), "--format", "json")
        assert res.exit_code == 0
        data = json.loads(res.output)
        assert any(t[1] == {"letter": "0"} for t in data["transitions"])


class TestFamilyAndFooling:
    def test_family_output(self, runner):
        res = invoke(runner, "family", "--kind", "box-subword", "--n", "1")
        assert res.output == "(0|1)*$x1(0|1)*\n"
        res = invoke(runner, "family", "--kind", "diamond-power", "--n", "2")
        assert res.output == "($x1$x2)*\n"
        res = invoke(runner, "family", "--kind", "box-doubleexp", "--n", "1")
        assert res.output == "((0|1)(0|1))*$x1$x2((0|1)(0|1))*\n"

    @pytest.mark.parametrize("kind", ["box-subword", "box-doubleexp", "diamond-power"])
    def test_family_index_is_capped_at_the_repeat_limit(self, runner, kind):
        res = invoke(runner, "family", "--kind", kind, "--n", "10001")
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "error: n must be at most 10000\n"

    @pytest.mark.parametrize("kind", ["box", "diamond"])
    def test_fooling_verify_refuses_an_index_past_the_cap(self, runner, tmp_path, kind):
        path = tmp_path / "pairs.tsv"
        path.write_text("0\t0\n")
        res = invoke(runner, "fooling", "verify", "--kind", kind, "--n", "10001",
                     "--pairs", str(path))
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "error: n must be at most 10000\n"

    def test_fooling_generate(self, runner):
        res = invoke(runner, "fooling", "generate", "--kind", "diamond", "--n", "1")
        assert res.exit_code == 0
        assert res.output == "0\t0\n1\t1\n"

    def test_fooling_generate_to_file(self, runner, tmp_path):
        target = tmp_path / "pairs.tsv"
        res = invoke(runner, "fooling", "generate", "--kind", "box", "--n", "1",
                     "--out", str(target))
        assert res.exit_code == 0
        assert len(target.read_text().splitlines()) == 6

    def test_fooling_verify(self, runner):
        res = invoke(runner, "fooling", "verify", "--kind", "diamond", "--n", "2")
        assert res.exit_code == 0
        assert "at least 4 states" in res.output

    @pytest.mark.parametrize("n", [13, 16, 40])
    def test_fooling_box_count_is_refused_before_any_pair_is_built(self, runner, n):
        started = time.perf_counter()
        res = invoke(runner, "fooling", "verify", "--kind", "box", "--n", str(n))
        assert time.perf_counter() - started < 1
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == f"error: C(2^{n + 1}, 2^{n}) subset pairs exceed the cap of 100000\n"

    def test_fooling_verify_refuses_too_many_ordered_pairs(self, runner):
        started = time.perf_counter()
        res = invoke(runner, "fooling", "verify", "--kind", "box", "--n", "3")
        assert time.perf_counter() - started < 1
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "error: 165624030 ordered pairs exceed the cap of 10000000\n"

    def test_fooling_verify_rejects_wrong_pairs(self, runner, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("00\t00\n00\t11\n")
        res = invoke(runner, "fooling", "verify", "--kind", "diamond", "--n", "2",
                     "--pairs", str(bad))
        assert res.exit_code == 1
        assert "not verified" in res.output

    @pytest.mark.parametrize("kind,n,pairs,code,output", [
        ("diamond", 2, "00\t00\n01\t01\n10\t01\n", 1,
         "not verified: condition 1 fails at pair 2: 1001 not in the language\n"),
        ("box", 1, "00011011\t_\n_\t00011011\n", 1,
         "not verified: condition 2 fails at pairs j=0, i=1: "
         "0001101100011011 is in the language\n"),
        ("diamond", 1, "0\t2\n", 2, "error: letter '2' is not in the alphabet\n"),
        ("box", 1, "0\t2\n", 2, "error: letter '2' is not in the alphabet\n"),
        ("diamond", 30, "", 0, "verified: every NFA for this language needs at least 0 states\n"),
        ("box", 30, "0\t2\n", 2, "error: 2147483648 valuations exceed the cap of 1000000\n"),
    ], ids=["violating-diamond", "violating-box", "foreign-letter-diamond",
            "foreign-letter-box", "empty-file-compiles-nothing", "cap-before-letter"])
    def test_fooling_verify_pair_files(self, runner, tmp_path, kind, n, pairs, code, output):
        path = tmp_path / "pairs.tsv"
        path.write_text(pairs)
        res = invoke(runner, "fooling", "verify", "--kind", kind, "--n", str(n),
                     "--pairs", str(path))
        assert (res.exit_code, res.output) == (code, output)

    def test_fooling_box_verify(self, runner):
        res = invoke(runner, "fooling", "verify", "--kind", "box", "--n", "1")
        assert res.exit_code == 0
        assert "at least 6 states" in res.output


class TestDeterminismAndAgreement:
    def test_identical_invocations_identical_bytes(self, runner):
        args = ("universal", "--alphabet", "01", "--semantics", "box",
                "--expr", "($x|_)(0|1)*", "--witness", "--output", "json")
        first = invoke(runner, *args)
        second = invoke(runner, *args)
        assert first.output == second.output

    def test_cli_matches_library(self, runner):
        cases = [("box", "(0$x)*1($x$y)*", "1"), ("diamond", "$x$y", "01"),
                 ("box", "$x|0", "0"), ("diamond", "(00)*", "000")]
        for sem, expr, word in cases:
            res = invoke(runner, "member", "--alphabet", "01", "--semantics", sem,
                         "--expr", expr, "--word", word)
            want = membership(parse(expr, AB), word, AB,
                              BOX if sem == "box" else DIAMOND).answer
            assert (res.exit_code == 0) == want


def child_env() -> dict[str, str]:
    """The environment with the directory of the imported prx package first
    on ``PYTHONPATH``, so that a child interpreter imports the same one."""
    src = os.path.dirname(os.path.dirname(prx.__file__))
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "prx.cli", "member", "--alphabet", "01",
         "--semantics", "diamond", "--expr", "(0$x)*1($x$y)*", "--word", "01110"],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "true\n"


_NESTED = "(" * 400 + "0" + ")" * 400


def invoke_over_01(runner, tmp_path, domains, args):
    """Run ``args`` over the alphabet 01, with ``domains`` (JSON text) if given."""
    if domains is not None:
        spec = tmp_path / "domains.json"
        spec.write_text(domains)
        args = args + ["--domains", str(spec)]
    return invoke(runner, args[0], "--alphabet", "01", *args[1:])


class TestErrorsAndStreams:
    @pytest.mark.parametrize("domains,args", [
        pytest.param(
            "[" * 100_000 + "]" * 100_000,
            ["member", "--alphabet", "01", "--expr", "$x", "--word", "0"],
            id="json-nested-too-deeply",
        ),
        (None, ["member", "--alphabet", "01", "--expr", "0{10000}{10000}", "--word", "0"]),
        (None, ["build-nfa", "--alphabet", "01", "--expr", "$x",
                "--out", "/nonexistent_dir/x.dot"]),
    ])
    def test_errors_exit_2_without_a_traceback(self, tmp_path, domains, args):
        if domains is not None:
            spec = tmp_path / "domains.json"
            spec.write_text(domains)
            args = args + ["--domains", str(spec)]
        proc = subprocess.run([sys.executable, "-m", "prx.cli", *args],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: ")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("command,args", [
        ("universal", ["--expr", "$x"]),
        ("contains", ["--lhs", "$x", "--rhs", "$x"]),
        ("intersect", ["--expr", "$x", "--regular", "0"]),
        ("build-nfa", ["--expr", "$x"]),
    ])
    def test_fast_is_an_option_of_member_and_nonempty_only(self, runner, command, args):
        res = invoke(runner, command, "--alphabet", "01", *args, "--fast")
        assert res.exit_code == 2
        assert "No such option" in res.output

    @pytest.mark.parametrize("args", [
        ["member", "--semantics", "box", "--expr", "$x", "--word", "0",
         "--max-valuations", "1"],
        ["member", "--semantics", "diamond", "--expr", "($x$x)*", "--word", "1111",
         "--max-states", "2"],
        ["nonempty", "--semantics", "box", "--expr", "($x|0)($y|1)", "--max-valuations", "3"],
    ])
    def test_fast_routes_honour_the_caps(self, runner, args):
        res = invoke(runner, args[0], "--alphabet", "01", *args[1:], "--fast")
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ")
        assert res.stdout == ""

    @pytest.mark.parametrize("domains,args,code,output", [
        (None, ["member", "--expr", "0{3000}", "--word", "0"], 1, "false\n"),
        (None, ["member", "--expr", "0{10000}", "--word", "0"], 1, "false\n"),
        ('{"x": "0{3000}"}', ["member", "--expr", "$x", "--word", "0"], 1, "false\n"),
        ('{"x": "0{3000}"}', ["nonempty", "--expr", "$x", "--witness"], 0,
         "true\n" + "0" * 3000 + "\n"),
    ], ids=["member-3000", "member-10000", "member-domain-3000", "nonempty-domain-3000"])
    def test_long_repetitions_are_decided(self, runner, tmp_path, domains, args, code, output):
        res = invoke_over_01(runner, tmp_path, domains, args)
        assert (res.exit_code, res.output) == (code, output)

    @pytest.mark.parametrize("domains,args,code,output", [
        (None, ["member", "--expr", _NESTED, "--word", "0"], 0, "true\n"),
        (f'{{"x": "{_NESTED}"}}', ["member", "--expr", "$x", "--word", "0"], 0, "true\n"),
        (None, ["member", "--expr", "01" * 1000, "--word", "01" * 1000], 0, "true\n"),
        (None, ["member", "--expr", "|".join("01" * 1000), "--word", "1"], 0, "true\n"),
        (None, ["member", "--expr", "(" * 300 + "0" + ")*" * 300, "--word", "000"], 0,
         "true\n"),
        (None, ["member", "--semantics", "box", "--expr", "0$x" * 1500,
                "--word", "01" * 1500], 1, "false\n"),
    ], ids=["nested-400", "nested-domain-400", "word-2000", "union-2000", "stars-300",
            "chain-0x-1500"])
    def test_deep_and_long_expressions_are_decided(self, runner, tmp_path, domains, args,
                                                   code, output):
        res = invoke_over_01(runner, tmp_path, domains, args)
        assert (res.exit_code, res.output) == (code, output)

    @pytest.mark.parametrize("args", [
        ["contains", "--lhs", "0{20}", "--rhs", "(0|1)*"],
        ["intersect", "--expr", "0{20}", "--regular", "0*"],
    ])
    def test_products_honour_the_state_cap(self, runner, args):
        res = invoke(runner, args[0], "--alphabet", "01", "--semantics", "diamond",
                     *args[1:], "--max-states", "10")
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ")

    @pytest.mark.parametrize("args", [
        ["nonempty", "--semantics", "box", "--expr", "(0|1)*$x$y(0|1)*"],
        ["universal", "--semantics", "diamond", "--expr", "(0|1)*|$x$y$z"],
        ["contains", "--semantics", "box", "--lhs", "(0|1)*$x1$x2(0|1)*",
         "--rhs", "(0|1)*$x1$x2$x3(0|1)*"],
        ["universal", "--semantics", "box", "--expr", "_|(0|1)*(0|1)|$x$y$z"],
        ["nonempty", "--expr", "(0|1)*$x(0|1)*", "--domains", '{"x": "00|11"}'],
    ], ids=["nonempty-box", "universal-diamond", "contains-box", "universal-box",
            "nonempty-box-domains"])
    def test_mask_searches_honour_the_state_cap(self, runner, tmp_path, args):
        if "--domains" in args:
            spec = tmp_path / "domains.json"
            spec.write_text(args[-1])
            args = args[:-1] + [str(spec)]
        res = invoke(runner, args[0], "--alphabet", "01", *args[1:], "--max-states", "4")
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ")
        assert res.stdout == ""
        if "--domains" in args:
            assert res.stderr == "error: search exceeded the cap of 4 states\n"

    # Each search discovers ``states`` nodes on its way to the answer, so it
    # answers under that cap and is refused under one less.  The possibility
    # pair routes glue their union under the same cap first, and refuse
    # with "union exceeded" instead.
    @pytest.mark.parametrize("args,code,output,states", [
        (["nonempty", "--semantics", "box", "--expr", "(0|1)*$x1$x2$x3(0|1)*"],
         0, "true\n0001011100\n", 203),
        (["contains", "--semantics", "box", "--lhs", "(0|1)*$x1$x2(0|1)*",
          "--rhs", "(0|1)*$x1$x2$x3(0|1)*"], 1, "false\n00110\n", 34),
        (["intersect", "--semantics", "box", "--expr", "(0|1)*$x1$x2$x3(0|1)*",
          "--regular", "(0|1)*11"], 0, "true\n1100010111\n", 381),
        (["universal", "--semantics", "diamond", "--expr", "(_|0|1)(_|0|1)|(0|1)*$x$x(0|1)*"],
         1, "false\n010\n", 10),
    ], ids=["nonempty-box", "contains-box", "intersect-box", "universal-diamond"])
    def test_search_answers_at_its_state_count_and_not_below(self, runner, args, code,
                                                             output, states):
        args = [args[0], "--alphabet", "01", *args[1:], "--witness", "--max-states"]
        res = invoke(runner, *args, str(states))
        assert (res.exit_code, res.output) == (code, output)
        res = invoke(runner, *args, str(states - 1))
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == f"error: search exceeded the cap of {states - 1} states\n"

    @pytest.mark.parametrize("args", [
        ["nonempty", "--expr", "$x$y", "--domains", '{"x": "0|1", "y": "00|11"}'],
        ["contains", "--lhs", "$x$y", "--rhs", "(0|1)*"],
        ["intersect", "--expr", "$x$y", "--regular", "(0|1)*"],
    ], ids=["nonempty-domains", "contains", "intersect"])
    def test_possibility_unions_honour_the_state_cap(self, runner, tmp_path, args):
        # Over letters the union of $x$y has 4 instances of 4 states each
        # and its own start: 17 states.
        domains = args[-1] if "--domains" in args else None
        if domains is not None:
            args = args[:-2]
        res = invoke_over_01(runner, tmp_path, domains,
                             [*args, "--semantics", "diamond", "--max-states", "16"])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "error: union exceeded the cap of 16 states\n"
        if domains is None:
            res = invoke_over_01(runner, tmp_path, None,
                                 [*args, "--semantics", "diamond", "--max-states", "17"])
            assert (res.exit_code, res.stdout) == (0, "true\n")

    def test_an_empty_witness_read_off_the_union_still_honours_the_state_cap(
            self, runner, tmp_path):
        # The union's start is final, as x and y may both stand for the
        # empty word, so the search answers _ at once.  Its instances have
        # the 4 states of $x$y, 2 more where x stands for 01: 4 + 4 + 6 + 6
        # and the start, 21 states.
        args = ["nonempty", "--semantics", "diamond", "--expr", "$x$y", "--witness"]
        domains = '{"x": "_|01", "y": "_|1"}'
        res = invoke_over_01(runner, tmp_path, domains, [*args, "--max-states", "21"])
        assert (res.exit_code, res.output) == (0, "true\n_\n")
        res = invoke_over_01(runner, tmp_path, domains, [*args, "--max-states", "20"])
        assert (res.exit_code, res.stdout) == (2, "")
        assert res.stderr == "error: union exceeded the cap of 20 states\n"

    def test_universal_box_checks_the_valuation_cap_before_searching(self, runner):
        # At --max-states 1 the search itself would be refused; the 8
        # valuations are refused first.
        res = invoke(runner, "universal", "--alphabet", "01", "--semantics", "box",
                     "--expr", "(0|1)*|$x$y$z", "--max-valuations", "7", "--max-states", "1")
        assert res.exit_code == 2
        assert res.stderr == "error: 8 valuations exceed the cap of 7\n"
        assert res.stdout == ""

    def test_in_process_calls_keep_no_captured_stream(self):
        refs = []
        for args in (["member", "--alphabet", "01", "--expr", "$x", "--word", "0"],
                     ["member", "--alphabet", "01", "--expr", "(", "--word", "0"]):
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err), pytest.raises(SystemExit):
                main(args, standalone_mode=False)
            assert out.getvalue() or err.getvalue()
            refs += [weakref.ref(out), weakref.ref(err)]
            del out, err
        gc.collect()
        assert [ref() for ref in refs] == [None] * len(refs)


_TOKENS = ["0", "1", "2", "$x", "$y", "(", ")", "|", "*", "_", "{2}"]
# Well-formed expressions most of the time, token soup otherwise.
_wellformed = st.recursive(
    st.sampled_from(["0", "1", "2", "$x", "$y", "_"]),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map("".join),
        st.tuples(inner, inner).map(lambda pair: f"({pair[0]}|{pair[1]})"),
        inner.map(lambda text: f"({text})*"),
        inner.map(lambda text: f"({text}){{2}}"),
    ),
    max_leaves=5,
)
_texts = st.one_of(
    _wellformed, st.lists(st.sampled_from(_TOKENS), max_size=8).map("".join)
).filter(lambda text: len(text) <= 12)


@settings(max_examples=300, deadline=None)
@given(
    command=st.sampled_from(["member", "nonempty", "universal", "contains", "intersect",
                             "build-nfa"]),
    semantics=st.sampled_from(["box", "diamond"]),
    letters=st.sampled_from(["01", "012"]),
    first=_texts,
    second=_texts,
    word=st.text(alphabet="012", max_size=6),
    fast=st.booleans(),
    witness=st.booleans(),
)
def test_cli_exits_0_1_or_2_and_never_with_a_traceback(
    command, semantics, letters, first, second, word, fast, witness
):
    args = [command, "--alphabet", letters, "--semantics", semantics]
    if command == "member":
        args += ["--expr", first, "--word", word or "_"]
    elif command == "contains":
        args += ["--lhs", first, "--rhs", second]
    elif command == "intersect":
        args += ["--expr", first, "--regular", second]
    else:
        args += ["--expr", first]
    if fast and command in ("member", "nonempty"):
        args.append("--fast")
    if witness and command != "build-nfa":
        args.append("--witness")
    # An exception that escapes the command fails the test with its traceback.
    res = CliRunner().invoke(main, args, catch_exceptions=False)
    assert res.exit_code in (0, 1, 2)
    assert "Traceback" not in res.stderr


# ---------------------------------------------------------------------------
# The option table: well-formed calls split without click's parser

_LEAVES = ["member", "nonempty", "universal", "contains", "intersect", "build-nfa", "family"]
_EXPRS = ["0", "_", "$x", "$x$y", "(0|1)*", "(0$x)*1", "($x|0)($y|1)", "0{2}$x", "2$x", "("]
_BAD_INTS = ["0", "-1", "1_0", " 5", "+3", "abc"]


def _call(rng: random.Random, files: dict[str, str]) -> tuple[str, list[list[str]]]:
    """A corpus-style call of a leaf command: its name and its option pairs."""
    cmd = rng.choice(_LEAVES)
    if cmd == "family":
        kinds = ["box-subword", "box-doubleexp", "diamond-power"]
        return cmd, [["--kind", rng.choice(kinds)], ["--n", str(rng.randint(1, 2))]]
    names = {"contains": ["--lhs", "--rhs"], "intersect": ["--expr", "--regular"]}
    pairs = [["--alphabet", rng.choice(["01", "012"])]]
    pairs += [[name, rng.choice(_EXPRS)] for name in names.get(cmd, ["--expr"])]
    if cmd == "member":
        pairs.append(["--word", rng.choice(["_", "0", "01", "110"])])
    optional = [
        ["--semantics", rng.choice(["box", "diamond"])],
        ["--domains", files["domains"]],
        ["--max-valuations", str(rng.choice([1, 4, 1000]))],
        ["--max-states", str(rng.choice([1, 4, 65536]))],
        ["--max-words", str(rng.choice([1, 10]))],
    ]
    if cmd == "build-nfa":
        optional += [["--format", rng.choice(["dot", "json"])], ["--out", files["out"]]]
    else:
        optional += [["--witness"], ["--output", rng.choice(["text", "json"])]]
    if cmd in ("member", "nonempty"):
        optional.append(["--fast"])
    pairs += rng.sample(optional, rng.randint(0, len(optional)))
    rng.shuffle(pairs)
    return cmd, pairs


def _mutate(rng: random.Random, pairs: list[list[str]], files: dict[str, str]) -> list[str]:
    """The option tokens of ``pairs`` after one seeded mutation, most of
    which make the call one that click refuses or answers with help."""
    pairs = [list(pair) for pair in pairs]
    at = rng.randrange(len(pairs))
    kind = rng.choice(["drop", "duplicate", "shuffle", "equals", "help", "dashdash",
                       "positional", "int", "choice", "domains", "no-value", "unknown"])
    if kind == "drop":
        del pairs[at]
    elif kind == "duplicate":
        pairs.append(list(pairs[at]))
    elif kind == "shuffle":
        rng.shuffle(pairs)
    elif kind == "equals" and len(pairs[at]) == 2:
        pairs[at] = ["=".join(pairs[at])]
    elif kind in ("help", "dashdash", "positional", "unknown"):
        pairs.insert(at, [{"help": "--help", "dashdash": "--", "positional": "extra",
                           "unknown": "--nosuch"}[kind]])
    elif kind in ("int", "choice", "domains"):
        names = {"int": ["--n"] if pairs[0][0] in ("--kind", "--n") else
                 ["--max-valuations", "--max-states", "--max-words"],
                 "choice": ["--kind"] if pairs[0][0] in ("--kind", "--n") else
                 ["--semantics", "--output", "--format"],
                 "domains": ["--domains"]}[kind]
        name = rng.choice(names)
        value = {"int": rng.choice(_BAD_INTS), "choice": "Box",
                 "domains": rng.choice([files["missing"], files["dir"]])}[kind]
        pairs = [pair for pair in pairs if pair[0] != name]
        pairs.insert(at, [name, value])
    tokens = [token for pair in pairs for token in pair]
    if kind == "no-value" and len(pairs[-1]) == 2:
        tokens.pop()
    return tokens


def _vectors(seed: int, files: dict[str, str], calls: int) -> list[list[str]]:
    """``calls`` well-formed calls, each followed by six mutations of it."""
    rng = random.Random(seed)
    vectors = []
    for _ in range(calls):
        cmd, pairs = _call(rng, files)
        vectors.append([cmd, *(token for pair in pairs for token in pair)])
        vectors += [[cmd, *_mutate(rng, pairs, files)] for _ in range(6)]
    return vectors


_EXTRA = [[], ["--help"], ["--x=y"], ["nosuch"], ["member"], ["member", "--help"],
          ["fooling"], ["fooling", "--help"], ["fooling", "generate", "--kind", "diamond",
                                               "--n", "1"]]


@pytest.fixture(scope="module")
def table_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("table")
    (root / "domains.json").write_text('{"x": "0|11"}')
    return {"domains": str(root / "domains.json"), "out": str(root / "out.txt"),
            "missing": str(root / "missing.json"), "dir": str(root)}


class TestOptionTable:
    def test_every_option_of_every_leaf_command_is_taken(self):
        uncovered = [f"{name} {p.opts}" for name in _LEAVES
                     for p in main.commands[name].params if not _splittable(p)]
        assert uncovered == []
        assert sorted(main._table) == sorted(_LEAVES)

    def test_the_table_splits_as_click_parses(self, table_files):
        accepted = 0
        for i, (name, *tokens) in enumerate(_vectors(1, table_files, 500)):
            kwargs = main._split(name, tokens)
            if i % 7 == 0:  # a well-formed call
                assert kwargs is not None, [name, *tokens]
            try:
                with redirect_stdout(io.StringIO()):
                    params = main.commands[name].make_context(name, list(tokens)).params
            except (click.UsageError, click.exceptions.Exit):
                assert kwargs is None, [name, *tokens]
                continue
            if kwargs is not None:
                accepted += 1
                assert kwargs == params, [name, *tokens]
        # Every well-formed call, and the mutations that keep it one.
        assert accepted > 900

    def test_output_is_click_output_byte_for_byte(self, table_files, monkeypatch):
        out = table_files["out"]

        def run(args):
            if os.path.exists(out):
                os.remove(out)
            res = CliRunner().invoke(main, args, prog_name="prx")
            written = None
            if os.path.exists(out):
                with open(out, encoding="utf-8") as fh:
                    written = fh.read()
            return res.exit_code, res.stdout, res.stderr, written, res.exception

        vectors = _vectors(3, table_files, 400) + _EXTRA
        split = [run(args) for args in vectors]
        monkeypatch.setattr(type(main), "_split", lambda self, name, tokens: None)
        parsed = [run(args) for args in vectors]
        for args, a, b in zip(vectors, split, parsed):
            assert a[:4] == b[:4], args
            assert isinstance(a[4], (type(None), SystemExit)), args
        assert {code for code, *_ in split} == {0, 1, 2}

    def test_bash_completion_goes_through_click(self, monkeypatch, capsys):
        monkeypatch.setenv("_PRX_COMPLETE", "bash_complete")
        for words, cword, want in (("prx member --al", "2", "plain,--alphabet\n"),
                                   ("prx member --semantics ", "3",
                                    "plain,box\nplain,diamond\n")):
            monkeypatch.setenv("COMP_WORDS", words)
            monkeypatch.setenv("COMP_CWORD", cword)
            with pytest.raises(SystemExit) as stop:
                main(prog_name="prx")
            assert stop.value.code == 0
            assert capsys.readouterr().out == want
