"""Tests for the command-line interface."""

from __future__ import annotations

import gc
import io
import json
import subprocess
import sys
import weakref
from contextlib import redirect_stderr, redirect_stdout

import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from prx.cli import main
from prx.semantics import BOX, DIAMOND, membership
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
        spec.write_text('{"x": "0|1"}')
        res = invoke(runner, "nonempty", "--alphabet", "01", "--expr", "($x|_)1*",
                     "--domains", str(spec), "--output", "json")
        assert json.loads(res.output)["stats"] == {"valuations": 2, "states": 3}


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

    def test_fooling_verify_rejects_wrong_pairs(self, runner, tmp_path):
        bad = tmp_path / "bad.tsv"
        bad.write_text("00\t00\n00\t11\n")
        res = invoke(runner, "fooling", "verify", "--kind", "diamond", "--n", "2",
                     "--pairs", str(bad))
        assert res.exit_code == 1
        assert "not verified" in res.output

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


def test_console_script_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "prx.cli", "member", "--alphabet", "01",
         "--semantics", "diamond", "--expr", "(0$x)*1($x$y)*", "--word", "01110"],
        capture_output=True, text=True,
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
                              capture_output=True, text=True)
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
    ], ids=["nonempty-box", "universal-diamond", "contains-box"])
    def test_mask_searches_honour_the_state_cap(self, runner, args):
        res = invoke(runner, args[0], "--alphabet", "01", *args[1:], "--max-states", "4")
        assert res.exit_code == 2
        assert res.stderr.startswith("error: ")
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
