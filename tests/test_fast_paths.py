"""Tests for the specialized fixed-word and star-free procedures."""

from __future__ import annotations

import random

import pytest
from click.testing import CliRunner

from prx.automata import regex_to_nfa, remove_epsilon
from prx.cli import main
from prx.errors import CountCapExceeded, PreconditionViolated, StateCapExceeded
from prx.fast_paths import (
    SearchState,
    membership_diamond_fixed_word,
    membership_diamond_simple_sh0,
)
from prx.semantics import BOX, DIAMOND, membership, nonemptiness
from prx.syntax import Alphabet, is_simple, parse, print_regex
from prx.valuations import apply_to_nfa

import oracles

AB = Alphabet("01")


def fast_nonempty(text):
    """``prx nonempty --fast --witness`` over 01 under box, in process."""
    return CliRunner().invoke(
        main, ["nonempty", "--alphabet", "01", "--expr", text, "--fast", "--witness"]
    )


def random_simple(rng, alphabet, var_pool, budget, star_allowed=True):
    """Rejection-sample until each variable occurs at most once."""
    while True:
        e = oracles.random_expr(rng, alphabet, var_pool, budget, star_allowed=star_allowed)
        if is_simple(e):
            return e


class TestMembershipBoxFixedWord:
    """Certainty membership of simple expressions, as ``member --fast`` decides it."""

    def test_variable_pair(self):
        assert membership(parse("$x$y", AB), "10", AB, BOX).answer is False

    def test_variable_free_star(self):
        assert membership(parse("(0|1)*", AB), "01", AB, BOX).answer is True

    def test_union_of_variables(self):
        assert membership(parse("$x|$y", AB), "0", AB, BOX).answer is False


class TestMembershipDiamondFixedWord:
    def test_possibility_witness(self):
        e = parse("(0$x)*1($x$y)*", AB)
        found, nu = membership_diamond_fixed_word(e, "01110", AB)
        assert found is True
        assert nu["x"] == "1"
        assert nu["y"] == "0"

    def test_repeated_variable_consistency(self):
        e = parse("$x$x", AB)
        assert membership_diamond_fixed_word(e, "01", AB) == (False, None)
        found, nu = membership_diamond_fixed_word(e, "00", AB)
        assert found is True
        assert nu["x"] == "0"

    def test_valuation_verifies(self):
        rng = random.Random(5105)
        base_words = sorted(oracles.all_words(AB, 5))
        for _ in range(40):
            e = oracles.random_expr(rng, AB, ("x", "y", "z"), budget=8)
            a = remove_epsilon(regex_to_nfa(e, AB))
            w = rng.choice(base_words)
            found, nu = membership_diamond_fixed_word(e, w, AB)
            if found:
                assert oracles.nfa_accepts_word(apply_to_nfa(nu, a), w)
            else:
                assert nu is None

    def test_agreement_with_general_membership(self):
        rng = random.Random(5106)
        for _ in range(30):
            e = oracles.random_expr(rng, AB, ("x", "y", "z"), budget=8)
            for w in ("", "1", "00", "101", "0110"):
                found, _ = membership_diamond_fixed_word(e, w, AB)
                assert found == membership(e, w, AB, DIAMOND).answer

    def test_many_variables_beyond_word_length(self):
        # More variables than letters in the word: most stay unbound.
        e = parse("($a|$b|$c|$d)$e", AB)
        found, nu = membership_diamond_fixed_word(e, "01", AB)
        assert found is True
        assert set(nu.names()) == {"a", "b", "c", "d", "e"}

    def test_state_cap_counts_search_nodes(self):
        # Five nodes: the start and one binding x = 1 per position.
        e = parse("($x$x)*", AB)
        assert membership_diamond_fixed_word(e, "1111", AB, state_cap=5)[0] is True
        with pytest.raises(StateCapExceeded, match="cap of 4 states"):
            membership_diamond_fixed_word(e, "1111", AB, state_cap=4)

    def test_search_state_is_hashable(self):
        s = SearchState(0, (("x", "0"),))
        assert s.image("x") == "0"
        assert s.image("y") is None
        assert len({s, SearchState(0, (("x", "0"),))}) == 1


class TestMembershipDiamondSimpleSh0:
    def test_wildcard_pair(self):
        assert membership_diamond_simple_sh0(parse("$x$y", AB), "10", AB) is True

    def test_sandwiched_variable(self):
        assert membership_diamond_simple_sh0(parse("0$x 1", AB), "011", AB) is True
        assert membership_diamond_simple_sh0(parse("0$x 1", AB), "111", AB) is False

    def test_preconditions(self):
        with pytest.raises(PreconditionViolated):
            membership_diamond_simple_sh0(parse("$x$x", AB), "00", AB)
        with pytest.raises(PreconditionViolated):
            membership_diamond_simple_sh0(parse("$x*", AB), "00", AB)

    def test_agreement_with_binding_search(self):
        rng = random.Random(5107)
        for _ in range(50):
            e = random_simple(rng, AB, ("x", "y", "z"), budget=7, star_allowed=False)
            for w in ("", "0", "10", "011", "1100"):
                got = membership_diamond_simple_sh0(e, w, AB)
                assert got == membership_diamond_fixed_word(e, w, AB)[0]


class TestNonemptinessBoxSh0:
    """``nonempty --fast`` refuses starred expressions and otherwise runs
    :func:`nonemptiness`, which the cases below call directly."""

    def test_single_variable_empty(self):
        rep = nonemptiness(parse("$x", AB), AB, BOX)
        assert (rep.answer, rep.witness) == (False, None)

    def test_plain_union(self):
        rep = nonemptiness(parse("0|1", AB), AB, BOX)
        assert (rep.answer, rep.witness) == (True, "0")

    def test_branch_cover(self):
        e = parse("($x|0)($y|1)", AB)
        rep = nonemptiness(e, AB, BOX)
        assert (rep.answer, rep.witness) == (True, "01")
        with pytest.raises(CountCapExceeded):
            nonemptiness(e, AB, BOX, valuation_cap=3)

    def test_rejects_stars(self):
        res = fast_nonempty("(0|1)*")
        assert res.exit_code == 2
        assert res.stderr == "error: expected a star-free expression\n"

    def test_agreement_with_general_nonemptiness(self):
        rng = random.Random(5108)
        for _ in range(40):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=7, star_allowed=False)
            res = fast_nonempty(print_regex(e))
            got = res.exit_code == 0
            witness = res.stdout.splitlines()[1] if got else None
            want = nonemptiness(e, AB, BOX)
            assert got == want.answer
            if got:
                assert membership(e, "" if witness == "_" else witness, AB, BOX).answer
