"""Tests for the specialized fixed-word and star-free procedures."""

from __future__ import annotations

import gc
import random
import tracemalloc

import pytest

from prx.automata import regex_to_nfa, remove_epsilon
from prx.errors import NotSimple, PreconditionViolated
from prx.fast_paths import (
    SearchState,
    WordSet,
    check_simple_memb_box,
    membership_box_fixed_word,
    membership_diamond_fixed_word,
    membership_diamond_simple_sh0,
    nonemptiness_box_sh0,
)
from prx.semantics import BOX, DIAMOND, membership, nonemptiness
from prx.syntax import Alphabet, is_simple, parse, star_height, variables
from prx.valuations import apply_to_nfa

import oracles

AB = Alphabet("01")
ABC = Alphabet("012")


def random_simple(rng, alphabet, var_pool, budget, star_allowed=True):
    """Rejection-sample until each variable occurs at most once."""
    while True:
        e = oracles.random_expr(rng, alphabet, var_pool, budget, star_allowed=star_allowed)
        if is_simple(e):
            return e


def brute_avoidable(e, words, alphabet):
    """Reference for the avoidance check: try every valuation directly."""
    names = variables(e)
    for nu in oracles.letter_valuations(names, alphabet):
        inst = oracles.substitute(e, nu)
        if all(not oracles.matches(inst, w) for w in words):
            return True
    return False


class TestWordSet:
    def test_shortlex_canonical_order(self):
        ws = WordSet(["10", "0", "", "1", "00"], AB)
        assert ws.words == ("", "0", "1", "00", "10")

    def test_deduplication_and_equality(self):
        a = WordSet(["01", "1", "01"], AB)
        b = WordSet(["1", "01"], AB)
        assert a == b
        assert hash(a) == hash(b)
        assert len(a) == 2

    def test_alphabet_order_not_codepoint_order(self):
        rev = Alphabet("10")
        ws = WordSet(["0", "1"], rev)
        assert ws.words == ("1", "0")

    def test_membership_and_iteration(self):
        ws = WordSet(["0", "11"], AB)
        assert "11" in ws
        assert "1" not in ws
        assert list(ws) == ["0", "11"]

    def test_foreign_letter_rejected(self):
        with pytest.raises(ValueError):
            WordSet(["2"], AB)


class TestCheckSimpleMembBox:
    def test_letter_case(self):
        assert check_simple_memb_box(parse("0", AB), WordSet(["0"], AB)) is False
        assert check_simple_memb_box(parse("0", AB), WordSet(["1"], AB)) is True

    def test_variable_case(self):
        assert check_simple_memb_box(parse("$x", AB), WordSet(["0"], AB)) is True
        assert check_simple_memb_box(parse("$x", AB), WordSet(["0", "1"], AB)) is False

    def test_pair_covers_all_two_letter_words(self):
        ws = WordSet(["00", "01", "10", "11"], AB)
        assert check_simple_memb_box(parse("$x$y", AB), ws) is False

    def test_union_needs_both_branches(self):
        # One valuation must steer both branches away at once.
        ws = WordSet(["0"], AB)
        assert check_simple_memb_box(parse("$x|$y", AB), ws) is True
        ws = WordSet(["0", "1"], AB)
        assert check_simple_memb_box(parse("$x|$y", AB), ws) is False

    def test_star_case(self):
        # (0)* always contains epsilon and 00.
        assert check_simple_memb_box(parse("0*", AB), WordSet([""], AB)) is False
        assert check_simple_memb_box(parse("0*", AB), WordSet(["00"], AB)) is False
        assert check_simple_memb_box(parse("0*", AB), WordSet(["01"], AB)) is True
        # ($x)* can dodge any single nonempty word over a two-letter alphabet.
        assert check_simple_memb_box(parse("$x*", AB), WordSet(["010"], AB)) is True

    def test_rejects_repeated_variables(self):
        with pytest.raises(NotSimple):
            check_simple_memb_box(parse("$x$x", AB), WordSet(["00"], AB))

    def test_canonicalization_makes_order_irrelevant(self):
        e = parse("($x|1)(0|$y)*", AB)
        forward = check_simple_memb_box(e, WordSet(["10", "0", "110"], AB))
        backward = check_simple_memb_box(e, WordSet(["110", "0", "10"], AB))
        assert forward == backward

    def test_brute_force_agreement(self):
        rng = random.Random(5101)
        pool = sorted(oracles.all_words(AB, 3))
        for _ in range(60):
            e = random_simple(rng, AB, ("x", "y", "z"), budget=7)
            words = rng.sample(pool, k=rng.randint(1, 3))
            got = check_simple_memb_box(e, WordSet(words, AB))
            assert got == brute_avoidable(e, words, AB)

    def test_brute_force_agreement_three_letters(self):
        rng = random.Random(5102)
        pool = sorted(oracles.all_words(ABC, 2))
        for _ in range(40):
            e = random_simple(rng, ABC, ("x", "y"), budget=6)
            words = rng.sample(pool, k=rng.randint(1, 3))
            got = check_simple_memb_box(e, WordSet(words, ABC))
            assert got == brute_avoidable(e, words, ABC)


class TestMembershipBoxFixedWord:
    def test_variable_pair(self):
        assert membership_box_fixed_word(parse("$x$y", AB), "10", AB) is False

    def test_variable_free_star(self):
        assert membership_box_fixed_word(parse("(0|1)*", AB), "01", AB) is True

    def test_union_of_variables(self):
        assert membership_box_fixed_word(parse("$x|$y", AB), "0", AB) is False

    def test_agreement_with_general_membership(self):
        rng = random.Random(5103)
        for _ in range(40):
            e = random_simple(rng, AB, ("x", "y"), budget=7)
            for w in ("", "0", "11", "010", "0110"):
                assert membership_box_fixed_word(e, w, AB) == membership(e, w, AB, BOX).answer

    def test_agreement_on_longer_words(self):
        rng = random.Random(5104)
        for _ in range(10):
            e = random_simple(rng, AB, ("x", "y"), budget=8)
            w = "".join(rng.choice("01") for _ in range(8))
            assert membership_box_fixed_word(e, w, AB) == membership(e, w, AB, BOX).answer

    def test_repeated_calls_hold_no_memory_without_the_cyclic_collector(self):
        # Each call's memo tables must be freed when it returns, not left to
        # the cyclic collector.  What may stay behind (allocator free lists,
        # the nested functions) is a fraction of what a single call uses.
        e, w = parse("(0$x|1)*(1|$y0)*", AB), "0101101"
        was_enabled = gc.isenabled()
        gc.disable()
        tracemalloc.start()
        try:
            for _ in range(10):
                membership_box_fixed_word(e, w, AB)
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            membership_box_fixed_word(e, w, AB)
            one_call = tracemalloc.get_traced_memory()[1] - before
            before = tracemalloc.get_traced_memory()[0]
            for _ in range(20):
                membership_box_fixed_word(e, w, AB)
            grown = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
            if was_enabled:
                gc.enable()
        assert grown < one_call


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
    def test_single_variable_empty(self):
        assert nonemptiness_box_sh0(parse("$x", AB), AB) == (False, None)

    def test_plain_union(self):
        assert nonemptiness_box_sh0(parse("0|1", AB), AB) == (True, "0")

    def test_branch_cover(self):
        e = parse("($x|0)($y|1)", AB)
        assert nonemptiness_box_sh0(e, AB) == (True, "01")

    def test_rejects_stars(self):
        with pytest.raises(PreconditionViolated):
            nonemptiness_box_sh0(parse("(0|1)*", AB), AB)

    def test_agreement_with_general_nonemptiness(self):
        rng = random.Random(5108)
        for _ in range(40):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=7, star_allowed=False)
            got, witness = nonemptiness_box_sh0(e, AB)
            want = nonemptiness(e, AB, BOX)
            assert got == want.answer
            if got:
                assert membership(e, witness, AB, BOX).answer
