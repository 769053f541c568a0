"""Tests for expression families, the combinator, and fooling sets."""

from __future__ import annotations

import math
import random
import time

import pytest

from prx.automata import is_empty
from prx.constructions import (
    FoolingSet,
    family_box_doubleexp,
    family_box_subword,
    family_diamond_power,
    fooling_pairs_box,
    fooling_pairs_diamond,
    lemma3_combine,
    verify_fooling_set,
)
from prx.errors import CountCapExceeded
from prx.semantics import BOX, DIAMOND, construct_nfa, membership, nonemptiness
from prx.syntax import Alphabet, parse, print_regex, variables

import oracles
from reference_automata import product_all

AB = Alphabet("01")


class TestFoolingSet:
    def test_round_trip_tsv(self):
        fs = FoolingSet((("", "0"), ("1", ""), ("01", "10")))
        text = fs.to_tsv()
        assert text == "_\t0\n1\t_\n01\t10\n"
        assert FoolingSet.from_tsv(text) == fs

    def test_blank_lines_skipped(self):
        fs = FoolingSet.from_tsv("0\t1\n\n1\t0\n")
        assert fs.pairs == (("0", "1"), ("1", "0"))

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            FoolingSet.from_tsv("0 1\n")

    def test_duplicate_pairs_rejected(self):
        with pytest.raises(ValueError):
            FoolingSet((("0", "1"), ("0", "1")))


class TestLemma3Combine:
    def test_single_expression_identity(self):
        e = parse("$x(0|1)", AB)
        combined, alpha = lemma3_combine([e], AB)
        assert combined is e
        assert alpha is AB

    def test_intersecting_singletons(self):
        letters = Alphabet("ab")
        e1, e2 = parse("a", letters), parse("a", letters)
        combined, alpha = lemma3_combine([e1, e2], letters)
        assert alpha == letters
        assert nonemptiness(combined, alpha, BOX).answer is True

    def test_disjoint_singletons(self):
        letters = Alphabet("ab")
        e1, e2 = parse("a", letters), parse("b", letters)
        combined, _ = lemma3_combine([e1, e2], letters)
        assert nonemptiness(combined, letters, BOX).answer is False

    def test_fresh_variables_avoid_collisions(self):
        e1 = parse("$L3_1", AB)
        e2 = parse("0", AB)
        combined, _ = lemma3_combine([e1, e2], AB)
        names = variables(combined)
        assert "L3_1" in names  # the original survives
        assert any(n.startswith("L3_") and n != "L3_1" for n in names)

    def test_single_letter_alphabet(self):
        single = Alphabet("0")
        overlapping = [parse("0$x", single), parse("$x 0", single)]
        combined, wider = lemma3_combine(overlapping, single)
        assert len(wider) == 2
        assert wider.letters[0] == "0"
        assert nonemptiness(combined, wider, BOX).answer is True

        disjoint = [parse("0", single), parse("00", single)]
        combined, wider = lemma3_combine(disjoint, single)
        assert nonemptiness(combined, wider, BOX).answer is False

    def test_emptiness_equivalence_random(self):
        rng = random.Random(6101)
        for _ in range(20):
            k = rng.randint(2, 3)
            es = [oracles.random_expr(rng, AB, ("x", "y"), budget=4) for _ in range(k)]
            parts = [construct_nfa(e, AB, BOX) for e in es]
            direct_empty, _ = is_empty(product_all(parts))
            combined, alpha = lemma3_combine(es, AB)
            assert nonemptiness(combined, alpha, BOX).answer == (not direct_empty)


class TestFamilies:
    @pytest.mark.parametrize("build", [family_box_subword, family_box_doubleexp,
                                       family_diamond_power])
    def test_index_runs_from_one_to_the_repeat_limit(self, build):
        for n, text in ((0, "n must be positive"), (10001, "n must be at most 10000")):
            with pytest.raises(ValueError) as info:
                build(n)
            assert str(info.value) == text
        assert build(10000) is not None

    def test_box_subword_shape(self):
        assert print_regex(family_box_subword(1)) == "(0|1)*$x1(0|1)*"
        assert family_box_subword(2) == parse("(0|1)*$x1$x2(0|1)*", AB)
        with pytest.raises(ValueError):
            family_box_subword(0)

    def test_box_doubleexp_shape(self):
        assert family_box_doubleexp(1) == parse("((0|1){2})*$x1$x2((0|1){2})*", AB)
        for n in (1, 2, 3):
            assert len(variables(family_box_doubleexp(n))) == n + 1

    def test_diamond_power_shape(self):
        assert family_diamond_power(2) == parse("($x1$x2)*", AB)
        assert variables(family_diamond_power(3)) == ("x1", "x2", "x3")

    def test_box_subword_shortest_witnesses(self):
        # The shortest certainty word packs all 2^n n-grams into a
        # de Bruijn-style superstring of length 2^n + n - 1.
        for n, length in ((1, 2), (2, 5), (3, 10)):
            rep = nonemptiness(family_box_subword(n), AB, BOX)
            assert rep.answer is True
            w = rep.witness
            assert len(w) == length
            grams = {w[i : i + n] for i in range(len(w) - n + 1)}
            assert len(grams) == 2**n
        assert nonemptiness(family_box_subword(2), AB, BOX).witness == "00110"

    def test_box_doubleexp_membership(self):
        e = family_box_doubleexp(1)
        assert membership(e, "00011011", AB, BOX).answer is True
        assert membership(e, "0001", AB, BOX).answer is False

    def test_diamond_power_membership(self):
        e = family_diamond_power(2)
        assert membership(e, "0101", AB, DIAMOND).answer is True
        assert membership(e, "0110", AB, DIAMOND).answer is False
        assert membership(e, "", AB, DIAMOND).answer is True


class TestFoolingPairs:
    def test_diamond_pairs(self):
        fs = fooling_pairs_diamond(2)
        assert fs.pairs == (("00", "00"), ("01", "01"), ("10", "10"), ("11", "11"))
        assert len(fooling_pairs_diamond(3)) == 8

    def test_box_pair_count(self):
        assert len(fooling_pairs_box(1)) == 6

    def test_box_pairs_partition_blocks(self):
        for u, v in fooling_pairs_box(1):
            blocks = {u[i : i + 2] for i in range(0, len(u), 2)}
            rest = {v[i : i + 2] for i in range(0, len(v), 2)}
            assert blocks | rest == {"00", "01", "10", "11"}
            assert blocks.isdisjoint(rest)

    def test_caps(self):
        with pytest.raises(CountCapExceeded):
            fooling_pairs_box(4)
        with pytest.raises(CountCapExceeded):
            fooling_pairs_diamond(3, pair_cap=4)
        # Up to n = 12 the refusal prints the exact count; past it the
        # count is refused before it, or any pair, is built.
        with pytest.raises(CountCapExceeded, match=r"^601080390 subset pairs exceed the cap "
                           r"of 100000 \(practical up to n=2\)$"):
            fooling_pairs_box(4)
        with pytest.raises(CountCapExceeded, match=f"^{math.comb(8192, 4096)} subset pairs"):
            fooling_pairs_box(12)
        for n in (13, 16, 40):
            started = time.perf_counter()
            with pytest.raises(CountCapExceeded,
                               match=rf"^C\(2\^{n + 1}, 2\^{n}\) subset pairs exceed the cap "
                                     r"of 100000$"):
                fooling_pairs_box(n)
            assert time.perf_counter() - started < 1
        with pytest.raises(CountCapExceeded, match=r"^2\^40 pairs exceed the cap of 100000$"):
            fooling_pairs_diamond(40)
        assert len(fooling_pairs_diamond(3, pair_cap=8)) == 8


class TestVerifyFoolingSet:
    def test_diamond_family_certifies_lower_bound(self):
        for n in (1, 2, 3, 4):
            e = family_diamond_power(n)
            member = lambda w: membership(e, w, AB, DIAMOND).answer
            verified, bound, violation = verify_fooling_set(fooling_pairs_diamond(n), member)
            assert verified, violation
            assert bound == 2**n
            assert construct_nfa(e, AB, DIAMOND).n_states >= 2**n

    def test_box_family_certifies_lower_bound(self):
        e = family_box_doubleexp(1)
        member = lambda w: membership(e, w, AB, BOX).answer
        verified, bound, violation = verify_fooling_set(fooling_pairs_box(1), member)
        assert verified, violation
        assert bound == 6
        assert bound >= 2 ** (2**1)

    def test_universal_language_fools_nothing(self):
        fs = FoolingSet((("0", "0"), ("0", "1")))
        verified, bound, violation = verify_fooling_set(fs, lambda w: True)
        assert verified is False
        assert bound == 0
        assert "condition 2" in violation

    def test_condition_one_failure_reported(self):
        fs = FoolingSet((("0", "0"),))
        verified, bound, violation = verify_fooling_set(fs, lambda w: False)
        assert verified is False
        assert "condition 1" in violation
