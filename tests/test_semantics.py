"""Tests for the certainty/possibility semantics layer."""

from __future__ import annotations

import itertools
import random

import pytest

from prx.automata import accepts, determinize, is_empty, regex_to_nfa, remove_epsilon
from prx.errors import CountCapExceeded, DomainNotFinite, PrxError
from prx.semantics import (
    BOX,
    DIAMOND,
    DecisionReport,
    Semantics,
    construct_nfa,
    construct_nfa_domains,
    containment,
    decide_domains,
    membership,
    nonemptiness,
    nonempty_int_reg,
    universality,
)
from prx.syntax import Alphabet, parse, variables
from prx.valuations import (
    DomainSpec,
    Valuation,
    apply_to_regex,
    enumerate_valuations,
    enumerate_word_valuations,
)

import oracles

AB = Alphabet("01")
ABC = Alphabet("012")


def nfa_language(a, max_len):
    d = determinize(a)
    out = set()
    frontier = [("", d.initial)]
    if d.initial in d.finals:
        out.add("")
    for _ in range(max_len):
        nxt = []
        for w, q in frontier:
            for i, ch in enumerate(d.alphabet.letters):
                q2 = d.delta[q][i]
                w2 = w + ch
                if q2 in d.finals:
                    out.add(w2)
                nxt.append((w2, q2))
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# construct_nfa


class TestConstructNfa:
    def test_box_subword_accepts_10011(self):
        e = parse("(0|1)*$x$y(0|1)*", AB)
        a = construct_nfa(e, AB, BOX)
        assert accepts(a, "10011")

    def test_diamond_accepts_01110(self):
        e = parse("(0$x)*1($x$y)*", AB)
        a = construct_nfa(e, AB, DIAMOND)
        assert accepts(a, "01110")

    def test_box_accepts_1(self):
        e = parse("(0$x)*1($x$y)*", AB)
        a = construct_nfa(e, AB, BOX)
        assert accepts(a, "1")
        assert not accepts(a, "0")

    def test_variable_free_is_plain_language(self):
        e = parse("(01)*|1", AB)
        want = oracles.bounded_language(e, 6)
        for sem in (BOX, DIAMOND):
            assert nfa_language(construct_nfa(e, AB, sem), 6) == want

    def test_single_variable(self):
        e = parse("$x", AB)
        assert nfa_language(construct_nfa(e, AB, DIAMOND), 3) == {"0", "1"}
        assert nfa_language(construct_nfa(e, AB, BOX), 3) == set()

    def test_sandwich_on_random_expressions(self):
        rng = random.Random(4101)
        for _ in range(40):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=8)
            box = nfa_language(construct_nfa(e, AB, BOX), 5)
            dia = nfa_language(construct_nfa(e, AB, DIAMOND), 5)
            assert box <= dia
            for nu in enumerate_valuations(variables(e), AB):
                mid = oracles.bounded_language(apply_to_regex(nu, e), 5)
                assert box <= mid <= dia

    def test_matches_brute_force(self):
        rng = random.Random(4102)
        for _ in range(30):
            e = oracles.random_expr(rng, ABC, ("x", "y", "z"), budget=8)
            names = variables(e)
            box = construct_nfa(e, ABC, BOX)
            dia = construct_nfa(e, ABC, DIAMOND)
            for w in oracles.all_words(ABC, 4):
                assert accepts(box, w) == oracles.brute_membership(e, names, ABC, w, box=True)
                assert accepts(dia, w) == oracles.brute_membership(e, names, ABC, w, box=False)


# ---------------------------------------------------------------------------
# membership


class TestMembership:
    def test_diamond_possibility_witness(self):
        e = parse("(0$x)*1($x$y)*", AB)
        rep = membership(e, "01110", AB, DIAMOND)
        assert rep.answer is True
        assert rep.valuation == {"x": "1", "y": "0"}

    def test_box_short_words_rejected(self):
        e = parse("(0|1)*$x$y(0|1)*", AB)
        for n in range(5):
            for w in itertools.product("01", repeat=n):
                rep = membership(e, "".join(w), AB, BOX)
                assert rep.answer is False
                assert rep.valuation is not None

    def test_box_counterexample_valuation_rejects(self):
        e = parse("(0$x)*1($x$y)*", AB)
        rep = membership(e, "0", AB, BOX)
        assert rep.answer is False
        inst = apply_to_regex(Valuation(rep.valuation), e)
        assert not oracles.matches(inst, "0")

    def test_agrees_with_construct_nfa(self):
        rng = random.Random(4103)
        for _ in range(25):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=7)
            for sem in (BOX, DIAMOND):
                a = construct_nfa(e, AB, sem)
                for w in oracles.all_words(AB, 4):
                    assert membership(e, w, AB, sem).answer == accepts(a, w)

    def test_stats_shape(self):
        e = parse("$x$y", AB)
        rep = membership(e, "00", AB, DIAMOND)
        data = rep.to_json()
        assert set(data) == {"answer", "witness", "valuation", "stats"}
        assert set(data["stats"]) == {"valuations", "states"}
        assert data["stats"]["valuations"] >= 1


def scan_outcome(e, w, alphabet, box):
    """(answer, valuation, examined) of the defining per-valuation scan:
    certainty stops at the first rejecting valuation, possibility at the
    first accepting one, both in enumeration order."""
    count = 0
    for nu in oracles.letter_valuations(variables(e), alphabet):
        count += 1
        if oracles.matches(oracles.substitute(e, nu), w) != box:
            return not box, nu, count
    return box, None, count


def random_expr_with_k(rng, alphabet, k):
    """A random expression using exactly k distinct variables (a to e)."""
    while True:
        e = oracles.random_expr(rng, alphabet, "abcde"[:k], budget=rng.randint(3, 14),
                                var_prob=0.5)
        if len(variables(e)) == k:
            return e


class TestMembershipValuationSets:
    """The one-pass set-of-valuations simulation against the oracle scan."""

    def test_random_expressions_match_the_oracle_scan(self):
        rng = random.Random(4111)
        for i in range(120):
            alphabet = AB if i % 2 else ABC
            # Variables repeat and sit under stars in about half of these.
            e = random_expr_with_k(rng, alphabet, i % 6)
            nu = dict(zip(variables(e), rng.choices(alphabet.letters, k=len(variables(e)))))
            # Half the words come from one instance's language, so that both
            # answers and valuations deep in the enumeration show up.
            instance = sorted(oracles.bounded_language(oracles.substitute(e, nu), 5))
            words = ["".join(rng.choices(alphabet.letters, k=rng.randint(0, 5)))]
            words += rng.sample(instance, min(2, len(instance)))
            for w in words:
                for sem in (BOX, DIAMOND):
                    rep = membership(e, w, alphabet, sem)
                    want = scan_outcome(e, w, alphabet, box=sem is BOX)
                    assert (rep.answer, rep.valuation, rep.stats["valuations"]) == want

    def test_no_variables(self):
        e = parse("(01)*", AB)
        for sem in (BOX, DIAMOND):
            rep = membership(e, "0101", AB, sem)
            assert rep.answer is True
            assert rep.stats["valuations"] == 1
            rep = membership(e, "010", AB, sem)
            assert rep.answer is False
            assert rep.stats["valuations"] == 1
        assert membership(e, "0101", AB, DIAMOND).valuation == {}
        assert membership(e, "010", AB, BOX).valuation == {}
        assert membership(e, "0101", AB, BOX).valuation is None

    def test_empty_word(self):
        star = parse("$x*", ABC)
        plain = parse("$x|_", ABC)
        letter = parse("$x", ABC)
        for e in (star, plain):
            rep = membership(e, "", ABC, BOX)
            assert (rep.answer, rep.valuation, rep.stats["valuations"]) == (True, None, 3)
        rep = membership(letter, "", ABC, BOX)
        assert (rep.answer, rep.valuation, rep.stats["valuations"]) == (False, {"x": "0"}, 1)
        rep = membership(letter, "", ABC, DIAMOND)
        assert (rep.answer, rep.valuation, rep.stats["valuations"]) == (False, None, 3)

    def test_cap_error_comes_before_a_foreign_letter(self):
        e = parse("$x$y$z", AB)
        with pytest.raises(CountCapExceeded, match="^8 valuations exceed the cap of 4$"):
            membership(e, "09", AB, BOX, valuation_cap=4)
        with pytest.raises(ValueError, match="^letter '9' is not in the alphabet$"):
            membership(e, "09", AB, BOX, valuation_cap=8)

    def test_full_scan_at_k8(self):
        e = parse("($a|$b|$c|$d|$e|$f|$g|$h|0)*", ABC)
        names = "abcdefgh"
        rep = membership(e, "0000", ABC, BOX)
        assert (rep.answer, rep.valuation, rep.stats["valuations"]) == (True, None, 3**8)
        rep = membership(e, "1", ABC, BOX)
        assert rep.answer is False
        assert rep.valuation == dict.fromkeys(names, "0")
        assert rep.stats["valuations"] == 1
        # The first valuation offering both 1 and 2 sets g = 1, h = 2: index 5.
        rep = membership(e, "210", ABC, DIAMOND)
        assert rep.answer is True
        assert rep.valuation == {**dict.fromkeys("abcdef", "0"), "g": "1", "h": "2"}
        assert rep.stats["valuations"] == 6
        word = parse("$a$b$c$d$e$f$g$h", ABC)
        rep = membership(word, "2100122", ABC, DIAMOND)
        assert (rep.answer, rep.valuation, rep.stats["valuations"]) == (False, None, 3**8)


# ---------------------------------------------------------------------------
# nonemptiness


class TestNonemptiness:
    def test_diamond_nonempty_unless_empty_set(self):
        for text in ("$x", "_", "@*", "(0$x)*1($x$y)*", "$x$x$x"):
            assert nonemptiness(parse(text, AB), AB, DIAMOND).answer is True
        assert nonemptiness(parse("@", AB), AB, DIAMOND).answer is False
        assert nonemptiness(parse("@$x", AB), AB, DIAMOND).answer is False

    def test_box_single_variable_empty(self):
        rep = nonemptiness(parse("$x", AB), AB, BOX)
        assert rep.answer is False
        assert rep.witness is None

    def test_box_subword_witness(self):
        e = parse("(0|1)*$x1$x2(0|1)*", AB)
        rep = nonemptiness(e, AB, BOX)
        assert rep.answer is True
        assert rep.witness == "00110"

    def test_witnesses_verify(self):
        rng = random.Random(4105)
        for _ in range(30):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=7)
            for sem in (BOX, DIAMOND):
                rep = nonemptiness(e, AB, sem)
                if rep.answer:
                    assert accepts(construct_nfa(e, AB, sem), rep.witness)

    def test_diamond_valuation_independence(self):
        rng = random.Random(4106)
        for _ in range(25):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=7)
            results = set()
            for nu in enumerate_valuations(variables(e), AB):
                inst = remove_epsilon(regex_to_nfa(apply_to_regex(nu, e), AB))
                results.add(not is_empty(inst)[0])
            assert len(results) == 1
            assert nonemptiness(e, AB, DIAMOND).answer == results.pop()


# ---------------------------------------------------------------------------
# universality


class TestUniversality:
    def test_no_variable_universal(self):
        assert universality(parse("(0|1)*", AB), AB, BOX).answer is True
        assert universality(parse("(0|1)*", AB), AB, DIAMOND).answer is True

    def test_box_epsilon_counterexample(self):
        rep = universality(parse("$x(0|1)*", AB), AB, BOX)
        assert rep.answer is False
        assert rep.witness == ""
        assert rep.valuation is not None

    def test_diamond_union_covers_everything(self):
        rep = universality(parse("($x(0|1)*)|_", AB), AB, DIAMOND)
        assert rep.answer is True
        assert rep.witness is None

    def test_diamond_counterexample(self):
        rep = universality(parse("$x(0|1)*", AB), AB, DIAMOND)
        assert rep.answer is False
        assert rep.witness == ""

    def test_counterexamples_verify(self):
        rng = random.Random(4107)
        for _ in range(25):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=7)
            for sem in (BOX, DIAMOND):
                rep = universality(e, AB, sem)
                a = construct_nfa(e, AB, sem)
                if rep.answer:
                    for w in oracles.all_words(AB, 4):
                        assert accepts(a, w)
                else:
                    assert not accepts(a, rep.witness)


# ---------------------------------------------------------------------------
# containment and intersection with a regular language


class TestContainment:
    def test_box_empty_left_side(self):
        lhs = parse("$x$x", AB)
        for rhs_text in ("@", "0", "(0|1)*"):
            assert containment(lhs, parse(rhs_text, AB), AB, BOX).answer is True

    def test_diamond_pair_language(self):
        assert containment(parse("00|11", AB), parse("$x$x", AB), AB, DIAMOND).answer is True

    def test_diamond_counterexample(self):
        rep = containment(parse("$x$y", AB), parse("$x$x", AB), AB, DIAMOND)
        assert rep.answer is False
        assert rep.witness == "01"

    def test_counterexamples_verify(self):
        rng = random.Random(4109)
        for _ in range(20):
            e1 = oracles.random_expr(rng, AB, ("x", "y"), budget=6)
            e2 = oracles.random_expr(rng, AB, ("x", "y"), budget=6)
            for sem in (BOX, DIAMOND):
                rep = containment(e1, e2, AB, sem)
                a1 = construct_nfa(e1, AB, sem)
                a2 = construct_nfa(e2, AB, sem)
                if rep.answer:
                    assert nfa_language(a1, 4) <= nfa_language(a2, 4)
                else:
                    assert accepts(a1, rep.witness)
                    assert not accepts(a2, rep.witness)


class TestNonemptyIntReg:
    def test_box_subword_needs_a_zero(self):
        e = parse("(0|1)*$x1$x2(0|1)*", AB)
        assert nonempty_int_reg(e, parse("1*", AB), AB, BOX).answer is False
        rep = nonempty_int_reg(e, parse("(0|1)*", AB), AB, BOX)
        assert rep.answer is True
        assert accepts(construct_nfa(e, AB, BOX), rep.witness)

    def test_diamond_letter(self):
        assert nonempty_int_reg(parse("$x", AB), parse("1", AB), AB, DIAMOND).answer is True

    def test_rejects_variables_in_constraint(self):
        with pytest.raises(PrxError):
            nonempty_int_reg(parse("$x", AB), parse("$y", AB), AB, DIAMOND)


# ---------------------------------------------------------------------------
# regular domains


class TestConstructNfaDomains:
    def test_two_word_domain(self):
        e = parse("$x", AB)
        spec = DomainSpec.from_json({"x": "00|01"}, AB)
        assert nfa_language(construct_nfa_domains(e, spec, AB, BOX), 4) == set()
        assert nfa_language(construct_nfa_domains(e, spec, AB, DIAMOND), 4) == {"00", "01"}

    def test_infinite_domain_box(self):
        e = parse("($x|_)1*", AB)
        spec = DomainSpec.from_json({"x": "0*"}, AB)
        got = nfa_language(construct_nfa_domains(e, spec, AB, BOX), 5)
        assert got == {"1" * k for k in range(6)}

    def test_infinite_domain_diamond_refused(self):
        e = parse("$x", AB)
        spec = DomainSpec.from_json({"x": "0*"}, AB)
        with pytest.raises(DomainNotFinite):
            construct_nfa_domains(e, spec, AB, DIAMOND)

    def test_full_alphabet_domains_match_base(self):
        rng = random.Random(4110)
        for _ in range(15):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=7)
            spec = DomainSpec.from_json({n: "0|1" for n in variables(e)}, AB)
            for sem in (BOX, DIAMOND):
                a = construct_nfa_domains(e, spec, AB, sem)
                b = construct_nfa(e, AB, sem)
                assert nfa_language(a, 5) == nfa_language(b, 5)

    def test_mixed_finite_and_infinite(self):
        e = parse("($x|$y|_)1*", AB)
        spec = DomainSpec.from_json({"x": "0|1", "y": "0 0*"}, AB)
        got = nfa_language(construct_nfa_domains(e, spec, AB, BOX), 4)
        assert got == {"1" * k for k in range(5)}

    def test_routes_agree_on_finite_specs(self):
        rng = random.Random(4111)
        for _ in range(15):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=6)
            spec = DomainSpec.from_json(
                {n: "0|1|00" for n in variables(e)}, AB
            )
            via_enum = construct_nfa_domains(e, spec, AB, BOX, route="enumerate")
            via_fin = construct_nfa_domains(e, spec, AB, BOX, route="finitary")
            assert nfa_language(via_enum, 5) == nfa_language(via_fin, 5)

    def test_enumerate_route_requires_finite(self):
        e = parse("$x", AB)
        spec = DomainSpec.from_json({"x": "1*"}, AB)
        with pytest.raises(DomainNotFinite):
            construct_nfa_domains(e, spec, AB, BOX, route="enumerate")

    def test_missing_domain_rejected(self):
        e = parse("$x$y", AB)
        spec = DomainSpec.from_json({"x": "0"}, AB)
        with pytest.raises(PrxError):
            construct_nfa_domains(e, spec, AB, BOX)

    def test_domain_intersection_oracle(self):
        # Certainty under finite domains agrees with explicit intersection
        # of the substituted languages.
        rng = random.Random(4112)
        for _ in range(15):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=6)
            names = variables(e)
            spec = DomainSpec.from_json({n: "_|0|11" for n in names}, AB)
            langs = [
                oracles.bounded_language(apply_to_regex(nu, e), 4)
                for nu in enumerate_word_valuations(spec)
            ]
            want_box = set(frozenset.intersection(*langs)) if langs else set()
            want_dia = set(frozenset.union(*langs)) if langs else set()
            assert nfa_language(construct_nfa_domains(e, spec, AB, BOX), 4) == want_box
            assert nfa_language(construct_nfa_domains(e, spec, AB, DIAMOND), 4) == want_dia


class TestDecideDomains:
    def test_membership_box_infinite_false(self):
        e = parse("$x 1", AB)
        spec = DomainSpec.from_json({"x": "0*"}, AB)
        rep = decide_domains("membership", e, spec, AB, BOX, w="01")
        assert rep.answer is False

    def test_membership_diamond_two_words(self):
        e = parse("$x", AB)
        spec = DomainSpec.from_json({"x": "00|01"}, AB)
        rep = decide_domains("membership", e, spec, AB, DIAMOND, w="01")
        assert rep.answer is True
        assert rep.valuation == {"x": "01"}

    def test_nonemptiness_epsilon_witness(self):
        e = parse("($x|_)1*", AB)
        spec = DomainSpec.from_json({"x": "0*"}, AB)
        rep = decide_domains("nonemptiness", e, spec, AB, BOX)
        assert rep.answer is True
        assert rep.witness == ""

    def test_universality(self):
        e = parse("($x|_)(0|1)*", AB)
        spec = DomainSpec.from_json({"x": "0|1"}, AB)
        rep = decide_domains("universality", e, spec, AB, DIAMOND)
        assert rep.answer is True
        rep = decide_domains("universality", e, spec, AB, BOX)
        assert rep.answer is True  # epsilon branch makes every instance universal

    def test_containment(self):
        e1 = parse("$x", AB)
        e2 = parse("$x|$x$x", AB)
        spec = DomainSpec.from_json({"x": "0|1"}, AB)
        rep = decide_domains("containment", e1, spec, AB, DIAMOND, e2=e2)
        assert rep.answer is True
        rep = decide_domains("containment", e2, spec, AB, DIAMOND, e2=e1)
        assert rep.answer is False
        assert rep.witness in {"00", "11"}

    def test_nonempty_int_reg(self):
        e = parse("($x|_)1*", AB)
        spec = DomainSpec.from_json({"x": "0*"}, AB)
        rep = decide_domains("nonempty_int_reg", e, spec, AB, BOX, r=parse("11*", AB))
        assert rep.answer is True
        assert rep.witness == "1"

    def test_membership_matches_constructed_nfa(self):
        rng = random.Random(4113)
        for _ in range(10):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=6)
            spec = DomainSpec.from_json({n: "_|0|10" for n in variables(e)}, AB)
            for sem in (BOX, DIAMOND):
                a = construct_nfa_domains(e, spec, AB, sem)
                for w in oracles.all_words(AB, 3):
                    rep = decide_domains("membership", e, spec, AB, sem, w=w)
                    assert rep.answer == accepts(a, w)

    def test_unknown_problem(self):
        spec = DomainSpec.from_json({"x": "0"}, AB)
        with pytest.raises(ValueError):
            decide_domains("minimization", parse("$x", AB), spec, AB, BOX)


# ---------------------------------------------------------------------------
# report serialization


class TestDecisionReport:
    def test_json_shape(self):
        rep = DecisionReport(answer=True, witness="", valuation={"x": "0"})
        data = rep.to_json()
        assert data == {
            "answer": True,
            "witness": "",
            "valuation": {"x": "0"},
            "stats": {"valuations": 0, "states": 0},
        }

    def test_semantics_values(self):
        assert Semantics("box") is BOX
        assert Semantics("diamond") is DIAMOND
