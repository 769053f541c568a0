"""Tests for the certainty/possibility semantics layer."""

from __future__ import annotations

import collections
import itertools
import random

import pytest

from prx.automata import (
    Nfa,
    _search,
    _targets,
    accepts,
    is_empty,
    regex_to_nfa,
    remove_epsilon,
    trim,
)
from prx.constructions import family_box_doubleexp, family_box_subword, family_diamond_power
from prx.errors import CountCapExceeded, DomainNotFinite, PrxError, StateCapExceeded
from prx.semantics import (
    BOX,
    DIAMOND,
    DecisionReport,
    Semantics,
    construct_nfa,
    containment,
    membership,
    membership_decider,
    nonemptiness,
    nonempty_int_reg,
    universality,
)
from prx.semantics import (
    _construct, _merge, _moves, _reachable, _search_masks, _step, _union, _UnionSource,
    _valuation_space,
)
from prx.syntax import (
    Alphabet, Concat, EmptySet, Epsilon, Lit, Star, Union, Var, parse, variables,
)
from prx.valuations import (
    DomainSpec,
    Valuation,
    apply_to_nfa,
    apply_to_regex,
    domain_choices,
    enumerate_valuations,
    valuation_at,
    valuations_from,
)

import oracles
from prx import semantics, valuations
from reference_automata import (
    apply_finitary, complement, determinize, dfa_to_nfa, first_rejected, product, product_all,
    thompson, union_all,
)

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

    def test_one_decider_reports_as_membership_on_every_word(self):
        rng = random.Random(4222)
        exprs = [(family_diamond_power(3), AB, None), (family_box_doubleexp(1), AB, None),
                 (family_box_subword(2), AB, None),
                 (parse("$x(0|$y)*$x", AB), AB, DomainSpec({"x": parse("_|01", AB),
                                                            "y": parse("1|00", AB)}, AB))]
        exprs += [(random_expr_with_k(rng, ABC, i % 4), ABC, None) for i in range(20)]
        for e, alphabet, domains in exprs:
            words = list(oracles.all_words(alphabet, 4 if alphabet is AB else 3))
            words += ["".join(rng.choices(alphabet.letters, k=rng.randint(5, 12)))
                      for _ in range(10)]
            for sem in (BOX, DIAMOND):
                decide = membership_decider(e, alphabet, sem, domains=domains)
                for w in words:
                    assert decide(w) == membership(e, w, alphabet, sem, domains=domains)

    def test_decider_checks_the_cap_when_compiled_and_letters_per_word(self):
        e = parse("$x$y$z", AB)
        with pytest.raises(CountCapExceeded, match="^8 valuations exceed the cap of 4$"):
            membership_decider(e, AB, BOX, valuation_cap=4)
        decide = membership_decider(e, AB, BOX, valuation_cap=8)
        with pytest.raises(ValueError, match="^letter '9' is not in the alphabet$"):
            decide("09")
        assert decide("000") == membership(e, "000", AB, BOX)

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
                inst = regex_to_nfa(apply_to_regex(nu, e), AB)
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

    def test_diamond_pairs_come_in_product_order(self):
        # After 0 the union is in states d1 < d2 (01's, then 00's) and r in
        # n1 < n2 (00's, then 01's).  The product numbers (d1, n2), which
        # reads 1 next, before (d2, n1), which reads 0: the witness is 01,
        # although 00 is also in both.  Containment in 1 meets d1 first too.
        lhs = parse("01|00", AB)
        rep = nonempty_int_reg(lhs, parse("00|01", AB), AB, DIAMOND)
        assert (rep.answer, rep.witness) == (True, "01")
        rep = containment(lhs, parse("1", AB), AB, DIAMOND)
        assert (rep.answer, rep.witness) == (False, "01")


# ---------------------------------------------------------------------------
# regular domains


class TestConstructNfaDomains:
    def test_two_word_domain(self):
        e = parse("$x", AB)
        spec = DomainSpec.from_json({"x": "00|01"}, AB)
        assert nfa_language(construct_nfa(e, AB, BOX, domains=spec), 4) == set()
        assert nfa_language(construct_nfa(e, AB, DIAMOND, domains=spec), 4) == {"00", "01"}

    def test_infinite_domain_box(self):
        e = parse("($x|_)1*", AB)
        spec = DomainSpec.from_json({"x": "0*"}, AB)
        got = nfa_language(construct_nfa(e, AB, BOX, domains=spec), 5)
        assert got == {"1" * k for k in range(6)}

    def test_infinite_domain_diamond_refused(self):
        e = parse("$x", AB)
        spec = DomainSpec.from_json({"x": "0*"}, AB)
        with pytest.raises(DomainNotFinite):
            construct_nfa(e, AB, DIAMOND, domains=spec)

    def test_full_alphabet_domains_match_base(self):
        rng = random.Random(4110)
        for _ in range(15):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=7)
            spec = DomainSpec.from_json({n: "0|1" for n in variables(e)}, AB)
            for sem in (BOX, DIAMOND):
                a = construct_nfa(e, AB, sem, domains=spec)
                b = construct_nfa(e, AB, sem)
                assert nfa_language(a, 5) == nfa_language(b, 5)

    def test_mixed_finite_and_infinite(self):
        e = parse("($x|$y|_)1*", AB)
        spec = DomainSpec.from_json({"x": "0|1", "y": "0 0*"}, AB)
        got = nfa_language(construct_nfa(e, AB, BOX, domains=spec), 4)
        assert got == {"1" * k for k in range(5)}

    def test_routes_agree_on_finite_specs(self):
        rng = random.Random(4111)
        for _ in range(15):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=6)
            spec = DomainSpec.from_json(
                {n: "0|1|00" for n in variables(e)}, AB
            )
            via_enum = _construct(e, AB, BOX, ("enumerate", domain_choices(spec)), 65536)[0]
            finitary = ("finitary", domain_choices(spec, finitary=True))
            via_fin = _construct(e, AB, BOX, finitary, 65536)[0]
            assert nfa_language(via_enum, 5) == nfa_language(via_fin, 5)

    def test_missing_domain_rejected(self):
        e = parse("$x$y", AB)
        spec = DomainSpec.from_json({"x": "0"}, AB)
        with pytest.raises(PrxError):
            construct_nfa(e, AB, BOX, domains=spec)

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
                for nu in valuations_from(domain_choices(spec))
            ]
            want_box = set(frozenset.intersection(*langs)) if langs else set()
            want_dia = set(frozenset.union(*langs)) if langs else set()
            assert nfa_language(construct_nfa(e, AB, BOX, domains=spec), 4) == want_box
            assert nfa_language(construct_nfa(e, AB, DIAMOND, domains=spec), 4) == want_dia


class TestDecideDomains:
    def test_membership_box_infinite_false(self):
        e = parse("$x 1", AB)
        spec = DomainSpec.from_json({"x": "0*"}, AB)
        rep = membership(e, "01", AB, BOX, domains=spec)
        assert rep.answer is False

    def test_membership_diamond_two_words(self):
        e = parse("$x", AB)
        spec = DomainSpec.from_json({"x": "00|01"}, AB)
        rep = membership(e, "01", AB, DIAMOND, domains=spec)
        assert rep.answer is True
        assert rep.valuation == {"x": "01"}

    def test_nonemptiness_epsilon_witness(self):
        e = parse("($x|_)1*", AB)
        spec = DomainSpec.from_json({"x": "0*"}, AB)
        rep = nonemptiness(e, AB, BOX, domains=spec)
        assert rep.answer is True
        assert rep.witness == ""

    def test_universality(self):
        e = parse("($x|_)(0|1)*", AB)
        spec = DomainSpec.from_json({"x": "0|1"}, AB)
        rep = universality(e, AB, DIAMOND, domains=spec)
        assert rep.answer is True
        rep = universality(e, AB, BOX, domains=spec)
        assert rep.answer is True  # epsilon branch makes every instance universal

    def test_containment(self):
        e1 = parse("$x", AB)
        e2 = parse("$x|$x$x", AB)
        spec = DomainSpec.from_json({"x": "0|1"}, AB)
        rep = containment(e1, e2, AB, DIAMOND, domains=spec)
        assert rep.answer is True
        rep = containment(e2, e1, AB, DIAMOND, domains=spec)
        assert rep.answer is False
        assert rep.witness in {"00", "11"}

    def test_containment_expands_domain_words_once(self, monkeypatch):
        calls = []
        words = valuations._words
        monkeypatch.setattr(valuations, "_words", lambda *args: calls.append(args) or words(*args))
        # y's domain is infinite: certainty leaves y undefined, expanding x only
        spec = DomainSpec.from_json({"x": "0|1", "y": "0*"}, AB)
        rep = containment(parse("$x$y", AB), parse("$x 1*", AB), AB, BOX, domains=spec)
        assert (rep.answer, rep.witness) == (True, None)
        assert len(calls) == 1

    @staticmethod
    def walks(monkeypatch):
        """The expressions whose variables the semantics layer lists."""
        walked = []
        listed = semantics.variables
        monkeypatch.setattr(semantics, "variables", lambda e: walked.append(e) or listed(e))
        return walked

    def test_containment_checks_domain_coverage_once(self, monkeypatch):
        walked = self.walks(monkeypatch)
        e1, e2 = parse("$x", AB), parse("$x|$x$y", AB)
        spec = DomainSpec.from_json({"x": "0|1", "y": "1"}, AB)
        assert containment(e1, e2, AB, DIAMOND, domains=spec).answer is True
        assert walked == [e1, e2]
        # A variable of e2 without a domain is refused before the infinite
        # domain of e1's variable is.
        with pytest.raises(PrxError, match=r"^no domain declared for variable\(s\): y$"):
            containment(e1, e2, AB, DIAMOND, domains=DomainSpec.from_json({"x": "0*"}, AB))

    def test_nonempty_int_reg_checks_domain_coverage_once(self, monkeypatch):
        walked = self.walks(monkeypatch)
        e, r = parse("($x|_)1*", AB), parse("11*", AB)
        spec = DomainSpec.from_json({"x": "0*"}, AB)
        assert nonempty_int_reg(e, r, AB, BOX, domains=spec).answer is True
        assert walked == [e, r]
        # e's coverage is checked before the constraint's variables are.
        with pytest.raises(PrxError, match=r"^no domain declared for variable\(s\): y$"):
            nonempty_int_reg(parse("$y", AB), parse("$z", AB), AB, BOX, domains=spec)

    def test_nonempty_int_reg(self):
        e = parse("($x|_)1*", AB)
        spec = DomainSpec.from_json({"x": "0*"}, AB)
        rep = nonempty_int_reg(e, parse("11*", AB), AB, BOX, domains=spec)
        assert rep.answer is True
        assert rep.witness == "1"

    def test_membership_matches_constructed_nfa(self):
        rng = random.Random(4113)
        for _ in range(10):
            e = oracles.random_expr(rng, AB, ("x", "y"), budget=6)
            spec = DomainSpec.from_json({n: "_|0|10" for n in variables(e)}, AB)
            for sem in (BOX, DIAMOND):
                a = construct_nfa(e, AB, sem, domains=spec)
                for w in oracles.all_words(AB, 3):
                    rep = membership(e, w, AB, sem, domains=spec)
                    assert rep.answer == accepts(a, w)


def finitary_reduct(e, nu):
    """e with the variables nu defines replaced by their images and the
    others by the empty set (a finitary valuation's reduced instance)."""
    if isinstance(e, Var):
        return oracles.substitute(e, nu) if e.name in nu else EmptySet()
    if isinstance(e, Concat):
        return Concat(finitary_reduct(e.left, nu), finitary_reduct(e.right, nu))
    if isinstance(e, Union):
        return Union(finitary_reduct(e.left, nu), finitary_reduct(e.right, nu))
    if isinstance(e, Star):
        return Star(finitary_reduct(e.inner, nu))
    return e


def domain_scan_outcome(e, w, choices, box):
    """scan_outcome over explicit image lists, variables in the given order
    (the oracle side of domain membership)."""
    count = 0
    for images in itertools.product(*choices.values()):
        count += 1
        nu = dict(zip(choices, images))
        if oracles.matches(finitary_reduct(e, nu), w) != box:
            return not box, nu, count
    return box, None, count


WORD_LISTS = (["0", "1"], ["", "0", "11"], ["10"], [""], ["01", "1", "000"], ["", "1"])
INFINITE_DOMAINS = ("0*", "1 0*", "(01)*", "(0|1)*")


def random_domain_case(rng, infinite):
    """An expression, a spec over its variables in shuffled order (plus,
    sometimes, a variable it never uses), the image lists of the finite
    domains in shortlex order, and words to test."""
    e = oracles.random_expr(rng, AB, ("x", "y", "z"), budget=rng.randint(2, 9), var_prob=0.45)
    names = list(variables(e))
    if rng.random() < 0.4:
        names.append("u")
    rng.shuffle(names)
    mapping, choices = {}, {}
    for name in names:
        if infinite and rng.random() < 0.5:
            mapping[name] = rng.choice(INFINITE_DOMAINS)
            continue
        words = rng.choice(WORD_LISTS)
        mapping[name] = "|".join(u or "_" for u in rng.sample(words, len(words)))
        choices[name] = sorted(words, key=lambda u: oracles.shortlex_key(u, AB))
    spec = DomainSpec.from_json(mapping, AB)
    # Half the words come from one instance's language, so that certainty
    # holds now and then.
    nu = {n: rng.choice(ws) for n, ws in choices.items()}
    instance = sorted(oracles.bounded_language(finitary_reduct(e, nu), 5))
    words = ["".join(rng.choices("01", k=rng.randint(0, 5))) for _ in range(3)]
    words += rng.sample(instance, min(3, len(instance)))
    return e, spec, choices, words


class TestMembershipOverDomains:
    """The one-pass membership engine on word images, against the oracle."""

    def test_finite_domains_match_the_oracle_scan(self):
        rng = random.Random(4114)
        shuffled = unused = 0
        for _ in range(80):
            e, spec, choices, words = random_domain_case(rng, infinite=False)
            shuffled += list(spec.names) != [n for n in variables(e) if n in spec.names]
            unused += "u" in spec.names
            for w in words:
                for sem in (BOX, DIAMOND):
                    rep = membership(e, w, AB, sem, domains=spec)
                    want = domain_scan_outcome(e, w, choices, box=sem is BOX)
                    assert (rep.answer, rep.valuation, rep.stats["valuations"]) == want
        assert shuffled and unused

    def test_certainty_over_infinite_domains(self):
        rng = random.Random(4115)
        infinite = 0
        for _ in range(80):
            e, spec, choices, words = random_domain_case(rng, infinite=True)
            infinite += bool(spec.infinite_variables())
            finitary = ("finitary", domain_choices(spec, finitary=True))
            reduced = _construct(e, AB, BOX, finitary, 65536)[0]
            for w in words:
                rep = membership(e, w, AB, BOX, domains=spec)
                want = domain_scan_outcome(e, w, choices, box=True)
                assert (rep.answer, rep.valuation, rep.stats["valuations"]) == want
                assert rep.answer == accepts(reduced, w)
            if spec.infinite_variables():
                with pytest.raises(DomainNotFinite):
                    membership(e, "0", AB, DIAMOND, domains=spec)
        assert infinite


# ---------------------------------------------------------------------------
# the searches over mask states: box nonemptiness, diamond universality and
# box containment over letters


def assert_first(witness, qualifies, words):
    """``witness`` is the shortlex-least word that ``qualifies``, or None
    when none does: checked on the witness itself and on every word of
    ``words`` (shortlex order) no longer than it and before it."""
    if witness is not None:
        assert qualifies(witness)
    for w in words:
        if w == witness or (witness is not None and len(w) > len(witness)):
            break
        assert not qualifies(w), w


def least_covering_word(n):
    """The shortlex-least binary word holding every length-n block: BFS over
    (last n-1 letters, blocks seen) with letters in order."""
    grams = ["".join(t) for t in itertools.product("01", repeat=n)]
    full = set(grams)
    queue = [("", frozenset())]
    seen = {("", frozenset())}
    for word, blocks in queue:
        if blocks == full:
            return word
        for ch in "01":
            grown = word + ch
            state = (grown[-(n - 1):], blocks | {grown[-n:]} if len(grown) >= n else blocks)
            if state not in seen:
                seen.add(state)
                queue.append((grown, state[1]))
    raise AssertionError("some word covers every block")


class TestMaskSearch:
    def test_random_expressions_match_the_oracle(self):
        rng = random.Random(4117)
        for alphabet, count, bound in ((AB, 200, 6), (ABC, 100, 4)):
            words = list(oracles.all_words(alphabet, bound))

            def member(e, names, language, w, box):
                if len(w) <= bound:
                    return w in language
                return oracles.brute_membership(e, names, alphabet, w, box)

            for _ in range(count):
                e1, e2 = (
                    oracles.random_expr(
                        rng, alphabet, ("x", "y", "z"), rng.randint(4, 14), var_prob=0.4
                    )
                    for _ in range(2)
                )
                v1, v2 = variables(e1), variables(e2)
                box1 = oracles.brute_language(e1, v1, alphabet, bound, box=True)
                box2 = oracles.brute_language(e2, v2, alphabet, bound, box=True)
                dia1 = oracles.brute_language(e1, v1, alphabet, bound, box=False)
                rep = nonemptiness(e1, alphabet, BOX)
                assert rep.answer == (rep.witness is not None)
                assert_first(rep.witness, lambda w: member(e1, v1, box1, w, True), words)

                rep = universality(e1, alphabet, DIAMOND)
                assert rep.answer == (rep.witness is None)
                assert_first(rep.witness, lambda w: not member(e1, v1, dia1, w, False), words)

                rep = containment(e1, e2, alphabet, BOX)
                assert rep.answer == (rep.witness is None)
                assert_first(
                    rep.witness,
                    lambda w: member(e1, v1, box1, w, True) and not member(e2, v2, box2, w, True),
                    words,
                )

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_box_subword_witness_is_the_least_covering_word(self, n):
        rep = nonemptiness(family_box_subword(n), AB, BOX)
        assert (rep.answer, rep.witness) == (True, least_covering_word(n))

    @pytest.mark.parametrize("n", [2, 3])
    def test_subword_containment_separator_is_the_least_covering_word(self, n):
        rep = containment(family_box_subword(n), family_box_subword(n + 1), AB, BOX)
        assert (rep.answer, rep.witness) == (False, least_covering_word(n))

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_diamond_power_counterexample_is_the_first_missing_word(self, n):
        def power(w):
            return not w or (len(w) % n == 0 and w == w[:n] * (len(w) // n))

        first_missing = next(w for w in oracles.all_words(AB, 2 * n) if not power(w))
        rep = universality(family_diamond_power(n), AB, DIAMOND)
        assert (rep.answer, rep.witness) == (False, first_missing)

    def test_box_nonemptiness_past_the_product_cap(self):
        # The product of the 729 determinized instances needs more than the
        # default 65 536 states; the search finds the word among 135.
        e = parse(
            "(0|1|2)*($x1|0|1|2)2($x2|1)($x3|0|1|2)($x4|0)1($x5|0|1|2)($x6|1)(0|1|2)*", ABC
        )
        rep = nonemptiness(e, ABC, BOX)
        assert (rep.answer, rep.witness) == (True, "02100101")
        assert rep.stats == {"valuations": 729, "states": 135}
        assert membership(e, rep.witness, ABC, BOX).answer is True

    def test_a_deep_chain_of_mergeable_states_is_decided(self):
        # The two 2000-letter tails merge state by state, from the end: the
        # merge revisits only the states whose successors changed class.
        e = parse("_|(0|1)*0(0|1){2000}|(0|1)*1(0|1){2000}|$x", AB)
        rep = universality(e, AB, DIAMOND)
        assert (rep.answer, rep.witness, rep.stats) == (False, "00", {"valuations": 2, "states": 4})

    def test_box_nonemptiness_stops_where_no_final_state_is_reachable(self):
        # No state of (1(01*)01)@ reaches a final one: the search is over
        # at the start.
        rep = nonemptiness(parse("(1(01*)01)@", AB), AB, BOX)
        assert (rep.answer, rep.witness, rep.stats) == (
            False, None, {"valuations": 1, "states": 1}
        )


def domain_member_oracle(e, choices, bound):
    """Membership in the certainty and possibility languages of e over the
    finitary valuations of ``choices``: bounded languages per valuation,
    the matcher for longer words."""
    nus = [dict(zip(choices, images)) for images in itertools.product(*choices.values())]
    reducts = [finitary_reduct(e, nu) for nu in nus]
    langs = [oracles.bounded_language(r, bound) for r in reducts]

    def member(w, box):
        if len(w) <= bound:
            hits = (w in lang for lang in langs)
        else:
            hits = (oracles.matches(r, w) for r in reducts)
        return all(hits) if box else any(hits)

    return member


class TestMaskSearchOverDomains:
    """Box nonemptiness, universality and box containment step mask states
    over domain words too: against the oracle."""

    def test_random_expressions_match_the_oracle(self):
        rng = random.Random(4121)
        bound = 5
        words = list(oracles.all_words(AB, bound))
        seen = {"empty image": 0, "longer image": 0, "infinite": 0, "nonempty": 0,
                "diamond counterexample": 0, "separated": 0}
        for _ in range(150):
            e1, spec, choices, _ = random_domain_case(rng, infinite=rng.random() < 0.5)
            e2 = oracles.random_expr(rng, AB, spec.names, rng.randint(2, 9), var_prob=0.45)
            images = [u for ws in choices.values() for u in ws]
            seen["empty image"] += "" in images
            seen["longer image"] += any(len(u) > 1 for u in images)
            seen["infinite"] += bool(spec.infinite_variables())
            member1 = domain_member_oracle(e1, choices, bound)
            member2 = domain_member_oracle(e2, choices, bound)

            rep = nonemptiness(e1, AB, BOX, domains=spec)
            assert rep.answer == (rep.witness is not None)
            assert_first(rep.witness, lambda w: member1(w, True), words)
            seen["nonempty"] += rep.answer

            for sem in (BOX, DIAMOND):
                if sem is DIAMOND and spec.infinite_variables():
                    with pytest.raises(DomainNotFinite):
                        universality(e1, AB, sem, domains=spec)
                    continue
                rep = universality(e1, AB, sem, domains=spec)
                assert (rep.answer, rep.valuation) == (rep.witness is None, None)
                assert_first(rep.witness, lambda w: not member1(w, sem is BOX), words)
                seen["diamond counterexample"] += sem is DIAMOND and not rep.answer

            rep = containment(e1, e2, AB, BOX, domains=spec)
            assert rep.answer == (rep.witness is None)
            assert_first(rep.witness, lambda w: member1(w, True) and not member2(w, True), words)
            seen["separated"] += not rep.answer
        assert min(seen.values()) >= 10, seen

    def test_chain_states_are_counted(self):
        # Each two-letter image runs through one chain state.
        spec = DomainSpec.from_json({"x": "00|11"}, AB)
        rep = nonemptiness(parse("(0|1)*$x(0|1)*", AB), AB, BOX, domains=spec)
        assert rep.to_json() == {
            "answer": True, "witness": "0011", "valuation": None,
            "stats": {"valuations": 2, "states": 8},
        }

    def test_empty_image_and_chain_in_one_search(self):
        # x = "" accepts only the empty word, x = 01 only 0101.
        spec = DomainSpec.from_json({"x": "_|01"}, AB)
        rep = nonemptiness(parse("$x$x", AB), AB, BOX, domains=spec)
        assert (rep.answer, rep.witness) == (False, None)
        assert membership(parse("$x$x", AB), "", AB, DIAMOND, domains=spec).answer is True
        assert membership(parse("$x$x", AB), "0101", AB, DIAMOND, domains=spec).answer is True

    def test_an_empty_image_keeps_only_its_own_valuations(self):
        # x = 0 reads the word "0" into the middle of $x$y, and only y = ""
        # crosses $y without reading: x = 0, y = 1 is the first to reject.
        spec = DomainSpec.from_json({"x": "0|1", "y": "_|1"}, AB)
        rep = membership(parse("$x$y", AB), "0", AB, BOX, domains=spec)
        assert (rep.answer, rep.valuation) == (False, {"x": "0", "y": "1"})

    def test_state_cap_bounds_the_search(self):
        spec = DomainSpec.from_json({"x": "00|11"}, AB)
        e = parse("(0|1)*$x(0|1)*", AB)
        assert nonemptiness(e, AB, BOX, state_cap=8, domains=spec).answer is True
        with pytest.raises(StateCapExceeded, match="search exceeded the cap of 7 states"):
            nonemptiness(e, AB, BOX, state_cap=7, domains=spec)


def instance_by_instance(e, alphabet):
    """Box universality over letters the long way: each instance
    determinized in enumeration order up to the first that is not universal,
    whose subsets a breadth-first walk discovers up to the first rejected."""
    base = regex_to_nfa(e, alphabet)
    count = 0
    for nu in enumerate_valuations(variables(e), alphabet):
        count += 1
        cex, discovered = first_rejected(determinize(apply_to_nfa(nu, base)))
        if cex is not None:
            stats = {"valuations": count, "states": discovered}
            return DecisionReport(False, cex, nu.as_dict(), stats)
    return DecisionReport(True, None, None, {"valuations": count, "states": base.n_states})


class TestBoxUniversality:
    def test_random_expressions_match_the_oracle(self):
        rng = random.Random(4119)
        cases = {"plain": 0, "all": 0, "universal": 0, "first bad after 0": 0}
        for alphabet, count, bound in ((AB, 300, 6), (ABC, 100, 4)):
            words = list(oracles.all_words(alphabet, bound))
            sigma = Star(Union(Lit(alphabet.letters[0]), Lit(alphabet.letters[1])))
            if len(alphabet) == 3:
                sigma = Star(Union(sigma.inner, Lit("2")))
            # Every word holding the last letter: an instance is universal iff
            # it matches the words without that letter.
            holding = Concat(sigma, Concat(Lit(alphabet.letters[-1]), sigma))
            for _ in range(count):
                e = oracles.random_expr(
                    rng, alphabet, ("x", "y", "z"), rng.randint(3, 12), var_prob=0.4
                )
                wrap = rng.random()
                if wrap < 0.3:
                    e = Union(sigma, e)
                elif wrap < 0.6:
                    e = Union(holding, e)
                rep = universality(e, alphabet, BOX)
                assert rep.to_json() == instance_by_instance(e, alphabet).to_json()
                nus = list(oracles.letter_valuations(variables(e), alphabet))
                first = len(nus) if rep.answer else nus.index(rep.valuation)
                assert rep.stats["valuations"] == (first if rep.answer else first + 1)
                for nu in nus[:first]:
                    language = oracles.bounded_language(oracles.substitute(e, nu), bound)
                    assert len(language) == len(words)
                cases["plain" if wrap >= 0.6 else "all"] += 1
                if rep.answer:
                    cases["universal"] += 1
                    continue
                cases["first bad after 0"] += first > 0
                instance = oracles.substitute(e, rep.valuation)
                assert not oracles.matches(instance, rep.witness)
                for w in oracles.all_words(alphabet, len(rep.witness)):
                    if w == rep.witness:
                        break
                    assert oracles.matches(instance, w), w
        assert min(cases.values()) >= 10, cases

    def test_search_goes_on_past_a_later_valuations_counterexample(self):
        # "0" is x=1's counterexample and is met first; x=0's is "11".
        e = parse("_|$x(0|1)*|1|10(0|1)*|11(0|1)(0|1)*", AB)
        rep = universality(e, AB, BOX)
        assert rep.to_json() == {
            "answer": False,
            "witness": "11",
            "valuation": {"x": "0"},
            "stats": {"valuations": 1, "states": 7},
        }

    def test_every_instance_universal_at_k8(self):
        # 6561 instances and no instance determinized: every valuation
        # reaches the (0|1|2)* branch on the first letter.
        e = parse(
            "(0|1|2)*|($x1|0|1|2)1($x2|0)($x3|0|1|2)($x4|0)($x5|0|1|2)1($x6|0)"
            "($x7|0|1|2)($x8|0)",
            ABC,
        )
        rep = universality(e, ABC, BOX)
        assert rep.to_json() == {
            "answer": True,
            "witness": None,
            "valuation": None,
            "stats": {"valuations": 6561, "states": 98},
        }

    def test_state_cap_bounds_the_search(self):
        # Universal through subsets, not through one state: 8 mask states.
        e = parse("_|(0|1)*(0|1)|$x$y$z", AB)
        assert universality(e, AB, BOX, state_cap=8).answer is True
        with pytest.raises(StateCapExceeded, match="search exceeded the cap of 7 states"):
            universality(e, AB, BOX, state_cap=7)

    def test_sure_states_end_the_search(self):
        # Determinizing the first instance alone exceeds the cap, but every
        # valuation reaches the (0|1|2)* branch, from which it accepts every
        # word, on the first letter.
        e = parse("(0|1|2)*|(((1|0)($z|$x))($z|_)|$y)*", ABC)
        rep = universality(e, ABC, BOX, state_cap=5)
        assert (rep.answer, rep.stats) == (True, {"valuations": 27, "states": 38})


# ---------------------------------------------------------------------------
# the mask searches against the sorted-pair mask states they replaced


def reference_prune(moves, start, finals):
    """Leave out the edges into states from which no final state is
    reachable, and return the start without such states."""
    back = {}
    for row in moves:
        for src, edges in row.items():
            for dst, _ in edges:
                back.setdefault(dst, []).append(src)
    alive = set(finals)
    work = list(alive)
    while work:
        for src in back.get(work.pop(), ()):
            if src not in alive:
                alive.add(src)
                work.append(src)
    for row in moves:
        for src, edges in row.items():
            row[src] = [edge for edge in edges if edge[0] in alive]
    return tuple(pair for pair in start if pair[0] in alive)


class ReferenceMasks:
    """Mask states as sorted (state, valuation bitset) pairs over the
    unmerged, pruned moves: one pair per state some valuation reaches."""

    def __init__(self, base, choices):
        self.total, self.moves, start, _ = _moves(base, choices)
        self.full = (1 << self.total) - 1
        self.finals = base.finals
        self.start = reference_prune(self.moves, start, base.finals)

    def step(self, state, i):
        return tuple(sorted(_step(state, self.moves[i]).items()))

    def accepting(self, state):
        out = 0
        for q, have in state:
            if q in self.finals:
                out |= have
        return out

    def alive(self, state):
        out = 0
        for _, have in state:
            out |= have
        return out == self.full

    def first_non_universal(self, alphabet, state_cap):
        sure = set(self.finals)
        while True:
            kept = {
                q for q in sure
                if all(any(keep is None and dst in sure for dst, keep in row.get(q, ()))
                       for row in self.moves)
            }
            if kept == sure:
                break
            sure = kept
        live = self.full

        def step(state, i):
            ahead = _step(state, self.moves[i])
            done = 0
            for q in sure:
                done |= ahead.get(q, 0)
            return tuple(sorted(
                (q, narrowed) for q, have in ahead.items()
                if (narrowed := have & live if q in sure else have & live & ~done)
            ))

        def rejects(state):
            nonlocal live
            bad = live & ~self.accepting(state)
            if bad:
                live = (bad & -bad) - 1
            return not live

        reference_mask_search(self.start, step, alphabet, rejects, lambda s: True, state_cap)
        return None if live == self.full else live.bit_length()


def reference_mask_search(start, step, alphabet, wanted, keep, state_cap):
    """Breadth-first search for the shortlex-least word to a wanted node,
    and the number of nodes discovered."""
    if wanted(start):
        return "", 1
    parents = {start: None}
    queue = [start]
    for node in queue:
        for i in range(len(alphabet)):
            nxt = step(node, i)
            if nxt in parents or not keep(nxt):
                continue
            if len(parents) >= state_cap:
                raise StateCapExceeded(f"search exceeded the cap of {state_cap} states")
            parents[nxt] = (node, i)
            if wanted(nxt):
                chars = []
                link = parents[nxt]
                while link is not None:
                    node, i = link
                    chars.append(alphabet.letters[i])
                    link = parents[node]
                return "".join(reversed(chars)), len(parents)
            queue.append(nxt)
    return None, len(parents)


def reference_search(problem, alphabet, sem, e1, e2=None, domains=None, state_cap=65536):
    """Box nonemptiness, universality or box containment decided on the
    sorted-pair mask states."""

    def masks(e):
        choices = _valuation_space(e, alphabet, sem, domains, 10**6, 10**6)[1]
        return ReferenceMasks(regex_to_nfa(e, alphabet), choices), choices

    side, choices = masks(e1)
    if problem == "nonempty":
        witness, n = reference_mask_search(
            side.start, side.step, alphabet,
            lambda s: side.accepting(s) == side.full, side.alive, state_cap,
        )
        return DecisionReport(witness is not None, witness, None,
                              {"valuations": side.total, "states": n})
    if problem == "contains":
        rhs = (masks(e2)[0] if domains is None
               else ReferenceMasks(regex_to_nfa(e2, alphabet), choices))
        witness, n = reference_mask_search(
            (side.start, rhs.start),
            lambda pair, i: (side.step(pair[0], i), rhs.step(pair[1], i)),
            alphabet,
            lambda pair: (side.accepting(pair[0]) == side.full
                          and rhs.accepting(pair[1]) != rhs.full),
            lambda pair: side.alive(pair[0]),
            state_cap,
        )
        return DecisionReport(witness is None, witness, None,
                              {"valuations": side.total + rhs.total, "states": n})
    base = regex_to_nfa(e1, alphabet)
    if sem is BOX and domains is None:
        first = 0
        if base.initial in base.finals:
            first = side.first_non_universal(alphabet, state_cap)
        if first is None:
            return DecisionReport(True, None, None,
                                  {"valuations": side.total, "states": base.n_states})
        nu = valuation_at(choices, first)
        cex, discovered = first_rejected(determinize(apply_to_nfa(nu, base)))
        if discovered > state_cap:
            raise StateCapExceeded(f"search exceeded the cap of {state_cap} states")
        return DecisionReport(False, cex, nu.as_dict(),
                              {"valuations": first + 1, "states": discovered})
    cex, n = reference_mask_search(
        side.start, side.step, alphabet,
        (lambda s: side.accepting(s) != side.full) if sem is BOX
        else (lambda s: not side.accepting(s)),
        lambda s: True, state_cap,
    )
    return DecisionReport(cex is None, cex, None, {"valuations": side.total, "states": n})


def outcome(decide):
    try:
        return decide()
    except StateCapExceeded as exc:
        return str(exc)


class TestMergedPackedSearch:
    """Every mask search on the merged automaton answers as on the
    sorted-pair mask states over the unmerged one: same answer, witness,
    valuation and cap error, and never more states."""

    def compare(self, tally, problem, alphabet, sem, e1, e2=None, domains=None, small_cap=12):
        for cap in (65536, small_cap):
            if problem == "nonempty":
                got = outcome(lambda: nonemptiness(e1, alphabet, sem, state_cap=cap,
                                                   domains=domains))
            elif problem == "universal":
                got = outcome(lambda: universality(e1, alphabet, sem, state_cap=cap,
                                                   domains=domains))
            else:
                got = outcome(lambda: containment(e1, e2, alphabet, sem, state_cap=cap,
                                                  domains=domains))
            want = outcome(lambda: reference_search(problem, alphabet, sem, e1, e2, domains, cap))
            tally["searches"] += 1
            if isinstance(got, str):
                assert got == want, (problem, e1, e2)
                tally["refused"] += 1
                continue
            if isinstance(want, str):
                tally["answered past the old cap"] += 1
                continue
            assert (got.answer, got.witness, got.valuation, got.stats["valuations"]) == (
                want.answer, want.witness, want.valuation, want.stats["valuations"]
            ), (problem, e1, e2)
            assert got.stats["states"] <= want.stats["states"], (problem, e1, e2)
            tally["fewer states"] += got.stats["states"] < want.stats["states"]

    def test_letters(self):
        rng = random.Random(4131)
        tally = collections.Counter()
        for alphabet, count in ((AB, 200), (ABC, 100)):
            sigma = Lit(alphabet.letters[0])
            for ch in alphabet.letters[1:]:
                sigma = Union(sigma, Lit(ch))
            for _ in range(count):
                e1, e2 = (
                    oracles.random_expr(
                        rng, alphabet, ("x", "y", "z"), rng.randint(3, 14), var_prob=0.4
                    )
                    for _ in range(2)
                )
                # Wrapped so that the box universality search runs, and now
                # and then finds every instance universal; behind $x the sure
                # states of Σ* are reached under some valuations only.
                wrapped = Union(Epsilon(), Union(Concat(Star(sigma), sigma), e1))
                partly = Union(Concat(Var("x"), Star(sigma)), wrapped)
                self.compare(tally, "nonempty", alphabet, BOX, e1)
                self.compare(tally, "universal", alphabet, BOX, wrapped)
                self.compare(tally, "universal", alphabet, BOX, partly)
                self.compare(tally, "universal", alphabet, DIAMOND, e1)
                self.compare(tally, "contains", alphabet, BOX, e1, e2)
        assert min(tally.values()) >= 10, tally

    def test_domains(self):
        rng = random.Random(4133)
        tally = collections.Counter()
        for _ in range(300):
            e1, spec, _, _ = random_domain_case(rng, infinite=rng.random() < 0.5)
            e2 = oracles.random_expr(rng, AB, spec.names, rng.randint(2, 9), var_prob=0.45)
            self.compare(tally, "nonempty", AB, BOX, e1, domains=spec, small_cap=2)
            self.compare(tally, "universal", AB, BOX, e1, domains=spec, small_cap=2)
            if not spec.infinite_variables():
                self.compare(tally, "universal", AB, DIAMOND, e1, domains=spec, small_cap=2)
            self.compare(tally, "contains", AB, BOX, e1, e2, domains=spec, small_cap=2)
        assert min(tally.values()) >= 10, tally


# ---------------------------------------------------------------------------
# the combined automata built on mask states against the instances combined


def reference_instances(e, alphabet, route, choices):
    """The substituted automata, one per valuation, in enumeration order."""
    if route == "enumerate":
        return [regex_to_nfa(apply_to_regex(nu, e), alphabet)
                for nu in valuations_from(choices)]
    base = regex_to_nfa(e, alphabet)
    if route == "letters":
        return [apply_to_nfa(nu, base) for nu in valuations_from(choices)]
    return [remove_epsilon(apply_finitary(nu, base))
            for nu in valuations_from(choices)]


def built(build):
    """The automaton as (states, initial, finals, transitions in order), or
    the text of the cap it exceeded."""
    try:
        a = build()
    except StateCapExceeded as exc:
        return str(exc)
    return a.n_states, a.initial, sorted(a.finals), list(a.transitions)


def capped(union, cap):
    """The reference union, refused as the library refuses one past the cap."""
    if union.n_states > cap:
        raise StateCapExceeded(f"union exceeded the cap of {cap} states")
    return union


# Sources of one $x edge that start the same image's chain: the finitary
# instances give each edge a chain of its own, the enumerated ones share it.
SHARED_CHAINS = (
    ("(0|1)*$x 1", {"x": "01|1|_"}),
    ("(0|1)*$x(0|1)*|$y", {"x": "01|10", "y": "1*"}),
    ("(0*$x)*|$y", {"x": "01|0", "y": "1*"}),
    ("0*$x", {"x": "011|0"}),
)


class TestCombinedOnMaskStates:
    """The certainty product, built on mask states, against the instances'
    subset constructions combined, and the possibility union, glued in one
    pass, against the instances glued one by one: the same states, finals
    and transitions in order, and the same cap errors, but for the
    certainty product, which determinizes no instance on its own."""

    def compare(self, tally, e, alphabet, route, choices, small_cap, spec=None):
        instances = reference_instances(e, alphabet, route, choices)
        union = union_all(instances, alphabet) if route != "finitary" else None
        for cap in (65536, small_cap):
            got = built(lambda: _construct(e, alphabet, BOX, (route, choices), cap)[0])
            want = built(lambda: product_all(instances, cap))
            if isinstance(want, str) and want.startswith("determinization"):
                assert got == f"product exceeded the cap of {cap} states" or not isinstance(
                    got, str), (e, route)
                tally["box refusal changed"] += 1
            else:
                assert got == want, (e, route)
                tally["box refused" if isinstance(got, str) else "box"] += 1
            if route == "finitary":
                continue
            got = built(lambda: construct_nfa(e, alphabet, DIAMOND, state_cap=cap, domains=spec))
            assert got == built(lambda: capped(union, cap)), (e, route)
            tally["union refused" if isinstance(got, str) else "union"] += 1

    def test_letters(self):
        rng = random.Random(4141)
        tally = collections.Counter()
        # Over "ba" alphabet order and code-point order differ: the union's
        # edges must come in code-point order, as ε-removal leaves them.
        for alphabet, count in ((AB, 400), (ABC, 200), (Alphabet("ba"), 200)):
            for _ in range(count):
                e = oracles.random_expr(rng, alphabet, ("x", "y", "z"), rng.randint(3, 14),
                                        var_prob=0.4)
                choices = _valuation_space(e, alphabet, BOX, None, 10**6, 10**4)[1]
                self.compare(tally, e, alphabet, "letters", choices, small_cap=4)
        assert min(tally.values()) >= 10, tally

    def test_domains(self):
        rng = random.Random(4143)
        tally = collections.Counter()
        cases = [(parse(text, AB), DomainSpec.from_json(mapping, AB))
                 for text, mapping in SHARED_CHAINS]
        for _ in range(400):
            e, spec, _, _ = random_domain_case(rng, infinite=rng.random() < 0.4)
            cases.append((e, spec))
        for e, spec in cases:
            routes = ["finitary"] if spec.infinite_variables() else ["enumerate", "finitary"]
            for route in routes:
                choices = domain_choices(spec, finitary=route == "finitary")
                self.compare(tally, e, AB, route, choices, small_cap=3, spec=spec)
        assert min(tally.values()) >= 10, tally


# ---------------------------------------------------------------------------
# the pair searches against the emptiness of the products they replaced


PINNED_PAIR_REPORTS = [
    (lambda: nonempty_int_reg(family_box_subword(4), parse("(0|1)*", AB), AB, BOX),
     (True, "0000100110101111000", 16, 13757)),
    (lambda: nonempty_int_reg(family_diamond_power(3), parse("1(0|1)*0", AB), AB, DIAMOND),
     (True, "100", 8, 13)),
    (lambda: containment(family_diamond_power(3), parse("(00|11)*", AB), AB, DIAMOND),
     (False, "000", 9, 18)),
    (lambda: containment(parse("".join(f"$x{i}" for i in range(1, 12)), AB),
                         parse("(0|1)*", AB), AB, DIAMOND),
     (True, None, 2049, 22529)),
]


def assert_pinned(decide, report):
    answer, witness, n_vals, n_states = report
    assert decide().to_json() == {
        "answer": answer, "witness": witness, "valuation": None,
        "stats": {"valuations": n_vals, "states": n_states},
    }


class TestPairSearches:
    """Intersection with a regular language under both semantics, and
    possibility containment, searched pair by pair, against is_empty of the
    product of the reference-built automata: the same answer, witness and
    valuation count, never more states than that product has, and a
    refusal only where the reference refused."""

    def compare(self, tally, kind, decide, reference, small_cap):
        for cap in (65536, small_cap):
            got = outcome(lambda: decide(cap))
            try:
                gap, n_vals = reference(cap)
            except StateCapExceeded as exc:
                if str(exc).startswith("union"):  # the union is glued before any search
                    assert got == str(exc), (kind, got)
                tally["refused" if isinstance(got, str) else "answered past the cap"] += 1
                continue
            assert not isinstance(got, str), (kind, got)
            empty, witness = is_empty(gap)
            answer = empty if kind == "contains" else not empty
            assert (got.answer, got.witness, got.valuation, got.stats["valuations"]) == (
                answer, witness, None, n_vals
            ), kind
            assert got.stats["states"] <= gap.n_states, kind
            tally[kind] += 1

    def sweep(self, tally, alphabet, e, e2, r, route, choices, rhs_choices, spec, small_cap):
        """Box and diamond intersection of e with r, and diamond containment
        of e in e2, on the valuations of ``choices`` (``rhs_choices`` for e2)."""
        reg = regex_to_nfa(r, alphabet)
        instances = reference_instances(e, alphabet, route, choices)
        self.compare(
            tally, "box intersect",
            lambda cap: nonempty_int_reg(e, r, alphabet, BOX, state_cap=cap, domains=spec),
            lambda cap: (product(product_all(instances, cap), reg, cap), len(instances)),
            small_cap,
        )
        if route == "finitary":
            return
        union = union_all(instances, alphabet)
        self.compare(
            tally, "diamond intersect",
            lambda cap: nonempty_int_reg(e, r, alphabet, DIAMOND, state_cap=cap, domains=spec),
            lambda cap: (product(capped(union, cap), reg, cap), len(instances)),
            small_cap,
        )
        rhs = reference_instances(e2, alphabet, route, rhs_choices)
        self.compare(
            tally, "contains",
            lambda cap: containment(e, e2, alphabet, DIAMOND, state_cap=cap, domains=spec),
            lambda cap: (product(capped(union, cap), dfa_to_nfa(complement(
                determinize(union_all(rhs, alphabet), cap))), cap), len(instances) + len(rhs)),
            small_cap,
        )

    def test_letters(self):
        rng = random.Random(4151)
        tally = collections.Counter()
        for alphabet, count in ((AB, 150), (ABC, 60), (Alphabet("ba"), 60)):
            for _ in range(count):
                e, e2 = (
                    oracles.random_expr(rng, alphabet, ("x", "y", "z"), rng.randint(3, 12),
                                        var_prob=0.4)
                    for _ in range(2)
                )
                r = oracles.random_expr(rng, alphabet, (), rng.randint(2, 8))
                choices, rhs_choices = (
                    _valuation_space(side, alphabet, BOX, None, 10**6, 10**4)[1]
                    for side in (e, e2)
                )
                self.sweep(tally, alphabet, e, e2, r, "letters", choices, rhs_choices, None,
                           small_cap=6)
        assert min(tally.values()) >= 10, tally

    def test_domains(self):
        rng = random.Random(4153)
        tally = collections.Counter()
        for _ in range(200):
            e, spec, _, _ = random_domain_case(rng, infinite=rng.random() < 0.4)
            e2 = oracles.random_expr(rng, AB, spec.names, rng.randint(2, 9), var_prob=0.45)
            r = oracles.random_expr(rng, AB, (), rng.randint(2, 8))
            route = "finitary" if spec.infinite_variables() else "enumerate"
            choices = domain_choices(spec, finitary=route == "finitary")
            self.sweep(tally, AB, e, e2, r, route, choices, choices, spec, small_cap=4)
        assert min(tally.values()) >= 10, tally

    # The whole report at the default cap: a change to the order the pairs
    # are tried in moves the witness or the count of pairs discovered.
    @pytest.mark.parametrize("decide,report", PINNED_PAIR_REPORTS,
                             ids=["box-intersect", "diamond-intersect", "diamond-contains-false",
                                  "diamond-contains-true"])
    def test_reports_are_pinned(self, decide, report):
        assert_pinned(decide, report)


# ---------------------------------------------------------------------------
# the possibility union read by the searches against the union glued first


def glued_report(problem, alphabet, e, other, route, choices, other_choices, cap):
    """A possibility search as it runs on the union glued first: the union
    of the reference instances, refused past the cap, and searched whole,
    for nonemptiness, intersection with the regular expression ``other`` or
    containment in ``other`` (on the valuations of ``other_choices``)."""
    instances = reference_instances(e, alphabet, route, choices)
    union = capped(union_all(instances, alphabet), cap)
    if problem == "nonempty":
        empty, witness = is_empty(union)
        return DecisionReport(not empty, witness, None,
                              {"valuations": len(instances), "states": union.n_states})
    if problem == "intersect":
        reg = regex_to_nfa(other, alphabet)
        on_reg = _targets(reg)
        start, step = reg.initial, lambda q, i: on_reg.get((q, i), ())
        wanted = reg.finals.__contains__
        n_vals = len(instances)
    else:
        rhs = _search_masks(regex_to_nfa(other, alphabet), other_choices)
        start, step = rhs.start, lambda s, i: (rhs.step(s, i),)
        wanted = lambda s: not rhs.accepting(s)  # noqa: E731
        n_vals = len(instances) + rhs.total
    targets = _targets(union)

    def pairs(pair, i):
        q, node = pair
        ahead = targets.get((q, i))
        return [(d, nxt) for d in ahead for nxt in step(node, i)] if ahead else ()

    witness, n = _search((union.initial, start), pairs, alphabet,
                         lambda pair: pair[0] in union.finals and wanted(pair[1]), cap)
    answer = witness is None if problem == "contains" else witness is not None
    return DecisionReport(answer, witness, None, {"valuations": n_vals, "states": n})


def refuse_to_glue(*args):
    raise AssertionError("the union was glued")


def has_image_kinds(choices):
    """The image kinds among the valuations: empty, one letter, longer."""
    return {min(len(w), 2) for images in choices.values() for w in images}


class TestUnionIsRead:
    """The possibility union the searches read (:class:`_UnionSource`)
    against the union glued by ``_union`` and by the reference: its
    computed size, the finality of its start, and every node's targets on
    every letter; the glue of a source already stepped, and the compiles
    both readers share; and the reports of the searches on it, with
    ``_union`` refusing to run, against the same searches on the glued
    union."""

    @staticmethod
    def count_compiles(monkeypatch):
        """Count the library's compiles, per expression and spelling."""
        calls = collections.Counter()
        compile_ = semantics.regex_to_nfa

        def counted(e, alphabet, spell=None):
            calls[id(e), spell and tuple(spell.items())] += 1
            return compile_(e, alphabet, spell)

        monkeypatch.setattr(semantics, "regex_to_nfa", counted)
        return calls

    def compare_union(self, calls, tally, e, alphabet, route, choices, spec=None):
        calls.clear()
        glued = built(lambda: construct_nfa(e, alphabet, DIAMOND, domains=spec))
        # Each instance is compiled once however often its edges are read:
        # node 0's and then its own.
        assert max(calls.values(), default=0) == 1, (e, calls)
        want = union_all(reference_instances(e, alphabet, route, choices), alphabet)
        assert glued == built(lambda: want), (e, choices)
        calls.clear()
        source = _UnionSource(e, alphabet, choices, 65536)
        start_final = 0 in source.finals  # before any instance is compiled
        assert (source.size, start_final) == (want.n_states, 0 in want.finals), (e, choices)
        # Glued after node 0 and the last instance have been indexed, and
        # again after every node has, the union is the same, and still no
        # instance has been compiled twice.
        source.step(0, 0)
        source.step(source.offsets[-2], 0)
        assert built(lambda: _union(source)) == glued, (e, choices)
        targets = _targets(want)
        for node in range(want.n_states):
            for i in range(len(alphabet)):
                assert list(source.step(node, i)) == targets.get((node, i), []), (e, node, i)
        assert source.finals == want.finals
        assert built(lambda: _union(source)) == glued, (e, choices)
        assert max(calls.values()) == 1, (e, calls)
        tally["start final" if start_final else "start not final"] += 1
        for kind in has_image_kinds(choices) if route != "letters" else ():
            tally[("empty", "one letter", "longer")[kind] + " image"] += 1
        refused = f"union exceeded the cap of {source.size - 1} states"
        with pytest.raises(StateCapExceeded, match=refused):
            _UnionSource(e, alphabet, choices, source.size - 1)

    def test_size_and_start_over_letters(self, monkeypatch):
        rng = random.Random(4161)
        tally = collections.Counter()
        calls = self.count_compiles(monkeypatch)
        for alphabet, count in ((AB, 200), (ABC, 100), (Alphabet("ba"), 100)):
            for _ in range(count):
                e = oracles.random_expr(rng, alphabet, ("x", "y", "z"), rng.randint(3, 14),
                                        var_prob=0.4)
                choices = _valuation_space(e, alphabet, DIAMOND, None, 10**6, 10**4)[1]
                self.compare_union(calls, tally, e, alphabet, "letters", choices)
        assert min(tally.values()) >= 10, tally

    def test_size_and_start_over_domains(self, monkeypatch):
        rng = random.Random(4163)
        tally = collections.Counter()
        calls = self.count_compiles(monkeypatch)
        cases = [(parse(text, AB), DomainSpec.from_json(mapping, AB))
                 for text, mapping in SHARED_CHAINS if "*" not in str(mapping)]
        for _ in range(400):
            e, spec, _, _ = random_domain_case(rng, infinite=False)
            cases.append((e, spec))
        for e, spec in cases:
            self.compare_union(calls, tally, e, AB, "enumerate", domain_choices(spec), spec)
        assert len(tally) == 5 and min(tally.values()) >= 10, tally

    def compare_reports(self, tally, problem, alphabet, e, other, choices, other_choices,
                        spec, small_cap):
        route = "letters" if spec is None else "enumerate"
        decide = {
            "nonempty": lambda cap: nonemptiness(e, alphabet, DIAMOND, state_cap=cap,
                                                 domains=spec),
            "intersect": lambda cap: nonempty_int_reg(e, other, alphabet, DIAMOND,
                                                      state_cap=cap, domains=spec),
            "contains": lambda cap: containment(e, other, alphabet, DIAMOND, state_cap=cap,
                                                domains=spec),
        }[problem]
        for cap in (65536, small_cap):
            got = outcome(lambda: decide(cap))
            want = outcome(lambda: glued_report(problem, alphabet, e, other, route, choices,
                                                other_choices, cap))
            if isinstance(want, str):
                assert got == want, (problem, e)
                tally[problem + " refused"] += 1
            else:
                assert got.to_json() == want.to_json(), (problem, e)
                tally[problem] += 1

    def test_searches_over_letters(self, monkeypatch):
        monkeypatch.setattr(semantics, "_union", refuse_to_glue)
        rng = random.Random(4165)
        tally = collections.Counter()
        # The generators of TestCombinedOnMaskStates and TestPairSearches.
        for alphabet, count in ((AB, 200), (ABC, 100), (Alphabet("ba"), 100)):
            universal = parse(f"({'|'.join(alphabet.letters)})*", alphabet)
            for _ in range(count):
                e = oracles.random_expr(rng, alphabet, ("x", "y", "z"), rng.randint(3, 14),
                                        var_prob=0.4)
                choices = _valuation_space(e, alphabet, DIAMOND, None, 10**6, 10**4)[1]
                self.compare_reports(tally, "intersect", alphabet, e, universal, choices,
                                     None, None, small_cap=4)
        for alphabet, count in ((AB, 150), (ABC, 60), (Alphabet("ba"), 60)):
            for _ in range(count):
                e, e2 = (
                    oracles.random_expr(rng, alphabet, ("x", "y", "z"), rng.randint(3, 12),
                                        var_prob=0.4)
                    for _ in range(2)
                )
                r = oracles.random_expr(rng, alphabet, (), rng.randint(2, 8))
                choices, rhs_choices = (
                    _valuation_space(side, alphabet, BOX, None, 10**6, 10**4)[1]
                    for side in (e, e2)
                )
                self.compare_reports(tally, "intersect", alphabet, e, r, choices, None, None,
                                     small_cap=6)
                self.compare_reports(tally, "contains", alphabet, e, e2, choices, rhs_choices,
                                     None, small_cap=6)
        assert min(tally.values()) >= 10, tally

    def test_searches_over_domains(self, monkeypatch):
        monkeypatch.setattr(semantics, "_union", refuse_to_glue)
        rng = random.Random(4167)
        tally = collections.Counter()
        cases = [(parse(text, AB), DomainSpec.from_json(mapping, AB))
                 for text, mapping in SHARED_CHAINS if "*" not in str(mapping)]
        for _ in range(400):
            e, spec, _, _ = random_domain_case(rng, infinite=False)
            cases.append((e, spec))
        for e, spec in cases:
            self.compare_reports(tally, "nonempty", AB, e, None, domain_choices(spec), None,
                                 spec, small_cap=3)
        for _ in range(200):
            e, spec, _, _ = random_domain_case(rng, infinite=False)
            e2 = oracles.random_expr(rng, AB, spec.names, rng.randint(2, 9), var_prob=0.45)
            r = oracles.random_expr(rng, AB, (), rng.randint(2, 8))
            choices = domain_choices(spec)
            for problem, other in (("nonempty", None), ("intersect", r), ("contains", e2)):
                self.compare_reports(tally, problem, AB, e, other, choices, choices, spec,
                                     small_cap=4)
        assert min(tally.values()) >= 10, tally

    @pytest.mark.parametrize("decide,report", PINNED_PAIR_REPORTS[1:],
                             ids=["diamond-intersect", "diamond-contains-false",
                                  "diamond-contains-true"])
    def test_pinned_reports_do_not_glue(self, monkeypatch, decide, report):
        monkeypatch.setattr(semantics, "_union", refuse_to_glue)
        assert_pinned(decide, report)

    def test_only_construct_nfa_glues(self, monkeypatch):
        monkeypatch.setattr(semantics, "_union", refuse_to_glue)
        spec = DomainSpec.from_json({"x": "_|01", "y": "1"}, AB)
        e = parse("$x$y 0*", AB)
        assert nonemptiness(e, AB, DIAMOND, domains=spec).to_json() == {
            "answer": True, "witness": "1", "valuation": None,
            "stats": {"valuations": 2, "states": 19},
        }
        with pytest.raises(AssertionError, match="the union was glued"):
            construct_nfa(e, AB, DIAMOND, domains=spec)


# ---------------------------------------------------------------------------
# the library's automata pass the checks they are built without


class TestBuiltAutomataPassTheChecks:
    """The library builds its own automata without the constructor's checks;
    every one of them must pass those checks, frozen as the constructor
    freezes an automaton."""

    @staticmethod
    def check(tally, kind, a):
        assert isinstance(a.finals, frozenset) and isinstance(a.transitions, tuple), kind
        Nfa(a.n_states, a.initial, a.finals, a.transitions, a.alphabet)
        tally[kind] += 1

    def test_letters(self):
        rng = random.Random(4161)
        tally = collections.Counter()
        for alphabet, count in ((AB, 120), (ABC, 60), (Alphabet("ba"), 60)):
            for _ in range(count):
                e = oracles.random_expr(rng, alphabet, ("x", "y", "z"), rng.randint(2, 12),
                                        var_prob=0.4)
                compiled = regex_to_nfa(e, alphabet)
                for kind, a in (("regex_to_nfa", compiled),
                                ("remove_epsilon", remove_epsilon(thompson(e, alphabet))),
                                ("trim", trim(compiled)), ("_reachable", _reachable(compiled)),
                                ("_merge", _merge(compiled))):
                    self.check(tally, kind, a)
                for sem in (BOX, DIAMOND):
                    self.check(tally, f"construct_nfa {sem.value}", construct_nfa(e, alphabet, sem))
        assert min(tally.values()) >= 60, tally

    def test_domains(self):
        rng = random.Random(4163)
        tally = collections.Counter()
        for _ in range(150):
            e, spec, _, _ = random_domain_case(rng, infinite=rng.random() < 0.4)
            if not spec.infinite_variables():
                self.check(tally, "construct_nfa diamond enumerate",
                           construct_nfa(e, AB, DIAMOND, domains=spec))
            route = "finitary" if spec.infinite_variables() else "enumerate"
            self.check(tally, f"construct_nfa box {route}", construct_nfa(e, AB, BOX, domains=spec))
        assert min(tally.values()) >= 40, tally


def test_no_automaton_built_from_an_expression_carries_epsilon():
    """Expressions, their instances (an empty image included) and domain
    expressions compile without epsilon edges, and so does every automaton
    built from them."""
    rng = random.Random(4167)
    tally = collections.Counter()
    for _ in range(150):
        e, spec, choices, _ = random_domain_case(rng, infinite=rng.random() < 0.4)
        built = [("expression", regex_to_nfa(e, AB)),
                 ("construct_nfa box letters", construct_nfa(e, AB, BOX)),
                 ("construct_nfa diamond letters", construct_nfa(e, AB, DIAMOND))]
        built += [("domain", spec.domain(name)) for name in spec.names]
        if not spec.infinite_variables():
            nu = Valuation({name: rng.choice(words) for name, words in choices.items()})
            built += [("instance", regex_to_nfa(apply_to_regex(nu, e), AB)),
                      ("construct_nfa diamond domains", construct_nfa(e, AB, DIAMOND, domains=spec))]
        built.append(("construct_nfa box domains", construct_nfa(e, AB, BOX, domains=spec)))
        for kind, a in built:
            assert not a.label_kinds()[0], (kind, e)
            tally[kind] += 1
    assert min(tally.values()) >= 60, tally


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
