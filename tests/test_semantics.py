"""Tests for the certainty/possibility semantics layer."""

from __future__ import annotations

import itertools
import random

import pytest

from prx.automata import accepts, determinize, is_empty, regex_to_nfa, remove_epsilon
from prx.constructions import family_box_subword, family_diamond_power
from prx.errors import CountCapExceeded, DomainNotFinite, PrxError
from prx.semantics import (
    BOX,
    DIAMOND,
    DecisionReport,
    Semantics,
    construct_nfa,
    containment,
    membership,
    nonemptiness,
    nonempty_int_reg,
    universality,
)
from prx.syntax import Alphabet, Concat, EmptySet, Star, Union, Var, parse, variables
from prx.valuations import (
    DomainSpec,
    Valuation,
    apply_to_regex,
    enumerate_valuations,
    enumerate_word_valuations,
)

import oracles
from prx import valuations

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
            via_enum = construct_nfa(e, AB, BOX, domains=spec, route="enumerate")
            via_fin = construct_nfa(e, AB, BOX, domains=spec, route="finitary")
            assert nfa_language(via_enum, 5) == nfa_language(via_fin, 5)

    def test_enumerate_route_requires_finite(self):
        e = parse("$x", AB)
        spec = DomainSpec.from_json({"x": "1*"}, AB)
        with pytest.raises(DomainNotFinite):
            construct_nfa(e, AB, BOX, domains=spec, route="enumerate")

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
                for nu in enumerate_word_valuations(spec)
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

    def test_unknown_route(self):
        spec = DomainSpec.from_json({"x": "0"}, AB)
        with pytest.raises(ValueError):
            construct_nfa(parse("$x", AB), AB, BOX, domains=spec, route="minimization")


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
            reduced = construct_nfa(e, AB, BOX, domains=spec, route="finitary")
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
        # default 65 536 states; the search finds the word among 145.
        e = parse(
            "(0|1|2)*($x1|0|1|2)2($x2|1)($x3|0|1|2)($x4|0)1($x5|0|1|2)($x6|1)(0|1|2)*", ABC
        )
        rep = nonemptiness(e, ABC, BOX)
        assert (rep.answer, rep.witness) == (True, "02100101")
        assert rep.stats == {"valuations": 729, "states": 145}
        assert membership(e, rep.witness, ABC, BOX).answer is True


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
