"""Valuation enumeration, application, and regular-domain tests."""

from __future__ import annotations

import random

import pytest

from oracles import (
    all_words,
    bounded_language,
    letter_valuations,
    matches,
    nfa_bounded_language,
    random_expr,
    substitute,
)
from prx.automata import (
    Nfa,
    WordLabel,
    determinize,
    expand_extended,
    is_empty,
    product_all,
    regex_to_nfa,
    remove_epsilon,
)
from prx.errors import CountCapExceeded, DomainNotFinite, PrxError
from prx.syntax import Alphabet, parse, variables
from prx.valuations import (
    DomainSpec,
    FinitaryValuation,
    Valuation,
    apply_finitary,
    apply_to_nfa,
    apply_to_regex,
    domain_choices,
    domain_is_finite,
    enumerate_finitary_valuations,
    enumerate_finite_domain,
    enumerate_valuations,
    enumerate_word_valuations,
    letter_choices,
    letter_masks,
    valuation_at,
    valuations_from,
)

AB01 = Alphabet("01")


def dfa_walk_language(a, max_len):
    d = determinize(a)
    out = set()
    frontier = [("", d.initial)]
    if d.initial in d.finals:
        out.add("")
    for _ in range(max_len):
        nxt = []
        for w, q in frontier:
            for i, letter in enumerate(d.alphabet.letters):
                t = d.delta[q][i]
                if t in d.finals:
                    out.add(w + letter)
                nxt.append((w + letter, t))
        frontier = nxt
    return frozenset(out)


# ---------------------------------------------------------------------------
# enumerate_valuations


def test_enumerate_single_variable():
    vals = list(enumerate_valuations(["x"], AB01))
    assert vals == [Valuation({"x": "0"}), Valuation({"x": "1"})]


def test_enumerate_two_variables_order():
    vals = list(enumerate_valuations(["x", "y"], AB01))
    assert len(vals) == 4
    assert vals[0] == Valuation({"x": "0", "y": "0"})
    assert vals[1] == Valuation({"x": "0", "y": "1"})
    assert vals[-1] == Valuation({"x": "1", "y": "1"})


def test_enumerate_no_variables():
    vals = list(enumerate_valuations([], AB01))
    assert vals == [Valuation({})]


def test_enumerate_cap():
    with pytest.raises(CountCapExceeded):
        list(enumerate_valuations([f"v{i}" for i in range(30)], AB01, valuation_cap=10**6))


def test_enumeration_is_reproducible():
    a = [v.as_dict() for v in enumerate_valuations(["x", "y"], Alphabet("012"))]
    b = [v.as_dict() for v in enumerate_valuations(["x", "y"], Alphabet("012"))]
    assert a == b and len(a) == 9



@pytest.mark.parametrize("letters,k", [("01", 0), ("01", 1), ("01", 5), ("012", 3), ("0123", 2)])
def test_letter_masks_follow_the_enumeration(letters, k):
    alphabet = Alphabet(letters)
    names = [f"v{i}" for i in range(k)]
    vals = list(enumerate_valuations(names, alphabet))
    choices = letter_choices(names, alphabet)
    total, masks = letter_masks(choices)
    assert total == len(vals)
    for i, nu in enumerate(vals):
        assert valuation_at(choices, i) == nu
        for name in names:
            got = [c for c, m in zip(alphabet.letters, masks[name]) if m >> i & 1]
            assert got == [nu[name]]
    for name in names:
        assert sum(masks[name]) == (1 << total) - 1


def test_letter_masks_cap():
    with pytest.raises(CountCapExceeded, match="^32 valuations exceed the cap of 31$"):
        letter_choices([f"v{i}" for i in range(5)], AB01, valuation_cap=31)


@pytest.mark.parametrize("radices", [(3,), (2, 3), (1, 4, 2), (3, 1, 2, 5)])
def test_letter_masks_mixed_radix(radices):
    # Each variable with its own number of images, the empty word among them.
    choices = {f"v{i}": ["", *("1" * j for j in range(1, r))] for i, r in enumerate(radices)}
    vals = list(valuations_from(choices))
    total, masks = letter_masks(choices)
    assert total == len(vals) == len(set(vals))
    for i, nu in enumerate(vals):
        assert valuation_at(choices, i) == nu
        for name, images in choices.items():
            assert [u for u, m in zip(images, masks[name]) if m >> i & 1] == [nu[name]]


def test_domain_choices_follow_the_word_enumerations():
    spec = DomainSpec.from_json({"y": "1|00", "x": "0*", "z": "_|0"}, AB01)
    assert domain_choices(spec, finitary=True) == {"y": ["1", "00"], "z": ["", "0"]}
    finitary = list(enumerate_finitary_valuations(spec))
    assert [v.as_dict() for v in finitary] == [
        v.as_dict() for v in valuations_from(domain_choices(spec, finitary=True))
    ]
    with pytest.raises(DomainNotFinite):
        domain_choices(spec)
    with pytest.raises(CountCapExceeded, match="^4 finitary valuations exceed the cap of 3$"):
        domain_choices(spec, valuation_cap=3, finitary=True)
    finite = DomainSpec.from_json({"y": "1|00", "z": "_|0"}, AB01)
    assert list(enumerate_word_valuations(finite)) == list(valuations_from(domain_choices(finite)))

# ---------------------------------------------------------------------------
# apply_to_regex / apply_to_nfa


def test_apply_to_regex_worked_example():
    e = parse("(0$x)*1($x$y)*", AB01)
    nu = Valuation({"x": "1", "y": "0"})
    assert apply_to_regex(nu, e) == parse("(01)*1(10)*", AB01)


def test_apply_to_regex_variable_free_identity():
    e = parse("0(1|0)*", AB01)
    assert apply_to_regex(Valuation({}), e) == e


def test_apply_to_regex_word_image():
    e = parse("$x 1", AB01)
    out = apply_to_regex(Valuation({"x": "00"}), e)
    assert not variables(out)
    for w in all_words(AB01, 4):
        assert matches(out, w) == (w == "001")


def test_apply_to_regex_unbound_variable():
    with pytest.raises(PrxError):
        apply_to_regex(Valuation({"x": "0"}), parse("$x$y", AB01))


def test_apply_to_nfa_matches_apply_to_regex():
    e = parse("(0$x)*1($x$y)*", AB01)
    nu = Valuation({"x": "1", "y": "0"})
    a = apply_to_nfa(nu, regex_to_nfa(e, AB01))
    lhs = nfa_bounded_language(a, AB01, 6)
    rhs = bounded_language(apply_to_regex(nu, e), 6)
    assert lhs == rhs


def test_apply_to_nfa_variable_free_identity():
    a = regex_to_nfa(parse("0|11", AB01), AB01)
    b = apply_to_nfa(Valuation({}), a)
    assert b.transitions == a.transitions


def test_apply_to_nfa_word_image_expands_on_demand():
    ab = Alphabet("ab")
    a = regex_to_nfa(parse("$x", ab), ab)
    relabeled = apply_to_nfa(Valuation({"x": "ab"}), a)
    assert any(isinstance(lab, WordLabel) for _, lab, _ in relabeled.transitions)
    assert nfa_bounded_language(expand_extended(relabeled), ab, 3) == {"ab"}


# ---------------------------------------------------------------------------
# Domains


def test_domain_finiteness():
    assert not domain_is_finite(remove_epsilon(regex_to_nfa(parse("0*", AB01), AB01)))
    assert domain_is_finite(remove_epsilon(regex_to_nfa(parse("00|01", AB01), AB01)))


def test_domain_finite_with_unreachable_cycle():
    # the cycle sits on a dead branch, so the trimmed automaton is acyclic
    a = regex_to_nfa(parse("0|@(11)*", AB01), AB01)
    assert domain_is_finite(a)


def test_long_domain_chain_needs_no_recursion():
    n = 3000
    chain = Nfa(n + 1, 0, {n}, [(i, "0", i + 1) for i in range(n)], AB01)
    assert domain_is_finite(chain)
    assert enumerate_finite_domain(chain) == ["0" * n]


def test_enumerate_finite_domain_examples():
    assert enumerate_finite_domain(regex_to_nfa(parse("00|01", AB01), AB01)) == ["00", "01"]
    assert enumerate_finite_domain(regex_to_nfa(parse("_", AB01), AB01)) == [""]
    assert enumerate_finite_domain(regex_to_nfa(parse("(0|1){2}", AB01), AB01)) == [
        "00",
        "01",
        "10",
        "11",
    ]
    assert enumerate_finite_domain(regex_to_nfa(parse("(0|_)(1|_)", AB01), AB01)) == [
        "",
        "0",
        "1",
        "01",
    ]


def test_enumerate_finite_domain_shortlex_uses_alphabet_order():
    ba = Alphabet("10")  # declaration order: 1 before 0
    words = enumerate_finite_domain(regex_to_nfa(parse("0|1", ba), ba))
    assert words == ["1", "0"]


def test_enumerate_finite_domain_rejects_infinite():
    with pytest.raises(DomainNotFinite):
        enumerate_finite_domain(regex_to_nfa(parse("0*", AB01), AB01))


def test_enumerate_finite_domain_cap():
    with pytest.raises(CountCapExceeded):
        enumerate_finite_domain(regex_to_nfa(parse("(0|1){6}", AB01), AB01), word_cap=10)


def test_domain_spec_rejects_empty_domain():
    with pytest.raises(ValueError):
        DomainSpec({"x": parse("@", AB01)}, AB01)
    with pytest.raises(ValueError):
        DomainSpec({"x": parse("@0", AB01)}, AB01)


def test_domain_spec_rejects_variables_in_domain():
    with pytest.raises(ValueError):
        DomainSpec({"x": parse("$y", AB01)}, AB01)


def test_domain_spec_from_json():
    spec = DomainSpec.from_json({"x": "0*", "y": "00|01"}, AB01)
    assert spec.names == ("x", "y")
    assert spec.infinite_variables() == ("x",)
    assert spec.finite_variables() == ("y",)


# ---------------------------------------------------------------------------
# Finitary valuations


def test_finitary_valuations_mixed():
    spec = DomainSpec.from_json({"x": "0*", "y": "0|1"}, AB01)
    vals = list(enumerate_finitary_valuations(spec))
    assert vals == [FinitaryValuation({"y": "0"}), FinitaryValuation({"y": "1"})]
    assert all(not v.defined("x") for v in vals)


def test_finitary_valuations_all_infinite():
    spec = DomainSpec.from_json({"x": "0*"}, AB01)
    vals = list(enumerate_finitary_valuations(spec))
    assert vals == [FinitaryValuation({})]


def test_finitary_valuations_all_finite_product():
    ab = Alphabet("01ab")
    spec = DomainSpec.from_json({"x": "0|1", "y": "a|b"}, ab)
    vals = list(enumerate_finitary_valuations(spec))
    assert len(vals) == 4
    assert vals[0].as_dict() == {"x": "0", "y": "a"}
    assert vals[-1].as_dict() == {"x": "1", "y": "b"}


def test_word_valuations_reject_infinite():
    spec = DomainSpec.from_json({"x": "0*"}, AB01)
    with pytest.raises(DomainNotFinite):
        list(enumerate_word_valuations(spec))


def test_finitary_images_belong_to_their_domains():
    spec = DomainSpec.from_json({"x": "0(0|1)", "y": "10|_", "z": "(01)*"}, AB01)
    domain_exprs = {"x": parse("0(0|1)", AB01), "y": parse("10|_", AB01)}
    for v in enumerate_finitary_valuations(spec):
        assert set(v.as_dict()) == {"x", "y"}
        for name, image in v.items():
            assert matches(domain_exprs[name], image)


# ---------------------------------------------------------------------------
# apply_finitary


def test_apply_finitary_drops_infinite_variable():
    spec = DomainSpec.from_json({"x": "0*"}, AB01)
    e = parse("$x 1", AB01)
    a = remove_epsilon(regex_to_nfa(e, AB01))
    (fv,) = enumerate_finitary_valuations(spec)
    reduced = apply_finitary(fv, a)
    assert is_empty(reduced) == (True, None)


def test_apply_finitary_keeps_variable_free_part():
    spec = DomainSpec.from_json({"x": "0*"}, AB01)
    e = parse("($x|_)1*", AB01)
    a = remove_epsilon(regex_to_nfa(e, AB01))
    (fv,) = enumerate_finitary_valuations(spec)
    reduced = apply_finitary(fv, a)
    lang = dfa_walk_language(remove_epsilon(reduced), 5)
    assert lang == {"1" * k for k in range(6)}


def test_apply_finitary_crosschecks_with_total_valuations():
    # all-finite spec: intersecting the finitary reductions equals
    # intersecting the totally substituted automata
    spec = DomainSpec.from_json({"x": "0|1"}, AB01)
    e = parse("$x 1", AB01)
    a = remove_epsilon(regex_to_nfa(e, AB01))
    finitary = [
        remove_epsilon(expand_extended(apply_finitary(v, a)))
        for v in enumerate_finitary_valuations(spec)
    ]
    total = [
        remove_epsilon(expand_extended(apply_to_nfa(v, a)))
        for v in enumerate_word_valuations(spec)
    ]
    lhs = dfa_walk_language(product_all(finitary), 6)
    rhs = dfa_walk_language(product_all(total), 6)
    assert lhs == rhs


# ---------------------------------------------------------------------------
# Properties


def test_substitution_commutes_with_compilation():
    # language of the substituted expression == language of the relabeled
    # automaton, for random expressions and every valuation
    rng = random.Random(31)
    for _ in range(25):
        letters = rng.choice(["01", "012"])
        alphabet = Alphabet(letters)
        e = random_expr(rng, alphabet, ["x", "y", "z"], rng.randint(2, 12), var_prob=0.35)
        a = regex_to_nfa(e, alphabet)
        for nu_dict in letter_valuations(variables(e), alphabet):
            nu = Valuation(nu_dict)
            lhs = dfa_walk_language(remove_epsilon(apply_to_nfa(nu, a)), 6)
            rhs = bounded_language(substitute(e, nu_dict), 6)
            assert lhs == rhs


def test_enumerate_valuations_yields_distinct_total_maps():
    names = ["x", "y", "z"]
    alphabet = Alphabet("012")
    vals = list(enumerate_valuations(names, alphabet))
    assert len(vals) == 27
    assert len({tuple(sorted(v.items())) for v in vals}) == 27
    assert all(set(v.names()) == set(names) for v in vals)


def test_finite_domain_enumeration_is_complete():
    rng = random.Random(77)
    for _ in range(20):
        alphabet = Alphabet("01")
        e = random_expr(rng, alphabet, [], rng.randint(2, 8), star_allowed=False, var_prob=0.0)
        a = regex_to_nfa(e, alphabet)
        if not domain_is_finite(a):
            continue
        if is_empty(remove_epsilon(a))[0]:
            continue
        words = enumerate_finite_domain(a)
        assert all(matches(e, w) for w in words)
        limit = min(max(len(w) for w in words) + 2, 8)
        expected = {w for w in all_words(alphabet, limit) if matches(e, w)}
        assert expected <= set(words)
