"""Automata toolbox tests: constructions, boolean algebra, witnesses, export."""

from __future__ import annotations

import itertools
import json
import random
from collections import defaultdict

import pytest

from oracles import (
    all_words,
    bounded_language,
    matches,
    nfa_accepts_labels,
    nfa_bounded_language,
    random_expr,
)
from prx.automata import (
    EPSILON,
    Nfa,
    VarLabel,
    accepts,
    export_dot,
    export_json,
    is_empty,
    nfa_to_json,
    regex_to_nfa,
    remove_epsilon,
    trim,
)
from prx.errors import StateCapExceeded
from prx.semantics import BOX, DIAMOND, construct_nfa
from prx.syntax import Alphabet, Var, _fold, parse, variables, word_expr
from prx.valuations import DomainSpec, Valuation, apply_to_nfa, apply_to_regex
from reference_automata import (
    Dfa, complement, determinize, dfa_to_nfa, is_universal, product, product_all, thompson,
    union_all,
)

AB01 = Alphabet("01")


def compile_plain(text: str, alphabet: Alphabet = AB01) -> Nfa:
    return regex_to_nfa(parse(text, alphabet), alphabet)


def dfa_language(d: Dfa, max_len: int) -> frozenset[str]:
    """Every accepted word up to max_len, read off the transition table."""
    out = set()
    frontier = [("", d.initial)]
    if d.initial in d.finals:
        out.add("")
    for _ in range(max_len):
        nxt = []
        for w, q in frontier:
            for i, letter in enumerate(d.alphabet.letters):
                t = d.delta[q][i]
                word = w + letter
                if t in d.finals:
                    out.add(word)
                nxt.append((word, t))
        frontier = nxt
    return frozenset(out)


def nfa_language(a: Nfa, max_len: int) -> frozenset[str]:
    return dfa_language(determinize(a), max_len)


# ---------------------------------------------------------------------------
# regex_to_nfa, and Thompson's construction, which it matches once epsilon edges are removed


def test_empty_set_accepts_nothing():
    for compile_ in (regex_to_nfa, thompson):
        a = compile_(parse("@", AB01), AB01)
        assert nfa_bounded_language(a, AB01, 3) == frozenset()


def test_union_of_letters():
    for compile_ in (regex_to_nfa, thompson):
        a = compile_(parse("0|1", AB01), AB01)
        assert nfa_bounded_language(a, AB01, 2) == {"0", "1"}


def test_variables_appear_as_opaque_labels():
    for compile_ in (regex_to_nfa, thompson):
        a = compile_(parse("(0$x)*1($x$y)*", AB01), AB01)
        word = [("lit", "0"), ("var", "x"), ("lit", "1"), ("var", "x"), ("var", "y")]
        assert nfa_accepts_labels(a, word)
        assert nfa_accepts_labels(a, [("lit", "1")])
        assert not nfa_accepts_labels(a, [("lit", "0")])


def _as_tuple(a: Nfa) -> tuple:
    return a.n_states, a.initial, a.finals, a.transitions


def test_regex_to_nfa_is_thompson_with_its_epsilon_edges_removed():
    """Same states, initial state, finals and transitions in the same order,
    and no epsilon edge."""
    rng = random.Random(2207)
    for letters in ("01", "012", "ba"):
        alphabet = Alphabet(letters)
        for _ in range(3400):
            e = random_expr(rng, alphabet, ["x", "y", "z"], rng.randint(1, 60))
            a = regex_to_nfa(e, alphabet)
            assert _as_tuple(a) == _as_tuple(remove_epsilon(thompson(e, alphabet))), e
            assert not a.label_kinds()[0]


def test_a_spelled_variable_compiles_as_its_substituted_image():
    """Compiling with variables spelled as image words gives the automaton
    of the expression with those words substituted, for empty, one-letter
    and longer images; a variable left unspelled stays a variable."""
    rng = random.Random(2209)
    images = ("", "0", "1", "01", "110", "ba")
    for letters in ("01", "ba"):
        alphabet = Alphabet(letters)
        words = [w for w in images if set(w) <= set(letters)]
        for _ in range(600):
            e = random_expr(rng, alphabet, ["x", "y", "z"], rng.randint(1, 30), var_prob=0.4)
            nu = {name: rng.choice(words) for name in variables(e) if rng.random() < 0.8}
            spell = {name: word_expr(w) for name, w in nu.items()}
            got = regex_to_nfa(e, alphabet, spell)
            tree = _fold(e, lambda node, *kids: spell.get(node.name, node) if isinstance(
                node, Var) else type(node)(*kids) if kids else node)
            assert _as_tuple(got) == _as_tuple(regex_to_nfa(tree, alphabet)), (e, nu)
            if len(nu) == len(variables(e)):
                want = regex_to_nfa(apply_to_regex(Valuation(nu), e), alphabet)
                assert _as_tuple(got) == _as_tuple(want), (e, nu)


_DEEP = {
    "union-2000": ("|".join("0" * 2000), "0"),
    "stars-500": ("(" * 500 + "0" + ")*" * 500, "000"),
    "optional-300": ("(0|_)*" * 300, "0000"),
    "star-x-200": ("((0|1)*$x){200}", None),
    "repeat-10000": ("(0|1){10000}", "01" * 5000),
}


@pytest.mark.usefixtures("default_recursion_limit")
@pytest.mark.parametrize("name", _DEEP)
def test_regex_to_nfa_compiles_deep_expressions(name):
    """Deep and long expressions compile at the default recursion limit to
    Thompson's automaton without epsilon edges.  The 2000-way union is only
    counted: the reference takes seconds on its quadratic output."""
    text, word = _DEEP[name]
    e = parse(text, AB01)
    a = regex_to_nfa(e, AB01)
    assert not a.label_kinds()[0]
    if name == "union-2000":
        # Union i starts with an edge to each of the 2000 - i leaves right of it.
        assert (a.n_states, len(a.transitions)) == (7998, sum(range(2, 2001)) + 2000)
    else:
        assert _as_tuple(a) == _as_tuple(remove_epsilon(thompson(e, AB01)))
    if word is not None:
        assert accepts(a, word)


# ---------------------------------------------------------------------------
# remove_epsilon


def test_remove_epsilon_results_have_no_epsilon():
    a = remove_epsilon(thompson(parse("(0|_)*($x|1)", AB01), AB01))
    assert all(lab is not EPSILON for _, lab, _ in a.transitions)


def test_remove_epsilon_epsilon_expr():
    a = remove_epsilon(thompson(parse("_", AB01), AB01))
    assert nfa_bounded_language(a, AB01, 2) == {""}


def test_remove_epsilon_keeps_variable_words():
    a = remove_epsilon(thompson(parse("($x|_)1", AB01), AB01))
    assert nfa_accepts_labels(a, [("var", "x"), ("lit", "1")])
    assert nfa_accepts_labels(a, [("lit", "1")])
    assert not nfa_accepts_labels(a, [("var", "x")])


def test_remove_epsilon_noop_semantics_on_plain_automaton():
    a = compile_plain("01|10")
    again = remove_epsilon(a)
    assert nfa_bounded_language(again, AB01, 4) == nfa_bounded_language(a, AB01, 4)


def _label_key(label):
    if isinstance(label, str):
        return (0, label)
    if isinstance(label, VarLabel):
        return (1, label.name)
    return (2, "")


def reference_remove_epsilon(a: Nfa) -> tuple[list, frozenset[int]]:
    """Transitions and finals of ε-removal by one closure search per state
    and one sort of every edge (the earlier algorithm, kept as reference)."""
    eps = defaultdict(list)
    edges = defaultdict(list)
    for src, label, dst in a.transitions:
        if label is EPSILON:
            eps[src].append(dst)
        else:
            edges[src].append((label, dst))
    out = set()
    finals = set()
    for q in range(a.n_states):
        seen = {q}
        stack = [q]
        while stack:
            for r in eps[stack.pop()]:
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        if seen & a.finals:
            finals.add(q)
        for p in seen:
            for label, dst in edges[p]:
                out.add((q, label, dst))
    return sorted(out, key=lambda t: (t[0], _label_key(t[1]), t[2])), frozenset(finals)


def _glued(automata: list[Nfa]) -> Nfa:
    """The automata side by side behind a fresh initial state with an
    ε-edge into each, as :func:`union_all` glues them."""
    transitions, finals, offset = [], set(), 1
    for a in automata:
        transitions.append((0, EPSILON, a.initial + offset))
        transitions.extend((src + offset, label, dst + offset) for src, label, dst in a.transitions)
        finals.update(q + offset for q in a.finals)
        offset += a.n_states
    return Nfa(offset, 0, finals, transitions, automata[0].alphabet)


def _assert_as_reference(a: Nfa) -> None:
    got = remove_epsilon(a)
    transitions, finals = reference_remove_epsilon(a)
    assert list(got.transitions) == transitions
    assert got.finals == finals
    assert (got.n_states, got.initial) == (a.n_states, a.initial)


def test_remove_epsilon_matches_the_reference_on_random_expressions():
    rng = random.Random(5150)
    for _ in range(300):
        alphabet = Alphabet(rng.choice(["01", "012"]))
        e = random_expr(rng, alphabet, ["x", "y"], rng.randint(1, 16))
        _assert_as_reference(thompson(e, alphabet))


def test_remove_epsilon_matches_the_reference_on_glued_unions():
    rng = random.Random(6160)
    for _ in range(40):
        alphabet = Alphabet(rng.choice(["01", "012"]))
        parts = []
        for _ in range(rng.randint(1, 6)):
            e = random_expr(rng, alphabet, ["x"], rng.randint(1, 10))
            a = thompson(e, alphabet)
            parts.append(remove_epsilon(a) if rng.random() < 0.7 else a)
        glued = _glued(parts)
        _assert_as_reference(glued)
        # Extra ε-edges and repeated edges, so that closures overlap and
        # one state reaches the same edge along several paths.
        extra = [(rng.randrange(glued.n_states), EPSILON, rng.randrange(glued.n_states))
                 for _ in range(3)]
        extra += rng.sample(glued.transitions, min(2, len(glued.transitions)))
        _assert_as_reference(Nfa(glued.n_states, 0, glued.finals,
                                 glued.transitions + tuple(extra), alphabet))


def test_remove_epsilon_matches_the_reference_on_a_long_union_chain():
    # 500 branches: the reference is quadratic in the chain, and takes about
    # 20 s on the 2000 branches that tests/test_cli.py decides end to end.
    a = thompson(parse("|".join("01" * 250), AB01), AB01)
    _assert_as_reference(a)


# ---------------------------------------------------------------------------
# product / union_all


def test_product_disjoint_languages_is_empty():
    a = compile_plain("0*")
    b = compile_plain("(0|1)*1")
    p = product(a, b)
    assert is_empty(p) == (True, None)


def test_product_with_universal_is_identity():
    a = compile_plain("(0|1)*")
    b = compile_plain("1")
    p = product(a, b)
    assert nfa_bounded_language(p, AB01, 3) == {"1"}


def test_product_prefix_suffix():
    a = compile_plain("0(0|1)*")
    b = compile_plain("(0|1)*0")
    p = product(a, b)
    lang = nfa_bounded_language(p, AB01, 2)
    assert "00" in lang and "01" not in lang and "0" in lang


def test_union_all_of_letters():
    a, b = compile_plain("0"), compile_plain("1")
    assert nfa_bounded_language(union_all([a, b]), AB01, 2) == {"0", "1"}


def test_union_all_singleton_identity():
    a = compile_plain("01*")
    assert nfa_bounded_language(union_all([a]), AB01, 4) == nfa_bounded_language(a, AB01, 4)


def test_union_all_stars():
    u = union_all([compile_plain("0*"), compile_plain("1*")])
    lang = nfa_bounded_language(u, AB01, 2)
    assert {"", "00", "11"} <= lang and "01" not in lang


def test_union_all_empty_list():
    u = union_all([], AB01)
    assert is_empty(u) == (True, None)


# ---------------------------------------------------------------------------
# determinize / complement


def test_determinize_small_union():
    d = determinize(compile_plain("0|1"))
    assert d.n_states <= 4
    assert dfa_language(d, 2) == {"0", "1"}


def test_determinize_is_total_and_has_sink():
    d = determinize(compile_plain("0"))
    # every (state, letter) pair has a successor, and some state is a
    # non-final trap (the sink)
    sinks = [
        q
        for q in range(d.n_states)
        if q not in d.finals and all(t == q for t in d.delta[q])
    ]
    assert sinks


def test_determinize_respects_cap():
    # language: words over {0,1} whose 8th letter from the end is 1; the
    # minimal DFA needs 2^8 states, so a cap of 100 must trip.
    e = parse("(0|1)*1(0|1){7}", AB01)
    a = regex_to_nfa(e, AB01)
    with pytest.raises(StateCapExceeded):
        determinize(a, state_cap=100)


def test_determinize_dfa_shaped_input():
    d = determinize(compile_plain("(01)*"))
    n = dfa_to_nfa(d)
    d2 = determinize(n)
    assert dfa_language(d, 6) == dfa_language(d2, 6)


def test_complement_of_empty_language():
    d = determinize(compile_plain("@"))
    c = complement(d)
    assert dfa_language(c, 4) == frozenset(all_words(AB01, 4))


def test_complement_is_involution():
    d = determinize(compile_plain("(0|1)*01"))
    assert dfa_language(complement(complement(d)), 5) == dfa_language(d, 5)


def test_complement_of_zero_prefixed():
    c = complement(determinize(compile_plain("0(0|1)*")))
    lang = dfa_language(c, 3)
    assert "" in lang
    assert all(w.startswith("1") for w in lang if w)
    assert "011" not in lang


# ---------------------------------------------------------------------------
# is_empty / accepts / is_universal


def test_is_empty_on_empty_set():
    assert is_empty(compile_plain("@")) == (True, None)


def test_is_empty_witness_epsilon():
    assert is_empty(compile_plain("0*")) == (False, "")


def test_is_empty_shortest_witness():
    assert is_empty(compile_plain("(0|1)*10")) == (False, "10")


def test_accepts_worked_example():
    a = compile_plain("(01)*1(10)*")
    assert accepts(a, "01110")
    assert not accepts(a, "00")
    assert accepts(compile_plain("0*"), "")


def test_accepts_rejects_foreign_letter():
    with pytest.raises(ValueError):
        accepts(compile_plain("0*"), "2")


def test_is_universal_yes():
    assert is_universal(determinize(compile_plain("(0|1)*"))) == (True, None)


def test_is_universal_witness():
    ok, witness = is_universal(determinize(compile_plain("0(0|1)*")))
    assert not ok and witness == ""
    ok, witness = is_universal(determinize(compile_plain("_|0|1|(0|1)(0|1)*(0|1)")))
    assert ok and witness is None


def test_is_universal_shortest_rejected_word():
    # all words except those ending in "11"
    d = complement(determinize(compile_plain("(0|1)*11")))
    ok, witness = is_universal(d)
    assert not ok and witness == "11"


# ---------------------------------------------------------------------------
# the constructor's checks


def test_constructor_refuses_bad_automata_and_foreign_images():
    """The public constructor checks every automaton from outside the
    library, and so also what apply_to_nfa builds from the caller's
    valuation."""
    cases = [
        ((2, 2, (), ()), "initial state out of range"),
        ((2, 0, (2,), ()), "final state out of range"),
        ((2, 0, (1,), [(0, "0", 2)]), "transition endpoint out of range: (0, '0', 2)"),
        ((2, 0, (1,), [(0, "2", 1)]), "letter '2' is not in the alphabet"),
        ((2, 0, (1,), [(0, 7, 1)]), "bad transition label: 7"),
    ]
    for args, text in cases:
        with pytest.raises(ValueError) as info:
            Nfa(*args, AB01)
        assert str(info.value) == text, args
    a = thompson(parse("$x 1", AB01), AB01)
    for image, text in (("9", "letter '9' is not in the alphabet"),
                        ("19", "letter '9' is not in the alphabet"),
                        ("a0b", "letter 'a' is not in the alphabet")):
        with pytest.raises(ValueError) as info:
            apply_to_nfa(Valuation({"x": image}), a)
        assert str(info.value) == text, image
    # What the checks accept.
    Nfa(2, 0, (1,), [(0, "0", 1), (1, VarLabel("x"), 0), (0, EPSILON, 1)], AB01)


# ---------------------------------------------------------------------------
# trim / product_all


def test_trim_drops_dead_states():
    a = thompson(parse("0|@1", AB01), AB01)
    t = trim(a)
    assert t.n_states < a.n_states
    assert nfa_bounded_language(t, AB01, 3) == {"0"}


def test_trim_empty_language():
    t = trim(thompson(parse("@", AB01), AB01))
    assert t.n_states == 1 and not t.finals


def test_product_all_matches_iterated_product():
    rng = random.Random(11)
    for _ in range(15):
        exprs = [random_expr(rng, AB01, [], rng.randint(3, 8), var_prob=0.0) for _ in range(3)]
        nfas = [regex_to_nfa(e, AB01) for e in exprs]
        joint = product_all(nfas)
        pairwise = product(product(nfas[0], nfas[1]), nfas[2])
        assert nfa_language(joint, 5) == nfa_language(pairwise, 5)


def test_product_all_single_component():
    a = compile_plain("(01)*")
    assert nfa_language(product_all([a]), 6) == nfa_language(a, 6)


# ---------------------------------------------------------------------------
# export


def test_export_dot_shapes():
    a = Nfa(1, 0, {0}, [], AB01)
    dot = export_dot(a)
    assert dot.startswith("digraph")
    assert "doublecircle" in dot


def test_export_dot_counts():
    a = compile_plain("0|1")
    dot = export_dot(a)
    node_lines = [ln for ln in dot.splitlines() if ln.strip().startswith("q") and "->" not in ln]
    edge_lines = [ln for ln in dot.splitlines() if "->" in ln and "__start" not in ln]
    assert len(node_lines) == a.n_states
    assert len(edge_lines) == len(a.transitions)


def test_export_dot_escapes_quotes_and_backslashes():
    a = Nfa(2, 0, {1}, [(0, '"', 1), (1, "\\", 0), (0, "é", 0), (0, VarLabel('x"\\'), 1),
                        (1, EPSILON, 0)], Alphabet('"\\é'))
    edges = [ln for ln in export_dot(a).splitlines() if "->" in ln and "__start" not in ln]
    assert edges == ['  q0 -> q1 [label="\\""];', '  q1 -> q0 [label="\\\\"];',
                     '  q0 -> q0 [label="é"];', '  q0 -> q1 [label="$x\\"\\\\"];',
                     '  q1 -> q0 [label="eps"];']


def test_nfa_to_json_shape():
    a = Nfa(
        3,
        0,
        {2},
        [(0, "0", 1), (1, VarLabel("x"), 2), (0, EPSILON, 2), (1, "1", 1)],
        AB01,
    )
    blob = nfa_to_json(a)
    assert blob["states"] == 3 and blob["initial"] == 0 and blob["finals"] == [2]
    assert blob["transitions"] == [
        [0, {"letter": "0"}, 1],
        [1, {"var": "x"}, 2],
        [0, {"eps": True}, 2],
        [1, {"letter": "1"}, 1],
    ]


@pytest.mark.parametrize("a", [
    Nfa(3, 0, {2}, [(0, "0", 1), (1, VarLabel("x"), 2), (0, EPSILON, 2),
                    (2, "1", 0)], AB01),
    Nfa(2, 1, (), [(0, "1", 1)], AB01),
    Nfa(3, 2, {0, 1}, (), AB01),
    Nfa(1, 0, (), (), AB01),
    Nfa(2, 0, {1}, [(0, '"', 1), (1, "\\", 0), (0, "é", 0), (0, VarLabel("x\ty"), 1)],
        Alphabet('"\\é')),
], ids=["all-labels", "no-finals", "no-transitions", "empty", "escaped"])
def test_export_json_is_the_indented_dump(a):
    assert export_json(a) == json.dumps(nfa_to_json(a), indent=2)


def test_export_json_is_the_indented_dump_on_a_sweep():
    rng = random.Random(7170)
    for _ in range(150):
        alphabet = Alphabet(rng.choice(["01", "012"]))
        e = random_expr(rng, alphabet, ["x", "y"], rng.randint(1, 12))
        unremoved = thompson(e, alphabet)
        image = {name: "".join(rng.choice(alphabet.letters) for _ in range(rng.randint(0, 3)))
                 for name in variables(e)}
        automata = [unremoved, remove_epsilon(unremoved),
                    apply_to_nfa(Valuation(image), unremoved),
                    construct_nfa(e, alphabet, rng.choice([BOX, DIAMOND]))]
        if variables(e) and alphabet == AB01:
            spec = DomainSpec({name: parse(rng.choice(["0|1", "_|01", "00|1"]), AB01)
                               for name in variables(e)}, AB01)
            automata.append(construct_nfa(e, AB01, DIAMOND, domains=spec))
        for a in automata:
            assert export_json(a) == json.dumps(nfa_to_json(a), indent=2)


# ---------------------------------------------------------------------------
# Randomized properties


def _random_plain_cases(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        letters = rng.choice(["01", "012"])
        alphabet = Alphabet(letters)
        e = random_expr(rng, alphabet, [], rng.randint(2, 12), var_prob=0.0)
        yield alphabet, e


def test_nfa_agrees_with_reference_matcher():
    for alphabet, e in _random_plain_cases(101, 40):
        a = regex_to_nfa(e, alphabet)
        lang = nfa_language(a, 5)
        assert lang == bounded_language(e, 5) & frozenset(all_words(alphabet, 5))
        for w in itertools.islice(all_words(alphabet, 5), 0, None, 7):
            assert accepts(a, w) == matches(e, w)


def test_boolean_operations_satisfy_de_morgan():
    rng = random.Random(202)
    for _ in range(25):
        alphabet = Alphabet(rng.choice(["01", "012"]))
        e1 = random_expr(rng, alphabet, [], rng.randint(2, 10), var_prob=0.0)
        e2 = random_expr(rng, alphabet, [], rng.randint(2, 10), var_prob=0.0)
        a = regex_to_nfa(e1, alphabet)
        b = regex_to_nfa(e2, alphabet)
        la, lb = nfa_language(a, 5), nfa_language(b, 5)
        assert nfa_language(product(a, b), 5) == la & lb
        assert nfa_language(union_all([a, b]), 5) == la | lb
        universe = frozenset(all_words(alphabet, 5))
        # complement(A ∩ B) == complement(A) ∪ complement(B), within length 5
        lhs = dfa_language(complement(determinize(product(a, b))), 5)
        rhs = (universe - la) | (universe - lb)
        assert lhs == rhs


def test_determinize_preserves_language():
    for alphabet, e in _random_plain_cases(303, 30):
        a = regex_to_nfa(e, alphabet)
        d = determinize(a)
        assert dfa_language(d, 6) == nfa_bounded_language(a, alphabet, 6)


def test_is_empty_witness_is_minimal_and_lex_least():
    for alphabet, e in _random_plain_cases(404, 40):
        a = regex_to_nfa(e, alphabet)
        empty, witness = is_empty(a)
        lang6 = bounded_language(e, 6)
        if empty:
            assert witness is None
            assert not lang6
        else:
            assert matches(e, witness)
            shorter = [w for w in all_words(alphabet, len(witness)) if len(w) < len(witness)]
            assert not any(matches(e, w) for w in shorter)
            # itertools.product in alphabet order yields words lexicographically;
            # nothing before the witness at the same length may match
            for t in itertools.product(alphabet.letters, repeat=len(witness)):
                w = "".join(t)
                if w == witness:
                    break
                assert not matches(e, w)
