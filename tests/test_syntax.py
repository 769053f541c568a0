"""Parser, printer, and structural-query tests."""

from __future__ import annotations

import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prx.automata import regex_to_nfa
from prx.errors import ParseError
from prx.syntax import (
    Alphabet,
    Concat,
    EmptySet,
    Epsilon,
    Lit,
    Star,
    Union,
    Var,
    concat_exprs,
    is_simple,
    parse,
    print_regex,
    size,
    star_height,
    union_exprs,
    variables,
    word_expr,
)
from prx.valuations import Valuation, apply_to_regex

AB01 = Alphabet("01")


# ---------------------------------------------------------------------------
# Alphabet


def test_alphabet_order_and_lookup():
    a = Alphabet("abc")
    assert tuple(a) == ("a", "b", "c")
    assert a.index("b") == 1
    assert "c" in a and "d" not in a
    assert len(a) == 3


def test_alphabet_rejects_duplicates_and_reserved():
    with pytest.raises(ValueError):
        Alphabet("aa")
    with pytest.raises(ValueError):
        Alphabet("a|")
    with pytest.raises(ValueError):
        Alphabet("a b")
    with pytest.raises(ValueError):
        Alphabet("")


# ---------------------------------------------------------------------------
# Parsing


def test_parse_worked_example():
    e = parse("(0$x)*1($x$y)*", AB01)
    expected = Concat(
        Star(Concat(Lit("0"), Var("x"))),
        Concat(Lit("1"), Star(Concat(Var("x"), Var("y")))),
    )
    assert e == expected


def test_parse_epsilon_literal():
    assert parse("_", AB01) == Epsilon()


def test_parse_repetition_shorthand():
    u = Union(Lit("0"), Lit("1"))
    assert parse("(0|1){3}", AB01) == Concat(u, Concat(u, u))
    assert parse("(0|1){1}", AB01) == u
    assert parse("0{0}", AB01) == Epsilon()


def test_parse_repetition_of_star_and_star_of_repetition():
    assert parse("0{2}*", AB01) == Star(Concat(Lit("0"), Lit("0")))
    assert parse("0*{2}", AB01) == Concat(Star(Lit("0")), Star(Lit("0")))


def test_parse_precedence():
    # star > concatenation > union
    assert parse("01|10", AB01) == Union(
        Concat(Lit("0"), Lit("1")), Concat(Lit("1"), Lit("0"))
    )
    assert parse("00*", AB01) == Concat(Lit("0"), Star(Lit("0")))
    assert parse("(00)*", AB01) == Star(Concat(Lit("0"), Lit("0")))


def test_parse_ignores_whitespace():
    assert parse(" ( 0 | 1 ) * ", AB01) == parse("(0|1)*", AB01)
    assert parse("$x $y", AB01) == parse("$x$y", AB01)


def test_parse_union_is_right_folded():
    assert parse("0|1|_", AB01) == Union(Lit("0"), Union(Lit("1"), Epsilon()))
    assert parse("011", AB01) == Concat(Lit("0"), Concat(Lit("1"), Lit("1")))


@pytest.mark.parametrize(
    "text,pos_hint",
    [
        ("", 0),
        ("(0|1", None),
        ("0|", None),
        ("*0", 0),
        ("$", None),
        ("$0", None),
        ("0{)", None),
        ("0{}", None),
        ("0)", None),
        ("(0|1){99999999}", None),
    ],
)
def test_parse_errors_carry_position(text, pos_hint):
    with pytest.raises(ParseError) as err:
        parse(text, AB01)
    assert err.value.position >= 0
    if pos_hint is not None:
        assert err.value.position == pos_hint


@pytest.mark.parametrize("text,letters,nodes", [
    ("0{10000}", "01", 19999),
    ("(0|1|2){10000}", "012", 59999),
    ("0{10000}{10000}", "01", None),
])
def test_repetitions_are_bounded_by_what_they_expand_to(text, letters, nodes):
    if nodes is not None:
        assert size(parse(text, Alphabet(letters))) == nodes
        return
    with pytest.raises(ParseError) as err:
        parse(text, Alphabet(letters))
    assert err.value.position == 8
    assert "limit of 100000 nodes" in str(err.value)


def test_parse_rejects_undeclared_letter():
    with pytest.raises(ParseError) as err:
        parse("02", AB01)
    assert err.value.position == 1
    assert "alphabet" in str(err.value)


# ---------------------------------------------------------------------------
# Printing


def test_print_examples():
    assert print_regex(parse("0|1", AB01)) == "0|1"
    assert print_regex(Star(Var("x"))) == "$x*"
    assert print_regex(EmptySet()) == "@"


def test_print_keeps_left_nesting_visible():
    a, b, c = Lit("0"), Lit("1"), Epsilon()
    assert print_regex(Union(Union(a, b), c)) == "(0|1)|_"
    assert print_regex(Concat(Concat(a, b), a)) == "(01)0"
    assert print_regex(Star(Star(Var("x")))) == "$x**"


def test_print_separates_variable_from_following_letter():
    e = Concat(Var("x"), Lit("0"))
    assert parse(print_regex(e), AB01) == e
    ab = Alphabet("ab")
    e2 = Concat(Var("a"), Lit("a"))
    assert parse(print_regex(e2), ab) == e2


# ---------------------------------------------------------------------------
# Structural queries


def test_variables_first_occurrence_order():
    assert variables(parse("(0$x)*1($x$y)*", AB01)) == ("x", "y")
    assert variables(parse("01", AB01)) == ()
    assert variables(parse("$y$x$y", AB01)) == ("y", "x")


def test_is_simple():
    assert not is_simple(parse("(0$x)*1($x$y)*", AB01))
    assert is_simple(parse("$x$y", AB01))
    assert not is_simple(parse("($x|$x)", AB01))


def test_star_height():
    assert star_height(parse("$x$y", AB01)) == 0
    assert star_height(parse("($x*)*", AB01)) == 2
    assert star_height(parse("(0$x)*1($x$y)*", AB01)) == 1


def test_size_counts_nodes():
    assert size(parse("@", AB01)) == 1
    assert size(parse("0|1", AB01)) == 3
    assert size(parse("(0$x)*", AB01)) == 4


def test_construction_helpers():
    assert word_expr("") == Epsilon()
    assert word_expr("01") == Concat(Lit("0"), Lit("1"))
    assert word_expr("010") == Concat(Lit("0"), Concat(Lit("1"), Lit("0")))
    assert concat_exprs([]) == Epsilon()
    assert union_exprs([]) == EmptySet()
    assert concat_exprs([Lit("0"), Lit("1")]) == Concat(Lit("0"), Lit("1"))
    assert union_exprs([Lit("0"), Lit("1"), Epsilon()]) == Union(
        Lit("0"), Union(Lit("1"), Epsilon())
    )


# ---------------------------------------------------------------------------
# Depth 10 000, at the default recursion limit

DEPTH = 10_000


@pytest.fixture()
def default_recursion_limit():
    old = sys.getrecursionlimit()
    sys.setrecursionlimit(1000)
    yield
    sys.setrecursionlimit(old)


def _shape(e):
    """The tree in prefix order, built without recursion (``==`` on
    dataclasses recurses)."""
    out, stack = [], [e]
    while stack:
        node = stack.pop()
        if isinstance(node, (Concat, Union)):
            out.append(type(node).__name__)
            stack += [node.right, node.left]
        elif isinstance(node, Star):
            out.append("Star")
            stack.append(node.inner)
        else:
            out.append(node)
    return out


# text, size, star height, Thompson states (two per node but concatenations)
DEEP = {
    "nested-parentheses": ("(" * DEPTH + "$x" + ")1" * DEPTH, 2 * DEPTH + 1, 0, 2 * DEPTH + 2),
    "nested-stars": ("(" * DEPTH + "$x" + ")*" * DEPTH, DEPTH + 1, DEPTH, 2 * DEPTH + 2),
    "literal-chain": ("0" * DEPTH + "$x", 2 * DEPTH + 1, 0, 2 * DEPTH + 2),
    "long-union": ("0|" * DEPTH + "$x", 2 * DEPTH + 1, 0, 4 * DEPTH + 2),
}


@pytest.mark.usefixtures("default_recursion_limit")
@pytest.mark.parametrize("text,nodes,height,states", DEEP.values(), ids=DEEP.keys())
def test_deep_expressions_need_no_recursion(text, nodes, height, states):
    e = parse(text, AB01)
    printed = print_regex(e)
    assert _shape(parse(printed, AB01)) == _shape(e)
    assert size(e) == nodes
    assert star_height(e) == height
    assert variables(e) == ("x",)
    assert is_simple(e)
    assert regex_to_nfa(e, AB01).n_states == states
    ground = apply_to_regex(Valuation({"x": "1"}), e)
    assert _shape(ground) == [Lit("1") if node == Var("x") else node for node in _shape(e)]


# ---------------------------------------------------------------------------
# Properties


LETTERS = "012"
VAR_NAMES = ("x", "y", "z", "w")

_leaves = st.one_of(
    st.builds(EmptySet),
    st.builds(Epsilon),
    st.sampled_from(LETTERS).map(Lit),
    st.sampled_from(VAR_NAMES).map(Var),
)

asts = st.recursive(
    _leaves,
    lambda kids: st.one_of(
        st.builds(Concat, kids, kids),
        st.builds(Union, kids, kids),
        st.builds(Star, kids),
    ),
    max_leaves=12,
)


@settings(max_examples=300)
@given(asts)
def test_print_parse_roundtrip(e):
    assert parse(print_regex(e), Alphabet(LETTERS)) == e


@settings(max_examples=100)
@given(asts, st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=3))
def test_size_monotone_under_repetition_and_extension(e, n, extra):
    s = print_regex(e)
    alphabet = Alphabet(LETTERS)
    base = size(parse(f"({s}){{{n}}}", alphabet))
    bigger = size(parse(f"({s}){{{n + extra}}}", alphabet))
    assert base <= bigger
    assert size(parse(f"{s}|0", alphabet)) > size(parse(s, alphabet))


def _walk_reference(e):
    """Iterative reference walk: (variable occurrences, star height)."""
    occurrences = []
    height = 0
    stack = [(e, 0)]
    while stack:
        node, stars = stack.pop()
        height = max(height, stars)
        if isinstance(node, Var):
            occurrences.append(node.name)
        elif isinstance(node, (Concat, Union)):
            stack.append((node.left, stars))
            stack.append((node.right, stars))
        elif isinstance(node, Star):
            stack.append((node.inner, stars + 1))
    return occurrences, height


@settings(max_examples=200)
@given(asts)
def test_queries_agree_with_reference_walk(e):
    occurrences, height = _walk_reference(e)
    assert star_height(e) == height
    assert is_simple(e) == (len(occurrences) == len(set(occurrences)))
    assert set(variables(e)) == set(occurrences)
