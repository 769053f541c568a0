"""Reference implementations used only by the test suite.

Everything here is deliberately written without touching the library's
automata algorithms: languages are computed by set algebra on the AST, words
are matched by a memoized span matcher, and NFAs (treated purely as data)
are simulated by a plain depth-first search.  Tests compare the library's
answers against these independent routes.
"""

from __future__ import annotations

import itertools
from collections import defaultdict

from prx.automata import EPSILON, VarLabel
from prx.syntax import (
    Alphabet,
    Concat,
    EmptySet,
    Epsilon,
    Lit,
    ParamRegex,
    Star,
    Union,
    Var,
)

# ---------------------------------------------------------------------------
# Word utilities


def shortlex_key(w: str, alphabet: Alphabet):
    return (len(w), tuple(alphabet.index(c) for c in w))


def all_words(alphabet: Alphabet, max_len: int):
    """All words of length <= max_len in shortlex order."""
    for n in range(max_len + 1):
        for tup in itertools.product(alphabet.letters, repeat=n):
            yield "".join(tup)


# ---------------------------------------------------------------------------
# Direct matching on the AST (variable-free expressions)


def matches(e: ParamRegex, w: str) -> bool:
    """Span matcher: does the variable-free expression accept w?"""
    memo: dict[tuple[int, int, int], bool] = {}

    def m(node, i, j) -> bool:
        key = (id(node), i, j)
        if key in memo:
            return memo[key]
        memo[key] = False  # blocks the Star self-reference below
        if isinstance(node, EmptySet):
            out = False
        elif isinstance(node, Epsilon):
            out = i == j
        elif isinstance(node, Lit):
            out = j == i + 1 and w[i] == node.letter
        elif isinstance(node, Var):
            raise ValueError("oracle matcher only handles variable-free expressions")
        elif isinstance(node, Union):
            out = m(node.left, i, j) or m(node.right, i, j)
        elif isinstance(node, Concat):
            out = any(m(node.left, i, k) and m(node.right, k, j) for k in range(i, j + 1))
        elif isinstance(node, Star):
            if i == j:
                out = True
            else:
                out = any(m(node.inner, i, k) and m(node, k, j) for k in range(i + 1, j + 1))
        else:
            raise TypeError(node)
        memo[key] = out
        return out

    return m(e, 0, len(w))


def bounded_language(e: ParamRegex, max_len: int) -> frozenset[str]:
    """All words of length <= max_len accepted by a variable-free expression."""
    if isinstance(e, EmptySet):
        return frozenset()
    if isinstance(e, Epsilon):
        return frozenset({""})
    if isinstance(e, Lit):
        return frozenset({e.letter}) if max_len >= 1 else frozenset()
    if isinstance(e, Var):
        raise ValueError("oracle language only handles variable-free expressions")
    if isinstance(e, Union):
        return bounded_language(e.left, max_len) | bounded_language(e.right, max_len)
    if isinstance(e, Concat):
        left = bounded_language(e.left, max_len)
        right = bounded_language(e.right, max_len)
        return frozenset(
            u + v for u in left for v in right if len(u) + len(v) <= max_len
        )
    if isinstance(e, Star):
        base = bounded_language(e.inner, max_len) - {""}
        words = {""}
        frontier = {""}
        while frontier:
            fresh = set()
            for u in base:
                for v in frontier:
                    w = u + v
                    if len(w) <= max_len and w not in words:
                        fresh.add(w)
            words |= fresh
            frontier = fresh
        return frozenset(words)
    raise TypeError(e)


# ---------------------------------------------------------------------------
# Valuations, done by hand


def substitute(e: ParamRegex, assignment: dict[str, str]) -> ParamRegex:
    """Replace each variable by its image word (own right-fold, no library calls)."""
    if isinstance(e, Var):
        w = assignment[e.name]
        if not w:
            return Epsilon()
        node: ParamRegex = Lit(w[-1])
        for ch in reversed(w[:-1]):
            node = Concat(Lit(ch), node)
        return node
    if isinstance(e, Concat):
        return Concat(substitute(e.left, assignment), substitute(e.right, assignment))
    if isinstance(e, Union):
        return Union(substitute(e.left, assignment), substitute(e.right, assignment))
    if isinstance(e, Star):
        return Star(substitute(e.inner, assignment))
    return e


def letter_valuations(var_names, alphabet: Alphabet):
    """Every total map from the given variables to single letters."""
    names = list(var_names)
    for images in itertools.product(alphabet.letters, repeat=len(names)):
        yield dict(zip(names, images))


def brute_membership(e: ParamRegex, var_names, alphabet: Alphabet, w: str, box: bool) -> bool:
    """Quantify a reference matcher over all valuations (the defining semantics)."""
    results = (
        matches(substitute(e, nu), w) for nu in letter_valuations(var_names, alphabet)
    )
    return all(results) if box else any(results)


def brute_language(e: ParamRegex, var_names, alphabet: Alphabet, max_len: int, box: bool) -> frozenset[str]:
    """Intersection/union of per-valuation bounded languages."""
    langs = [
        bounded_language(substitute(e, nu), max_len)
        for nu in letter_valuations(var_names, alphabet)
    ]
    if not langs:
        return frozenset()
    out = set(langs[0])
    for lang in langs[1:]:
        if box:
            out &= lang
        else:
            out |= lang
    return frozenset(out)


# ---------------------------------------------------------------------------
# NFA simulation (the Nfa is used as a passive data record)


def _lit_seq(w: str):
    return tuple(("lit", c) for c in w)


def nfa_accepts_labels(nfa, symbols) -> bool:
    """DFS acceptance over a symbol sequence.

    Each symbol is ("lit", letter) or ("var", name), so automata over
    the mixed alphabet of letters and variables can be checked directly.
    """
    symbols = tuple(symbols)
    adj = defaultdict(list)
    for src, label, dst in nfa.transitions:
        adj[src].append((label, dst))
    n = len(symbols)
    seen = set()
    stack = [(nfa.initial, 0)]
    while stack:
        q, i = stack.pop()
        if (q, i) in seen:
            continue
        seen.add((q, i))
        if i == n and q in nfa.finals:
            return True
        for label, dst in adj[q]:
            if label is EPSILON:
                stack.append((dst, i))
            elif isinstance(label, VarLabel):
                if i < n and symbols[i] == ("var", label.name):
                    stack.append((dst, i + 1))
            else:
                if i < n and symbols[i] == ("lit", label):
                    stack.append((dst, i + 1))
    return False


def nfa_accepts_word(nfa, w: str) -> bool:
    return nfa_accepts_labels(nfa, _lit_seq(w))


def nfa_bounded_language(nfa, alphabet: Alphabet, max_len: int) -> frozenset[str]:
    return frozenset(
        w for w in all_words(alphabet, max_len) if nfa_accepts_word(nfa, w)
    )


# ---------------------------------------------------------------------------
# Random expression generation (seeded, no filtering on outcomes)


def random_expr(
    rng,
    alphabet: Alphabet,
    var_pool,
    budget: int,
    star_allowed: bool = True,
    var_prob: float = 0.3,
):
    """Generate a random AST with roughly `budget` nodes.

    The shape distribution is fixed up front (leaf kinds, operator mix);
    nothing about the generated expression's language is inspected here,
    so test corpora are unbiased samples of the grammar.
    """
    var_pool = list(var_pool)

    def leaf():
        r = rng.random()
        if var_pool and r < var_prob:
            return Var(rng.choice(var_pool))
        if r < var_prob + 0.08:
            return Epsilon()
        if r < var_prob + 0.11:
            return EmptySet()
        return Lit(rng.choice(alphabet.letters))

    def gen(b: int):
        if b <= 1:
            return leaf()
        r = rng.random()
        if star_allowed and r < 0.2:
            return Star(gen(b - 1))
        if r < 0.6:
            split = rng.randint(1, b - 2) if b > 2 else 1
            return Concat(gen(split), gen(b - 1 - split))
        if r < 0.9:
            split = rng.randint(1, b - 2) if b > 2 else 1
            return Union(gen(split), gen(b - 1 - split))
        return leaf()

    return gen(budget)
