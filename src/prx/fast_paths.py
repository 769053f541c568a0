"""Specialized decision procedures that beat valuation enumeration.

Fixed-word membership under certainty reduces, for simple expressions (no
variable used twice), to a recursion over the expression that asks "can some
substitution avoid this finite word set?".  Fixed-word membership under
possibility is a reachability search that binds variables on the fly.  Both
run in polynomial time where the general routines enumerate exponentially
many valuations; for star-free expressions there are cheaper variants still.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Iterable

from .automata import VarLabel, regex_to_nfa, remove_epsilon
from .errors import NotSimple, PreconditionViolated
from .semantics import BOX, membership
from .syntax import (
    Alphabet,
    Concat,
    EmptySet,
    Epsilon,
    Lit,
    ParamRegex,
    Star,
    Union,
    Var,
    is_simple,
    star_height,
    union_exprs,
    variables,
)
from .valuations import (
    DEFAULT_WORD_CAP,
    Valuation,
    apply_to_regex,
    enumerate_finite_domain,
)


def _shortlex_key(alphabet: Alphabet):
    return lambda w: (len(w), tuple(alphabet.index(c) for c in w))


class WordSet:
    """A canonical finite set of words over a fixed alphabet.

    Words are stored sorted shortlex (length first, then alphabet declaration
    order) and deduplicated, so equal sets compare and hash equal regardless
    of construction order.
    """

    __slots__ = ("words", "alphabet")

    def __init__(self, words: Iterable[str], alphabet: Alphabet):
        unique = set()
        for w in words:
            for ch in w:
                if ch not in alphabet:
                    raise ValueError(f"word {w!r} uses letter {ch!r} outside the alphabet")
            unique.add(w)
        self.words: tuple[str, ...] = tuple(sorted(unique, key=_shortlex_key(alphabet)))
        self.alphabet = alphabet

    def __contains__(self, w: object) -> bool:
        return w in self.words

    def __iter__(self):
        return iter(self.words)

    def __len__(self) -> int:
        return len(self.words)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, WordSet)
            and self.words == other.words
            and self.alphabet == other.alphabet
        )

    def __hash__(self) -> int:
        return hash((self.words, self.alphabet))

    def __repr__(self) -> str:
        return f"WordSet({list(self.words)!r})"


@dataclass(frozen=True)
class SearchState:
    """A node of the possibility search graph: an NFA state together with the
    variable bindings committed so far."""

    state: int
    partial: tuple[tuple[str, str], ...]  # sorted (variable, letter) pairs

    def image(self, name: str) -> str | None:
        for key, letter in self.partial:
            if key == name:
                return letter
        return None


# ---------------------------------------------------------------------------
# Certainty membership for simple expressions


def _nullable(e: ParamRegex) -> bool:
    """Does every substitution instance accept the empty word?

    Variables stand for single letters, so nullability never depends on the
    valuation: it comes only from explicit empty-word nodes and stars.
    """
    if isinstance(e, Epsilon):
        return True
    if isinstance(e, Star):
        return True
    if isinstance(e, Concat):
        return _nullable(e.left) and _nullable(e.right)
    if isinstance(e, Union):
        return _nullable(e.left) or _nullable(e.right)
    return False


def _union_members(e: ParamRegex) -> list[ParamRegex]:
    if isinstance(e, Union):
        return _union_members(e.left) + _union_members(e.right)
    return [e]


def _simplify(e: ParamRegex) -> ParamRegex:
    """Language-preserving cleanup applied before the recursion.

    Drops empty-word factors and empty-language branches, collapses nested
    stars, and flattens starred unions of starred members:
    ``(f | g*)* = (f | g)*``.
    """
    if isinstance(e, Concat):
        left, right = _simplify(e.left), _simplify(e.right)
        if isinstance(left, EmptySet) or isinstance(right, EmptySet):
            return EmptySet()
        if isinstance(left, Epsilon):
            return right
        if isinstance(right, Epsilon):
            return left
        return Concat(left, right)
    if isinstance(e, Union):
        left, right = _simplify(e.left), _simplify(e.right)
        if isinstance(left, EmptySet):
            return right
        if isinstance(right, EmptySet):
            return left
        return Union(left, right)
    if isinstance(e, Star):
        inner = _simplify(e.inner)
        if isinstance(inner, (Epsilon, EmptySet)):
            return Epsilon()
        while True:
            if isinstance(inner, Star):
                inner = inner.inner
                continue
            members = _union_members(inner)
            if any(isinstance(m, Star) for m in members):
                peeled = [m.inner if isinstance(m, Star) else m for m in members]
                inner = union_exprs(peeled)
                continue
            break
        return Star(inner)
    return e


def _minimal_sets(family: Iterable[frozenset]) -> list[frozenset]:
    """Antichain of the family under inclusion (smaller sets kept)."""
    ordered = sorted(set(family), key=lambda s: (len(s), sorted(s)))
    kept: list[frozenset] = []
    for cand in ordered:
        if not any(prev <= cand for prev in kept):
            kept.append(cand)
    return kept


def _minimal_pairs(
    family: Iterable[tuple[frozenset, frozenset]],
) -> list[tuple[frozenset, frozenset]]:
    """Antichain of set pairs under componentwise inclusion."""
    ordered = sorted(
        set(family),
        key=lambda p: (len(p[0]) + len(p[1]), sorted(p[0]), sorted(p[1])),
    )
    kept: list[tuple[frozenset, frozenset]] = []
    for w1, w2 in ordered:
        if not any(k1 <= w1 and k2 <= w2 for k1, k2 in kept):
            kept.append((w1, w2))
    return kept


def check_simple_memb_box(e: ParamRegex, ws: WordSet) -> bool:
    """Can some valuation keep every word of ``ws`` out of the language?

    True iff there is a valuation ν with L(ν(e)) ∩ ws = ∅.  Requires a simple
    expression (each variable at most once), which makes the branches of the
    recursion independent.  Certainty membership of a fixed word w is the
    negation of this check on {w}.
    """
    if not is_simple(e):
        raise NotSimple("the avoidance recursion needs each variable to occur at most once")
    alphabet = ws.alphabet
    sort_words = _shortlex_key(alphabet)
    root = _simplify(e)
    memo: dict[tuple[int, frozenset], bool] = {}
    hit_memo: dict[str, list[frozenset]] = {}

    def hit_models(w: str) -> list[frozenset]:
        """Minimal word sets hitting every factorization of ``w`` into
        nonempty factors (each model necessarily contains ``w`` itself)."""
        got = hit_memo.get(w)
        if got is not None:
            return got
        family: list[frozenset] = [frozenset()]
        for i in range(1, len(w) + 1):
            prefix, rest = w[:i], w[i:]
            choices: list[frozenset] = [frozenset((prefix,))]
            if rest:
                choices.extend(hit_models(rest))
            family = _minimal_sets(
                fam | choice for fam in family for choice in choices
            )
        hit_memo[w] = family
        return family

    def check(node: ParamRegex, avoid: frozenset) -> bool:
        key = (id(node), avoid)
        got = memo.get(key)
        if got is not None:
            return got
        result = _check_cases(node, avoid)
        memo[key] = result
        return result

    def _check_cases(node: ParamRegex, avoid: frozenset) -> bool:
        if isinstance(node, EmptySet):
            return True
        if isinstance(node, Epsilon):
            return "" not in avoid
        if isinstance(node, Lit):
            return node.letter not in avoid
        if isinstance(node, Var):
            return any(b not in avoid for b in alphabet.letters)
        if isinstance(node, Union):
            return check(node.left, avoid) and check(node.right, avoid)
        if isinstance(node, Concat):
            # A split (W1, W2) is valid when every way a word of `avoid`
            # could arise as a two-part concatenation is blocked: nonempty
            # splits give a choice clause, and a nullable side forces the
            # whole set onto the other side (the empty part is unavoidable).
            forced_left = avoid if _nullable(node.right) else frozenset()
            forced_right = avoid if _nullable(node.left) else frozenset()
            clauses: dict[tuple[str, str], None] = {}
            for w in sorted(avoid, key=sort_words):
                for i in range(1, len(w)):
                    clauses.setdefault((w[:i], w[i:]), None)
            pairs: list[tuple[frozenset, frozenset]] = [(forced_left, forced_right)]
            for u, v in clauses:
                grown: set[tuple[frozenset, frozenset]] = set()
                for w1, w2 in pairs:
                    if u in w1 or v in w2:
                        grown.add((w1, w2))
                        continue
                    grown.add((w1 | {u}, w2))
                    grown.add((w1, w2 | {v}))
                pairs = _minimal_pairs(grown)
            return any(check(node.left, w1) and check(node.right, w2) for w1, w2 in pairs)
        if isinstance(node, Star):
            # Everything the star builds is a product of nonempty factors,
            # so it suffices to keep the factor language away from a set
            # that hits every factorization of every forbidden word.
            if "" in avoid:
                return False
            combined: list[frozenset] = [frozenset()]
            for w in sorted(avoid, key=sort_words):
                models = hit_models(w)
                combined = _minimal_sets(
                    fam | model for fam in combined for model in models
                )
            return any(check(node.inner, w1) for w1 in combined)
        raise TypeError(f"unexpected node {node!r}")

    # check and _check_cases refer to each other, a cycle that would keep the
    # tables alive until the cyclic collector runs: empty them on the way out.
    try:
        return check(root, frozenset(ws.words))
    finally:
        memo.clear()
        hit_memo.clear()


def membership_box_fixed_word(e: ParamRegex, w: str, alphabet: Alphabet) -> bool:
    """Certainty membership of one word, for simple expressions.

    The word is in the certainty language iff no valuation avoids it.
    """
    return not check_simple_memb_box(e, WordSet([w], alphabet))


# ---------------------------------------------------------------------------
# Possibility membership for a fixed word


def membership_diamond_fixed_word(
    e: ParamRegex, w: str, alphabet: Alphabet
) -> tuple[bool, Valuation | None]:
    """Possibility membership of one word, for arbitrary expressions.

    Searches the product of the expression automaton with the word, carrying
    the variable bindings made so far; a variable transition either binds a
    fresh variable to the current letter or must agree with its earlier
    binding.  On success the bindings are completed (unbound variables get
    the first letter — unused transitions cannot constrain the run) and
    returned as a full valuation.
    """
    for ch in w:
        if ch not in alphabet:
            raise ValueError(f"word uses letter {ch!r} outside the alphabet")
    a = remove_epsilon(regex_to_nfa(e, alphabet))
    adjacency = a.adjacency()
    names = variables(e)

    start = SearchState(a.initial, ())
    queue: deque[tuple[int, SearchState]] = deque([(0, start)])
    seen: set[tuple[int, SearchState]] = {(0, start)}
    while queue:
        pos, node = queue.popleft()
        if pos == len(w) and node.state in a.finals:
            full = dict(node.partial)
            for name in names:
                full.setdefault(name, alphabet.letters[0])
            return True, Valuation(full)
        if pos == len(w):
            continue
        letter = w[pos]
        for label, dst in adjacency[node.state]:
            if isinstance(label, VarLabel):
                image = node.image(label.name)
                if image is None:
                    merged = dict(node.partial)
                    merged[label.name] = letter
                    nxt = SearchState(dst, tuple(sorted(merged.items())))
                elif image == letter:
                    nxt = SearchState(dst, node.partial)
                else:
                    continue
            elif label == letter:
                nxt = SearchState(dst, node.partial)
            else:
                continue
            item = (pos + 1, nxt)
            if item not in seen:
                seen.add(item)
                queue.append(item)
    return False, None


def membership_diamond_simple_sh0(e: ParamRegex, w: str, alphabet: Alphabet) -> bool:
    """Possibility membership for simple star-free expressions.

    The expression automaton is acyclic and each variable labels a single
    transition, so a variable transition can match the current letter
    unconditionally — no binding can ever be contradicted.  Plain
    reachability over (position, state) decides the word.
    """
    if not is_simple(e):
        raise PreconditionViolated("expected a simple expression")
    if star_height(e) != 0:
        raise PreconditionViolated("expected a star-free expression")
    for ch in w:
        if ch not in alphabet:
            raise ValueError(f"word uses letter {ch!r} outside the alphabet")
    a = remove_epsilon(regex_to_nfa(e, alphabet))
    adjacency = a.adjacency()
    current = {a.initial}
    for letter in w:
        nxt: set[int] = set()
        for q in current:
            for label, dst in adjacency[q]:
                if isinstance(label, VarLabel) or label == letter:
                    nxt.add(dst)
        current = nxt
        if not current:
            return False
    return bool(current & set(a.finals))


# ---------------------------------------------------------------------------
# Certainty nonemptiness for star-free expressions


def nonemptiness_box_sh0(
    e: ParamRegex,
    alphabet: Alphabet,
    word_cap: int = DEFAULT_WORD_CAP,
) -> tuple[bool, str | None]:
    """Certainty nonemptiness for star-free expressions, with witness.

    Star-free instances have finite languages, and the certainty language is
    contained in every instance — so the instance under the first valuation
    is a complete candidate list.  Candidates are tried shortlex; the first
    one in the certainty language is the witness.
    """
    if star_height(e) != 0:
        raise PreconditionViolated("expected a star-free expression")
    first = Valuation({name: alphabet.letters[0] for name in variables(e)})
    instance = remove_epsilon(regex_to_nfa(apply_to_regex(first, e), alphabet))
    candidates = enumerate_finite_domain(instance, word_cap)
    for w in candidates:
        if membership(e, w, alphabet, BOX).answer:
            return True, w
    return False, None
