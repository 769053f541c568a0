"""Specialized decision procedures for restricted classes of input.

Fixed-word membership under possibility is a reachability search over
(position, automaton state, variable bindings made so far) that binds
variables on the fly.  With k variables over the alphabet Σ and an automaton
of n states it explores at most (|w|+1)·n·Σ_{j≤k} C(k,j)·|Σ|^j nodes:
linear in |w| but exponential in k, so polynomial only for a fixed k, and
capped like every automaton construction.  Simple star-free expressions
need no bindings at all, and certainty nonemptiness of a star-free
expression only has to test the words of one instance.

Certainty membership has no route here: it is coNP-complete in general, and
:func:`prx.semantics.membership` decides it in one pass over the word.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .automata import DEFAULT_STATE_CAP, VarLabel, regex_to_nfa, remove_epsilon
from .errors import PreconditionViolated, StateCapExceeded
from .semantics import BOX, membership
from .syntax import Alphabet, ParamRegex, is_simple, star_height, variables
from .valuations import (
    DEFAULT_VALUATION_CAP,
    DEFAULT_WORD_CAP,
    Valuation,
    apply_to_regex,
    enumerate_finite_domain,
)


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
# Possibility membership for a fixed word


def membership_diamond_fixed_word(
    e: ParamRegex, w: str, alphabet: Alphabet, state_cap: int = DEFAULT_STATE_CAP
) -> tuple[bool, Valuation | None]:
    """Possibility membership of one word, for arbitrary expressions.

    Searches the product of the expression automaton with the word, carrying
    the variable bindings made so far; a variable transition either binds a
    fresh variable to the current letter or must agree with its earlier
    binding.  On success the bindings are completed (unbound variables get
    the first letter — unused transitions cannot constrain the run) and
    returned as a full valuation.  Raises
    :class:`~prx.errors.StateCapExceeded` once more than ``state_cap`` search
    nodes are reached.
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
                if len(seen) >= state_cap:
                    raise StateCapExceeded(
                        f"the fixed-word search exceeded the cap of {state_cap} states"
                    )
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
    valuation_cap: int = DEFAULT_VALUATION_CAP,
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
        if membership(e, w, alphabet, BOX, valuation_cap).answer:
            return True, w
    return False, None
