"""The certainty/possibility semantics and the main decision problems.

The certainty language of an expression is the intersection of the languages
of all its substitution instances; the possibility language is their union.
Variables range over the letters, or over the words of per-variable regular
domains (:class:`~prx.valuations.DomainSpec`); every problem takes either,
and decides both the same way.  Membership simulates the variable-labelled
automaton once over the word, carrying a set of valuations per state, so it
never builds an instance.  Over letters, certainty nonemptiness, possibility
universality and certainty containment step those sets the same way, letter
by letter, in one breadth-first search over *mask states* that stops at the
first answer; no instance is built for them either.  The other problems
enumerate valuations in the fixed deterministic order and check, union, or
intersect the substituted automata.  Either way a reported valuation is the
first one in enumeration order.  Nothing is approximated: caps make the
exponential cases fail loudly instead.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Hashable, Iterable, Iterator, Mapping, Sequence

from .automata import (
    DEFAULT_STATE_CAP,
    Nfa,
    VarLabel,
    complement,
    determinize,
    dfa_to_nfa,
    expand_extended,
    is_empty,
    is_universal,
    product,
    product_all,
    regex_to_nfa,
    remove_epsilon,
    union_all,
)
from .errors import DomainNotFinite, PrxError, StateCapExceeded
from .syntax import Alphabet, ParamRegex, variables
from .valuations import (
    DEFAULT_VALUATION_CAP,
    DEFAULT_WORD_CAP,
    DomainSpec,
    Valuation,
    apply_finitary,
    apply_to_nfa,
    apply_to_regex,
    domain_choices,
    enumerate_valuations,
    letter_choices,
    letter_masks,
    valuation_at,
    valuations_from,
)


class Semantics(Enum):
    """Which quantifier ranges over the valuations."""

    BOX = "box"  # certainty: a word must be matched under every valuation
    DIAMOND = "diamond"  # possibility: a word must be matched under some valuation


BOX = Semantics.BOX
DIAMOND = Semantics.DIAMOND


@dataclass
class DecisionReport:
    """Answer plus whatever evidence the decision produced.

    ``witness`` is a word (nonemptiness witness, non-universality or
    containment counterexample); ``valuation`` is the substitution that
    witnesses or refutes the answer, when one exists; ``stats`` records how
    much work was done.  ``stats["valuations"]`` counts the valuations
    examined (membership) or combined (the others).  ``stats["states"]``
    counts the states of the search that produced the answer: the mask
    states discovered for certainty nonemptiness, possibility universality
    and certainty containment over letters, and otherwise the states of the
    automaton the answer was read from (the expression's own for
    membership).
    """

    answer: bool
    witness: str | None = None
    valuation: dict[str, str] | None = None
    stats: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "answer": self.answer,
            "witness": self.witness,
            "valuation": self.valuation,
            "stats": {
                "valuations": int(self.stats.get("valuations", 0)),
                "states": int(self.stats.get("states", 0)),
            },
        }


def _compiled(e: ParamRegex, alphabet: Alphabet) -> Nfa:
    """Epsilon-free automaton for the expression, variables kept as labels."""
    return remove_epsilon(regex_to_nfa(e, alphabet))


def _check_spec_covers(spec: DomainSpec, *exprs: ParamRegex) -> None:
    for e in exprs:
        missing = [name for name in variables(e) if name not in spec]
        if missing:
            raise PrxError(f"no domain declared for variable(s): {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Valuations and instances


def _valuation_space(
    e: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    domains: DomainSpec | None,
    route: str,
    valuation_cap: int,
    word_cap: int,
) -> tuple[str, dict[str, Sequence[str]]]:
    """The route the instances come from, and the images of each variable.

    Without domains every variable ranges over the letters ("letters").
    With all domains finite, total word valuations are enumerated
    ("enumerate").  With an infinite domain the certainty language is still
    regular: it is the intersection over the finitary valuations, which
    leave the infinite-domain variables undefined and drop their
    transitions ("finitary").  The possibility language over an infinite
    domain may be nonregular, so that combination is refused.  ``route``
    "auto" picks by finiteness; "enumerate" or "finitary" forces one, so
    that their agreement is testable.
    """
    if domains is None:
        if route != "auto":
            raise ValueError("a route applies to regular domains only")
        return "letters", letter_choices(variables(e), alphabet, valuation_cap)
    _check_spec_covers(domains, e)
    if route not in ("auto", "enumerate", "finitary"):
        raise ValueError(f"unknown route {route!r}")
    all_finite = not domains.infinite_variables()
    if sem is DIAMOND and not all_finite:
        raise DomainNotFinite(
            "the possibility language over an infinite domain need not be regular"
        )
    if route == "enumerate" and not all_finite:
        raise DomainNotFinite("the enumerate route requires all domains finite")
    if route == "auto":
        route = "enumerate" if all_finite else "finitary"
    return route, domain_choices(domains, valuation_cap, word_cap, finitary=route == "finitary")


def _instances(
    e: ParamRegex, alphabet: Alphabet, route: str, choices: dict[str, Sequence[str]]
) -> Iterator[Nfa]:
    """The substituted automata, one per valuation, in enumeration order."""
    if route == "enumerate":
        for nu in valuations_from(choices):
            yield remove_epsilon(regex_to_nfa(apply_to_regex(nu, e), alphabet))
        return
    base = _compiled(e, alphabet)
    for nu in valuations_from(choices):
        if route == "letters":
            yield apply_to_nfa(nu, base)
        else:
            yield remove_epsilon(expand_extended(apply_finitary(nu, base)))


# ---------------------------------------------------------------------------
# CONSTRUCT


def _construct(
    e: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    space: tuple[str, dict[str, Sequence[str]]],
    state_cap: int,
) -> tuple[Nfa, int]:
    """The combined automaton over the valuation space (see
    :func:`_valuation_space`), and the number of instances combined."""
    route, choices = space
    instances = list(_instances(e, alphabet, route, choices))
    if sem is DIAMOND:
        return union_all(instances, alphabet), len(instances)
    return product_all(instances, state_cap), len(instances)


def construct_nfa(
    e: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
    domains: DomainSpec | None = None,
    route: str = "auto",
    word_cap: int = DEFAULT_WORD_CAP,
) -> Nfa:
    """Variable-free NFA for the certainty/possibility language.

    Possibility: nondeterministic union over all substituted automata.
    Certainty: determinized synchronized product over all of them (with
    duplicate components collapsed and dead tuples pruned).  With
    ``domains`` the variables range over their regular domains; ``route``
    then picks how the instances are made (see :func:`_valuation_space`).
    """
    space = _valuation_space(e, alphabet, sem, domains, route, valuation_cap, word_cap)
    return _construct(e, alphabet, sem, space, state_cap)[0]


# ---------------------------------------------------------------------------
# Sets of valuations stepped through the variable-labelled automaton


def _letter_moves(
    base: Nfa, to_letter: Mapping[str, Sequence[int]]
) -> list[dict[int, list[tuple[int, int | None]]]]:
    """Per letter index and state, the edges that read that letter, as
    (target, valuations the edge keeps): a letter edge keeps all of them
    (``None``), an edge ``$x`` those in ``to_letter[x]`` at that letter's
    index.  Edges that keep none are left out."""
    moves: list[dict[int, list[tuple[int, int | None]]]] = [{} for _ in base.alphabet.letters]
    for src, label, dst in base.transitions:
        if isinstance(label, VarLabel):
            for row, keep in zip(moves, to_letter[label.name]):
                if keep:
                    row.setdefault(src, []).append((dst, keep))
        else:
            moves[base.alphabet.index(label)].setdefault(src, []).append((dst, None))
    return moves


def _step(
    reach: Iterable[tuple[int, int]],
    moves: dict[int, list[tuple[int, int | None]]],
    ahead: dict[int, int],
) -> dict[int, int]:
    """Read one letter: add to ``ahead`` the valuations each (state,
    valuations) pair passes along its edges in ``moves``, one letter's row
    of :func:`_letter_moves`."""
    for q, have in reach:
        for dst, keep in moves.get(q, ()):
            kept = have if keep is None else have & keep
            if kept:
                ahead[dst] = ahead.get(dst, 0) | kept
    return ahead


#: A mask state: the sorted (state, nonzero valuation bitset) pairs of the
#: ε-free automaton reached on one word, the bitset holding the letter
#: valuations under which the state is reached.
_MaskState = tuple[tuple[int, int], ...]


class _Masks:
    """An expression's ε-free automaton run under every letter valuation at
    once, on mask states.  Stepping a mask state is deterministic, and a
    word leads to the mask state that records, for every valuation, the
    subset its instance's subset construction reaches on that word."""

    __slots__ = ("total", "full", "finals", "moves", "start")

    def __init__(self, e: ParamRegex, alphabet: Alphabet, valuation_cap: int):
        choices = letter_choices(variables(e), alphabet, valuation_cap)
        base = _compiled(e, alphabet)
        self.total, masks = letter_masks(choices)
        self.full = (1 << self.total) - 1
        self.finals = base.finals
        self.moves = _letter_moves(base, masks)
        self.start: _MaskState = ((base.initial, self.full),)

    def step(self, state: _MaskState, i: int) -> _MaskState:
        return tuple(sorted(_step(state, self.moves[i], {}).items()))

    def accepting(self, state: _MaskState) -> int:
        """The valuations whose instance accepts at this mask state."""
        out = 0
        for q, have in state:
            if q in self.finals:
                out |= have
        return out

    def alive(self, state: _MaskState) -> bool:
        """Does every valuation reach some state?  If one reaches none, its
        instance rejects every continuation, so no word through this mask
        state is in the certainty language."""
        out = 0
        for _, have in state:
            out |= have
        return out == self.full


def _mask_search(
    start: Hashable,
    step: Callable[[Hashable, int], Hashable],
    alphabet: Alphabet,
    wanted: Callable[[Hashable], bool],
    keep: Callable[[Hashable], bool],
    state_cap: int,
) -> tuple[str | None, int]:
    """Breadth-first search from ``start`` for a ``wanted`` node, with the
    letters tried in alphabet order; a node ``keep`` refuses is neither
    counted nor queued, and no wanted node may be behind one.

    ``step`` is deterministic, so the word returned, that of the first
    wanted node found, is the shortlex-least word leading to one.  Returns
    it (``None`` if there is none) and the number of nodes discovered;
    raises :class:`~prx.errors.StateCapExceeded` once that would exceed
    ``state_cap``.
    """
    if wanted(start):
        return "", 1
    parents: dict[Hashable, tuple[Hashable, int] | None] = {start: None}
    queue: deque[Hashable] = deque([start])
    while queue:
        node = queue.popleft()
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


# ---------------------------------------------------------------------------
# MEMBERSHIP


def membership(
    e: ParamRegex,
    w: str,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    domains: DomainSpec | None = None,
    word_cap: int = DEFAULT_WORD_CAP,
) -> DecisionReport:
    """Decide w ∈ L(e) under the chosen semantics in one pass over the word.

    The variable-labelled automaton is simulated once, every state at every
    position carrying the set of valuations (a bitset, see
    :func:`letter_masks`) under which it is reachable on the prefix read so
    far: a letter edge passes the set on, an edge ``$x`` keeps, for each
    image u of x that the word continues with, the valuations with x = u
    and moves on by |u|.  Empty images are followed within a position, and
    edges of variables a finitary valuation leaves undefined are dropped.
    The sets on the final states at the end of the word hold the valuations
    that accept w.  Possibility needs one of them, certainty needs all; the
    reported valuation is the first accepting (possibility) or rejecting
    (certainty) one in enumeration order, and ``valuations`` counts the
    enumeration up to it, or all of it when there is none.
    """
    base = _compiled(e, alphabet)
    _, choices = _valuation_space(
        e, alphabet, sem, domains, "auto", valuation_cap, word_cap
    )
    total, masks = letter_masks(choices)
    # Every letter is checked here, also those after the run dies out.
    letter_ids = [alphabet.index(ch) for ch in w]
    # Per variable, the valuations mapping it to each letter (in alphabet
    # order: the masks themselves for letter valuations), to each longer
    # image (by its first letter) and to the empty word.  A variable a
    # finitary valuation leaves undefined maps to nothing.
    to_letter, longer, empty = masks, {}, {}
    if domains is not None:
        to_letter = dict.fromkeys(domains.names, [0] * len(alphabet))
        for name, images in choices.items():
            by_image = dict(zip(images, masks[name]))
            to_letter[name] = [by_image.pop(c, 0) for c in alphabet.letters]
            for image, mask in by_image.items():
                if image:
                    longer.setdefault(name, {}).setdefault(image[0], []).append((image, mask))
                else:
                    empty[name] = mask
    adj = base.adjacency() if longer or empty else {}
    moves = _letter_moves(base, to_letter)
    full = (1 << total) - 1
    reach = {base.initial: full}
    later: dict[int, dict[int, int]] = {}  # arrivals after longer images
    for pos, i in enumerate(letter_ids):
        if empty:
            _follow_empty_images(reach, adj, empty)
        ahead = _step(reach.items(), moves[i], later.pop(pos + 1, {}))
        if longer:
            ch = w[pos]
            for q, have in reach.items():
                for label, dst in adj[q]:
                    if isinstance(label, VarLabel) and label.name in longer:
                        for image, mask in longer[label.name].get(ch, ()):
                            keep = have & mask
                            if keep and w.startswith(image, pos):
                                at = later.setdefault(pos + len(image), {})
                                at[dst] = at.get(dst, 0) | keep
        reach = ahead
        if not reach and not later:
            break
    if empty:
        _follow_empty_images(reach, adj, empty)
    accepted = 0
    for q, have in reach.items():
        if q in base.finals:
            accepted |= have
    want = sem is DIAMOND
    found = accepted if want else full ^ accepted
    if not found:
        return DecisionReport(
            answer=not want, stats={"valuations": total, "states": base.n_states}
        )
    index = (found & -found).bit_length() - 1
    return DecisionReport(
        answer=want,
        valuation=valuation_at(choices, index).as_dict(),
        stats={"valuations": index + 1, "states": base.n_states},
    )


def _follow_empty_images(
    reach: dict[int, int], adj: dict[int, list], empty: dict[str, int]
) -> None:
    """Close one position's sets under the edges of variables whose image
    is the empty word, to a fixpoint (the sets only grow)."""
    work = list(reach)
    while work:
        q = work.pop()
        have = reach[q]
        for label, dst in adj[q]:
            if isinstance(label, VarLabel) and label.name in empty:
                old = reach.get(dst, 0)
                grown = old | (have & empty[label.name])
                if grown != old:
                    reach[dst] = grown
                    work.append(dst)


# ---------------------------------------------------------------------------
# NONEMPTINESS


def nonemptiness(
    e: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
    domains: DomainSpec | None = None,
    word_cap: int = DEFAULT_WORD_CAP,
) -> DecisionReport:
    """Is the certainty/possibility language nonempty?

    Over letters, possibility-nonemptiness does not depend on the valuation
    chosen (a path in one substituted automaton exists iff one exists in any
    other), so only the first valuation is inspected — no cap applies.
    Certainty-nonemptiness over letters searches mask states breadth-first
    for one whose final states hold every valuation; a mask state that
    loses a valuation altogether is dead and dropped.  The witness is the
    shortlex-least word of the certainty language.  With ``domains`` the
    combined automaton is built and its shortest witness reported.
    """
    if sem is DIAMOND and domains is None:
        nu = Valuation(dict.fromkeys(variables(e), alphabet.letters[0]))
        instance = apply_to_nfa(nu, _compiled(e, alphabet))
        empty, witness = is_empty(instance)
        return DecisionReport(
            answer=not empty,
            witness=witness,
            valuation=nu.as_dict() if not empty else None,
            stats={"valuations": 1, "states": instance.n_states},
        )
    if domains is None:
        side = _Masks(e, alphabet, valuation_cap)
        witness, n_states = _mask_search(
            side.start, side.step, alphabet,
            wanted=lambda s: side.accepting(s) == side.full,
            keep=side.alive,
            state_cap=state_cap,
        )
        return DecisionReport(
            answer=witness is not None,
            witness=witness,
            stats={"valuations": side.total, "states": n_states},
        )
    space = _valuation_space(e, alphabet, sem, domains, "auto", valuation_cap, word_cap)
    combined, n_vals = _construct(e, alphabet, sem, space, state_cap)
    empty, witness = is_empty(combined)
    return DecisionReport(
        answer=not empty,
        witness=witness,
        stats={"valuations": n_vals, "states": combined.n_states},
    )


# ---------------------------------------------------------------------------
# UNIVERSALITY


def universality(
    e: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
    domains: DomainSpec | None = None,
    word_cap: int = DEFAULT_WORD_CAP,
) -> DecisionReport:
    """Is every word over the alphabet in the language?

    Over letters, certainty-universality holds iff every substituted
    instance is universal, so instances are checked one valuation at a time
    up to the first that is not, and the counterexample is one that
    instance rejects.  Possibility-universality over letters searches mask
    states breadth-first for one whose final states hold no valuation.  With
    ``domains`` the combined automaton is determinized.  Every route
    searches a deterministic automaton, so the counterexample is the
    shortlex-least word it rejects.
    """
    if sem is BOX and domains is None:
        base = _compiled(e, alphabet)
        count = 0
        for nu in enumerate_valuations(variables(e), alphabet, valuation_cap):
            count += 1
            d = determinize(apply_to_nfa(nu, base), state_cap)
            ok, cex = is_universal(d)
            if not ok:
                return DecisionReport(
                    answer=False,
                    witness=cex,
                    valuation=nu.as_dict(),
                    stats={"valuations": count, "states": d.n_states},
                )
        return DecisionReport(
            answer=True, stats={"valuations": count, "states": base.n_states}
        )
    if domains is None:
        side = _Masks(e, alphabet, valuation_cap)
        cex, n_states = _mask_search(
            side.start, side.step, alphabet,
            wanted=lambda s: not side.accepting(s),
            keep=lambda s: True,
            state_cap=state_cap,
        )
        return DecisionReport(
            answer=cex is None,
            witness=cex,
            stats={"valuations": side.total, "states": n_states},
        )
    space = _valuation_space(e, alphabet, sem, domains, "auto", valuation_cap, word_cap)
    combined, n_vals = _construct(e, alphabet, sem, space, state_cap)
    d = determinize(combined, state_cap)
    ok, cex = is_universal(d)
    return DecisionReport(
        answer=ok,
        witness=cex,
        stats={"valuations": n_vals, "states": d.n_states},
    )


# ---------------------------------------------------------------------------
# CONTAINMENT and intersection with a regular language


def containment(
    e1: ParamRegex,
    e2: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
    domains: DomainSpec | None = None,
    word_cap: int = DEFAULT_WORD_CAP,
) -> DecisionReport:
    """Is L(e1) ⊆ L(e2) under the chosen semantics?

    Decided as emptiness of L(e1) ∩ complement(L(e2)); when the containment
    fails, the shortest separating word is returned.  Certainty over letters
    searches pairs of mask states, one per side, breadth-first for a pair
    where e1 accepts under every valuation and e2 not under some; pairs
    whose e1 side is dead are dropped, and the separator is shortlex-least.
    Otherwise the combined automata are built and multiplied.  With
    ``domains`` the valuation space depends on the domains only, so both
    sides share it.
    """
    if domains is None and sem is BOX:
        lhs, rhs = _Masks(e1, alphabet, valuation_cap), _Masks(e2, alphabet, valuation_cap)
        witness, n_states = _mask_search(
            (lhs.start, rhs.start),
            lambda pair, i: (lhs.step(pair[0], i), rhs.step(pair[1], i)),
            alphabet,
            wanted=lambda pair: (
                lhs.accepting(pair[0]) == lhs.full and rhs.accepting(pair[1]) != rhs.full
            ),
            keep=lambda pair: lhs.alive(pair[0]),
            state_cap=state_cap,
        )
        return DecisionReport(
            answer=witness is None,
            witness=witness,
            stats={"valuations": lhs.total + rhs.total, "states": n_states},
        )
    if domains is not None:
        _check_spec_covers(domains, e1, e2)
    caps = (valuation_cap, word_cap)
    space = _valuation_space(e1, alphabet, sem, domains, "auto", *caps)
    lhs, n_lhs = _construct(e1, alphabet, sem, space, state_cap)
    if domains is None:  # over letters each side has its own variables
        space = _valuation_space(e2, alphabet, sem, domains, "auto", *caps)
    rhs, n_rhs = _construct(e2, alphabet, sem, space, state_cap)
    rhs_complement = dfa_to_nfa(complement(determinize(rhs, state_cap)))
    gap = product(lhs, rhs_complement, state_cap)
    empty, witness = is_empty(gap)
    return DecisionReport(
        answer=empty,
        witness=witness,
        stats={"valuations": n_lhs + n_rhs, "states": gap.n_states},
    )


def nonempty_int_reg(
    e: ParamRegex,
    r: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
    domains: DomainSpec | None = None,
    word_cap: int = DEFAULT_WORD_CAP,
) -> DecisionReport:
    """Does the certainty/possibility language intersect the regular language
    of the variable-free expression r?"""
    if domains is not None:
        _check_spec_covers(domains, e)
    if variables(r):
        raise PrxError("the regular constraint must be variable-free")
    space = _valuation_space(e, alphabet, sem, domains, "auto", valuation_cap, word_cap)
    lhs, n_vals = _construct(e, alphabet, sem, space, state_cap)
    inter = product(lhs, _compiled(r, alphabet), state_cap)
    empty, witness = is_empty(inter)
    return DecisionReport(
        answer=not empty,
        witness=witness,
        stats={"valuations": n_vals, "states": inter.n_states},
    )
