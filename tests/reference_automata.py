"""The per-instance constructions the library no longer uses, kept as the
tests' reference for the automata it builds in one pass.

:func:`thompson` is Thompson's construction with its epsilon edges, whose
epsilon-removal :func:`~prx.automata.regex_to_nfa` builds directly.
:func:`determinize` is the subset construction of one automaton, as a
:class:`Dfa`, and :func:`first_rejected` and :func:`is_universal` read its
shortlex-least rejected word.  :func:`product_all` determinizes every
instance and explores the tuples of their states; :func:`complement` and
:func:`dfa_to_nfa` turn the subset construction of a union of instances
into its complement automaton.  :func:`union_all` glues separate
instances, made with :func:`~prx.valuations.apply_to_nfa` or
:func:`apply_finitary`, into the possibility automaton.  :func:`product`
is the synchronized product of two automata, numbered breadth-first, whose
emptiness the library decides by searching its pairs without building it.
:func:`membership_diamond_fixed_word` is the breadth-first search over
(position, :class:`SearchState`) nodes that the library's fixed-word
simulation must match node for node.
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from prx.automata import (
    DEFAULT_STATE_CAP, EPSILON, Label, Nfa, VarLabel, regex_to_nfa, remove_epsilon,
)
from prx.errors import StateCapExceeded
from prx.syntax import (
    Alphabet, Concat, EmptySet, Epsilon, Lit, ParamRegex, Star, Union, Var, _walk, variables,
)
from prx.valuations import Valuation


def thompson(e: ParamRegex, alphabet: Alphabet) -> Nfa:
    """Thompson's construction: a fresh start/end state pair per
    subexpression other than a concatenation, numbered in the order the
    subexpressions are entered (left to right, outside in), joined by
    epsilon edges; the end of the whole expression is the one final state.
    The tree is walked with an explicit stack."""
    transitions: list[tuple[int, Label, int]] = []
    counter = 0
    # (start, end) of every node entered and not yet joined to its parent;
    # a node's own pair is pushed when it is entered, below its children's.
    ends: list[tuple[int, int]] = []
    for node, entering in _walk(e):
        if entering:
            if not isinstance(node, Concat):
                ends.append((counter, counter + 1))
                counter += 2
        elif isinstance(node, Concat):
            (ls, lt), (rs, rt) = ends[-2:]
            del ends[-1]
            ends[-1] = (ls, rt)
            transitions.append((lt, EPSILON, rs))
        elif isinstance(node, Union):
            (s, t), (ls, lt), (rs, rt) = ends[-3:]
            del ends[-2:]
            transitions.extend([(s, EPSILON, ls), (s, EPSILON, rs), (lt, EPSILON, t), (rt, EPSILON, t)])
        elif isinstance(node, Star):
            (s, t), (is_, it) = ends[-2:]
            del ends[-1]
            transitions.extend(
                [(s, EPSILON, t), (s, EPSILON, is_), (it, EPSILON, t), (it, EPSILON, is_)]
            )
        else:
            s, t = ends[-1]
            if isinstance(node, Epsilon):
                transitions.append((s, EPSILON, t))
            elif isinstance(node, Lit):
                if node.letter not in alphabet:
                    raise ValueError(f"letter {node.letter!r} is not in the alphabet")
                transitions.append((s, node.letter, t))
            elif isinstance(node, Var):
                transitions.append((s, VarLabel(node.name), t))
            elif not isinstance(node, EmptySet):
                raise TypeError(f"not an expression node: {node!r}")
    start, end = ends[0]
    return Nfa(counter, start, {end}, transitions, alphabet)


class Dfa:
    """A complete DFA: total transition function over the alphabet's letters."""

    __slots__ = ("n_states", "initial", "finals", "delta", "alphabet")

    def __init__(
        self,
        n_states: int,
        initial: int,
        finals: Iterable[int],
        delta: Sequence[Sequence[int]],
        alphabet: Alphabet,
    ):
        finals = frozenset(finals)
        delta = tuple(tuple(row) for row in delta)
        if len(delta) != n_states:
            raise ValueError("delta must have one row per state")
        if any(len(row) != len(alphabet) for row in delta):
            raise ValueError("delta rows must cover the whole alphabet")
        if any(not 0 <= t < n_states for row in delta for t in row):
            raise ValueError("delta target out of range")
        if not 0 <= initial < n_states or any(not 0 <= q < n_states for q in finals):
            raise ValueError("state out of range")
        self.n_states = n_states
        self.initial = initial
        self.finals = finals
        self.delta = delta
        self.alphabet = alphabet

    def run(self, w: str) -> int:
        """State reached from the initial state on w."""
        state = self.initial
        for ch in w:
            state = self.delta[state][self.alphabet.index(ch)]
        return state

    def accepts_word(self, w: str) -> bool:
        return self.run(w) in self.finals

    def __repr__(self):
        return f"Dfa(states={self.n_states}, finals={sorted(self.finals)})"


def determinize(a: Nfa, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Subset construction of an automaton over letters only; the sink
    (empty subset) is always materialized.  Raises
    :class:`~prx.errors.StateCapExceeded` once more than ``state_cap``
    subsets become reachable."""
    if any(not isinstance(label, str) for _, label, _ in a.transitions):
        raise ValueError("determinize expects an automaton over letters only")
    adj: dict[tuple[int, str], set[int]] = defaultdict(set)
    for src, label, dst in a.transitions:
        adj[(src, label)].add(dst)
    letters = a.alphabet.letters
    start = frozenset({a.initial})
    ids: dict[frozenset[int], int] = {start: 0}
    order: list[frozenset[int]] = [start]
    rows: list[list[int]] = []
    queue: deque[frozenset[int]] = deque([start])
    while queue:
        subset = queue.popleft()
        row = []
        for letter in letters:
            target = frozenset(q for s in subset for q in adj.get((s, letter), ()))
            tid = ids.get(target)
            if tid is None:
                if len(ids) >= state_cap:
                    raise StateCapExceeded(
                        f"determinization exceeded the cap of {state_cap} states"
                    )
                tid = ids[target] = len(ids)
                order.append(target)
                queue.append(target)
            row.append(tid)
        rows.append(row)
    if frozenset() not in ids:
        if len(ids) >= state_cap:
            raise StateCapExceeded(f"determinization exceeded the cap of {state_cap} states")
        sink = ids[frozenset()] = len(ids)
        order.append(frozenset())
        rows.append([sink] * len(letters))
    finals = {ids[s] for s in order if s & a.finals}
    return Dfa(len(ids), 0, finals, rows, a.alphabet)


def is_universal(d: Dfa) -> tuple[bool, str | None]:
    """(universality, witness): witness is the shortest rejected word, the
    least of them with letters in alphabet order."""
    witness, _ = first_rejected(d)
    return witness is None, witness


def first_rejected(d: Dfa) -> tuple[str | None, int]:
    """The shortlex-least rejected word (``None`` if there is none), found
    by a breadth-first walk with letters in alphabet order, and the number
    of states that walk discovers up to it."""
    if d.initial not in d.finals:
        return "", 1
    parents: dict[int, tuple[int, str]] = {}
    visited = {d.initial}
    queue: deque[int] = deque([d.initial])
    while queue:
        q = queue.popleft()
        for i, letter in enumerate(d.alphabet.letters):
            dst = d.delta[q][i]
            if dst in visited:
                continue
            visited.add(dst)
            parents[dst] = (q, letter)
            if dst not in d.finals:
                chars = []
                cur = dst
                while cur != d.initial:
                    prev, ch = parents[cur]
                    chars.append(ch)
                    cur = prev
                return "".join(reversed(chars)), len(visited)
            queue.append(dst)
    return None, len(visited)


def apply_finitary(v: Valuation, a: Nfa) -> Nfa:
    """Letter transitions kept; variable transitions substituted when the
    variable is defined and dropped when it is not (the reduced automaton
    composed with the finitary substitution).  An image of two or more
    letters is spelled as a chain through new states, numbered in
    transition order after the automaton's own."""
    transitions = []
    n_states = a.n_states
    for src, label, dst in a.transitions:
        if isinstance(label, VarLabel):
            if label.name not in v:
                continue
            image = v[label.name]
            if image == "":
                label = EPSILON
            else:
                for letter in image[:-1]:
                    transitions.append((src, letter, n_states))
                    src = n_states
                    n_states += 1
                label = image[-1]
        transitions.append((src, label, dst))
    return Nfa(n_states, a.initial, a.finals, transitions, a.alphabet)


def union_all(automata: Sequence[Nfa], alphabet: Alphabet | None = None) -> Nfa:
    """Nondeterministic choice between the automata (empty list gives the
    empty language, which is why an alphabet may be supplied explicitly)."""
    if not automata:
        if alphabet is None:
            raise ValueError("union_all of an empty list needs an explicit alphabet")
        return Nfa(1, 0, (), (), alphabet)
    alphabet = automata[0].alphabet
    transitions: list[tuple[int, Label, int]] = []
    finals: set[int] = set()
    offset = 1
    for a in automata:
        if a.label_kinds()[1]:
            raise ValueError("union_all expects variable-free automata")
        if a.alphabet != alphabet:
            raise ValueError("union_all expects a shared alphabet")
        transitions.append((0, EPSILON, a.initial + offset))
        for src, label, dst in a.transitions:
            transitions.append((src + offset, label, dst + offset))
        finals.update(q + offset for q in a.finals)
        offset += a.n_states
    glued = Nfa(offset, 0, finals, transitions, alphabet)
    return remove_epsilon(glued)


def complement(d: Dfa) -> Dfa:
    """Flip finals; sound because every Dfa here is total."""
    return Dfa(
        d.n_states,
        d.initial,
        frozenset(range(d.n_states)) - d.finals,
        d.delta,
        d.alphabet,
    )


def dfa_to_nfa(d: Dfa) -> Nfa:
    transitions = [
        (q, letter, d.delta[q][i])
        for q in range(d.n_states)
        for i, letter in enumerate(d.alphabet.letters)
    ]
    return Nfa(d.n_states, d.initial, d.finals, transitions, d.alphabet)


def product_all(automata: Sequence[Nfa], state_cap: int = DEFAULT_STATE_CAP) -> Nfa:
    """Determinized synchronized product of many automata (their intersection).

    Components are determinized (and de-duplicated) first, then the tuple
    space is explored lazily from the joint initial state, pruning tuples
    from which some component can no longer accept.  This keeps intersections
    over many valuations feasible where materializing iterated pairwise
    products would not be.
    """
    if not automata:
        raise ValueError("product_all needs at least one automaton")
    alphabet = automata[0].alphabet
    dfas: list[Dfa] = []
    seen_sigs: set = set()
    for a in automata:
        if a.alphabet != alphabet:
            raise ValueError("product_all expects a shared alphabet")
        d = determinize(a, state_cap)
        sig = (d.n_states, d.initial, d.finals, d.delta)
        if sig not in seen_sigs:
            seen_sigs.add(sig)
            dfas.append(d)

    # Per component, states from which no final is reachable; tuples touching
    # one of these are dead and never enqueued.
    dead: list[set[int]] = []
    for d in dfas:
        rev: dict[int, list[int]] = defaultdict(list)
        for q in range(d.n_states):
            for t in d.delta[q]:
                rev[t].append(q)
        alive = set(d.finals)
        stack = list(d.finals)
        while stack:
            q = stack.pop()
            for p in rev[q]:
                if p not in alive:
                    alive.add(p)
                    stack.append(p)
        dead.append(set(range(d.n_states)) - alive)

    start = tuple(d.initial for d in dfas)
    transitions: list[tuple[int, Label, int]] = []
    finals: set[int] = set()
    if any(q in dead[i] for i, q in enumerate(start)):
        return Nfa(1, 0, (), (), alphabet)
    ids: dict[tuple[int, ...], int] = {start: 0}
    queue: deque[tuple[int, ...]] = deque([start])
    n_letters = len(alphabet.letters)
    while queue:
        state = queue.popleft()
        sid = ids[state]
        if all(q in d.finals for q, d in zip(state, dfas)):
            finals.add(sid)
        for li in range(n_letters):
            nxt = tuple(d.delta[q][li] for q, d in zip(state, dfas))
            if any(q in dead[i] for i, q in enumerate(nxt)):
                continue
            nid = ids.get(nxt)
            if nid is None:
                if len(ids) >= state_cap:
                    raise StateCapExceeded(
                        f"product exceeded the cap of {state_cap} states"
                    )
                nid = ids[nxt] = len(ids)
                queue.append(nxt)
            transitions.append((sid, alphabet.letters[li], nid))
    return Nfa(len(ids), 0, finals, transitions, alphabet)


def product(a: Nfa, b: Nfa, state_cap: int = DEFAULT_STATE_CAP) -> Nfa:
    """Synchronized product of two ε-free automata over letters: accepts the
    intersection of the two languages.  Pairs are numbered breadth-first,
    with letters in alphabet order and each side's targets in increasing
    order; raises :class:`~prx.errors.StateCapExceeded` past ``state_cap``
    states."""
    if any(not isinstance(label, str) for side in (a, b) for _, label, _ in side.transitions):
        raise ValueError("product expects automata over letters only")
    if a.alphabet != b.alphabet:
        raise ValueError("product expects a shared alphabet")
    adj_a: dict[tuple[int, str], set[int]] = defaultdict(set)
    for src, label, dst in a.transitions:
        adj_a[(src, label)].add(dst)
    adj_b: dict[tuple[int, str], set[int]] = defaultdict(set)
    for src, label, dst in b.transitions:
        adj_b[(src, label)].add(dst)
    start = (a.initial, b.initial)
    ids: dict[tuple[int, int], int] = {start: 0}
    queue: deque[tuple[int, int]] = deque([start])
    transitions: list[tuple[int, Label, int]] = []
    finals: set[int] = set()
    while queue:
        pair = queue.popleft()
        sid = ids[pair]
        qa, qb = pair
        if qa in a.finals and qb in b.finals:
            finals.add(sid)
        for letter in a.alphabet:
            for da in sorted(adj_a.get((qa, letter), ())):
                for db in sorted(adj_b.get((qb, letter), ())):
                    nxt = (da, db)
                    nid = ids.get(nxt)
                    if nid is None:
                        if len(ids) >= state_cap:
                            raise StateCapExceeded(
                                f"product exceeded the cap of {state_cap} states"
                            )
                        nid = ids[nxt] = len(ids)
                        queue.append(nxt)
                    transitions.append((sid, letter, nid))
    return Nfa(len(ids), 0, finals, transitions, a.alphabet)


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


def membership_diamond_fixed_word(
    e: ParamRegex, w: str, alphabet: Alphabet, state_cap: int = DEFAULT_STATE_CAP
) -> tuple[bool, Valuation | None]:
    """Possibility membership of one word by a breadth-first search over
    (position, state, bindings) nodes, binding variables on the fly; the
    first final node at the end of w gives the valuation, unbound variables
    mapped to the first letter.  Raises
    :class:`~prx.errors.StateCapExceeded` once more than ``state_cap``
    nodes are reached."""
    for ch in w:
        if ch not in alphabet:
            raise ValueError(f"letter {ch!r} is not in the alphabet")
    a = regex_to_nfa(e, alphabet)
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
