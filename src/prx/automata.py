"""The NFA representation and the standard automata toolbox.

Automata live over a declared :class:`~prx.syntax.Alphabet`.  Transition
labels are plain one-character strings for letters, :class:`VarLabel` for
variables and :data:`EPSILON` for the empty word.  A word substituted for a
variable is spelled as a chain of letter edges through states of its own
(see :func:`~prx.valuations.apply_to_nfa`).

Everything is immutable after construction and every algorithm is
deterministic: searches try letters in alphabet declaration order, so
shortest witnesses on a deterministic automaton are also lexicographically
least among the shortest (on a nondeterministic one they need not be, see
:func:`is_empty`).
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable

from .errors import StateCapExceeded
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
    _walk,
)

#: Default bound on the states a construction or search may build; the
#: certainty-semantics problems are exponential in the worst case, so
#: constructions fail loudly past this many states instead of thrashing.
DEFAULT_STATE_CAP = 65536


@dataclass(frozen=True)
class VarLabel:
    """Transition labeled by a variable."""

    name: str


class _EpsilonLabel:
    __slots__ = ()

    def __repr__(self):
        return "EPSILON"


#: The unique epsilon label (compare with ``is``).
EPSILON = _EpsilonLabel()

Label = str | VarLabel | _EpsilonLabel


def _label_sort_key(label: Label):
    if isinstance(label, str):
        return (0, label)
    if isinstance(label, VarLabel):
        return (1, label.name)
    return (2, "")


class Nfa:
    """A nondeterministic finite automaton with a single initial state.

    The constructor checks an automaton from outside the library: states in
    range and every letter in the alphabet.  The library builds its own, in
    range by construction, through :meth:`_built`."""

    __slots__ = ("n_states", "initial", "finals", "transitions", "alphabet")

    def __init__(self, n_states: int, initial: int, finals: Iterable[int],
                 transitions: Iterable[tuple[int, Label, int]], alphabet: Alphabet):
        finals = frozenset(finals)
        transitions = tuple(transitions)
        if not 0 <= initial < n_states:
            raise ValueError("initial state out of range")
        if any(not 0 <= q < n_states for q in finals):
            raise ValueError("final state out of range")
        for src, label, dst in transitions:
            if not (0 <= src < n_states and 0 <= dst < n_states):
                raise ValueError(f"transition endpoint out of range: {(src, label, dst)}")
            if isinstance(label, str):
                if label not in alphabet:
                    raise ValueError(f"letter {label!r} is not in the alphabet")
            elif not isinstance(label, (VarLabel, _EpsilonLabel)):
                raise ValueError(f"bad transition label: {label!r}")
        self.n_states, self.initial, self.finals = n_states, initial, finals
        self.transitions, self.alphabet = transitions, alphabet

    @classmethod
    def _built(cls, n_states: int, initial: int, finals: Iterable[int],
               transitions: Iterable[tuple[int, Label, int]], alphabet: Alphabet) -> Nfa:
        """An automaton the library built itself, frozen as the constructor
        freezes one but not checked."""
        a = cls.__new__(cls)
        a.n_states, a.initial, a.alphabet = n_states, initial, alphabet
        a.finals, a.transitions = frozenset(finals), tuple(transitions)
        return a

    def label_kinds(self) -> tuple[bool, bool]:
        """(has epsilon, has variable) label flags."""
        has_eps = has_var = False
        for _, label, _ in self.transitions:
            if label is EPSILON:
                has_eps = True
            elif isinstance(label, VarLabel):
                has_var = True
        return has_eps, has_var

    def adjacency(self) -> dict[int, list[tuple[Label, int]]]:
        adj: dict[int, list[tuple[Label, int]]] = defaultdict(list)
        for src, label, dst in self.transitions:
            adj[src].append((label, dst))
        return adj

    def __repr__(self):
        return (
            f"Nfa(states={self.n_states}, finals={sorted(self.finals)}, "
            f"transitions={len(self.transitions)})"
        )


# ---------------------------------------------------------------------------
# Construction from expressions (Thompson-style, epsilon transitions allowed)


def regex_to_nfa(e: ParamRegex, alphabet: Alphabet) -> Nfa:
    """Compile an expression to an NFA over letters and variable labels.

    The construction is the classic one with a fresh start/end state pair
    per subexpression other than a concatenation, numbered in the order the
    subexpressions are entered (left to right, outside in); the result has a
    single final state and may contain epsilon transitions (remove them with
    :func:`remove_epsilon`).  The tree is walked with an explicit stack.
    """
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
    return Nfa._built(counter, start, {end}, transitions, alphabet)


# ---------------------------------------------------------------------------
# Label normalization


def remove_epsilon(a: Nfa) -> Nfa:
    """Language-equivalent NFA without epsilon transitions, on the same states.

    A state gets every non-epsilon edge leaving its epsilon-closure, and is
    final when the closure holds a final state.  Only states with epsilon
    edges of their own are searched; every other state is its own closure
    and keeps its own edges.  The edges come out without duplicates, ordered
    by source, then label (letters, then variables, see
    :func:`_label_sort_key`), then target.
    """
    # Per state, its epsilon targets and its other edges as (label sort key,
    # target, label), with one key per distinct label.
    keys: dict[Label, tuple[int, str]] = {}
    eps: dict[int, list[int]] = defaultdict(list)
    edges: dict[int, list[tuple[tuple[int, str], int, Label]]] = defaultdict(list)
    for src, label, dst in a.transitions:
        if label is EPSILON:
            eps[src].append(dst)
            continue
        key = keys.get(label)
        if key is None:
            key = keys[label] = _label_sort_key(label)
        edges[src].append((key, dst, label))
    finals = set(a.finals)
    # Every edge out of every closure as (source, key, target, label).  The
    # list is built source by source, so one sort orders it at little more
    # than the cost of sorting each source's edges, and leaves duplicates
    # next to each other.
    out: list[tuple[int, tuple[int, str], int, Label]] = []
    for q in range(a.n_states):
        if q not in eps:
            seen = (q,)
        else:
            seen = {q}
            stack = [q]
            while stack:
                for r in eps.get(stack.pop(), ()):
                    if r not in seen:
                        seen.add(r)
                        stack.append(r)
            if not seen.isdisjoint(a.finals):
                finals.add(q)
        for p in seen:
            for key, dst, label in edges.get(p, ()):
                out.append((q, key, dst, label))
    out.sort()
    transitions: list[tuple[int, Label, int]] = []
    last = None
    for q, _, dst, label in out:
        edge = (q, label, dst)
        if edge != last:
            transitions.append(edge)
            last = edge
    return Nfa._built(a.n_states, a.initial, finals, transitions, a.alphabet)


def trim(a: Nfa) -> Nfa:
    """Keep only states that are reachable and co-reachable (initial is kept)."""
    adj = a.adjacency()
    reachable = {a.initial}
    stack = [a.initial]
    while stack:
        q = stack.pop()
        for _, dst in adj[q]:
            if dst not in reachable:
                reachable.add(dst)
                stack.append(dst)
    rev: dict[int, list[int]] = defaultdict(list)
    for src, _, dst in a.transitions:
        rev[dst].append(src)
    co = set(a.finals)
    stack = [q for q in a.finals]
    while stack:
        q = stack.pop()
        for p in rev[q]:
            if p not in co:
                co.add(p)
                stack.append(p)
    keep = sorted(reachable & co)
    if a.initial not in keep:
        return Nfa._built(1, 0, (), (), a.alphabet)
    renum = {q: i for i, q in enumerate(keep)}
    kept_set = set(keep)
    transitions = [
        (renum[src], label, renum[dst])
        for src, label, dst in a.transitions
        if src in kept_set and dst in kept_set
    ]
    finals = {renum[q] for q in a.finals if q in kept_set}
    return Nfa._built(len(keep), renum[a.initial], finals, transitions, a.alphabet)


# ---------------------------------------------------------------------------
# Decision procedures


def accepts(a: Nfa, w: str) -> bool:
    """NFA simulation over letters and epsilon; variables are rejected."""
    _, has_var = a.label_kinds()
    if has_var:
        raise ValueError("accepts expects a variable-free automaton")
    for ch in w:
        if ch not in a.alphabet:
            raise ValueError(f"letter {ch!r} is not in the alphabet")
    adj = a.adjacency()
    n = len(w)
    seen: set[tuple[int, int]] = set()
    stack: list[tuple[int, int]] = [(a.initial, 0)]
    while stack:
        q, i = stack.pop()
        if (q, i) in seen:
            continue
        seen.add((q, i))
        if i == n and q in a.finals:
            return True
        for label, dst in adj[q]:
            if label is EPSILON:
                stack.append((dst, i))
            elif i < n and label == w[i]:
                stack.append((dst, i + 1))
    return False


def _targets(a: Nfa) -> dict[tuple[int, int], list[int]]:
    """Per (state, letter index) of an automaton over letters, the targets
    of its edges in increasing order."""
    index = {letter: i for i, letter in enumerate(a.alphabet.letters)}
    targets: dict[tuple[int, int], set[int]] = defaultdict(set)
    for src, label, dst in a.transitions:
        targets[(src, index[label])].add(dst)
    return {key: sorted(dsts) for key, dsts in targets.items()}


def is_empty(a: Nfa) -> tuple[bool, str | None]:
    """(emptiness, witness): witness is a shortest accepted word, found by
    breadth-first search with letters in alphabet order (see
    :func:`_search`).  It is also the lexicographically least of the
    shortest on a deterministic automaton; on a nondeterministic one the
    search tries every letter from one state before any from the next
    state reached by the same word."""
    has_eps, has_var = a.label_kinds()
    if has_var:
        raise ValueError("is_empty expects a variable-free automaton")
    if has_eps:
        a = remove_epsilon(a)
    targets = _targets(a)
    letters = range(len(a.alphabet))
    # The search discovers at most every state, so the cap never refuses it.
    witness, _ = _search(
        a.initial, lambda q: [(i, dst) for i in letters for dst in targets.get((q, i), ())],
        a.finals.__contains__, a.alphabet, a.n_states,
    )
    return witness is None, witness


def _search(
    start: Hashable,
    successors: Callable[[Hashable], Iterable[tuple[int, Hashable]]],
    wanted: Callable[[Hashable], bool],
    alphabet: Alphabet,
    state_cap: int,
) -> tuple[str | None, int]:
    """Breadth-first search from ``start`` for a ``wanted`` node, trying the
    (letter index, node) pairs ``successors`` gives in their order.  Returns
    the word of the first wanted node found (``None`` if there is none) and
    the number of nodes discovered; raises
    :class:`~prx.errors.StateCapExceeded` once that would exceed
    ``state_cap``."""
    if wanted(start):
        return "", 1
    parents: dict[Hashable, tuple[Hashable, int] | None] = {start: None}
    queue: deque[Hashable] = deque([start])
    while queue:
        node = queue.popleft()
        for i, nxt in successors(node):
            if nxt in parents:
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
# Export


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_label(label: Label) -> str:
    if isinstance(label, str):
        return _dot_escape(label)
    if isinstance(label, VarLabel):
        return _dot_escape("$" + label.name)
    return "eps"


def export_dot(a: Nfa) -> str:
    """Graphviz DOT rendering with stable node names q0..qN."""
    lines = ["digraph nfa {", "  rankdir=LR;", '  __start [shape=point, label=""];']
    for q in range(a.n_states):
        shape = "doublecircle" if q in a.finals else "circle"
        lines.append(f'  q{q} [shape={shape}, label="q{q}"];')
    lines.append(f"  __start -> q{a.initial};")
    for src, label, dst in a.transitions:
        lines.append(f'  q{src} -> q{dst} [label="{_dot_label(label)}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _json_label(label: Label):
    if isinstance(label, str):
        return {"letter": label}
    if isinstance(label, VarLabel):
        return {"var": label.name}
    return {"eps": True}


def nfa_to_json(a: Nfa) -> dict:
    """JSON-serializable description of the automaton."""
    return {
        "states": a.n_states,
        "initial": a.initial,
        "finals": sorted(a.finals),
        "transitions": [[src, _json_label(label), dst] for src, label, dst in a.transitions],
    }


def export_json(a: Nfa) -> str:
    """The text of ``json.dumps(nfa_to_json(a), indent=2)``, written directly.

    The standard encoder runs in pure Python when it indents; here each
    distinct label is encoded once and every transition is one format.
    """
    labels: dict[Label, str] = {}
    for _, label, _ in a.transitions:
        if label not in labels:
            ((key, value),) = _json_label(label).items()
            labels[label] = f'{{\n        "{key}": {json.dumps(value)}\n      }}'
    finals = ",\n".join(f"    {q}" for q in sorted(a.finals))
    transitions = ",\n".join(
        f"    [\n      {src},\n      {labels[label]},\n      {dst}\n    ]"
        for src, label, dst in a.transitions
    )
    return (
        f'{{\n  "states": {a.n_states},\n  "initial": {a.initial},\n'
        f'  "finals": {_json_list(finals)},\n  "transitions": {_json_list(transitions)}\n}}'
    )


def _json_list(items: str) -> str:
    """A second-level list of :func:`export_json`, around its joined items."""
    return f"[\n{items}\n  ]" if items else "[]"
