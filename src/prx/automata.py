"""The NFA representation and the standard automata toolbox.

Automata live over a declared :class:`~prx.syntax.Alphabet`.  Transition
labels are plain one-character strings for letters, :class:`VarLabel` for
variables and :data:`EPSILON` for the empty word.  A word substituted for a
variable is spelled as a chain of letter edges through states of its own
(see :func:`~prx.valuations.apply_to_nfa`).  Expressions compile straight
to epsilon-free automata on Thompson's state numbering
(:func:`regex_to_nfa`); epsilon edges come only from automata passed in from
outside, and from the empty word as a variable's image, and
:func:`remove_epsilon` serves those.

Everything is immutable after construction and every algorithm is
deterministic.  Every word search of the library, of an automaton here or of
the mask states and pairs of :mod:`prx.semantics`, is the one breadth-first
search :func:`_search`: it tries letters in alphabet declaration order, and
on each letter the successors in the order given, so the shortest witnesses
it finds on a deterministic automaton are also lexicographically least
among the shortest (on a nondeterministic one they need not be, see
:func:`is_empty`).
"""

from __future__ import annotations

import json
from collections import defaultdict, deque
from dataclasses import dataclass
from itertools import compress
from typing import Callable, Hashable, Iterable, Mapping

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
# Construction from expressions (epsilon-free, on Thompson's state numbering)

_NODE_TYPES = frozenset((EmptySet, Epsilon, Lit, Var, Concat, Union, Star))
_BIT_CHARS = bytes.maketrans(b"01", b"\x00\x01")


def _members(m: int) -> list[int]:
    """The positions of the set bits of ``m``, ascending.  A narrow set is
    read bit by bit; a wide one from its binary digits, one pass in C rather
    than one big-int operation per bit."""
    shift = (m & -m).bit_length() - 1
    m >>= shift
    if m.bit_length() <= 32:
        out = []
        while m:
            low = m & -m
            out.append(shift + low.bit_length() - 1)
            m ^= low
        return out
    bits = format(m, "b")[::-1].encode().translate(_BIT_CHARS)
    return list(compress(range(shift, shift + len(bits)), bits))


def regex_to_nfa(e: ParamRegex, alphabet: Alphabet,
                 spell: Mapping[str, ParamRegex] | None = None) -> Nfa:
    """Compile an expression to an epsilon-free NFA over letters and
    variable labels.  A variable that ``spell`` maps to a variable-free
    expression is compiled as that expression, as if it were substituted
    into e (see :func:`~prx.valuations.apply_to_regex`), without building
    the substituted tree.

    The states are those of Thompson's construction: a start/end pair per
    subexpression other than a concatenation, numbered in the order the
    subexpressions are entered (left to right, outside in), the start of
    the whole expression being 0.  Each state gets the letter and variable
    edges of its epsilon-closure in Thompson's automaton, and is final when
    that closure reaches the end of the whole expression, so the result is
    the one :func:`remove_epsilon` would make of Thompson's automaton,
    edges in the same order, without building an epsilon edge.

    The closures are read off the tree (the position automaton of Glushkov
    and Brüggemann-Klein): ``first`` of a node is the set of leaf edges its
    start reaches inside it, ``follow`` the set its end reaches, and a set
    is an int whose bit j + 1 stands for the edge of the j-th letter or
    variable leaf and whose bit 0 for the final end.  A bottom-up pass gives
    ``first`` and nullability, a top-down pass ``follow``: a start state
    has ``first``, and ``follow`` too when the node is nullable; an end
    state has ``follow``.  Leaves are numbered left to right, so their ends
    increase with them, and a state's edges come out sorted by label (see
    :func:`_label_sort_key`), then target.  Both passes run over the nodes
    listed in entering order with an explicit stack, so nesting depth meets
    no recursion limit; a shared subtree is listed once per occurrence.
    Each distinct edge set is decoded once and its edges reused by every
    state that has it.
    """
    # The nodes in entering order: type, index of the right child, and the
    # leaves entered before it plus one, which is the bit of its first leaf.
    types: list[type] = []
    right: list[int] = []
    low: list[int] = []
    leaves: list[tuple[Label, int]] = []  # (label, end state)
    var_labels: dict[str, VarLabel] = {}  # one label per variable
    counter = 0
    stack: list[tuple[ParamRegex, int]] = [(e, -1)]  # (node, parent if a right child)
    while stack:
        node, parent = stack.pop()
        i = len(types)
        if parent >= 0:
            right[parent] = i
        t = type(node)
        if t is Var and spell and node.name in spell:
            node = spell[node.name]
            t = type(node)
        types.append(t)
        right.append(0)
        low.append(len(leaves) + 1)
        if t is Concat:
            stack += ((node.right, i), (node.left, -1))
            continue
        counter += 2
        if t is Union:
            stack += ((node.right, i), (node.left, -1))
        elif t is Star:
            stack.append((node.inner, -1))
        elif t is Lit:
            if node.letter not in alphabet:
                raise ValueError(f"letter {node.letter!r} is not in the alphabet")
            leaves.append((node.letter, counter - 1))
        elif t is Var:
            if node.name not in var_labels:
                var_labels[node.name] = VarLabel(node.name)
            leaves.append((var_labels[node.name], counter - 1))
        elif t not in _NODE_TYPES:
            raise TypeError(f"not an expression node: {node!r}")
    # Bottom-up: first[i] holds the node's leaves shifted down by low[i].
    n = len(types)
    first = [0] * n
    nullable = [False] * n
    for i in range(n - 1, -1, -1):
        t = types[i]
        if t is Concat:
            r = right[i]
            if nullable[i + 1]:
                first[i] = first[i + 1] | first[r] << (low[r] - low[i])
                nullable[i] = nullable[r]
            else:
                first[i] = first[i + 1]
        elif t is Union:
            r = right[i]
            first[i] = first[i + 1] | first[r] << (low[r] - low[i])
            nullable[i] = nullable[i + 1] or nullable[r]
        elif t is Star:
            first[i] = first[i + 1]
            nullable[i] = True
        elif t is Epsilon:
            nullable[i] = True
        elif t is not EmptySet:
            first[i] = 1
    # Edges of a state with two labels or more are sorted by label rank,
    # which keeps them in leaf order within a label.
    labels = {label for label, _ in leaves}
    rank = None
    if len(labels) > 1:
        ranks = {label: k for k, label in enumerate(sorted(labels, key=_label_sort_key))}
        rank = [ranks[label] for label, _ in leaves].__getitem__
    transitions: list[tuple[int, Label, int]] = []
    finals: list[int] = []
    # Per edge set of two edges or more, where the first state with it has
    # its edges in ``transitions``.
    decoded: dict[int, slice] = {}

    def emit(q: int, edges: int) -> None:
        if edges & 1:
            finals.append(q)
        edges >>= 1
        if not edges & (edges - 1):  # at most one edge
            if edges:
                transitions.append((q, *leaves[edges.bit_length() - 1]))
            return
        span = decoded.get(edges)
        if span is not None:
            transitions.extend([(q, label, dst) for _, label, dst in transitions[span]])
            return
        js = _members(edges)
        if rank is not None:
            js.sort(key=rank)
        decoded[edges] = slice(len(transitions), len(transitions) + len(js))
        transitions.extend([(q, *leaves[j]) for j in js])

    # Top-down, in state order: follow[i] is set by the node's parent.
    follow: list[int | None] = [0] * n
    follow[0] = 1
    q = 0
    for i in range(n):
        t, after = types[i], follow[i]
        follow[i] = None  # freed once read: the sets of a long expression are long
        if t is Concat:
            r = right[i]
            ahead = first[r] << low[r]
            follow[r] = after
            follow[i + 1] = ahead | after if nullable[r] else ahead
            continue
        own = first[i] << low[i]
        if t is Union:
            follow[i + 1] = follow[right[i]] = after
        elif t is Star:
            follow[i + 1] = own | after
        emit(q, own | after if nullable[i] else own)
        emit(q + 1, after)
        q += 2
    return Nfa._built(counter, 0, finals, transitions, alphabet)


# ---------------------------------------------------------------------------
# Label normalization


def remove_epsilon(a: Nfa) -> Nfa:
    """Language-equivalent NFA without epsilon transitions, on the same states.

    The library builds no epsilon edge from an expression (see
    :func:`regex_to_nfa`); this serves automata passed in from outside, and
    those with an empty word substituted for a variable.
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


def _states(a: Nfa) -> tuple:
    """The states of an ε-free automaton over letters as a side of
    :func:`_search` (and of :func:`~prx.semantics._pair_search`): the
    start, each letter's targets in increasing order, the final states
    wanted."""
    targets = _targets(a)
    return a.initial, lambda q, i: targets.get((q, i), ()), a.finals.__contains__


def is_empty(a: Nfa) -> tuple[bool, str | None]:
    """(emptiness, witness): witness is a shortest accepted word, found by
    :func:`_search` over the states, each letter's targets in increasing
    order.  The automaton is not deterministic in general, so the witness
    need not be the lexicographically least of the shortest: every letter
    is tried from one state before any from the next state reached by the
    same word."""
    has_eps, has_var = a.label_kinds()
    if has_var:
        raise ValueError("is_empty expects a variable-free automaton")
    if has_eps:
        a = remove_epsilon(a)
    start, step, wanted = _states(a)
    # The search discovers at most every state, so the cap never refuses it.
    witness, _ = _search(start, step, a.alphabet, wanted, a.n_states)
    return witness is None, witness


def _search(
    start: Hashable,
    step: Callable[[Hashable, int], Iterable[Hashable]],
    alphabet: Alphabet,
    wanted: Callable[[Hashable], bool],
    state_cap: int,
    keep: Callable[[Hashable], bool] | None = None,
) -> tuple[str | None, int]:
    """Breadth-first search from ``start`` for a ``wanted`` node: the one
    word search of the library.  From each node the letters are tried in
    alphabet order, and on letter index i the successors ``step(node, i)``
    gives in their order.  A node not yet discovered that ``keep`` refuses
    is neither counted nor queued, and no wanted node may be behind one.

    Returns the word of the first wanted node found (``None`` if there is
    none) and the number of nodes discovered; raises
    :class:`~prx.errors.StateCapExceeded` once that would exceed
    ``state_cap``.  When ``step`` is deterministic, one successor per
    letter, the word is the shortlex-least word leading to a wanted node.
    """
    if wanted(start):
        return "", 1
    parents: dict[Hashable, tuple[Hashable, int] | None] = {start: None}
    queue: deque[Hashable] = deque([start])
    letters = range(len(alphabet))
    while queue:
        node = queue.popleft()
        for i in letters:
            for nxt in step(node, i):
                if nxt in parents or keep is not None and not keep(nxt):
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
