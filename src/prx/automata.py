"""NFA/DFA representations and the standard automata toolbox.

Automata live over a declared :class:`~prx.syntax.Alphabet`.  Transition
labels are plain one-character strings for letters, :class:`VarLabel` for
variables, :data:`EPSILON` for the empty word, and :class:`WordLabel` for
word-labeled ("extended") transitions, which only appear on the regular-
domain path and are expanded away by :func:`expand_extended`.

Everything is immutable after construction and every algorithm is
deterministic: subsets, products and witnesses are explored with letters in
alphabet declaration order, so shortest witnesses on a deterministic
automaton are also lexicographically least among the shortest (on a
nondeterministic one they need not be, see :func:`is_empty`).
"""

from __future__ import annotations

from collections import defaultdict, deque
from dataclasses import dataclass
from typing import Iterable, Sequence

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

#: Default bound on determinization/product growth; the certainty-semantics
#: problems are exponential in the worst case, so constructions fail loudly
#: past this many states instead of thrashing.
DEFAULT_STATE_CAP = 65536


@dataclass(frozen=True)
class VarLabel:
    """Transition labeled by a variable."""

    name: str


@dataclass(frozen=True)
class WordLabel:
    """Transition labeled by a nonempty word (an "extended" transition)."""

    word: str

    def __post_init__(self):
        if not self.word:
            raise ValueError("word labels must be nonempty; use EPSILON instead")


class _EpsilonLabel:
    __slots__ = ()

    def __repr__(self):
        return "EPSILON"


#: The unique epsilon label (compare with ``is``).
EPSILON = _EpsilonLabel()

Label = str | VarLabel | WordLabel | _EpsilonLabel


def _label_sort_key(label: Label):
    if isinstance(label, str):
        return (0, label)
    if isinstance(label, VarLabel):
        return (1, label.name)
    if isinstance(label, WordLabel):
        return (2, label.word)
    return (3, "")


class Nfa:
    """A nondeterministic finite automaton with a single initial state."""

    __slots__ = ("n_states", "initial", "finals", "transitions", "alphabet")

    def __init__(
        self,
        n_states: int,
        initial: int,
        finals: Iterable[int],
        transitions: Iterable[tuple[int, Label, int]],
        alphabet: Alphabet,
    ):
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
            elif not isinstance(label, (VarLabel, WordLabel, _EpsilonLabel)):
                raise ValueError(f"bad transition label: {label!r}")
        self.n_states = n_states
        self.initial = initial
        self.finals = finals
        self.transitions = transitions
        self.alphabet = alphabet

    def label_kinds(self) -> tuple[bool, bool, bool]:
        """(has epsilon, has variable, has word) label flags."""
        has_eps = has_var = has_word = False
        for _, label, _ in self.transitions:
            if label is EPSILON:
                has_eps = True
            elif isinstance(label, VarLabel):
                has_var = True
            elif isinstance(label, WordLabel):
                has_word = True
        return has_eps, has_var, has_word

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
    return Nfa(counter, start, {end}, transitions, alphabet)


# ---------------------------------------------------------------------------
# Label normalization


def _eps_closures(a: Nfa) -> list[set[int]]:
    eps_adj: dict[int, list[int]] = defaultdict(list)
    for src, label, dst in a.transitions:
        if label is EPSILON:
            eps_adj[src].append(dst)
    closures: list[set[int]] = []
    for q in range(a.n_states):
        seen = {q}
        stack = [q]
        while stack:
            p = stack.pop()
            for r in eps_adj[p]:
                if r not in seen:
                    seen.add(r)
                    stack.append(r)
        closures.append(seen)
    return closures


def remove_epsilon(a: Nfa) -> Nfa:
    """Language-equivalent NFA without epsilon transitions."""
    _, _, has_word = a.label_kinds()
    if has_word:
        raise ValueError("remove_epsilon expects an automaton without word labels")
    closures = _eps_closures(a)
    out: set[tuple[int, Label, int]] = set()
    by_src: dict[int, list[tuple[Label, int]]] = defaultdict(list)
    for src, label, dst in a.transitions:
        if label is not EPSILON:
            by_src[src].append((label, dst))
    for q in range(a.n_states):
        for p in closures[q]:
            for label, dst in by_src[p]:
                out.add((q, label, dst))
    finals = {q for q in range(a.n_states) if closures[q] & a.finals}
    ordered = sorted(out, key=lambda t: (t[0], _label_sort_key(t[1]), t[2]))
    return Nfa(a.n_states, a.initial, finals, ordered, a.alphabet)


def expand_extended(a: Nfa) -> Nfa:
    """Replace each word-labeled transition by a chain of letter transitions."""
    _, has_var, _ = a.label_kinds()
    if has_var:
        raise ValueError("expand_extended expects an automaton without variable labels")
    transitions: list[tuple[int, Label, int]] = []
    counter = a.n_states
    for src, label, dst in a.transitions:
        if not isinstance(label, WordLabel):
            transitions.append((src, label, dst))
            continue
        word = label.word
        if len(word) == 1:
            transitions.append((src, word, dst))
            continue
        prev = src
        for ch in word[:-1]:
            transitions.append((prev, ch, counter))
            prev = counter
            counter += 1
        transitions.append((prev, word[-1], dst))
    return Nfa(counter, a.initial, a.finals, transitions, a.alphabet)


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
        return Nfa(1, 0, (), (), a.alphabet)
    renum = {q: i for i, q in enumerate(keep)}
    kept_set = set(keep)
    transitions = [
        (renum[src], label, renum[dst])
        for src, label, dst in a.transitions
        if src in kept_set and dst in kept_set
    ]
    finals = {renum[q] for q in a.finals if q in kept_set}
    return Nfa(len(keep), renum[a.initial], finals, transitions, a.alphabet)


# ---------------------------------------------------------------------------
# Boolean combinations


def _require_plain(a: Nfa, op: str, allow_eps: bool = False) -> None:
    has_eps, has_var, has_word = a.label_kinds()
    if has_var:
        raise ValueError(f"{op} expects variable-free automata")
    if has_word:
        raise ValueError(f"{op} expects automata without word labels")
    if has_eps and not allow_eps:
        raise ValueError(f"{op} expects epsilon-free automata")


def _letter_adjacency(a: Nfa) -> dict[tuple[int, str], set[int]]:
    adj: dict[tuple[int, str], set[int]] = defaultdict(set)
    for src, label, dst in a.transitions:
        adj[(src, label)].add(dst)
    return adj


def product(a: Nfa, b: Nfa, state_cap: int = DEFAULT_STATE_CAP) -> Nfa:
    """Synchronized product: accepts the intersection of the two languages;
    raises :class:`~prx.errors.StateCapExceeded` past ``state_cap`` states."""
    _require_plain(a, "product")
    _require_plain(b, "product")
    if a.alphabet != b.alphabet:
        raise ValueError("product expects a shared alphabet")
    adj_a = _letter_adjacency(a)
    adj_b = _letter_adjacency(b)
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
        has_eps, has_var, has_word = a.label_kinds()
        if has_var or has_word:
            raise ValueError("union_all expects variable-free automata without word labels")
        if a.alphabet != alphabet:
            raise ValueError("union_all expects a shared alphabet")
        transitions.append((0, EPSILON, a.initial + offset))
        for src, label, dst in a.transitions:
            transitions.append((src + offset, label, dst + offset))
        finals.update(q + offset for q in a.finals)
        offset += a.n_states
    glued = Nfa(offset, 0, finals, transitions, alphabet)
    return remove_epsilon(glued)


def determinize(a: Nfa, state_cap: int = DEFAULT_STATE_CAP) -> Dfa:
    """Subset construction; the sink (empty subset) is always materialized.

    Raises :class:`~prx.errors.StateCapExceeded` once more than ``state_cap``
    subsets become reachable — a loud signal that the instance is beyond
    desk scale.
    """
    _require_plain(a, "determinize")
    adj = _letter_adjacency(a)
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


# ---------------------------------------------------------------------------
# Decision procedures


def accepts(a: Nfa, w: str) -> bool:
    """NFA simulation (epsilon and word labels handled; variables rejected)."""
    _, has_var, _ = a.label_kinds()
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
            elif isinstance(label, WordLabel):
                k = len(label.word)
                if w[i : i + k] == label.word:
                    stack.append((dst, i + k))
            elif i < n and label == w[i]:
                stack.append((dst, i + 1))
    return False


def is_empty(a: Nfa) -> tuple[bool, str | None]:
    """(emptiness, witness): witness is a shortest accepted word, found by
    breadth-first search with letters in alphabet order.  It is also the
    lexicographically least of the shortest on a deterministic automaton;
    on a nondeterministic one the search tries every letter from one state
    before any from the next state reached by the same word."""
    has_eps, has_var, has_word = a.label_kinds()
    if has_var:
        raise ValueError("is_empty expects a variable-free automaton")
    if has_word:
        a = expand_extended(a)
        has_eps = a.label_kinds()[0]
    if has_eps:
        a = remove_epsilon(a)
    adj = _letter_adjacency(a)
    if a.initial in a.finals:
        return False, ""
    parents: dict[int, tuple[int, str]] = {}
    visited = {a.initial}
    queue: deque[int] = deque([a.initial])
    while queue:
        q = queue.popleft()
        for letter in a.alphabet:
            for dst in sorted(adj.get((q, letter), ())):
                if dst in visited:
                    continue
                visited.add(dst)
                parents[dst] = (q, letter)
                if dst in a.finals:
                    chars = []
                    cur = dst
                    while cur != a.initial:
                        prev, ch = parents[cur]
                        chars.append(ch)
                        cur = prev
                    return False, "".join(reversed(chars))
                queue.append(dst)
    return True, None


def is_universal(d: Dfa) -> tuple[bool, str | None]:
    """(universality, witness): witness is the shortest rejected word."""
    if d.initial not in d.finals:
        return False, ""
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
                return False, "".join(reversed(chars))
            queue.append(dst)
    return True, None


# ---------------------------------------------------------------------------
# Export


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _dot_label(label: Label) -> str:
    if isinstance(label, str):
        return _dot_escape(label)
    if isinstance(label, VarLabel):
        return _dot_escape("$" + label.name)
    if isinstance(label, WordLabel):
        return _dot_escape('"' + label.word + '"')
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
    if isinstance(label, WordLabel):
        return {"word": label.word}
    return {"eps": True}


def nfa_to_json(a: Nfa) -> dict:
    """JSON-serializable description of the automaton."""
    return {
        "states": a.n_states,
        "initial": a.initial,
        "finals": sorted(a.finals),
        "transitions": [[src, _json_label(label), dst] for src, label, dst in a.transitions],
    }
