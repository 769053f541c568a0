"""Reference semantics the benchmark checks prx's printed answers against.

Nothing here calls prx's decision code.  The expression trees are prx's
syntax classes (the acceptance oracles in ``tests/oracles.py`` build them
too), but matching, language questions and witnesses are computed by three
independent routes:

* ``ValuationSpace.match`` — the span matcher of ``oracles.matches`` lifted to
  sets of valuations: a set is an int whose bit i stands for the i-th
  valuation in enumeration order (variables in first-occurrence order, the
  last one varying fastest).  One pass answers box and diamond membership
  and names the first rejecting or accepting valuation.
* ``Derivatives`` — Brzozowski derivatives of variable-free expressions,
  hash-consed and normalised (union as a set, concatenation right-nested),
  so each instance has finitely many.  Breadth-first search over tuples of
  derivatives, letters in alphabet order, is a search over a deterministic
  automaton and so finds the shortlex-least word with a property.
* Closed forms for the paper's families, from ``tests/test_acceptance.py``.
"""

from __future__ import annotations

import itertools
from collections import deque

import oracles

Concat, Union, Star = oracles.Concat, oracles.Union, oracles.Star
Lit, Var, Epsilon, EmptySet = oracles.Lit, oracles.Var, oracles.Epsilon, oracles.EmptySet

# A reference search that explores more states than this is refused rather
# than left to run; job generation drops such inputs (it never happens on the
# sizes the workloads draw).
SEARCH_CAP = 200_000


class ReferenceTooLarge(Exception):
    """A reference search hit SEARCH_CAP."""


# ---------------------------------------------------------------------------
# Expression text and structure


def text(e) -> str:
    """CLI text for an expression tree, parenthesised only where needed."""

    def render(node, level: int) -> str:
        if isinstance(node, EmptySet):
            out, own = "@", 3
        elif isinstance(node, Epsilon):
            out, own = "_", 3
        elif isinstance(node, Lit):
            out, own = node.letter, 3
        elif isinstance(node, Var):
            # The trailing space ends the name; the parser skips whitespace.
            out, own = f"${node.name} ", 3
        elif isinstance(node, Star):
            out, own = render(node.inner, 2) + "*", 2
        elif isinstance(node, Concat):
            out, own = render(node.left, 2) + render(node.right, 1), 1
        elif isinstance(node, Union):
            out, own = render(node.left, 1) + "|" + render(node.right, 0), 0
        else:
            raise TypeError(node)
        return f"({out})" if own < level else out

    return render(e, 0).strip()


def var_order(e) -> tuple[str, ...]:
    """Distinct variable names in first-occurrence (left-to-right) order."""
    return tuple(dict.fromkeys(occurrences(e)))


def occurrences(e) -> list[str]:
    """Variable occurrences, left to right."""
    out = []
    stack = [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Var):
            out.append(node.name)
        elif isinstance(node, (Concat, Union)):
            stack.extend((node.right, node.left))
        elif isinstance(node, Star):
            stack.append(node.inner)
    return out


def has_star(e) -> bool:
    if isinstance(e, Star):
        return True
    if isinstance(e, (Concat, Union)):
        return has_star(e.left) or has_star(e.right)
    return False


def valuation_text(assignment: dict[str, str]) -> str:
    """A valuation as the CLI prints it: name=image pairs, _ for the empty word."""
    return ",".join(f"{k}={v or '_'}" for k, v in assignment.items())


def shortlex(words, letters: str) -> list[str]:
    return sorted(words, key=lambda w: (len(w), [letters.index(c) for c in w]))


def words_upto(letters: str, n: int):
    for length in range(n + 1):
        for tup in itertools.product(letters, repeat=length):
            yield "".join(tup)


# ---------------------------------------------------------------------------
# Membership over all letter valuations at once


def _repeat(block: int, period: int, reps: int) -> int:
    """``reps`` copies of a ``period``-bit block, by doubling."""
    out, shift = 0, 0
    piece, width = block, period
    while reps:
        if reps & 1:
            out |= piece << shift
            shift += width
        piece |= piece << width
        width *= 2
        reps >>= 1
    return out


class ValuationSpace:
    """All maps from ``names`` to single letters, as bit positions of an int."""

    def __init__(self, names, letters: str):
        self.names = tuple(names)
        self.letters = letters
        k, s = len(self.names), len(letters)
        self.size = s**k
        self.full = (1 << self.size) - 1
        self.eq: dict[tuple[str, str], int] = {}
        for j, name in enumerate(self.names):
            stride = s ** (k - 1 - j)
            for ci, c in enumerate(letters):
                block = ((1 << stride) - 1) << (ci * stride)
                self.eq[name, c] = _repeat(block, s * stride, self.size // (s * stride))

    def valuation(self, index: int) -> dict[str, str]:
        s = len(self.letters)
        images = []
        for _ in self.names:
            images.append(self.letters[index % s])
            index //= s
        return dict(zip(self.names, reversed(images)))

    @staticmethod
    def lowest(mask: int) -> int:
        return (mask & -mask).bit_length() - 1

    def match(self, e, w: str) -> int:
        """The set of valuations under which the expression matches w."""
        memo: dict[tuple[int, int, int], int] = {}
        full, eq = self.full, self.eq

        def m(node, i: int, j: int) -> int:
            key = (id(node), i, j)
            got = memo.get(key)
            if got is not None:
                return got
            if isinstance(node, EmptySet):
                out = 0
            elif isinstance(node, Epsilon):
                out = full if i == j else 0
            elif isinstance(node, Lit):
                out = full if j == i + 1 and w[i] == node.letter else 0
            elif isinstance(node, Var):
                out = eq[node.name, w[i]] if j == i + 1 else 0
            elif isinstance(node, Union):
                out = m(node.left, i, j) | m(node.right, i, j)
            elif isinstance(node, Concat):
                out = 0
                for k in range(i, j + 1):
                    left = m(node.left, i, k)
                    if left:
                        out |= left & m(node.right, k, j)
                        if out == full:
                            break
            elif isinstance(node, Star):
                out = full if i == j else 0
                for k in range(i + 1, j + 1):
                    if out == full:
                        break
                    first = m(node.inner, i, k)
                    if first:
                        out |= first & m(node, k, j)
            else:
                raise TypeError(node)
            memo[key] = out
            return out

        return m(e, 0, len(w))


def membership(e, w: str, letters: str, box: bool) -> tuple[bool, dict | None]:
    """(answer, valuation) as prx reports them: the first rejecting valuation
    when box membership fails, the first accepting one when diamond
    membership holds, otherwise none."""
    space = ValuationSpace(var_order(e), letters)
    got = space.match(e, w)
    if box:
        missing = space.full & ~got
        return (True, None) if not missing else (False, space.valuation(space.lowest(missing)))
    return (False, None) if not got else (True, space.valuation(space.lowest(got)))


# ---------------------------------------------------------------------------
# Derivatives of variable-free expressions


class Derivatives:
    """Hash-consed, normalised regular expressions and their derivatives."""

    def __init__(self):
        self._ids: dict[tuple, int] = {}
        self.nodes: list[tuple] = []
        self.nullable: list[bool] = []
        self._d: dict[tuple[int, str], int] = {}
        self.EMPTY = self._make(("0",), False)
        self.EPS = self._make(("e",), True)

    def _make(self, key: tuple, nullable: bool) -> int:
        tid = self._ids.get(key)
        if tid is None:
            tid = self._ids[key] = len(self.nodes)
            self.nodes.append(key)
            self.nullable.append(nullable)
        return tid

    def lit(self, c: str) -> int:
        return self._make(("c", c), False)

    def cat(self, a: int, b: int) -> int:
        if a == self.EMPTY or b == self.EMPTY:
            return self.EMPTY
        if a == self.EPS:
            return b
        if b == self.EPS:
            return a
        node = self.nodes[a]
        if node[0] == "cat":
            return self.cat(node[1], self.cat(node[2], b))
        return self._make(("cat", a, b), self.nullable[a] and self.nullable[b])

    def alt(self, terms) -> int:
        flat: set[int] = set()
        for t in terms:
            node = self.nodes[t]
            if node[0] == "alt":
                flat.update(node[1])
            elif t != self.EMPTY:
                flat.add(t)
        if not flat:
            return self.EMPTY
        if len(flat) == 1:
            return next(iter(flat))
        return self._make(("alt", frozenset(flat)), any(self.nullable[t] for t in flat))

    def star(self, a: int) -> int:
        if a in (self.EMPTY, self.EPS):
            return self.EPS
        if self.nodes[a][0] == "star":
            return a
        return self._make(("star", a), True)

    def of(self, e) -> int:
        """Term for a variable-free expression tree."""
        if isinstance(e, EmptySet):
            return self.EMPTY
        if isinstance(e, Epsilon):
            return self.EPS
        if isinstance(e, Lit):
            return self.lit(e.letter)
        if isinstance(e, Union):
            return self.alt((self.of(e.left), self.of(e.right)))
        if isinstance(e, Concat):
            return self.cat(self.of(e.left), self.of(e.right))
        if isinstance(e, Star):
            return self.star(self.of(e.inner))
        raise ValueError(f"not variable-free: {e!r}")

    def d(self, t: int, c: str) -> int:
        key = (t, c)
        got = self._d.get(key)
        if got is not None:
            return got
        node = self.nodes[t]
        kind = node[0]
        if kind == "c":
            out = self.EPS if node[1] == c else self.EMPTY
        elif kind == "cat":
            out = self.cat(self.d(node[1], c), node[2])
            if self.nullable[node[1]]:
                out = self.alt((out, self.d(node[2], c)))
        elif kind == "alt":
            out = self.alt([self.d(x, c) for x in node[1]])
        elif kind == "star":
            out = self.cat(self.d(node[1], c), t)
        else:  # empty set, empty word
            out = self.EMPTY
        self._d[key] = out
        return out


class Language:
    """The box (intersection) or diamond (union) of a list of instances."""

    def __init__(self, D: Derivatives, terms, box: bool):
        self.D, self.box = D, box
        self.start = self._norm(frozenset(terms))

    def _norm(self, state: frozenset) -> frozenset:
        return state if self.box else state - {self.D.EMPTY}

    def step(self, state: frozenset, c: str) -> frozenset:
        return self._norm(frozenset(self.D.d(t, c) for t in state))

    def accepts(self, state: frozenset) -> bool:
        null = self.D.nullable
        return all(null[t] for t in state) if self.box else any(null[t] for t in state)

    def dead(self, state: frozenset) -> bool:
        # Every non-EMPTY normalised term denotes a nonempty language.
        return self.D.EMPTY in state if self.box else not state

    def member(self, w: str) -> bool:
        state = self.start
        for c in w:
            state = self.step(state, c)
        return self.accepts(state)

    def members_upto(self, letters: str, n: int) -> dict[str, bool]:
        """Membership of every word of length <= n, sharing prefixes."""
        states = {"": self.start}
        for w in words_upto(letters, n):
            if w:
                states[w] = self.step(states[w[:-1]], w[-1])
        return {w: self.accepts(s) for w, s in states.items()}


def first_word(start, step, goal, letters: str):
    """Shortlex-least word leading from start to a goal state (deterministic
    step; a step returning None prunes), or None."""
    if start is None:
        return None
    if goal(start):
        return ""
    parents = {start: None}
    queue = deque([start])
    while queue:
        s = queue.popleft()
        for c in letters:
            t = step(s, c)
            if t is None or t in parents:
                continue
            parents[t] = (s, c)
            if goal(t):
                chars = []
                while parents[t] is not None:
                    t, ch = parents[t]
                    chars.append(ch)
                return "".join(reversed(chars))
            if len(parents) > SEARCH_CAP:
                raise ReferenceTooLarge(f"more than {SEARCH_CAP} states")
            queue.append(t)
    return None


def shortest_member(lang: Language, letters: str):
    def step(s, c):
        t = lang.step(s, c)
        return None if lang.dead(t) else t

    start = None if lang.dead(lang.start) else lang.start
    return first_word(start, step, lang.accepts, letters)


def shortest_nonmember(lang: Language, letters: str):
    return first_word(lang.start, lang.step, lambda s: not lang.accepts(s), letters)


def shortest_separator(lhs: Language, rhs: Language, letters: str):
    """Shortlex-least word in lhs and not in rhs."""

    def step(s, c):
        a = lhs.step(s[0], c)
        return None if lhs.dead(a) else (a, rhs.step(s[1], c))

    start = None if lhs.dead(lhs.start) else (lhs.start, rhs.start)
    return first_word(start, step, lambda s: lhs.accepts(s[0]) and not rhs.accepts(s[1]), letters)


def shortest_common(lhs: Language, rhs: Language, letters: str):
    def step(s, c):
        a, b = lhs.step(s[0], c), rhs.step(s[1], c)
        return None if lhs.dead(a) or rhs.dead(b) else (a, b)

    start = (lhs.start, rhs.start)
    if lhs.dead(start[0]) or rhs.dead(start[1]):
        start = None
    return first_word(start, step, lambda s: lhs.accepts(s[0]) and rhs.accepts(s[1]), letters)


def instances(e, letters: str):
    """(valuation, variable-free instance) pairs in enumeration order, lazily."""
    for nu in oracles.letter_valuations(var_order(e), oracles.Alphabet(letters)):
        yield nu, oracles.substitute(e, nu)


def language(D: Derivatives, e, letters: str, box: bool) -> Language:
    return Language(D, [D.of(inst) for _, inst in instances(e, letters)], box)


# ---------------------------------------------------------------------------
# Closed forms for the families


def shortest_covering_word(n: int) -> str:
    """Shortlex-least binary word containing every length-n block: the search
    of ``_shortest_covering_length`` (tests/test_acceptance.py) over
    (last n-1 letters, blocks seen), which is deterministic, so the first
    full state reached breadth-first in letter order is shortlex-least."""
    grams = ["".join(t) for t in itertools.product("01", repeat=n)]
    bit = {g: 1 << i for i, g in enumerate(grams)}
    full = (1 << len(grams)) - 1
    keep = n - 1

    def step(state, ch):
        suffix, mask = state
        grown = suffix + ch
        mask = mask | bit[grown] if len(grown) == n else mask
        return (grown[-keep:] if keep else "", mask)

    return first_word(("", 0), step, lambda s: s[1] == full, "01")


def power_words(n: int) -> list[str]:
    return ["".join(t) for t in itertools.product("01", repeat=n)]


def fooling_pairs_box(n: int) -> list[tuple[str, str]]:
    """The box fooling pairs (w_S, w_rest) over half-sized sets S of the binary
    (n+1)-letter blocks, each word its set's blocks in lexicographic order."""
    block = power_words(n + 1)
    pairs = []
    for chosen in itertools.combinations(range(len(block)), 2**n):
        rest = [i for i in range(len(block)) if i not in chosen]
        pairs.append(("".join(block[i] for i in chosen), "".join(block[i] for i in rest)))
    return pairs


def fooling_bound(pairs, member) -> int | None:
    """len(pairs) when they form a fooling set for the language, else None."""
    if not all(member(u + v) for u, v in pairs):
        return None
    for j, (u, _) in enumerate(pairs):
        for i, (_, v) in enumerate(pairs):
            if i != j and member(u + v):
                return None
    return len(pairs)
