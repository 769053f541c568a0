"""Valuations, their enumeration, and regular variable domains.

A valuation maps every variable to a single letter (the base setting) or to
a word from the variable's regular domain.  Enumeration orders are fixed —
variable declaration order, then alphabet order, then shortlex — so that
witnesses, counterexamples, and failures are reproducible run to run.  Sets
of valuations are bitsets over that order (:func:`letter_masks`).
"""

from __future__ import annotations

import itertools
import math
from typing import Iterable, Iterator, Mapping, Sequence

from .automata import (
    EPSILON,
    Nfa,
    VarLabel,
    regex_to_nfa,
    remove_epsilon,
    trim,
)
from .errors import CountCapExceeded, DomainNotFinite, PrxError
from .syntax import Alphabet, ParamRegex, Var, _fold, parse, variables, word_expr

#: Default bound on how many valuations an enumeration may produce.
DEFAULT_VALUATION_CAP = 10**6
#: Default bound on how many words a finite domain may be expanded into.
DEFAULT_WORD_CAP = 10**4


class Valuation:
    """A total map from variable names to image words.

    In the base setting every image is a single letter; on the regular-domain
    path images may be arbitrary words (including the empty word).
    """

    __slots__ = ("_map",)

    def __init__(self, assignment: Mapping[str, str]):
        self._map = dict(assignment)

    def __getitem__(self, name: str) -> str:
        try:
            return self._map[name]
        except KeyError:
            raise PrxError(f"valuation does not bind variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._map

    def names(self) -> tuple[str, ...]:
        return tuple(self._map)

    def items(self):
        return self._map.items()

    def as_dict(self) -> dict[str, str]:
        return dict(self._map)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and self._map == other._map

    def __hash__(self) -> int:
        return hash(frozenset(self._map.items()))

    def __repr__(self):
        inner = ", ".join(f"{k}->{v!r}" for k, v in self._map.items())
        return f"{type(self).__name__}({inner})"


# ---------------------------------------------------------------------------
# Enumeration


def _check_count(total: int, valuation_cap: int, what: str = "valuations") -> None:
    if total > valuation_cap:
        raise CountCapExceeded(f"{total} {what} exceed the cap of {valuation_cap}")


def letter_choices(
    var_names: Iterable[str],
    alphabet: Alphabet,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
) -> dict[str, tuple[str, ...]]:
    """The base setting's images: every letter for every variable, in
    variable order; raises :class:`~prx.errors.CountCapExceeded` when the
    |alphabet|^n valuations exceed ``valuation_cap``."""
    names = list(var_names)
    _check_count(len(alphabet) ** len(names), valuation_cap)
    return dict.fromkeys(names, alphabet.letters)


def valuations_from(choices: Mapping[str, Sequence[str]]) -> Iterator[Valuation]:
    """Every total valuation picking one image per variable, lexicographic
    by variable order then by image order; streamed, never materialized."""
    names = list(choices)
    for images in itertools.product(*choices.values()):
        yield Valuation(dict(zip(names, images)))


def enumerate_valuations(
    var_names: Iterable[str],
    alphabet: Alphabet,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
) -> Iterator[Valuation]:
    """All |alphabet|^n letter-valuations, lexicographic by variable order
    then alphabet order; streamed, never materialized."""
    yield from valuations_from(letter_choices(var_names, alphabet, valuation_cap))


def _tile(pattern: int, width: int, times: int) -> int:
    """``times`` copies of a ``width``-bit pattern side by side, built by
    shift-and-OR doubling (no big-int multiplication)."""
    out = 0
    shift = 0
    while times:
        if times & 1:
            out |= pattern << shift
            shift += width
        times >>= 1
        if times:
            pattern |= pattern << width
            width *= 2
    return out


def letter_masks(
    choices: Mapping[str, Sequence[str]],
) -> tuple[int, dict[str, tuple[int, ...]]]:
    """Sets of valuations as bitsets.

    Bit i of a mask stands for the i-th valuation of
    :func:`valuations_from`: i is read in mixed radix, the first variable
    its most significant digit, each variable's digit counting its images
    (letters, or domain words) in the order given.  Returns the number of
    valuations and, per variable, one mask per image holding the
    valuations that map the variable to that image.
    """
    total = math.prod(map(len, choices.values()))
    masks: dict[str, tuple[int, ...]] = {}
    stride = total
    for name, images in choices.items():
        period, stride = stride, stride // len(images)
        first = _tile((1 << stride) - 1, period, total // period)
        masks[name] = tuple([first << (i * stride) for i in range(len(images))])
    return total, masks


def valuation_at(choices: Mapping[str, Sequence[str]], index: int) -> Valuation:
    """The ``index``-th (0-based) valuation of :func:`valuations_from`."""
    picked = []
    for name, images in reversed(choices.items()):
        index, digit = divmod(index, len(images))
        picked.append((name, images[digit]))
    return Valuation(dict(reversed(picked)))


# ---------------------------------------------------------------------------
# Application


def apply_to_regex(v: Valuation, e: ParamRegex) -> ParamRegex:
    """Replace every variable by its image word; the result is variable-free.

    Multi-letter images become concatenations of letters, the empty-word
    image becomes the empty-word node.  The tree is rebuilt bottom-up over
    an explicit stack, so its depth meets no recursion limit.
    """

    def substitute(node: ParamRegex, *children: ParamRegex) -> ParamRegex:
        if isinstance(node, Var):
            if node.name not in v:
                raise PrxError(f"valuation does not bind variable {node.name!r}")
            return word_expr(v[node.name])
        return type(node)(*children) if children else node

    return _fold(e, substitute)


def apply_to_nfa(v: Valuation, a: Nfa) -> Nfa:
    """Replace every variable transition by its image: an epsilon edge for
    the empty word, else a chain of letter edges.  A chain of n letters
    passes through n - 1 new states, numbered after the automaton's own in
    transition order, and its edges take the variable edge's place."""
    transitions = []
    counter = a.n_states
    for src, label, dst in a.transitions:
        if isinstance(label, VarLabel):
            image = v[label.name]
            for letter in image[:-1]:
                transitions.append((src, letter, counter))
                src, counter = counter, counter + 1
            label = image[-1] if image else EPSILON
        transitions.append((src, label, dst))
    return Nfa(counter, a.initial, a.finals, transitions, a.alphabet)


# ---------------------------------------------------------------------------
# Regular domains


def _analyse(d: Nfa) -> tuple[Nfa, list[int] | None]:
    """A domain's trimmed epsilon-free letter automaton and a topological
    order of its states, ``None`` when it has a cycle: a trimmed automaton
    accepts finitely many words iff it is acyclic.  The order lists states
    no transition from an unlisted state enters (Kahn's algorithm).  Only
    an automaton passed in can have epsilon edges to remove: a domain
    expression compiles without them."""
    has_eps, has_var = d.label_kinds()
    if has_var:
        raise ValueError("domain automata must be variable-free")
    a = trim(remove_epsilon(d) if has_eps else d)
    adj = a.adjacency()
    entering = [0] * a.n_states
    for _, _, dst in a.transitions:
        entering[dst] += 1
    order = [q for q in range(a.n_states) if not entering[q]]
    for q in order:  # grows while it is read
        for _, dst in adj[q]:
            entering[dst] -= 1
            if not entering[dst]:
                order.append(dst)
    return a, order if len(order) == a.n_states else None


def _words(a: Nfa, order: list[int], word_cap: int) -> list[str]:
    """All words of a trimmed acyclic automaton, sorted shortlex, from the
    states' suffix words built in reverse topological order."""
    suffixes: list[set[str]] = [set() for _ in range(a.n_states)]
    adj = a.adjacency()
    for q in reversed(order):
        out = suffixes[q]
        if q in a.finals:
            out.add("")
        for letter, dst in adj[q]:
            out.update(letter + suffix for suffix in suffixes[dst])
        if len(out) > word_cap:
            raise CountCapExceeded(f"domain expansion exceeded the cap of {word_cap} words")
    alphabet = a.alphabet
    return sorted(
        suffixes[a.initial], key=lambda w: (len(w), tuple(alphabet.index(c) for c in w))
    )


class DomainSpec:
    """An ordered map from variable names to nonempty regular domains.

    Domains may be given as variable-free expressions or as automata.  Each
    is analysed once, at ingestion: compiled to a trimmed epsilon-free NFA
    with a topological order of its states (none for an infinite domain).
    An empty domain is rejected immediately.
    """

    __slots__ = ("names", "_nfas", "_orders", "alphabet")

    def __init__(self, domains: Mapping[str, ParamRegex | Nfa], alphabet: Alphabet):
        self.names: tuple[str, ...] = tuple(domains)
        self.alphabet = alphabet
        self._nfas: dict[str, Nfa] = {}
        self._orders: dict[str, list[int] | None] = {}
        for name, dom in domains.items():
            if not isinstance(dom, Nfa):
                if variables(dom):
                    raise ValueError(f"domain for {name!r} must be variable-free")
                dom = regex_to_nfa(dom, alphabet)
            a, order = _analyse(dom)
            if not a.finals:
                raise ValueError(f"domain for {name!r} is the empty language")
            if a.alphabet != alphabet:
                raise ValueError(f"domain for {name!r} uses a different alphabet")
            self._nfas[name], self._orders[name] = a, order

    @classmethod
    def from_json(cls, mapping: Mapping[str, str], alphabet: Alphabet) -> "DomainSpec":
        """Build from the external JSON form {"x": "0*", "y": "00|01"}; a
        value that is not an expression string is refused."""
        domains = {}
        for name, text in mapping.items():
            if not isinstance(text, str):
                kind = type(text).__name__
                raise ValueError(f"domain for {name!r} must be an expression string, not {kind}")
            domains[name] = parse(text, alphabet)
        return cls(domains, alphabet)

    def domain(self, name: str) -> Nfa:
        try:
            return self._nfas[name]
        except KeyError:
            raise PrxError(f"no domain declared for variable {name!r}") from None

    def __contains__(self, name: str) -> bool:
        return name in self._nfas

    def __len__(self) -> int:
        return len(self.names)

    def finite_variables(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if self._orders[n] is not None)

    def infinite_variables(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if self._orders[n] is None)

    def __repr__(self):
        return f"DomainSpec({', '.join(self.names)})"


def domain_choices(
    spec: DomainSpec,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    word_cap: int = DEFAULT_WORD_CAP,
    finitary: bool = False,
) -> dict[str, list[str]]:
    """Each variable's domain words, shortlex, in variable order.

    Total (the default): every variable, and an infinite domain is rejected.
    Finitary: only the finite-domain variables, the infinite ones staying
    undefined; with no finite domain at all there is exactly one, empty,
    valuation.  Raises :class:`~prx.errors.CountCapExceeded` past
    ``word_cap`` words in a domain or ``valuation_cap`` valuations.
    """
    names = spec.finite_variables() if finitary else spec.names
    choices = {}
    for name in names:
        order = spec._orders[name]
        if order is None:
            raise DomainNotFinite(
                f"variable {name!r} has an infinite domain; only finite domains "
                "can be enumerated totally"
            )
        choices[name] = _words(spec.domain(name), order, word_cap)
    total = math.prod(len(words) for words in choices.values())
    _check_count(total, valuation_cap, "finitary valuations" if finitary else "valuations")
    return choices
