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
from collections import defaultdict
from typing import Iterable, Iterator, Mapping, Sequence

from .automata import (
    EPSILON,
    Nfa,
    VarLabel,
    WordLabel,
    expand_extended,
    is_empty,
    regex_to_nfa,
    remove_epsilon,
    trim,
)
from .errors import CountCapExceeded, DomainNotFinite, PrxError
from .syntax import Alphabet, Concat, ParamRegex, Star, Union, Var, parse, variables, word_expr

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


class FinitaryValuation(Valuation):
    """A partial valuation, defined exactly on the finite-domain variables."""

    __slots__ = ()

    def defined(self, name: str) -> bool:
        return name in self


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
    total = math.prod(len(images) for images in choices.values())
    masks: dict[str, tuple[int, ...]] = {}
    stride = total
    for name, images in choices.items():
        period, stride = stride, stride // len(images)
        first = _tile((1 << stride) - 1, period, total // period)
        masks[name] = tuple(first << (i * stride) for i in range(len(images)))
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
    image becomes the empty-word node.
    """
    if isinstance(e, Var):
        if e.name not in v:
            raise PrxError(f"valuation does not bind variable {e.name!r}")
        return word_expr(v[e.name])
    if isinstance(e, Concat):
        return Concat(apply_to_regex(v, e.left), apply_to_regex(v, e.right))
    if isinstance(e, Union):
        return Union(apply_to_regex(v, e.left), apply_to_regex(v, e.right))
    if isinstance(e, Star):
        return Star(apply_to_regex(v, e.inner))
    return e


def apply_to_nfa(v: Valuation, a: Nfa) -> Nfa:
    """Relabel variable transitions by their image letters (or word labels
    for longer images, epsilon for the empty word); states are untouched."""
    return _relabel(v, a, drop_unbound=False)


def _relabel(v: Valuation, a: Nfa, drop_unbound: bool) -> Nfa:
    transitions = []
    for src, label, dst in a.transitions:
        if isinstance(label, VarLabel):
            if label.name not in v:
                if drop_unbound:
                    continue
                raise PrxError(f"valuation does not bind variable {label.name!r}")
            image = v[label.name]
            if image == "":
                transitions.append((src, EPSILON, dst))
            elif len(image) == 1:
                transitions.append((src, image, dst))
            else:
                transitions.append((src, WordLabel(image), dst))
        else:
            transitions.append((src, label, dst))
    return Nfa(a.n_states, a.initial, a.finals, transitions, a.alphabet)


# ---------------------------------------------------------------------------
# Regular domains


def _normalize_domain(d: Nfa) -> Nfa:
    """Epsilon-free, letter-only form used by the finiteness/enumeration code."""
    has_eps, has_var, has_word = d.label_kinds()
    if has_var:
        raise ValueError("domain automata must be variable-free")
    if has_word:
        d = expand_extended(d)
        has_eps = d.label_kinds()[0]
    if has_eps:
        d = remove_epsilon(d)
    return d


class DomainSpec:
    """An ordered map from variable names to nonempty regular domains.

    Domains may be given as variable-free expressions or as automata; they
    are compiled to epsilon-free NFAs at ingestion, and an empty domain is
    rejected immediately.
    """

    __slots__ = ("names", "_nfas", "alphabet")

    def __init__(self, domains: Mapping[str, ParamRegex | Nfa], alphabet: Alphabet):
        self.names: tuple[str, ...] = tuple(domains)
        self.alphabet = alphabet
        nfas: dict[str, Nfa] = {}
        for name, dom in domains.items():
            if isinstance(dom, Nfa):
                a = _normalize_domain(dom)
            else:
                if variables(dom):
                    raise ValueError(f"domain for {name!r} must be variable-free")
                a = remove_epsilon(regex_to_nfa(dom, alphabet))
            empty, _ = is_empty(a)
            if empty:
                raise ValueError(f"domain for {name!r} is the empty language")
            if a.alphabet != alphabet:
                raise ValueError(f"domain for {name!r} uses a different alphabet")
            nfas[name] = a
        self._nfas = nfas

    @classmethod
    def from_json(cls, mapping: Mapping[str, str], alphabet: Alphabet) -> "DomainSpec":
        """Build from the external JSON form {"x": "0*", "y": "00|01"}."""
        domains = {name: parse(text, alphabet) for name, text in mapping.items()}
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
        return tuple(n for n in self.names if domain_is_finite(self._nfas[n]))

    def infinite_variables(self) -> tuple[str, ...]:
        return tuple(n for n in self.names if not domain_is_finite(self._nfas[n]))

    def __repr__(self):
        return f"DomainSpec({', '.join(self.names)})"


def domain_is_finite(d: Nfa) -> bool:
    """Trim, then test acyclicity — a trimmed automaton accepts finitely
    many words iff it has no cycle."""
    a = trim(_normalize_domain(d))
    adj = defaultdict(list)
    for src, _, dst in a.transitions:
        adj[src].append(dst)
    WHITE, GRAY, BLACK = 0, 1, 2
    color = [WHITE] * a.n_states
    for root in range(a.n_states):
        if color[root] != WHITE:
            continue
        stack: list[tuple[int, int]] = [(root, 0)]
        color[root] = GRAY
        while stack:
            q, idx = stack[-1]
            if idx < len(adj[q]):
                stack[-1] = (q, idx + 1)
                nxt = adj[q][idx]
                if color[nxt] == GRAY:
                    return False
                if color[nxt] == WHITE:
                    color[nxt] = GRAY
                    stack.append((nxt, 0))
            else:
                color[q] = BLACK
                stack.pop()
    return True


def enumerate_finite_domain(d: Nfa, word_cap: int = DEFAULT_WORD_CAP) -> list[str]:
    """All words of a finite domain, sorted shortlex.

    Computed by merging suffix-word sets over the trimmed acyclic automaton;
    raises :class:`~prx.errors.CountCapExceeded` past ``word_cap`` words and
    :class:`~prx.errors.DomainNotFinite` if the domain turns out infinite.
    """
    a = trim(_normalize_domain(d))
    if not domain_is_finite(a):
        raise DomainNotFinite("cannot enumerate an infinite domain")
    adj: dict[int, list[tuple[str, int]]] = defaultdict(list)
    for src, label, dst in a.transitions:
        adj[src].append((label, dst))
    alphabet = a.alphabet
    memo: dict[int, frozenset[str]] = {}

    def words_from(q: int) -> frozenset[str]:
        if q in memo:
            return memo[q]
        out = set()
        if q in a.finals:
            out.add("")
        for letter, dst in adj[q]:
            for suffix in words_from(dst):
                out.add(letter + suffix)
        if len(out) > word_cap:
            raise CountCapExceeded(
                f"domain expansion exceeded the cap of {word_cap} words"
            )
        result = frozenset(out)
        memo[q] = result
        return result

    words = words_from(a.initial)
    return sorted(words, key=lambda w: (len(w), tuple(alphabet.index(c) for c in w)))


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
        dom = spec.domain(name)
        if not finitary and not domain_is_finite(dom):
            raise DomainNotFinite(
                f"variable {name!r} has an infinite domain; only finite domains "
                "can be enumerated totally"
            )
        choices[name] = enumerate_finite_domain(dom, word_cap)
    total = math.prod(len(words) for words in choices.values())
    _check_count(total, valuation_cap, "finitary valuations" if finitary else "valuations")
    return choices


def enumerate_finitary_valuations(
    spec: DomainSpec,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    word_cap: int = DEFAULT_WORD_CAP,
) -> Iterator[FinitaryValuation]:
    """Cartesian product over the finite-domain variables only (in variable
    order, shortlex per variable); infinite-domain variables stay undefined."""
    for nu in valuations_from(domain_choices(spec, valuation_cap, word_cap, finitary=True)):
        yield FinitaryValuation(nu.as_dict())


def enumerate_word_valuations(
    spec: DomainSpec,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    word_cap: int = DEFAULT_WORD_CAP,
) -> Iterator[Valuation]:
    """Total word-valuations for an all-finite spec (variable order, then
    shortlex per variable).  Rejects infinite domains."""
    yield from valuations_from(domain_choices(spec, valuation_cap, word_cap))


def apply_finitary(v: Valuation, a: Nfa) -> Nfa:
    """Letter transitions kept; variable transitions substituted when the
    variable is defined and dropped when it is not (the reduced automaton
    composed with the finitary substitution)."""
    return _relabel(v, a, drop_unbound=True)
