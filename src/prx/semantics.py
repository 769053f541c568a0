"""The certainty/possibility semantics and the main decision problems.

The certainty language of an expression is the intersection of the languages
of all its substitution instances; the possibility language is their union.
Variables range over the letters, or over the words of per-variable regular
domains (:class:`~prx.valuations.DomainSpec`); every problem takes either,
and decides both the same way.  One engine steps the variable-labelled
automaton under every valuation at once, on *mask states*.  Membership runs
it once over the word; possibility membership of one word can also be
decided without enumerating valuations, by binding variables as the word is
read, or by plain reachability for simple star-free expressions.  Every
other decision runs the one breadth-first search of
:func:`~prx.automata._search` and stops at the first answer.  It searches
the states of an instance (:func:`~prx.automata.is_empty`) or of the
possibility union (:class:`_UnionSource`), mask states of the automaton
with its bisimilar states merged, pairs of them, or pairs of the states of
one automaton or of the union with mask states or the states of another
(:func:`_pair_search`); no decision builds a product or a complement.
Letters are tried in alphabet order.  A mask state has one successor per
letter, so the searches of mask states and of their pairs find the
shortlex-least witness; a state of an automaton may have several, and a
pair search finds the witness an emptiness check of the product would
find.  Certainty universality over letters takes its counterexample from
the first instance that is not universal, searched on the mask states of
that one valuation.  Only :func:`construct_nfa` glues the possibility
union, in one pass without ε-edges.  The searches read it lazily: its
size, and so its cap, comes from the expression, and an instance is
compiled only once a search needs its edges.  The certainty automaton
numbers the mask states of the automaton as compiled, on its states
reachable from the start.  A reported valuation is the first one in
enumeration order.  Nothing is approximated: caps make the exponential
cases fail loudly instead.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate, groupby, product
from math import prod
from operator import itemgetter
from typing import Callable, Hashable, Iterable, Mapping, Sequence

from .automata import (
    DEFAULT_STATE_CAP,
    Label,
    Nfa,
    VarLabel,
    _search,
    _targets,
    is_empty,
    regex_to_nfa,
)
from .errors import DomainNotFinite, PreconditionViolated, PrxError, StateCapExceeded
from .syntax import (
    Alphabet, Concat, Epsilon, ParamRegex, Star, Union, Var, _fold, is_simple,
    star_height, variables, word_expr,
)
from .valuations import (
    DEFAULT_VALUATION_CAP,
    DEFAULT_WORD_CAP,
    DomainSpec,
    Valuation,
    _tile,
    apply_to_nfa,
    domain_choices,
    letter_choices,
    letter_masks,
    valuation_at,
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
    counts the nodes discovered by the search that gave the answer: mask
    states (see :data:`_MaskState`), or pairs of them with mask states or
    automaton states.  Membership reports the states of the expression's
    own automaton, and so does certainty universality over letters when
    every instance is universal; possibility nonemptiness reports those of
    the automaton it searched, over domains the possibility union's size as
    computed from the expression (see :class:`_UnionSource`).
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


def _check_spec_covers(spec: DomainSpec, *exprs: ParamRegex) -> None:
    for e in exprs:
        missing = [name for name in variables(e) if name not in spec]
        if missing:
            raise PrxError(f"no domain declared for variable(s): {', '.join(missing)}")


# ---------------------------------------------------------------------------
# Valuations


def _valuation_space(
    e: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    domains: DomainSpec | None,
    valuation_cap: int,
    word_cap: int,
    covered: bool = False,
) -> tuple[str, dict[str, Sequence[str]]]:
    """The route the instances come from, and the images of each variable.

    Without domains every variable ranges over the letters ("letters").
    With all domains finite, total word valuations are enumerated
    ("enumerate").  With an infinite domain the certainty language is still
    regular: it is the intersection over the finitary valuations, which
    leave the infinite-domain variables undefined and drop their
    transitions ("finitary").  The possibility language over an infinite
    domain may be nonregular, so that combination is refused.  A variable
    of e without a domain is refused first, unless the caller has checked
    (``covered``).
    """
    if domains is None:
        return "letters", letter_choices(variables(e), alphabet, valuation_cap)
    if not covered:
        _check_spec_covers(domains, e)
    finitary = bool(domains.infinite_variables())
    if sem is DIAMOND and finitary:
        raise DomainNotFinite(
            "the possibility language over an infinite domain need not be regular"
        )
    route = "finitary" if finitary else "enumerate"
    return route, domain_choices(domains, valuation_cap, word_cap, finitary=finitary)


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
    :func:`_valuation_space`), and the number of valuations combined; both
    constructions refuse past ``state_cap`` states.

    Possibility glues the instances of :class:`_UnionSource` into one union
    without ε-edges (see :func:`_union`), refused from its computed size
    before any instance is compiled; no other function glues it.  Certainty
    numbers the mask states of the compiled automaton on its states
    reachable from the start (see :func:`_instance_masks`), the tuples of
    the instances' subsets, and drops those where some instance can no
    longer accept (see :meth:`_Masks.coreachable`).  A finitary instance
    gives each word edge a chain of its own, an enumerated one each
    occurrence of a variable.
    """
    route, choices = space
    if sem is DIAMOND:
        source = _UnionSource(e, alphabet, choices, state_cap)
        return _union(source), source.count
    masks = _instance_masks(e, alphabet, choices, chain_per_edge=route == "finitary")
    on_live = masks.coreachable()
    if masks.fold(masks.start & on_live) != masks.full:
        return Nfa._built(1, 0, (), (), alphabet), masks.total
    # The live mask states, numbered breadth-first with the letters in
    # alphabet order, and the edges between them in that order.
    ids: dict[_MaskState, int] = {masks.start: 0}
    states = [masks.start]
    transitions: list[tuple[int, Label, int]] = []
    for src, state in enumerate(states):  # grows while it is read
        for i, letter in enumerate(alphabet.letters):
            nxt = masks.step(state, i)
            dst = ids.get(nxt)
            if dst is None:
                if masks.fold(nxt & on_live) != masks.full:
                    continue
                if len(ids) >= state_cap:
                    raise StateCapExceeded(f"product exceeded the cap of {state_cap} states")
                dst = ids[nxt] = len(states)
                states.append(nxt)
            transitions.append((src, letter, dst))
    finals = [q for q, state in enumerate(states) if masks.accepting(state) == masks.full]
    return Nfa._built(len(states), 0, finals, transitions, alphabet), masks.total


class _UnionSource:
    """The possibility union over the valuations of ``choices``, read rather
    than built.  Node 0 is a start of its own; state q of instance k, the
    k-th valuation's, is node ``offsets[k] + q``, as :func:`_union` numbers
    the union it glues.

    The size comes from the expression: an instance has the n states of the
    compiled expression, and two more per letter after the first of each
    variable occurrence's image, the states ``word_expr`` spells it with.
    Past ``state_cap`` the union is refused here (``union exceeded …``),
    before any instance is compiled.  Node 0 is final when some instance
    accepts the empty word, which is when e does with every variable that
    has the empty word as an image spelled as it.

    An instance is compiled on first use.  When every image is one letter,
    as over letters, it is the compiled automaton with each variable edge
    relabelled by its image; otherwise it is e compiled with each variable
    spelled as its image.  The searches read the union through
    :meth:`step`, node 0 stepping along every instance's start edges, and
    :attr:`finals`, which holds every final node once node 0 has been
    stepped.
    """

    __slots__ = ("e", "alphabet", "base", "coded", "names", "images", "letters_only", "count",
                 "size", "offsets", "finals", "rows", "compiled", "spelled")

    def __init__(self, e: ParamRegex, alphabet: Alphabet,
                 choices: Mapping[str, Sequence[str]], state_cap: int):
        self.e, self.alphabet = e, alphabet
        empty = {name for name, images in choices.items() if "" in images}

        def shape(node: ParamRegex, *kids: tuple[int, bool]) -> tuple[int, bool]:
            """The states a node compiles to, and whether it is nullable when
            the variables in ``empty`` are; counts the variables' occurrences."""
            t = type(node)
            if t is Concat:
                return kids[0][0] + kids[1][0], kids[0][1] and kids[1][1]
            if t is Union:
                return kids[0][0] + kids[1][0] + 2, kids[0][1] or kids[1][1]
            if t is Star:
                return kids[0][0] + 2, True
            if t is Var:
                occurrences[node.name] += 1
                return 2, node.name in empty
            return 2, t is Epsilon

        occurrences: Counter[str] = Counter()
        n, start_final = _fold(e, shape)
        # Per variable, the states each of its images adds to an instance.
        added = [[2 * occurrences[name] * max(len(w) - 1, 0) for w in images]
                 for name, images in choices.items()]
        self.count = count = prod(map(len, added))
        self.size = 1 + count * n + sum(count // len(a) * sum(a) for a in added)
        if self.size > state_cap:
            raise StateCapExceeded(f"union exceeded the cap of {state_cap} states")
        self.finals: set[int] = {0} if start_final else set()
        self.offsets = list(accumulate((n + sum(extra) for extra in product(*added)), initial=1))
        self.base: Nfa | None = None  # the compiled automaton, once an instance relabels it
        self.coded: tuple[list[Label], list[tuple[int, int, int]]] | None = None
        self.names = list(choices)
        self.images = list(product(*choices.values()))
        self.letters_only = all(len(w) == 1 for images in choices.values() for w in images)
        # Per node, each letter's targets, once its instance is indexed; the
        # other nodes are listed once node 0 is, as none is reached before.
        self.rows: list[list[Sequence[int]] | None] = [None]
        self.compiled: dict[int, Nfa] = {}
        self.spelled: dict[str, ParamRegex] = {}

    def instance(self, k: int) -> tuple[Nfa, dict[str, str] | None]:
        """Instance k's automaton, and the image letter of each variable that
        labels its edges, ``None`` when only letters do."""
        images = self.images[k]
        if self.letters_only or all(len(w) == 1 for w in images):
            if self.base is None:
                self.base = regex_to_nfa(self.e, self.alphabet)
            return self.base, dict(zip(self.names, images))
        a = self.compiled.get(k)
        if a is None:
            spelled = self.spelled  # one expression per image word
            spell = {name: spelled.get(w) or spelled.setdefault(w, word_expr(w))
                     for name, w in zip(self.names, images)}
            a = self.compiled[k] = regex_to_nfa(self.e, self.alphabet, spell)
        return a, None

    def step(self, node: int, i: int) -> Sequence[int]:
        """The nodes reached from ``node`` on letter index i, in increasing
        order."""
        row = self.rows[node]
        if row is None:
            self._index(bisect_right(self.offsets, node) - 1)
            row = self.rows[node]
        return row[i]

    def _edges(self, k: int, index: dict[str, int]) -> tuple[Nfa, Iterable[tuple[int, int, int]]]:
        """Instance k's automaton, and its edges as (source, letter index,
        target) in order, read as they are iterated."""
        a, nu = self.instance(k)
        if nu is None:
            return a, ((src, index[label], dst) for src, label, dst in a.transitions)
        labels, coded = self.coded_base()
        image = [index[nu[label.name] if isinstance(label, VarLabel) else label]
                 for label in labels]
        return a, ((src, image[code], dst) for src, code, dst in coded)

    def coded_base(self) -> tuple[list[Label], list[tuple[int, int, int]]]:
        """The labels of the compiled automaton the relabelled instances
        share, and its edges with each label coded by its place there."""
        if self.coded is None:
            codes: dict[Label, int] = {}
            coded = [(src, codes.setdefault(label, len(codes)), dst)
                     for src, label, dst in self.base.transitions]
            self.coded = list(codes), coded
        return self.coded

    def _index(self, k: int) -> None:
        """Enter the targets of instance k's states, or with k = -1 those of
        node 0, which also enters every instance's final states."""
        index = {ch: i for i, ch in enumerate(self.alphabet.letters)}
        if k < 0:
            starts = []
            for j, offset in enumerate(self.offsets[:-1]):
                a, edges = self._edges(j, index)
                self.finals.update(q + offset for q in a.finals)
                for src, i, dst in edges:
                    if src != a.initial:  # a compiled automaton lists its start's edges first
                        break
                    starts.append((i, dst + offset))
            row: list[list[int]] = [[] for _ in index]
            for i, dst in sorted(set(starts)):
                row[i].append(dst)
            self.rows = [row] + [None] * (self.size - 1)
            return
        a, edges = self._edges(k, index)
        offset = self.offsets[k]
        rows: list[list[Sequence[int]]] = [[()] * len(index) for _ in range(a.n_states)]
        for (src, i), group in groupby(sorted(set(edges)), key=itemgetter(0, 1)):
            rows[src][i] = [dst + offset for _, _, dst in group]
        self.rows[offset:offset + a.n_states] = rows


def _union(source: _UnionSource) -> Nfa:
    """The union of the source's ε-free instances, glued without ε-edges.

    Node 0 has the edges of every instance's start, and is final when one
    of those starts is; each instance's states follow in turn.  The edges
    come out ordered by source, letter and target, without duplicates: a
    compiled automaton's edges are in that order already (see
    :func:`~prx.automata.regex_to_nfa`), and relabelling can only
    reorder, or make equal, the edges of a state with two or more of them,
    one a variable edge, so only those are sorted again.
    """
    starts: list[tuple[int, Label, int]] = []
    transitions: list[tuple[int, Label, int]] = []
    finals: list[int] = []
    offset, runs = 1, None
    for k in range(source.count):
        a, nu = source.instance(k)
        if nu is None:
            edges = [(src + offset, label, dst + offset) for src, label, dst in a.transitions]
            starts += [(0, label, dst) for src, label, dst in edges if src == offset + a.initial]
        else:
            labels, coded = source.coded_base()
            if runs is None:
                out_of_start = [(code, dst) for src, code, dst in coded if src == a.initial]
                # The (first, end) edge indices of each state to sort again.
                runs = []
                end = 0
                for _, group in groupby(a.transitions, key=itemgetter(0)):
                    first, group = end, list(group)
                    end += len(group)
                    if len(group) > 1 and any(isinstance(label, VarLabel) for _, label, _ in group):
                        runs.append((first, end))
            image = [nu[label.name] if isinstance(label, VarLabel) else label for label in labels]
            edges = [(src + offset, image[code], dst + offset) for src, code, dst in coded]
            for first, end in reversed(runs):  # a shorter run moves only the edges after it
                edges[first:end] = sorted(set(edges[first:end]))
            starts += [(0, image[code], dst + offset) for code, dst in out_of_start]
        transitions += edges
        if a.initial in a.finals:
            finals.append(0)
        finals += [q + offset for q in a.finals]
        offset += a.n_states
    return Nfa._built(offset, 0, finals, sorted(set(starts)) + transitions, source.alphabet)


def construct_nfa(
    e: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
    domains: DomainSpec | None = None,
    word_cap: int = DEFAULT_WORD_CAP,
) -> Nfa:
    """Variable-free NFA for the certainty/possibility language.

    Possibility: nondeterministic union over all substituted automata,
    glued without ε-edges under a start of its own.  Certainty: the
    synchronized product of their subset constructions, without the tuples
    where some instance can no longer accept, numbered on mask states whose
    fields are the compiled automaton's reachable states (see
    :func:`_construct`).  Either refuses past ``state_cap`` states.  With
    ``domains`` the variables range over their regular domains: total
    valuations when every domain is finite, finitary ones otherwise (see
    :func:`_valuation_space`).
    """
    space = _valuation_space(e, alphabet, sem, domains, valuation_cap, word_cap)
    return _construct(e, alphabet, sem, space, state_cap)[0]


# ---------------------------------------------------------------------------
# Sets of valuations stepped through the variable-labelled automaton


#: Per letter index and state, the edges that read that letter, as (target,
#: valuations the edge keeps, ``None`` for all of them).
_Moves = list[dict[int, list[tuple[int, int | None]]]]

#: A mask state: one int of ``total``-bit fields, field q holding the
#: valuations under which state q of the automaton (on its reachable states,
#: see :func:`_reachable`, and merged in the searches, see :func:`_merge`)
#: is reached on one word.  States past the automaton's own are positions
#: inside the images of :func:`_moves`.
_MaskState = int


def _walk(
    base: Nfa,
) -> tuple[dict[Label, int], list[list[tuple[int, int]]], dict[int, list[int]], list[int]]:
    """One walk from the start of the ε-free automaton: its labels coded in
    order of first use, each state's edges as (label code, target), the
    predecessors of every state reached, and those states in their order."""
    labels: dict[Label, int] = {}
    edges: list[list[tuple[int, int]]] = [[] for _ in range(base.n_states)]
    for src, label, dst in base.transitions:
        edges[src].append((labels.setdefault(label, len(labels)), dst))
    preds: dict[int, list[int]] = {base.initial: []}  # per state reached
    order = [base.initial]
    for q in order:
        for _, d in edges[q]:
            if d in preds:
                preds[d].append(q)
            else:
                preds[d] = [q]
                order.append(d)
    order.sort()
    return labels, edges, preds, order


def _reachable(base: Nfa) -> Nfa:
    """The ε-free automaton on its states reachable from the start, kept in
    their order and numbered from 0, each with its edges; ``base`` itself
    when every state is reachable."""
    labels, edges, _, order = _walk(base)
    if len(order) == base.n_states:
        return base
    ids = {q: i for i, q in enumerate(order)}
    by_id = list(labels)
    transitions = ((ids[q], by_id[a], ids[d]) for q in order for a, d in edges[q])
    finals = (ids[q] for q in base.finals if q in ids)
    return Nfa._built(len(order), ids[base.initial], finals, transitions, base.alphabet)


def _merge(base: Nfa) -> Nfa:
    """The ε-free automaton on classes of its states reachable from the
    start: states with the same finality and the same outgoing (label,
    target class) pairs are merged until no two classes have both.  Merged
    states are bisimilar, so under every valuation they accept the same
    words and a search may step the classes in their place; the states no
    word reaches take part in no search and are left out.  A class is
    numbered in the order of its first state, and has that state's edges.

    Every state is visited once, last first, so that along the forward
    edges of the compiled automaton a target is mostly merged before its
    sources.  A merge queues for another pass only those predecessors of
    the states whose class changed that this pass has already visited, so
    a long chain of mergeable states costs about one pass rather than one
    pass per link.
    """
    labels, edges, preds, order = _walk(base)
    n_labels = len(labels)
    finals = base.finals
    # A class is named by one of its states, which it keeps while the name
    # lasts; a name absorbed by a merge never names a class again, so a
    # state found under a signature always stands for the right class.
    cls = list(range(base.n_states))
    members: dict[int, list[int]] = {}  # the states of each class of two or more
    found: dict[tuple[bool, int | frozenset[int]], int] = {}  # a state per signature
    work = order
    while work:
        ahead = set(work)  # the states still to visit in this pass
        again: set[int] = set()
        for q in reversed(work):
            ahead.discard(q)
            # A signature codes each (label, target class) pair as one int; a
            # lone code stands for itself, saving a set on single-edge states.
            out = edges[q]
            if len(out) == 1:
                a, d = out[0]
                key = q in finals, a + n_labels * cls[d]
            else:
                codes = {a + n_labels * cls[d] for a, d in out}
                key = q in finals, codes.pop() if len(codes) == 1 else frozenset(codes)
            keep, gone = cls[found.setdefault(key, q)], cls[q]
            if keep == gone:
                continue
            if len(members.get(keep, ())) < len(members.get(gone, ())):
                keep, gone = gone, keep
            moved = members.pop(gone, [gone])
            for p in moved:
                cls[p] = keep
                for r in preds[p]:
                    if r not in ahead:
                        again.add(r)
            members.setdefault(keep, [keep]).extend(moved)
        work = sorted(again)
    ids: dict[int, int] = {}
    firsts: list[int] = []
    for q in order:
        if ids.setdefault(cls[q], len(firsts)) == len(firsts):
            firsts.append(q)
    by_id = list(labels)
    transitions = dict.fromkeys(  # in order, without duplicates
        (c, by_id[a], ids[cls[d]]) for c, q in enumerate(firsts) for a, d in edges[q])
    return Nfa._built(len(firsts), ids[cls[base.initial]],
                      (ids[cls[q]] for q in finals if q in preds), transitions, base.alphabet)


def _moves(
    base: Nfa, choices: Mapping[str, Sequence[str]], chain_per_edge: bool = False
) -> tuple[int, _Moves, tuple[tuple[int, int], ...], int]:
    """The edges of the ε-free automaton under every valuation at once: the
    number of valuations (see :func:`letter_masks`), the moves, the start
    as (state, valuations) pairs, and the number of states the moves use.

    A letter edge keeps every valuation, and an edge ``$x`` keeps, per
    one-letter image of x, the valuations with that image.  A longer image
    runs through a chain of states numbered after the automaton's own, one
    chain per (variable, image, target), or per edge and image with
    ``chain_per_edge``, and only the chain's first edge keeps a mask.  An
    empty image is followed at once: every edge target, and the start,
    stands for its closure under empty-image edges, each state of which
    carries the valuations that reach it.  A variable with no images (one a
    finitary valuation leaves undefined) has no edges.
    """
    total, masks = letter_masks(choices)
    full = (1 << total) - 1
    n_states, initial = base.n_states, base.initial
    letters = base.alphabet.letters
    index = dict(zip(letters, range(len(letters))))
    # Per variable, the valuations with each letter as image, in alphabet
    # order (the masks themselves in the base setting), and its other images.
    to_letter: dict[str, Sequence[int]] = {}
    words: dict[str, list[tuple[str, int]]] = {}
    for name, images in choices.items():
        if images == letters:
            to_letter[name] = masks[name]
            continue
        by_image = dict(zip(images, masks[name]))
        to_letter[name] = [by_image.pop(ch, 0) for ch in letters]
        if by_image:
            words[name] = list(by_image.items())
    moves: _Moves = [{} for _ in letters]
    skips: dict[int, list[tuple[int, int]]] = defaultdict(list)  # empty-image edges
    chains: dict[tuple, int] = {}
    for src, label, dst in base.transitions:
        if not isinstance(label, VarLabel):
            moves[index[label]].setdefault(src, []).append((dst, None))
            continue
        name = label.name
        for row, keep in zip(moves, to_letter.get(name, ())):
            if keep:
                row.setdefault(src, []).append((dst, keep))
        for image, keep in words.get(name, ()):
            if not image:
                skips[src].append((dst, keep))
                continue
            key = (src, name, image, dst) if chain_per_edge else (name, image, dst)
            first = chains.get(key)
            if first is None:
                first = chains[key] = q = n_states
                for ch in image[1:-1]:
                    moves[index[ch]][q] = [(q + 1, None)]
                    q += 1
                moves[index[image[-1]]][q] = [(dst, None)]
                n_states = q + 1
            moves[index[image[0]]].setdefault(src, []).append((first, keep))
    if not skips:
        return total, moves, ((initial, full),), n_states

    # Per state with empty-image edges, the valuations under which each
    # state of its closure is reached.
    closures: dict[int, list[tuple[int, int]]] = {}
    for q in list(skips):
        reach = ahead = {q: full}
        while ahead:  # the valuations new at each state
            ahead = {
                p: new for p, have in _step(ahead.items(), skips).items()
                if (new := have & ~reach.get(p, 0))
            }
            for p, new in ahead.items():
                reach[p] = reach.get(p, 0) | new
        if len(reach) > 1:
            closures[q] = list(reach.items())
    for row in moves:
        for src, edges in row.items():
            for dst, _ in edges:
                if dst in closures:
                    row[src] = [
                        (q, keep if have == full else have if keep is None else have & keep)
                        for dst, keep in edges
                        for q, have in closures.get(dst, ((dst, full),))
                        if keep is None or have & keep
                    ]
                    break
    return total, moves, tuple(sorted(closures.get(initial, ((initial, full),)))), n_states


def _prune(
    moves: _Moves, start: Iterable[tuple[int, int]], finals: frozenset[int]
) -> list[tuple[int, int]]:
    """Leave out, in place, the edges into states from which no final state
    can be reached, and return the start without such states: they add
    nothing to any accepting set."""
    back: dict[int, list[int]] = defaultdict(list)
    for row in moves:
        for src, edges in row.items():
            for dst, _ in edges:
                back[dst].append(src)
    alive = set(finals)
    work = list(alive)
    while work:
        for src in back.get(work.pop(), ()):
            if src not in alive:
                alive.add(src)
                work.append(src)
    if not alive.issuperset(back):
        for row in moves:
            for src, edges in row.items():
                row[src] = [edge for edge in edges if edge[0] in alive]
    return [pair for pair in start if pair[0] in alive]


def _step(
    reach: Iterable[tuple[int, int]], row: dict[int, list[tuple[int, int | None]]]
) -> dict[int, int]:
    """Read one letter: the valuations each (state, valuations) pair passes
    along its edges in ``row``, that letter's row of :func:`_moves`."""
    ahead: dict[int, int] = {}
    for q, have in reach:
        for dst, keep in row.get(q, ()):
            kept = have if keep is None else have & keep
            if kept:
                ahead[dst] = ahead.get(dst, 0) | kept
    return ahead


class _Masks:
    """Moves of :func:`_moves` packed to run under every valuation at once
    on mask states (see :data:`_MaskState`).  Stepping a mask state is
    deterministic, and a word leads to the mask state that records, for
    every valuation, the subset its instance's subset construction reaches
    on that word: see :func:`_search_masks` and :func:`_instance_masks`.

    A letter moves the fields along its edges grouped by offset: per
    target offset dst − src, one AND with the valuations each source's
    edge keeps, and one shift.
    """

    __slots__ = ("total", "full", "moves", "finals", "start", "n_fields", "rows", "on_finals",
                 "halves")

    def __init__(self, total: int, moves: _Moves, start: Iterable[tuple[int, int]],
                 n_fields: int, finals: frozenset[int]):
        self.total, self.moves, self.n_fields, self.finals = total, moves, n_fields, finals
        self.full = full = (1 << total) - 1
        width = total
        self.rows: list[tuple[list[tuple[int, int]], list[tuple[int, int]]]] = []
        for row in moves:
            groups: dict[int, int] = {}
            for src, edges in row.items():
                at = src * width
                for dst, keep in edges:
                    kept = (full if keep is None else keep) << at
                    groups[dst - src] = groups.get(dst - src, 0) | kept
            self.rows.append((
                [(mask, offset * width) for offset, mask in groups.items() if offset >= 0],
                [(mask, -offset * width) for offset, mask in groups.items() if offset < 0],
            ))
        self.start: _MaskState = sum(have << q * width for q, have in start)
        self.on_finals = sum(full << q * width for q in finals)
        # The folds of n fields into one: the upper half onto the lower.
        self.halves: list[tuple[int, int]] = []
        n = n_fields
        while n > 1:
            n = (n + 1) // 2
            self.halves.append(((1 << n * width) - 1, n * width))

    def step(self, state: _MaskState, i: int) -> _MaskState:
        ahead = 0
        up, down = self.rows[i]
        for mask, shift in up:
            ahead |= (state & mask) << shift
        for mask, shift in down:
            ahead |= (state & mask) >> shift
        return ahead

    def fold(self, state: _MaskState) -> int:
        """The union of the fields: the valuations that reach some state."""
        for low, shift in self.halves:
            state = state & low | state >> shift
        return state

    def accepting(self, state: _MaskState) -> int:
        """The valuations whose instance accepts at this mask state."""
        return self.fold(state & self.on_finals)

    def alive(self, state: _MaskState) -> bool:
        """Does every valuation reach some state?  If one reaches none, its
        instance rejects every continuation, so no word through this mask
        state is in the certainty language."""
        return self.fold(state) == self.full

    def coreachable(self) -> _MaskState:
        """Per field, the valuations under which its state can reach a final
        state, from one backward fixpoint over the moves."""
        back: dict[int, list[tuple[int, int | None]]] = defaultdict(list)
        for row in self.moves:
            for src, edges in row.items():
                for dst, keep in edges:
                    back[dst].append((src, keep))
        reach = dict.fromkeys(self.finals, self.full)
        work = list(reach)
        while work:
            dst = work.pop()
            for src, keep in back.get(dst, ()):
                new = (reach[dst] if keep is None else reach[dst] & keep) & ~reach.get(src, 0)
                if new:
                    reach[src] = reach.get(src, 0) | new
                    work.append(src)
        return sum(have << q * self.total for q, have in reach.items())

    def first_non_universal(self, alphabet: Alphabet, state_cap: int) -> int | None:
        """The index of the first valuation whose instance is not universal,
        or ``None`` when every instance is.

        The mask states reachable on all words together record every
        instance's reachable subsets, so the valuations some of them reject
        are exactly the non-universal ones.  The search goes on past each
        one it finds, but narrows the fields it steps to the valuations
        before the least found so far, and stops once that is valuation 0.
        A valuation that reaches a *sure* state, from which every instance
        accepts every word, is rejected by no continuation, so it is kept
        on its sure states only.
        """
        # The sure states: the largest set of final states that each have,
        # on every letter, a letter edge into the set.
        sure = set(self.finals)
        while True:
            kept = {
                q for q in sure
                if all(any(keep is None and dst in sure for dst, keep in row.get(q, ()))
                       for row in self.moves)
            }
            if kept == sure:
                break
            sure = kept
        width, n = self.total, self.n_fields
        live = self.full
        on_live = -1  # the live valuations in every field
        on_sure = sum(self.full << q * width for q in sure)

        def step(state: _MaskState, i: int) -> tuple[_MaskState]:
            ahead = self.step(state, i) & on_live
            if on_sure:
                done = self.fold(ahead & on_sure)
                if done == live:
                    ahead &= on_sure
                elif done:
                    ahead &= on_sure | ~_tile(done, width, n)
            return (ahead,)

        def rejects(state: _MaskState) -> bool:
            nonlocal live, on_live
            bad = live & ~self.accepting(state)
            if bad:
                live = (bad & -bad) - 1
                on_live = _tile(live, width, n)
            return not live

        _search(self.start, step, alphabet, rejects, state_cap)
        return None if live == self.full else live.bit_length()


def _search_masks(base: Nfa, choices: Mapping[str, Sequence[str]]) -> _Masks:
    """The masks the searches step: the merged automaton's moves (see
    :func:`_merge`), pruned (see :func:`_prune`)."""
    merged = _merge(base)
    total, moves, start, n_fields = _moves(merged, choices)
    return _Masks(total, moves, _prune(moves, start, merged.finals), n_fields, merged.finals)


def _instance_masks(e: ParamRegex, alphabet: Alphabet, choices: Mapping[str, Sequence[str]],
                    chain_per_edge: bool = False) -> _Masks:
    """The masks of the compiled automaton's own moves on its states
    reachable from the start (see :func:`_reachable`), unmerged and
    unpruned, whose fields are the subsets of the instances.  The states no
    word reaches would only add fields that every mask state leaves empty,
    so the mask states, and their numbering, are those of the whole
    compiled automaton."""
    base = _reachable(regex_to_nfa(e, alphabet))
    return _Masks(*_moves(base, choices, chain_per_edge), base.finals)


def _states(a: Nfa) -> tuple:
    """The states of an ε-free automaton over letters as a side of
    :func:`_pair_search`: each letter's targets in increasing order, the
    final states wanted."""
    targets = _targets(a)
    return a.initial, lambda q, i: targets.get((q, i), ()), a.finals.__contains__


def _pair_search(left: tuple, right: tuple, alphabet: Alphabet,
                 state_cap: int) -> tuple[str | None, int]:
    """:func:`~prx.automata._search` of the pairs (node of the left side,
    node of the right side) for one where both are wanted.  A side is its
    start node, the successors ``step(node, i)`` gives a node on letter
    index i in increasing order (none from a dead node), and the test of
    the nodes it wants.  On each letter the pairs are those of the left
    node's successors in order, each with the right node's successors in
    order: the order in which the synchronized product of the left side's
    automaton with the other side numbers them breadth-first, so the word
    returned (``None`` if none) is the one :func:`~prx.automata.is_empty`
    finds in that product; when the right side is deterministic, the
    product with the sides swapped numbers them alike.  Also returns the
    number of pairs discovered."""
    (start, step, wanted), (other_start, other_step, other_wanted) = left, right

    def pairs(pair: tuple[Hashable, Hashable], i: int) -> Sequence[tuple[Hashable, Hashable]]:
        q, node = pair
        ahead = step(q, i)
        if not ahead:
            return ()
        nexts = other_step(node, i)
        return [(dst, nxt) for dst in ahead for nxt in nexts]

    return _search(
        (start, other_start), pairs, alphabet,
        lambda pair: wanted(pair[0]) and other_wanted(pair[1]), state_cap,
    )


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

    The decider of :func:`membership_decider` applied to w: the expression
    is compiled, and the valuation cap checked, before any letter of w is.
    """
    return membership_decider(e, alphabet, sem, valuation_cap, domains, word_cap)(w)


def membership_decider(
    e: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    domains: DomainSpec | None = None,
    word_cap: int = DEFAULT_WORD_CAP,
) -> Callable[[str], DecisionReport]:
    """Compile e once for membership, and return the decider of w ∈ L(e).

    The compiled automaton, the valuation space and the moves of
    :func:`_moves` are built here, so deciding many words costs one pass
    over each.  The variable-labelled automaton is simulated once per word,
    every state at every position carrying the set of valuations (a bitset,
    see :func:`letter_masks`) under which it is reachable on the prefix
    read so far: the word is read letter by letter on the moves, which step
    letter and word images alike.  The sets on the final states at the end
    of the word hold the valuations that accept w.  Possibility needs one
    of them, certainty needs all; the reported valuation is the first
    accepting (possibility) or rejecting (certainty) one in enumeration
    order, and ``valuations`` counts the enumeration up to it, or all of it
    when there is none.  A letter outside the alphabet raises ``ValueError``.
    """
    base = regex_to_nfa(e, alphabet)
    _, choices = _valuation_space(e, alphabet, sem, domains, valuation_cap, word_cap)
    total, moves, start, _ = _moves(base, choices)
    want = sem is DIAMOND

    def decide(w: str) -> DecisionReport:
        # Every letter is checked here, also those after the run dies out.
        letter_ids = [alphabet.index(ch) for ch in w]
        reach = dict(start)
        for i in letter_ids:
            reach = _step(reach.items(), moves[i])
            if not reach:
                break
        accepted = 0
        for q, have in reach.items():
            if q in base.finals:
                accepted |= have
        found = accepted if want else ((1 << total) - 1) ^ accepted
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

    return decide


def membership_diamond_fixed_word(
    e: ParamRegex, w: str, alphabet: Alphabet, state_cap: int = DEFAULT_STATE_CAP
) -> tuple[bool, Valuation | None]:
    """Possibility membership of one word, without enumerating valuations.

    The compiled automaton is simulated one position of w at a time, each
    node a state with the variable bindings made so far (sorted (variable,
    letter) pairs): a variable edge either binds a fresh variable to the
    current letter or must agree with its earlier binding.  With k
    variables and n states there are at most (|w|+1)·n·Σ_{j≤k} C(k,j)·|Σ|^j
    nodes: linear in |w| but exponential in k, so polynomial only for a
    fixed k.  Every node, the start included, counts against ``state_cap``,
    past which :class:`~prx.errors.StateCapExceeded` is raised.  Each
    position keeps its nodes in the order they are found, and the first
    final one at the end of w gives the valuation: its bindings, then every
    unbound variable mapped to the first letter (an unused edge cannot
    constrain the run).
    """
    for ch in w:
        alphabet.index(ch)  # a letter outside the alphabet raises ValueError
    a = regex_to_nfa(e, alphabet)
    adjacency = a.adjacency()
    level: dict[tuple[int, tuple], None] = {(a.initial, ()): None}  # nodes, in order
    count = 1
    for letter in w:
        nxt: dict[tuple[int, tuple], None] = {}
        for state, partial in level:
            bound = dict(partial)
            for label, dst in adjacency[state]:
                if isinstance(label, VarLabel):
                    image = bound.get(label.name)
                    if image is None:
                        node = dst, tuple(sorted({**bound, label.name: letter}.items()))
                    elif image == letter:
                        node = dst, partial
                    else:
                        continue
                elif label == letter:
                    node = dst, partial
                else:
                    continue
                if node not in nxt:
                    if count >= state_cap:
                        raise StateCapExceeded(
                            f"the fixed-word search exceeded the cap of {state_cap} states"
                        )
                    count += 1
                    nxt[node] = None
        level = nxt
    for state, partial in level:
        if state in a.finals:
            full = dict(partial)
            for name in variables(e):
                full.setdefault(name, alphabet.letters[0])
            return True, Valuation(full)
    return False, None


def membership_diamond_simple_sh0(e: ParamRegex, w: str, alphabet: Alphabet) -> bool:
    """Possibility membership for simple star-free expressions.

    The compiled automaton is acyclic and each variable labels one edge, so
    a variable edge matches the current letter unconditionally: no binding
    can be contradicted, and reachability over the states decides w.
    """
    if not is_simple(e):
        raise PreconditionViolated("expected a simple expression")
    if star_height(e) != 0:
        raise PreconditionViolated("expected a star-free expression")
    for ch in w:
        alphabet.index(ch)  # a letter outside the alphabet raises ValueError
    a = regex_to_nfa(e, alphabet)
    adjacency = a.adjacency()
    current = {a.initial}
    for letter in w:
        current = {dst for q in current for label, dst in adjacency[q]
                   if isinstance(label, VarLabel) or label == letter}
        if not current:
            return False
    return not current.isdisjoint(a.finals)


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
    other), so only the first valuation is inspected — no cap applies.  Over
    domains the union of the instances is searched as it is read, refused
    past ``state_cap`` from its computed size, and answers the empty word
    at once, compiling no instance, when its start is final (see
    :class:`_UnionSource`).  Certainty-nonemptiness searches mask states breadth-first for one whose final states hold every
    valuation; a mask state that loses a valuation altogether is dead and
    dropped.  Its witness is the shortlex-least word of the language.
    """
    if sem is DIAMOND and domains is None:
        nu = Valuation(dict.fromkeys(variables(e), alphabet.letters[0]))
        instance = apply_to_nfa(nu, regex_to_nfa(e, alphabet))
        empty, witness = is_empty(instance)
        return DecisionReport(
            answer=not empty,
            witness=witness,
            valuation=nu.as_dict() if not empty else None,
            stats={"valuations": 1, "states": instance.n_states},
        )
    space = _valuation_space(e, alphabet, sem, domains, valuation_cap, word_cap)
    if sem is DIAMOND:
        union = _UnionSource(e, alphabet, space[1], state_cap)
        witness, _ = _search(0, union.step, alphabet, union.finals.__contains__, union.size)
        return DecisionReport(
            answer=witness is not None,
            witness=witness,
            stats={"valuations": union.count, "states": union.size},
        )
    side = _search_masks(regex_to_nfa(e, alphabet), space[1])
    witness, n_states = _search(
        side.start, lambda s, i: (side.step(s, i),), alphabet,
        wanted=lambda s: side.accepting(s) == side.full,
        state_cap=state_cap,
        keep=side.alive,
    )
    return DecisionReport(
        answer=witness is not None,
        witness=witness,
        stats={"valuations": side.total, "states": n_states},
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
    instance is universal.  One breadth-first search over mask states finds
    the first valuation whose instance is not (see
    :meth:`_Masks.first_non_universal`), and a second one, on the mask
    states of that valuation alone, the shortlex-least word it rejects.
    Otherwise mask states are searched breadth-first for one whose final
    states miss some valuation (certainty) or hold none (possibility), for
    the shortlex-least word outside the language.
    """
    _, choices = _valuation_space(e, alphabet, sem, domains, valuation_cap, word_cap)
    base = regex_to_nfa(e, alphabet)
    if sem is BOX and domains is None:
        # Every instance rejects the empty word when the expression does, and
        # then the first instance is the answer without a search.
        first = 0
        if base.initial in base.finals:
            side = _search_masks(base, choices)
            first = side.first_non_universal(alphabet, state_cap)
            if first is None:
                return DecisionReport(
                    answer=True, stats={"valuations": side.total, "states": base.n_states}
                )
        nu = valuation_at(choices, first)
        instance = _Masks(*_moves(base, {name: (image,) for name, image in nu.items()}),
                          base.finals)
        cex, n_states = _search(
            instance.start, lambda s, i: (instance.step(s, i),), alphabet,
            wanted=lambda s: not instance.accepting(s),
            state_cap=state_cap,
        )
        return DecisionReport(
            answer=False,
            witness=cex,
            valuation=nu.as_dict(),
            stats={"valuations": first + 1, "states": n_states},
        )
    side = _search_masks(base, choices)
    cex, n_states = _search(
        side.start, lambda s, i: (side.step(s, i),), alphabet,
        wanted=(lambda s: side.accepting(s) != side.full) if sem is BOX
        else (lambda s: not side.accepting(s)),
        state_cap=state_cap,
    )
    return DecisionReport(
        answer=cex is None,
        witness=cex,
        stats={"valuations": side.total, "states": n_states},
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
    fails, the shortest separating word is returned.  Certainty searches
    pairs of mask states, one per side, breadth-first for a pair where e1
    accepts under every valuation and e2 not under some; pairs whose e1 side
    is dead are dropped, and the separator is shortlex-least.  Possibility
    searches pairs of a state of e1's union and a mask state of e2 (see
    :func:`_pair_search`) for a final state that no valuation of e2 accepts
    at.  With ``domains`` the valuation space depends on the domains only, so
    both sides share it.
    """
    if domains is not None:
        _check_spec_covers(domains, e1, e2)
    space = _valuation_space(e1, alphabet, sem, domains, valuation_cap, word_cap, covered=True)
    rhs_space = space
    if domains is None:  # over letters each side has its own variables
        rhs_space = _valuation_space(e2, alphabet, sem, domains, valuation_cap, word_cap)
    if sem is DIAMOND:
        lhs = _UnionSource(e1, alphabet, space[1], state_cap)
        rhs = _search_masks(regex_to_nfa(e2, alphabet), rhs_space[1])
        witness, n_states = _pair_search(
            (0, lhs.step, lhs.finals.__contains__),
            (rhs.start, lambda s, i: (rhs.step(s, i),), lambda s: not rhs.accepting(s)),
            alphabet, state_cap,
        )
        return DecisionReport(
            answer=witness is None,
            witness=witness,
            stats={"valuations": lhs.count + rhs.total, "states": n_states},
        )
    lhs = _search_masks(regex_to_nfa(e1, alphabet), space[1])
    rhs = _search_masks(regex_to_nfa(e2, alphabet), rhs_space[1])
    witness, n_states = _search(
        (lhs.start, rhs.start),
        lambda pair, i: ((lhs.step(pair[0], i), rhs.step(pair[1], i)),),
        alphabet,
        wanted=lambda pair: (
            lhs.accepting(pair[0]) == lhs.full and rhs.accepting(pair[1]) != rhs.full
        ),
        state_cap=state_cap,
        keep=lambda pair: lhs.alive(pair[0]),
    )
    return DecisionReport(
        answer=witness is None,
        witness=witness,
        stats={"valuations": lhs.total + rhs.total, "states": n_states},
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
    of the variable-free expression r?

    One breadth-first search of pairs with the states of r's automaton (see
    :func:`_pair_search`) finds a shortest word in the intersection: of mask
    states under certainty, dropping the dead ones as nonemptiness does, and
    of the union's states under possibility."""
    if domains is not None:
        _check_spec_covers(domains, e)
    if variables(r):
        raise PrxError("the regular constraint must be variable-free")
    space = _valuation_space(e, alphabet, sem, domains, valuation_cap, word_cap, covered=True)
    reg = regex_to_nfa(r, alphabet)
    if sem is DIAMOND:
        lhs = _UnionSource(e, alphabet, space[1], state_cap)
        n_vals = lhs.count
        witness, n_states = _pair_search(
            (0, lhs.step, lhs.finals.__contains__), _states(reg), alphabet, state_cap)
    else:
        side = _search_masks(regex_to_nfa(e, alphabet), space[1])
        n_vals = side.total
        witness, n_states = _pair_search(
            _states(reg),
            (side.start, lambda s, i: (nxt,) if side.alive(nxt := side.step(s, i)) else (),
             lambda s: side.accepting(s) == side.full),
            alphabet, state_cap,
        )
    return DecisionReport(
        answer=witness is not None,
        witness=witness,
        stats={"valuations": n_vals, "states": n_states},
    )
