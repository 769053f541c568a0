"""The certainty/possibility semantics and the main decision problems.

The certainty language of an expression is the intersection of the languages
of all its substitution instances; the possibility language is their union.
Membership simulates the variable-labelled automaton once over the word,
carrying a set of valuations per state, so it never builds an instance.  The
other problems enumerate valuations in the fixed deterministic order and
check, union, or intersect the substituted automata.  Either way a reported
valuation is the first one in enumeration order.  Nothing is approximated:
caps make the exponential cases fail loudly instead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from .automata import (
    DEFAULT_STATE_CAP,
    Nfa,
    VarLabel,
    accepts,
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
from .errors import DomainNotFinite, PrxError
from .syntax import Alphabet, ParamRegex, variables
from .valuations import (
    DEFAULT_VALUATION_CAP,
    DEFAULT_WORD_CAP,
    DomainSpec,
    FinitaryValuation,
    Valuation,
    apply_finitary,
    apply_to_nfa,
    apply_to_regex,
    enumerate_finitary_valuations,
    enumerate_valuations,
    enumerate_word_valuations,
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
    much work was done (valuations examined, automaton states built).
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


# ---------------------------------------------------------------------------
# CONSTRUCT


def construct_nfa(
    e: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Nfa:
    """Variable-free NFA for the certainty/possibility language.

    Possibility: nondeterministic union over all substituted automata.
    Certainty: determinized synchronized product over all of them (with
    duplicate components collapsed and dead tuples pruned).
    """
    base = _compiled(e, alphabet)
    instances = [
        apply_to_nfa(nu, base)
        for nu in enumerate_valuations(variables(e), alphabet, valuation_cap)
    ]
    if sem is DIAMOND:
        return union_all(instances, alphabet)
    return product_all(instances, state_cap)


# ---------------------------------------------------------------------------
# MEMBERSHIP


def membership(
    e: ParamRegex,
    w: str,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
) -> DecisionReport:
    """Decide w ∈ L(e) under the chosen semantics in one pass over the word.

    The variable-labelled automaton is simulated once, every state carrying
    the set of valuations (a bitset, see :func:`letter_masks`) under which
    it is reachable on the prefix read so far: a letter edge passes the set
    on, an edge ``$x`` read on letter c keeps the valuations with x = c.
    The sets on the final states hold the valuations that accept w.
    Possibility needs one of them, certainty needs all; the reported
    valuation is the first accepting (possibility) or rejecting (certainty)
    one in enumeration order, and ``valuations`` counts the enumeration up
    to it, or all of it when there is none.
    """
    base = _compiled(e, alphabet)
    names = variables(e)
    total, masks = letter_masks(names, alphabet, valuation_cap)
    # Every letter is checked here, also those after the run dies out.
    letter_ids = [alphabet.index(ch) for ch in w]
    adj = base.adjacency()
    full = (1 << total) - 1
    reach = {base.initial: full}
    for ch, i in zip(w, letter_ids):
        nxt: dict[int, int] = {}
        for q, have in reach.items():
            for label, dst in adj[q]:
                if isinstance(label, VarLabel):
                    keep = have & masks[label.name][i]
                elif label == ch:
                    keep = have
                else:
                    continue
                if keep:
                    nxt[dst] = nxt.get(dst, 0) | keep
        reach = nxt
        if not reach:
            break
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
        valuation=valuation_at(names, alphabet, index).as_dict(),
        stats={"valuations": index + 1, "states": base.n_states},
    )


# ---------------------------------------------------------------------------
# NONEMPTINESS


def _first_valuation(e: ParamRegex, alphabet: Alphabet) -> Valuation:
    return Valuation({name: alphabet.letters[0] for name in variables(e)})


def nonemptiness(
    e: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> DecisionReport:
    """Is the certainty/possibility language nonempty?

    Possibility-nonemptiness does not depend on the valuation chosen (a path
    in one substituted automaton exists iff one exists in any other), so only
    the first valuation is inspected — no cap applies.  Certainty runs the
    full product and reports its shortest witness.
    """
    if sem is DIAMOND:
        nu = _first_valuation(e, alphabet)
        instance = apply_to_nfa(nu, _compiled(e, alphabet))
        empty, witness = is_empty(instance)
        return DecisionReport(
            answer=not empty,
            witness=witness,
            valuation=nu.as_dict() if not empty else None,
            stats={"valuations": 1, "states": instance.n_states},
        )
    prod = construct_nfa(e, alphabet, BOX, valuation_cap, state_cap)
    empty, witness = is_empty(prod)
    n_vals = len(alphabet) ** len(variables(e))
    return DecisionReport(
        answer=not empty,
        witness=witness,
        stats={"valuations": n_vals, "states": prod.n_states},
    )


# ---------------------------------------------------------------------------
# UNIVERSALITY


def universality(
    e: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> DecisionReport:
    """Is every word over the alphabet in the language?

    Certainty-universality holds iff every substituted instance is universal,
    so instances are checked one valuation at a time up to the first that is
    not; possibility determinizes the union automaton.  Counterexample words
    come from the shortest-reject search and are therefore deterministic.
    """
    if sem is BOX:
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
    union = construct_nfa(e, alphabet, DIAMOND, valuation_cap, state_cap)
    d = determinize(union, state_cap)
    ok, cex = is_universal(d)
    n_vals = len(alphabet) ** len(variables(e))
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
) -> DecisionReport:
    """Is L(e1) ⊆ L(e2) under the chosen semantics?

    Decided as emptiness of L(e1) ∩ complement(L(e2)); when the containment
    fails, the shortest separating word is returned.
    """
    lhs = construct_nfa(e1, alphabet, sem, valuation_cap, state_cap)
    rhs = construct_nfa(e2, alphabet, sem, valuation_cap, state_cap)
    rhs_complement = dfa_to_nfa(complement(determinize(rhs, state_cap)))
    gap = product(lhs, rhs_complement)
    empty, witness = is_empty(gap)
    n_vals = len(alphabet) ** len(variables(e1)) + len(alphabet) ** len(variables(e2))
    return DecisionReport(
        answer=empty,
        witness=witness,
        stats={"valuations": n_vals, "states": gap.n_states},
    )


def nonempty_int_reg(
    e: ParamRegex,
    r: ParamRegex,
    alphabet: Alphabet,
    sem: Semantics,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> DecisionReport:
    """Does the certainty/possibility language intersect the regular language
    of the variable-free expression r?"""
    if variables(r):
        raise PrxError("the regular constraint must be variable-free")
    lhs = construct_nfa(e, alphabet, sem, valuation_cap, state_cap)
    rhs = _compiled(r, alphabet)
    inter = product(lhs, rhs)
    empty, witness = is_empty(inter)
    n_vals = len(alphabet) ** len(variables(e))
    return DecisionReport(
        answer=not empty,
        witness=witness,
        stats={"valuations": n_vals, "states": inter.n_states},
    )


# ---------------------------------------------------------------------------
# Regular domains


def _domain_components_finite(
    e: ParamRegex,
    spec: DomainSpec,
    alphabet: Alphabet,
    valuation_cap: int,
    word_cap: int,
) -> tuple[list[Nfa], list[Valuation]]:
    vals = list(enumerate_word_valuations(spec, valuation_cap, word_cap))
    nfas = [
        remove_epsilon(regex_to_nfa(apply_to_regex(nu, e), alphabet)) for nu in vals
    ]
    return nfas, vals


def _domain_components_finitary(
    e: ParamRegex,
    spec: DomainSpec,
    alphabet: Alphabet,
    valuation_cap: int,
    word_cap: int,
) -> tuple[list[Nfa], list[FinitaryValuation]]:
    base = _compiled(e, alphabet)
    vals = list(enumerate_finitary_valuations(spec, valuation_cap, word_cap))
    nfas = [
        remove_epsilon(expand_extended(apply_finitary(nu, base))) for nu in vals
    ]
    return nfas, vals


def _check_spec_covers(e: ParamRegex, spec: DomainSpec) -> None:
    missing = [name for name in variables(e) if name not in spec]
    if missing:
        raise PrxError(f"no domain declared for variable(s): {', '.join(missing)}")


def construct_nfa_domains(
    e: ParamRegex,
    spec: DomainSpec,
    alphabet: Alphabet,
    sem: Semantics,
    route: str = "auto",
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    word_cap: int = DEFAULT_WORD_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> Nfa:
    """Variable-free NFA for the language under per-variable regular domains.

    With all domains finite, total word-valuations are enumerated and
    combined exactly like the base construction ("enumerate" route).  With an
    infinite domain, the certainty language is still regular and is obtained
    by intersecting the expanded finitary reductions ("finitary" route); the
    possibility language may be nonregular, so that combination is refused.

    ``route`` forces "enumerate" or "finitary" (default "auto" picks by
    finiteness); both routes are kept alive so their agreement is testable.
    """
    _check_spec_covers(e, spec)
    if route not in ("auto", "enumerate", "finitary"):
        raise ValueError(f"unknown route {route!r}")
    all_finite = not spec.infinite_variables()
    if sem is DIAMOND and not all_finite:
        raise DomainNotFinite(
            "the possibility language over an infinite domain need not be regular"
        )
    if route == "enumerate" and not all_finite:
        raise DomainNotFinite("the enumerate route requires all domains finite")
    if route == "auto":
        route = "enumerate" if all_finite else "finitary"
    if route == "enumerate":
        nfas, _ = _domain_components_finite(e, spec, alphabet, valuation_cap, word_cap)
    else:
        nfas, _ = _domain_components_finitary(e, spec, alphabet, valuation_cap, word_cap)
    if sem is DIAMOND:
        return union_all(nfas, alphabet)
    return product_all(nfas, state_cap)


def decide_domains(
    problem: str,
    e: ParamRegex,
    spec: DomainSpec,
    alphabet: Alphabet,
    sem: Semantics,
    w: str | None = None,
    r: ParamRegex | None = None,
    e2: ParamRegex | None = None,
    valuation_cap: int = DEFAULT_VALUATION_CAP,
    word_cap: int = DEFAULT_WORD_CAP,
    state_cap: int = DEFAULT_STATE_CAP,
) -> DecisionReport:
    """The five decision problems lifted to regular domains.

    ``problem`` is one of "membership", "nonemptiness", "universality",
    "containment", "nonempty_int_reg".  Membership mirrors the base-case
    strategy (per-valuation checks, reporting the witnessing/refuting
    valuation); the others route through :func:`construct_nfa_domains`.
    """
    _check_spec_covers(e, spec)
    all_finite = not spec.infinite_variables()

    if problem == "membership":
        if w is None:
            raise ValueError("membership needs a word")
        if all_finite:
            nfas, vals = _domain_components_finite(e, spec, alphabet, valuation_cap, word_cap)
        else:
            if sem is DIAMOND:
                raise DomainNotFinite(
                    "the possibility language over an infinite domain need not be regular"
                )
            nfas, vals = _domain_components_finitary(e, spec, alphabet, valuation_cap, word_cap)
        states = max((a.n_states for a in nfas), default=0)
        want = sem is DIAMOND
        for nu, a in zip(vals, nfas):
            if accepts(a, w) == want:
                return DecisionReport(
                    answer=want,
                    valuation=nu.as_dict(),
                    stats={"valuations": len(vals), "states": states},
                )
        return DecisionReport(
            answer=not want, stats={"valuations": len(vals), "states": states}
        )

    if problem == "nonemptiness":
        a = construct_nfa_domains(
            e, spec, alphabet, sem,
            valuation_cap=valuation_cap, word_cap=word_cap, state_cap=state_cap,
        )
        empty, witness = is_empty(a)
        return DecisionReport(answer=not empty, witness=witness, stats={"states": a.n_states})

    if problem == "universality":
        a = construct_nfa_domains(
            e, spec, alphabet, sem,
            valuation_cap=valuation_cap, word_cap=word_cap, state_cap=state_cap,
        )
        d = determinize(a, state_cap)
        ok, cex = is_universal(d)
        return DecisionReport(answer=ok, witness=cex, stats={"states": d.n_states})

    if problem == "containment":
        if e2 is None:
            raise ValueError("containment needs a right-hand expression")
        _check_spec_covers(e2, spec)
        lhs = construct_nfa_domains(
            e, spec, alphabet, sem,
            valuation_cap=valuation_cap, word_cap=word_cap, state_cap=state_cap,
        )
        rhs = construct_nfa_domains(
            e2, spec, alphabet, sem,
            valuation_cap=valuation_cap, word_cap=word_cap, state_cap=state_cap,
        )
        gap = product(lhs, dfa_to_nfa(complement(determinize(rhs, state_cap))))
        empty, witness = is_empty(gap)
        return DecisionReport(answer=empty, witness=witness, stats={"states": gap.n_states})

    if problem == "nonempty_int_reg":
        if r is None:
            raise ValueError("nonempty_int_reg needs a regular constraint")
        if variables(r):
            raise PrxError("the regular constraint must be variable-free")
        a = construct_nfa_domains(
            e, spec, alphabet, sem,
            valuation_cap=valuation_cap, word_cap=word_cap, state_cap=state_cap,
        )
        inter = product(a, _compiled(r, alphabet))
        empty, witness = is_empty(inter)
        return DecisionReport(answer=not empty, witness=witness, stats={"states": inter.n_states})

    raise ValueError(f"unknown problem {problem!r}")
