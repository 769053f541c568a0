"""Expression families, the intersection-emptiness combinator, and
fooling-set lower-bound machinery.

The combinator folds a whole list of expressions into a single one whose
certainty language is empty exactly when the intersection of the certainty
languages is — the analogue, for certainty semantics, of a construction that
is impossible for plain regular expressions unless PSPACE collapses.  The
families exhibit extreme witness lengths and NFA sizes, and the fooling-set
verifier turns a membership oracle into a certified state lower bound.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

from .errors import CountCapExceeded
from .syntax import (
    Alphabet,
    Lit,
    ParamRegex,
    Star,
    Union,
    Var,
    _REPEAT_LIMIT,
    concat_exprs,
    union_exprs,
    variables,
)
from .valuations import Valuation, apply_to_regex

#: Candidate characters for augmenting a single-letter alphabet.
_FRESH_LETTERS = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789"

#: Enumerating the box fooling family needs C(2^(n+1), 2^n) pairs; past this
#: cap the request is refused rather than left to grind.
DEFAULT_PAIR_CAP = 100000
#: Verifying n pairs decides n·(n − 1) ordered pairs for condition 2; past
#: this many the request is refused before the first decision.
ORDERED_PAIR_CAP = 10**7


@dataclass(frozen=True)
class FoolingSet:
    """A list of distinct word pairs (u, v) used to certify NFA lower bounds.

    If every u_i·v_i is in a language and no u_j·v_i with j ≠ i is, then any
    NFA for that language needs at least as many states as there are pairs.
    """

    pairs: tuple[tuple[str, str], ...]

    def __post_init__(self):
        if len(set(self.pairs)) != len(self.pairs):
            raise ValueError("fooling-set pairs must be distinct")

    def __len__(self) -> int:
        return len(self.pairs)

    def __iter__(self):
        return iter(self.pairs)

    def to_tsv(self) -> str:
        """One pair per line, tab-separated, with ``_`` standing for the
        empty word (``_`` is reserved and can never be a letter)."""
        lines = []
        for u, v in self.pairs:
            lines.append(f"{u or '_'}\t{v or '_'}")
        return "\n".join(lines) + "\n"

    @classmethod
    def from_tsv(cls, text: str) -> "FoolingSet":
        pairs = []
        for lineno, line in enumerate(text.splitlines(), start=1):
            if not line.strip():
                continue
            fields = line.split("\t")
            if len(fields) != 2:
                raise ValueError(f"line {lineno}: expected two tab-separated words")
            u, v = fields
            pairs.append(("" if u == "_" else u, "" if v == "_" else v))
        return cls(tuple(pairs))


# ---------------------------------------------------------------------------
# The intersection-emptiness combinator


def lemma3_combine(
    es: Sequence[ParamRegex], alphabet: Alphabet
) -> tuple[ParamRegex, Alphabet]:
    """Fold expressions into one with the same certainty-emptiness status.

    The certainty language of the result is empty iff the intersection of
    the inputs' certainty languages is.  Fresh variables route each word
    through the branch matching how many of them a valuation sends to the
    marker letter, so every branch's language must be entered under some
    valuation.  Runs in polynomial time — no automata, no enumeration.

    Needs two letters to play marker and separator; a single-letter alphabet
    first substitutes its letter for every variable (the only valuation
    there) and then gains one fresh letter, so the returned alphabet can
    differ from the given one.
    """
    if not es:
        raise ValueError("need at least one expression")
    if len(es) == 1:
        return es[0], alphabet
    if len(alphabet) == 1:
        only = alphabet.letters[0]
        es = [
            apply_to_regex(Valuation({name: only for name in variables(e)}), e)
            for e in es
        ]
        # The one letter rules out at most one candidate.
        fresh_letter = next(ch for ch in _FRESH_LETTERS if ch not in alphabet)
        alphabet = Alphabet(alphabet.letters + (fresh_letter,))

    k = len(es)
    marker = alphabet.letters[0]  # the counted letter
    fence = alphabet.letters[1]  # delimits the k-repetition block
    others = Star(union_exprs([Lit(c) for c in alphabet.letters if c != marker]))

    used = {name for e in es for name in variables(e)}
    base = "L3"
    while any(f"{base}_{i}" in used for i in range(1, k)):
        base += "_"
    fresh = [Var(f"{base}_{i}") for i in range(1, k)]

    # marker-counting block: exactly one marker, anything else around it
    one_marker = concat_exprs([others, Lit(marker), others])
    separator = concat_exprs([Lit(fence)] + [Lit(marker)] * k + [Lit(fence)])

    branches: list[ParamRegex] = [concat_exprs([separator, es[0]])]
    for i in range(2, k + 1):
        count_block = concat_exprs([one_marker] * (i - 1))
        branches.append(concat_exprs([Lit(fence), count_block, separator, es[i - 1]]))

    prefix: list[ParamRegex] = [others]
    for v in fresh:
        prefix.append(v)
        prefix.append(others)
    combined = concat_exprs(prefix + [union_exprs(branches)])
    return combined, alphabet


# ---------------------------------------------------------------------------
# Expression families over {0, 1}


def _binary_choice() -> ParamRegex:
    return Union(Lit("0"), Lit("1"))


def _vars(n: int, start: int = 1) -> list[ParamRegex]:
    return [Var(f"x{i}") for i in range(start, start + n)]


def _check_index(n: int) -> None:
    """Refuse a family index below 1 or above the parser's ``{n}`` limit."""
    if n < 1:
        raise ValueError("n must be positive")
    if n > _REPEAT_LIMIT:
        raise ValueError(f"n must be at most {_REPEAT_LIMIT}")


def family_box_subword(n: int) -> ParamRegex:
    """(0|1)* x1 … xn (0|1)* — certainty words must contain every binary
    n-gram, so the shortest one has length 2^n + n - 1."""
    _check_index(n)
    return concat_exprs([Star(_binary_choice())] + _vars(n) + [Star(_binary_choice())])


def family_box_doubleexp(n: int) -> ParamRegex:
    """((0|1)^(n+1))* x1 … x(n+1) ((0|1)^(n+1))* — the certainty language
    forces doubly-exponential NFA sizes as n grows."""
    _check_index(n)
    block = Star(concat_exprs([_binary_choice()] * (n + 1)))
    return concat_exprs([block] + _vars(n + 1) + [block])


def family_diamond_power(n: int) -> ParamRegex:
    """(x1 … xn)* — the possibility language is the union of u* over all
    n-letter words u, which no small NFA captures."""
    _check_index(n)
    return Star(concat_exprs(_vars(n)))


# ---------------------------------------------------------------------------
# Fooling sets


def fooling_pairs_diamond(n: int, pair_cap: int = DEFAULT_PAIR_CAP) -> FoolingSet:
    """{(w, w) : w a binary n-letter word} — 2^n pairs that fool any NFA for
    the possibility language of :func:`family_diamond_power`."""
    if n < 1:
        raise ValueError("n must be positive")
    if pair_cap < 1 << min(n, pair_cap.bit_length() + 1):  # 2^n > pair_cap, 2^n not built
        raise CountCapExceeded(f"2^{n} pairs exceed the cap of {pair_cap}")
    words = ["".join(bits) for bits in itertools.product("01", repeat=n)]
    return FoolingSet(tuple((w, w) for w in words))


def fooling_pairs_box(n: int, pair_cap: int = DEFAULT_PAIR_CAP) -> FoolingSet:
    """Pairs (w_S, w_S̄) over all half-sized subsets S of the binary
    (n+1)-letter words, each word the lexicographic concatenation of its
    subset — they fool any NFA for the certainty language of
    :func:`family_box_doubleexp`."""
    if n < 1:
        raise ValueError("n must be positive")
    # At least 2^(2^n) pairs: past n = 12 too many digits to print, past 63 to store.
    if n > 12 and (n > 63 or pair_cap.bit_length() <= 1 << n):
        raise CountCapExceeded(f"C(2^{n + 1}, 2^{n}) subset pairs exceed the cap of {pair_cap}")
    half = 2**n
    count = math.comb(2 * half, half)
    if count > pair_cap:
        raise CountCapExceeded(
            f"{count} subset pairs exceed the cap of {pair_cap} (practical up to n=2)"
        )
    block = ["".join(bits) for bits in itertools.product("01", repeat=n + 1)]
    pairs = []
    indices = range(len(block))
    for chosen in itertools.combinations(indices, half):
        chosen_set = set(chosen)
        w_s = "".join(block[i] for i in chosen)
        w_rest = "".join(block[i] for i in indices if i not in chosen_set)
        pairs.append((w_s, w_rest))
    return FoolingSet(tuple(pairs))


def verify_fooling_set(
    p: FoolingSet, member: Callable[[str], bool]
) -> tuple[bool, int, str | None]:
    """Check the two fooling conditions against a membership oracle.

    Condition (1): every u_i·v_i is in the language.  Condition (2): u_j·v_i
    is outside it whenever j ≠ i.  If both hold, any NFA for the language
    has at least len(p) states, and (True, len(p), None) is returned;
    otherwise (False, 0, description-of-first-violation).  Raises
    :class:`~prx.errors.CountCapExceeded` before any membership decision
    when the ordered pairs exceed :data:`ORDERED_PAIR_CAP`.
    """
    pairs = list(p)
    ordered = len(pairs) * (len(pairs) - 1)
    if ordered > ORDERED_PAIR_CAP:
        raise CountCapExceeded(
            f"{ordered} ordered pairs exceed the cap of {ORDERED_PAIR_CAP}"
        )
    for i, (u, v) in enumerate(pairs):
        if not member(u + v):
            return False, 0, f"condition 1 fails at pair {i}: {(u + v) or '_'} not in the language"
    for j, (u_j, _) in enumerate(pairs):
        for i, (_, v_i) in enumerate(pairs):
            if i == j:
                continue
            if member(u_j + v_i):
                return (
                    False,
                    0,
                    f"condition 2 fails at pairs j={j}, i={i}: "
                    f"{(u_j + v_i) or '_'} is in the language",
                )
    return True, len(pairs), None
