"""Parsing, printing, and classification of parameterized regular expressions.

An expression is built from alphabet letters, variables (``$name``), the
empty word (``_``), the empty language (``@``), union (``|``), concatenation
(juxtaposition), Kleene star (``*``), and a bounded-repetition shorthand
(``{n}``) that is expanded at parse time.  Variables stand for unknown
alphabet letters (or for words, once regular domains are attached).

Grammar, with star binding tighter than concatenation, which binds tighter
than union::

    expr := alt
    alt  := cat ("|" cat)*
    cat  := rep+
    rep  := atom ("*" | "{" DIGITS "}")*
    atom := LETTER | "$" IDENT | "_" | "@" | "(" expr ")"

``LETTER`` is any non-reserved, non-whitespace character declared in the
alphabet; ``IDENT`` is ``[A-Za-z][A-Za-z0-9_]*`` (longest match).  Whitespace
between tokens is ignored.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Iterator

from .errors import ParseError

#: Characters that carry grammatical meaning and can never be letters.
RESERVED_CHARS = frozenset("()|*$_@{}")

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_IDENT_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
)

# Guard against accidental `a{999999999}` blowing up the parse; the repetition
# shorthand exists for small fixed exponents.
_REPEAT_LIMIT = 10000


class Alphabet:
    """An ordered, duplicate-free collection of single-character letters.

    Declaration order matters: valuation enumeration and witness searches
    iterate letters in this order, which keeps every answer deterministic.
    """

    __slots__ = ("letters", "_index")

    def __init__(self, letters: Iterable[str]):
        seen: list[str] = []
        index: dict[str, int] = {}
        for ch in letters:
            if not isinstance(ch, str) or len(ch) != 1:
                raise ValueError(f"alphabet letters must be single characters, got {ch!r}")
            if ch in RESERVED_CHARS:
                raise ValueError(f"character {ch!r} is reserved by the expression grammar")
            if ch.isspace():
                raise ValueError("whitespace cannot be used as a letter")
            if ch in index:
                raise ValueError(f"duplicate letter {ch!r} in alphabet")
            index[ch] = len(seen)
            seen.append(ch)
        if not seen:
            raise ValueError("alphabet must contain at least one letter")
        self.letters: tuple[str, ...] = tuple(seen)
        self._index = index

    def __contains__(self, ch: object) -> bool:
        return ch in self._index

    def __iter__(self) -> Iterator[str]:
        return iter(self.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def index(self, ch: str) -> int:
        """Position of a letter in declaration order."""
        try:
            return self._index[ch]
        except KeyError:
            raise ValueError(f"letter {ch!r} is not in the alphabet") from None

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Alphabet) and self.letters == other.letters

    def __hash__(self) -> int:
        return hash(self.letters)

    def __repr__(self) -> str:
        return f"Alphabet({''.join(self.letters)!r})"


# ---------------------------------------------------------------------------
# AST node types.  Trees are immutable; sharing subtrees is allowed (the
# repetition shorthand reuses the repeated node).


@dataclass(frozen=True)
class EmptySet:
    """The empty language, written ``@``."""


@dataclass(frozen=True)
class Epsilon:
    """The empty word, written ``_``."""


@dataclass(frozen=True)
class Lit:
    """A single alphabet letter."""

    letter: str

    def __post_init__(self):
        if len(self.letter) != 1 or self.letter in RESERVED_CHARS or self.letter.isspace():
            raise ValueError(f"invalid letter {self.letter!r}")


@dataclass(frozen=True)
class Var:
    """A variable occurrence, written ``$name``."""

    name: str

    def __post_init__(self):
        if not _IDENT_RE.fullmatch(self.name):
            raise ValueError(f"invalid variable name {self.name!r}")


@dataclass(frozen=True)
class Concat:
    left: "ParamRegex"
    right: "ParamRegex"


@dataclass(frozen=True)
class Union:
    left: "ParamRegex"
    right: "ParamRegex"


@dataclass(frozen=True)
class Star:
    inner: "ParamRegex"


ParamRegex = EmptySet | Epsilon | Lit | Var | Concat | Union | Star


# ---------------------------------------------------------------------------
# Parsing


class _Parser:
    """Hand-rolled recursive-descent parser over the grammar above."""

    def __init__(self, text: str, alphabet: Alphabet):
        self.text = text
        self.alphabet = alphabet
        self.pos = 0

    def fail(self, message: str, pos: int | None = None):
        raise ParseError(message, self.pos if pos is None else pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str | None:
        self.skip_ws()
        if self.pos >= len(self.text):
            return None
        return self.text[self.pos]

    def parse_expr(self) -> ParamRegex:
        parts = [self.parse_cat()]
        while self.peek() == "|":
            self.pos += 1
            parts.append(self.parse_cat())
        return union_exprs(parts)

    def parse_cat(self) -> ParamRegex:
        parts = [self.parse_rep()]
        while True:
            ch = self.peek()
            if ch is None or ch in "|)":
                break
            parts.append(self.parse_rep())
        return concat_exprs(parts)

    def parse_rep(self) -> ParamRegex:
        node = self.parse_atom()
        while True:
            ch = self.peek()
            if ch == "*":
                self.pos += 1
                node = Star(node)
            elif ch == "{":
                node = self._parse_repeat(node)
            else:
                return node

    def _parse_repeat(self, node: ParamRegex) -> ParamRegex:
        open_pos = self.pos
        self.pos += 1  # consume "{"
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            self.fail("expected a repetition count after '{'")
        count = int(self.text[start : self.pos])
        if count > _REPEAT_LIMIT:
            self.fail(f"repetition count {count} exceeds the limit of {_REPEAT_LIMIT}", open_pos)
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != "}":
            self.fail("expected '}' to close the repetition")
        self.pos += 1
        return _balanced_concat([node] * count)

    def parse_atom(self) -> ParamRegex:
        ch = self.peek()
        if ch is None:
            self.fail("expected an expression")
        if ch == "(":
            self.pos += 1
            node = self.parse_expr()
            if self.peek() != ")":
                self.fail("expected ')'")
            self.pos += 1
            return node
        if ch == "$":
            self.pos += 1
            m = _IDENT_RE.match(self.text, self.pos)
            if m is None:
                self.fail("expected a variable name after '$'")
            self.pos = m.end()
            return Var(m.group())
        if ch == "_":
            self.pos += 1
            return Epsilon()
        if ch == "@":
            self.pos += 1
            return EmptySet()
        if ch in RESERVED_CHARS:
            self.fail(f"unexpected {ch!r}")
        if ch not in self.alphabet:
            self.fail(f"letter {ch!r} is not in the declared alphabet")
        self.pos += 1
        return Lit(ch)


def parse(text: str, alphabet: Alphabet) -> ParamRegex:
    """Parse an expression string into an AST.

    The ``{n}`` shorthand is expanded during parsing into a balanced
    concatenation of n copies (``{0}`` yields the empty word).  Raises
    :class:`~prx.errors.ParseError` with the offending position on
    malformed input or letters outside the alphabet.
    """
    parser = _Parser(text, alphabet)
    node = parser.parse_expr()
    parser.skip_ws()
    if parser.pos != len(text):
        parser.fail(f"unexpected {text[parser.pos]!r}")
    return node


# ---------------------------------------------------------------------------
# Printing

# Precedence levels used by the printer: union < concatenation < star < atom.
_LEVEL_UNION = 0
_LEVEL_CONCAT = 1
_LEVEL_STAR = 2
_LEVEL_ATOM = 3


def _needs_space(left_text: str, right_text: str) -> bool:
    # A printed variable ends in identifier characters; if the next piece also
    # starts with one, the re-parse would extend the variable name.  A single
    # space (ignored by the parser) keeps the boundary.
    if not right_text or right_text[0] not in _IDENT_CHARS:
        return False
    k = len(left_text)
    while k > 0 and left_text[k - 1] in _IDENT_CHARS:
        k -= 1
    return 0 < k < len(left_text) and left_text[k - 1] == "$"


def _render(e: ParamRegex, min_level: int) -> str:
    if isinstance(e, EmptySet):
        text, level = "@", _LEVEL_ATOM
    elif isinstance(e, Epsilon):
        text, level = "_", _LEVEL_ATOM
    elif isinstance(e, Lit):
        text, level = e.letter, _LEVEL_ATOM
    elif isinstance(e, Var):
        text, level = "$" + e.name, _LEVEL_ATOM
    elif isinstance(e, Star):
        text, level = _render(e.inner, _LEVEL_STAR) + "*", _LEVEL_STAR
    elif isinstance(e, Concat):
        left = _render(e.left, _LEVEL_STAR)
        right = _render(e.right, _LEVEL_CONCAT)
        sep = " " if _needs_space(left, right) else ""
        text, level = left + sep + right, _LEVEL_CONCAT
    elif isinstance(e, Union):
        text, level = _render(e.left, _LEVEL_CONCAT) + "|" + _render(e.right, _LEVEL_UNION), _LEVEL_UNION
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if level < min_level:
        return "(" + text + ")"
    return text


def print_regex(e: ParamRegex) -> str:
    """Render an AST back to a string that parses to a structurally equal AST.

    Parentheses are inserted only where precedence or grouping requires them;
    in particular left-nested unions/concatenations keep their grouping
    (``Union(Union(a,b),c)`` prints as ``(a|b)|c``).
    """
    return _render(e, _LEVEL_UNION)


# ---------------------------------------------------------------------------
# Structural queries


def size(e: ParamRegex) -> int:
    """Number of AST nodes."""
    if isinstance(e, (Concat, Union)):
        return 1 + size(e.left) + size(e.right)
    if isinstance(e, Star):
        return 1 + size(e.inner)
    return 1


def _var_occurrences(e: ParamRegex, out: list[str]) -> None:
    if isinstance(e, Var):
        out.append(e.name)
    elif isinstance(e, (Concat, Union)):
        _var_occurrences(e.left, out)
        _var_occurrences(e.right, out)
    elif isinstance(e, Star):
        _var_occurrences(e.inner, out)


def variables(e: ParamRegex) -> tuple[str, ...]:
    """Distinct variable names in first-occurrence (left-to-right) order."""
    occurrences: list[str] = []
    _var_occurrences(e, occurrences)
    return tuple(dict.fromkeys(occurrences))


def is_simple(e: ParamRegex) -> bool:
    """True iff no variable occurs more than once in the expression."""
    occurrences: list[str] = []
    _var_occurrences(e, occurrences)
    return len(occurrences) == len(set(occurrences))


def star_height(e: ParamRegex) -> int:
    """Maximal nesting depth of stars; 0 means the expression is star-free."""
    if isinstance(e, (Concat, Union)):
        return max(star_height(e.left), star_height(e.right))
    if isinstance(e, Star):
        return 1 + star_height(e.inner)
    return 0


# ---------------------------------------------------------------------------
# Small construction helpers used across the package


def _balanced_concat(parts: list[ParamRegex]) -> ParamRegex:
    """Concatenation of ``parts`` with ``n // 2`` of the n parts on the left,
    so of logarithmic depth, which the recursive walkers over expressions
    need (up to three parts fold right); no parts give the empty word."""
    if len(parts) <= 1:
        return parts[0] if parts else Epsilon()
    half = len(parts) // 2
    return Concat(_balanced_concat(parts[:half]), _balanced_concat(parts[half:]))


def word_expr(w: str) -> ParamRegex:
    """Expression denoting exactly the word ``w`` (``_`` for the empty word)."""
    return _balanced_concat([Lit(ch) for ch in w])


def concat_exprs(parts: list[ParamRegex] | tuple[ParamRegex, ...]) -> ParamRegex:
    """Right-folded concatenation of ``parts``; empty list gives the empty word."""
    if not parts:
        return Epsilon()
    node = parts[-1]
    for part in reversed(parts[:-1]):
        node = Concat(part, node)
    return node


def union_exprs(parts: list[ParamRegex] | tuple[ParamRegex, ...]) -> ParamRegex:
    """Right-folded union of ``parts``; empty list gives the empty language."""
    if not parts:
        return EmptySet()
    node = parts[-1]
    for part in reversed(parts[:-1]):
        node = Union(part, node)
    return node
