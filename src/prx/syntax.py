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
between tokens is ignored.  Unions and concatenations fold to the right.
The parser and every walk over a tree (:func:`_walk`, :func:`_fold`) keep
their own stack, so nesting depth meets no recursion limit.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import ParseError

#: Characters that carry grammatical meaning and can never be letters.
RESERVED_CHARS = frozenset("()|*$_@{}")

_IDENT_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*")
_IDENT_CHARS = frozenset(
    "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789_"
)

# Guard against accidental `a{999999999}` blowing up the parse; the repetition
# shorthand exists for small fixed exponents.  Above a count of 1, count times
# the repeated node's size is bounded too, so repetitions cannot multiply out.
_REPEAT_LIMIT = 10000
_EXPANSION_LIMIT = 10**5


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


def _walk(e: ParamRegex) -> Iterator[tuple[ParamRegex, bool]]:
    """Every node of ``e`` in depth-first, left-to-right order, as
    ``(node, True)`` when it is entered and ``(node, False)`` once its
    children are done.  The stack is explicit, so depth meets no recursion
    limit; a shared subtree is walked once per occurrence."""
    stack: list[tuple[ParamRegex, bool]] = [(e, True)]
    while stack:
        item = stack.pop()
        yield item
        node, entering = item
        if not entering:
            continue
        if isinstance(node, (Concat, Union)):
            stack += ((node, False), (node.right, True), (node.left, True))
        elif isinstance(node, Star):
            stack += ((node, False), (node.inner, True))
        else:
            yield node, False


_T = TypeVar("_T")


def _fold(e: ParamRegex, combine: Callable[..., _T]) -> _T:
    """``combine(node, *values)`` applied bottom-up over ``e``, the values
    being those of the node's children, left to right; returns the root's."""
    values: list[_T] = []
    for node, entering in _walk(e):
        if entering:
            continue
        if isinstance(node, (Concat, Union)):
            right = values.pop()
            values[-1] = combine(node, values[-1], right)
        elif isinstance(node, Star):
            values[-1] = combine(node, values[-1])
        else:
            values.append(combine(node))
    return values[0]


# ---------------------------------------------------------------------------
# Parsing


class _Parser:
    """One left-to-right pass over the grammar above, with a stack frame per
    open parenthesis (and one for the whole text): the finished branches of
    its union and the repetitions of the branch being read."""

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

    def parse(self) -> ParamRegex:
        frames: list[tuple[list[ParamRegex], list[ParamRegex]]] = [([], [])]
        branches, reps = frames[-1]
        while True:
            ch = self.peek()
            if reps and ch == "*":
                self.pos += 1
                reps[-1] = Star(reps[-1])
            elif reps and ch == "{":
                reps[-1] = self._parse_repeat(reps[-1])
            elif reps and ch == "|":
                self.pos += 1
                branches.append(concat_exprs(reps))
                reps.clear()
            elif reps and ch in (")", None):
                node = union_exprs(branches + [concat_exprs(reps)])
                if ch is None and len(frames) == 1:
                    return node
                if ch is None or len(frames) == 1:
                    self.fail("expected ')'" if ch is None else "unexpected ')'")
                self.pos += 1
                frames.pop()
                branches, reps = frames[-1]
                reps.append(node)
            elif ch == "(":
                self.pos += 1
                frames.append(([], []))
                branches, reps = frames[-1]
            else:
                reps.append(self.parse_atom())

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
        if count > 1 and count * size(node) > _EXPANSION_LIMIT:
            self.fail(f"repetition expands past the limit of {_EXPANSION_LIMIT} nodes", open_pos)
        return concat_exprs([node] * count)

    def parse_atom(self) -> ParamRegex:
        ch = self.peek()
        if ch is None:
            self.fail("expected an expression")
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

    The ``{n}`` shorthand is expanded during parsing into a right-folded
    concatenation of n copies of one shared node (``{0}`` yields the empty
    word).  Raises :class:`~prx.errors.ParseError` with the offending
    position on malformed input, letters outside the alphabet, and
    repetitions past their limits.
    """
    return _Parser(text, alphabet).parse()


# ---------------------------------------------------------------------------
# Printing

# Precedence levels used by the printer: union < concatenation < star < atom.
_LEVEL_UNION = 0
_LEVEL_CONCAT = 1
_LEVEL_STAR = 2
_LEVEL_ATOM = 3


def _needs_space(written: list[str], text: str) -> bool:
    # A printed variable ends in identifier characters; if the next piece also
    # starts with one, the re-parse would extend the variable name.  A single
    # space (ignored by the parser) keeps the boundary.  Pieces are written
    # whole, and only a variable's starts with "$".
    return bool(written) and written[-1][0] == "$" and text[0] in _IDENT_CHARS


def _level(node: ParamRegex) -> int:
    if isinstance(node, Union):
        return _LEVEL_UNION
    if isinstance(node, Concat):
        return _LEVEL_CONCAT
    return _LEVEL_STAR if isinstance(node, Star) else _LEVEL_ATOM


def _atom_text(node: ParamRegex) -> str:
    if isinstance(node, EmptySet):
        return "@"
    if isinstance(node, Epsilon):
        return "_"
    if isinstance(node, Lit):
        return node.letter
    if isinstance(node, Var):
        return "$" + node.name
    raise TypeError(f"not an expression node: {node!r}")


def print_regex(e: ParamRegex) -> str:
    """Render an AST back to a string that parses to a structurally equal AST.

    Parentheses are inserted only where precedence or grouping requires them;
    in particular left-nested unions/concatenations keep their grouping
    (``Union(Union(a,b),c)`` prints as ``(a|b)|c``).  The pieces are written
    left to right into one list from an explicit stack, so printing takes
    time linear in the output and nesting depth meets no recursion limit.
    """
    written: list[str] = []
    # A node with the least level it may print at unparenthesized, or a
    # piece of text to write once everything above it on the stack is written.
    stack: list[tuple[ParamRegex, int] | str] = [(e, _LEVEL_UNION)]
    while stack:
        item = stack.pop()
        if isinstance(item, str):
            written.append(item)
            continue
        node, least = item
        if _level(node) < least:
            written.append("(")
            stack.append(")")
        if isinstance(node, Union):
            stack += ((node.right, _LEVEL_UNION), "|", (node.left, _LEVEL_CONCAT))
        elif isinstance(node, Concat):
            stack += ((node.right, _LEVEL_CONCAT), (node.left, _LEVEL_STAR))
        elif isinstance(node, Star):
            stack += ("*", (node.inner, _LEVEL_STAR))
        else:
            text = _atom_text(node)
            if _needs_space(written, text):
                written.append(" ")
            written.append(text)
    return "".join(written)


# ---------------------------------------------------------------------------
# Structural queries


def size(e: ParamRegex) -> int:
    """Number of AST nodes."""
    return sum(entering for _, entering in _walk(e))


def _var_occurrences(e: ParamRegex) -> list[str]:
    return [node.name for node, entering in _walk(e) if entering and isinstance(node, Var)]


def variables(e: ParamRegex) -> tuple[str, ...]:
    """Distinct variable names in first-occurrence (left-to-right) order."""
    return tuple(dict.fromkeys(_var_occurrences(e)))


def is_simple(e: ParamRegex) -> bool:
    """True iff no variable occurs more than once in the expression."""
    occurrences = _var_occurrences(e)
    return len(occurrences) == len(set(occurrences))


def star_height(e: ParamRegex) -> int:
    """Maximal nesting depth of stars; 0 means the expression is star-free."""
    height = depth = 0
    for node, entering in _walk(e):
        if isinstance(node, Star):
            depth += 1 if entering else -1
            height = max(height, depth)
    return height


# ---------------------------------------------------------------------------
# Small construction helpers used across the package


def word_expr(w: str) -> ParamRegex:
    """Expression denoting exactly the word ``w`` (``_`` for the empty word)."""
    return concat_exprs([Lit(ch) for ch in w])


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
