"""The three workloads: seeded prx CLI jobs, each with its reference outcome.

A job is one argument vector for the ``prx`` command line plus a check that
compares the printed output and exit code with an outcome computed by
``reference`` (never by prx).  A workload is a list of blocks; every block of
a workload has the same composition by job class, so a run that stops at a
block boundary runs the same mix whatever its length.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles
import reference as ref
from reference import Concat, Lit, Star, Union, Var
from test_acceptance import (
    _INFINITE_DOMAINS,
    _aligned_blocks_member,
    _power_member,
    _shortest_covering_length,
)

Check = Callable[[int, str], "str | None"]


@dataclass
class Job:
    args: list[str]
    cls: str
    check: Check
    light: bool = False  # eligible for the subprocess sample
    files: dict[str, str] = field(default_factory=dict)  # path -> content


def expect(code: int, lines: list[str]) -> Check:
    """Exact stdout and exit code."""
    want = "".join(line + "\n" for line in lines)

    def check(got_code: int, out: str) -> str | None:
        if got_code != code or out != want:
            return f"expected exit {code} and {want!r}, got exit {got_code} and {out[:200]!r}"
        return None

    return check


def _answer_lines(answer: bool, *rest: str | None) -> list[str]:
    return ["true" if answer else "false"] + [x for x in rest if x is not None]


def _word_text(w: str | None) -> str | None:
    return None if w is None else (w or "_")


def _parse_valuation(line: str) -> dict[str, str] | None:
    if not line:
        return {}
    out = {}
    for pair in line.split(","):
        name, sep, image = pair.partition("=")
        if not sep:
            return None
        out[name] = "" if image == "_" else image
    return out


def _decision(cmd: str, letters: str, sem: str | None, *extra: str) -> list[str]:
    args = [cmd, "--alphabet", letters]
    if sem is not None:
        args += ["--semantics", sem]
    return args + list(extra)


def _cat(parts):
    """Right-nested concatenation of a nonempty list of trees."""
    node = parts[-1]
    for part in reversed(parts[:-1]):
        node = Concat(part, node)
    return node


def _alt(parts):
    """Right-nested union of a nonempty list of trees."""
    node = parts[-1]
    for part in reversed(parts[:-1]):
        node = Union(part, node)
    return node


_BIT = Union(Lit("0"), Lit("1"))
_TRIT = _alt([Lit("0"), Lit("1"), Lit("2")])


def _nodes(e) -> int:
    if isinstance(e, (Concat, Union)):
        return 1 + _nodes(e.left) + _nodes(e.right)
    if isinstance(e, Star):
        return 1 + _nodes(e.inner)
    return 1


# ---------------------------------------------------------------------------
# Checks that are not exact text


def _json_nfa_accepts(nfa: dict, w: str) -> bool:
    """Simulate an automaton printed by ``build-nfa --format json``."""
    adj: dict[int, list] = {}
    for src, label, dst in nfa["transitions"]:
        adj.setdefault(src, []).append((label, dst))
    finals = set(nfa["finals"])
    seen = set()
    stack = [(nfa["initial"], 0)]
    while stack:
        q, i = stack.pop()
        if (q, i) in seen:
            continue
        seen.add((q, i))
        if i == len(w) and q in finals:
            return True
        for label, dst in adj.get(q, ()):
            if "eps" in label:
                stack.append((dst, i))
            elif "letter" in label:
                if i < len(w) and w[i] == label["letter"]:
                    stack.append((dst, i + 1))
            elif "word" in label:
                if w.startswith(label["word"], i):
                    stack.append((dst, i + len(label["word"])))
            else:
                raise ValueError(f"label {label!r} in a variable-free automaton")
    return False


def language_check(want: dict[str, bool]) -> Check:
    """build-nfa JSON output must accept exactly the words ``want`` marks true."""

    def check(code: int, out: str) -> str | None:
        if code != 0:
            return f"build-nfa exited {code}"
        try:
            nfa = json.loads(out)
            for w in want:
                if _json_nfa_accepts(nfa, w) != want[w]:
                    return f"automaton {'accepts' if not want[w] else 'rejects'} {w or '_'!r}"
        except (ValueError, KeyError, TypeError) as err:
            return f"unreadable automaton: {err}"
        return None

    return check


def shortest_check(w: str | None, answer_if_found: bool, ok: Callable[[str], bool]) -> Check:
    """Where prx searches a nondeterministic automaton, its witness is a
    shortest one but not always shortlex-least: the witness must have the
    reference's length and pass ``ok``."""
    if w is None:
        return expect(1 if answer_if_found else 0, _answer_lines(not answer_if_found))
    head = "true" if answer_if_found else "false"

    def check(code: int, out: str) -> str | None:
        lines = out.split("\n")
        if code != (0 if answer_if_found else 1) or len(lines) != 3 or lines[0] != head or lines[2]:
            return f"expected {head} and a witness, got exit {code} and {out[:200]!r}"
        got = "" if lines[1] == "_" else lines[1]
        if len(got) != len(w):
            return f"witness {got!r} is not of the shortest length {len(w)}"
        if not ok(got):
            return f"witness {got!r} does not re-verify"
        return None

    return check


def diamond_nonempty_check(e, letters: str, length: int | None) -> Check:
    """Diamond nonemptiness promises a shortest witness, matched under the
    reported valuation, which is the first one (every variable the first letter)."""
    if length is None:
        return expect(1, ["false"])
    first = {name: letters[0] for name in ref.var_order(e)}

    def check(code: int, out: str) -> str | None:
        lines = out.split("\n")
        if code != 0 or len(lines) != 4 or lines[0] != "true" or lines[3] != "":
            return f"expected true, a witness and a valuation, got exit {code} and {out[:200]!r}"
        w = "" if lines[1] == "_" else lines[1]
        if len(w) != length:
            return f"witness {w!r} is not of the shortest length {length}"
        if lines[2] != ref.valuation_text(first):
            return f"valuation {lines[2]!r} is not the first one"
        if not oracles.matches(oracles.substitute(e, first), w):
            return f"witness {w!r} is not matched under {lines[2]!r}"
        return None

    return check


def fixed_word_check(e, w: str, answer: bool) -> Check:
    """The fixed-word diamond search reports some accepting valuation, not
    necessarily the first: it must bind every variable and re-verify."""
    if not answer:
        return expect(1, ["false"])
    names = set(ref.var_order(e))
    if not names:
        return expect(0, ["true", ""])

    def check(code: int, out: str) -> str | None:
        lines = out.split("\n")
        if code != 0 or len(lines) != 3 or lines[0] != "true" or lines[2] != "":
            return f"expected true and a valuation, got exit {code} and {out[:200]!r}"
        nu = _parse_valuation(lines[1])
        if nu is None or set(nu) != names or any(len(v) != 1 for v in nu.values()):
            return f"valuation {lines[1]!r} does not bind each variable to a letter"
        if not oracles.matches(oracles.substitute(e, nu), w):
            return f"valuation {lines[1]!r} does not accept {w!r}"
        return None

    return check


# ---------------------------------------------------------------------------
# corpus


def _corpus_expr(rng, letters: str, want: Callable = lambda e: True):
    alphabet = oracles.Alphabet(letters)
    while True:
        e = oracles.random_expr(rng, alphabet, ("x", "y", "z"), rng.randint(3, 12))
        if _nodes(e) <= 12 and len(ref.var_order(e)) <= 3 and want(e):
            return e


def _simple(e) -> bool:
    occ = ref.occurrences(e)
    return len(occ) == len(set(occ))


def _corpus_word(rng, e, letters: str) -> str:
    """Half the time a word of a random instance, so answers vary."""
    if rng.random() < 0.5:
        nu = {name: rng.choice(letters) for name in ref.var_order(e)}
        words = sorted(oracles.bounded_language(oracles.substitute(e, nu), 6))
        if words:
            return rng.choice(words)
    return "".join(rng.choice(letters) for _ in range(rng.randint(0, 6)))


def _member(rng, letters, sem):
    e = _corpus_expr(rng, letters)
    w = _corpus_word(rng, e, letters)
    answer, nu = ref.membership(e, w, letters, sem == "box")
    args = _decision("member", letters, sem, "--expr", ref.text(e), "--word", w or "_", "--witness")
    valuation = None if nu is None else ref.valuation_text(nu)
    return args, expect(0 if answer else 1, _answer_lines(answer, valuation))


def _nonempty(rng, letters, sem):
    e = _corpus_expr(rng, letters)
    D = ref.Derivatives()
    w = ref.shortest_member(ref.language(D, e, letters, sem == "box"), letters)
    args = _decision("nonempty", letters, sem, "--expr", ref.text(e), "--witness")
    if sem == "diamond":
        return args, diamond_nonempty_check(e, letters, None if w is None else len(w))
    return args, expect(0 if w is not None else 1, _answer_lines(w is not None, _word_text(w)))


def _universal(rng, letters, sem):
    e = _corpus_expr(rng, letters)
    args = _decision("universal", letters, sem, "--expr", ref.text(e), "--witness")
    return args, universal_check(e, letters, sem == "box")


def universal_check(e, letters: str, box: bool) -> Check:
    D = ref.Derivatives()
    if not box:
        w = ref.shortest_nonmember(ref.language(D, e, letters, False), letters)
        return expect(0 if w is None else 1, _answer_lines(w is None, _word_text(w)))
    # Box universality: the first valuation whose instance is not universal,
    # with that instance's shortlex-least missing word.  A top-level union
    # branch that is variable-free and universal makes every instance
    # universal, which spares the scan.
    branches, stack = [], [e]
    while stack:
        node = stack.pop()
        if isinstance(node, Union):
            stack += [node.right, node.left]
        else:
            branches.append(node)
    for b in branches:
        if not ref.var_order(b):
            if ref.shortest_nonmember(ref.Language(D, [D.of(b)], True), letters) is None:
                return expect(0, ["true"])
    for nu, inst in ref.instances(e, letters):
        w = ref.shortest_nonmember(ref.Language(D, [D.of(inst)], True), letters)
        if w is not None:
            return expect(1, ["false", w or "_", ref.valuation_text(nu)])
    return expect(0, ["true"])


def _contains(rng, letters, sem):
    lhs, rhs = _corpus_expr(rng, letters), _corpus_expr(rng, letters)
    D = ref.Derivatives()
    box = sem == "box"
    left, right = ref.language(D, lhs, letters, box), ref.language(D, rhs, letters, box)
    w = ref.shortest_separator(left, right, letters)
    args = _decision(
        "contains", letters, sem, "--lhs", ref.text(lhs), "--rhs", ref.text(rhs), "--witness"
    )
    if box:  # the left side is a deterministic product: shortlex-least separator
        return args, expect(0 if w is None else 1, _answer_lines(w is None, _word_text(w)))
    return args, shortest_check(w, False, lambda u: left.member(u) and not right.member(u))


def _intersect(rng, letters, sem):
    e = _corpus_expr(rng, letters)
    alphabet = oracles.Alphabet(letters)
    while True:
        r = oracles.random_expr(rng, alphabet, (), rng.randint(2, 8))
        if _nodes(r) <= 8:
            break
    D = ref.Derivatives()
    left, right = ref.language(D, e, letters, sem == "box"), ref.Language(D, [D.of(r)], True)
    w = ref.shortest_common(left, right, letters)
    args = _decision(
        "intersect", letters, sem, "--expr", ref.text(e), "--regular", ref.text(r), "--witness"
    )
    # The regular side stays a nondeterministic automaton.
    return args, shortest_check(w, True, lambda u: left.member(u) and right.member(u))


def _fast_member_box(rng, letters):
    e = _corpus_expr(rng, letters, _simple)
    w = _corpus_word(rng, e, letters)
    answer, _ = ref.membership(e, w, letters, True)
    args = _decision(
        "member", letters, "box", "--expr", ref.text(e), "--word", w or "_", "--fast", "--witness"
    )
    return args, expect(0 if answer else 1, _answer_lines(answer))


def _fast_member_diamond(rng, letters, flat_simple: bool):
    """flat_simple picks the star-free simple route, otherwise the fixed-word search."""
    want = (lambda e: _simple(e) and not ref.has_star(e)) if flat_simple else (
        lambda e: not (_simple(e) and not ref.has_star(e))
    )
    e = _corpus_expr(rng, letters, want)
    w = _corpus_word(rng, e, letters)
    answer, _ = ref.membership(e, w, letters, False)
    args = _decision(
        "member", letters, "diamond", "--expr", ref.text(e), "--word", w or "_", "--fast",
        "--witness",
    )
    if flat_simple:
        return args, expect(0 if answer else 1, _answer_lines(answer))
    return args, fixed_word_check(e, w, answer)


def _fast_nonempty_box(rng, letters):
    e = _corpus_expr(rng, letters, lambda e: not ref.has_star(e))
    D = ref.Derivatives()
    w = ref.shortest_member(ref.language(D, e, letters, True), letters)
    args = _decision("nonempty", letters, "box", "--expr", ref.text(e), "--fast", "--witness")
    return args, expect(0 if w is not None else 1, _answer_lines(w is not None, _word_text(w)))


# Regular domains (alphabet 01, drawn as in criterion 6 of the acceptance
# tests).  An image longer than every probed word acts like an infinite
# domain's long words, so one long representative per infinite domain makes
# the references exact for words of length <= 6.


def _domain_spec(rng, names, infinite: bool):
    """(JSON mapping, per-variable reference images, finite names)."""
    inf_names = set(rng.sample(list(names), rng.randint(1, len(names)))) if infinite else set()
    mapping, images = {}, {}
    for name in names:
        if name in inf_names:
            dom, long_word = _INFINITE_DOMAINS[rng.randrange(len(_INFINITE_DOMAINS))]
            mapping[name], images[name] = dom, [long_word]
        else:
            pool = ref.shortlex(
                {"".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
                 for _ in range(rng.randint(1, 4))},
                "01",
            )
            mapping[name] = "|".join(w or "_" for w in pool)
            images[name] = pool
    return mapping, images, [n for n in names if n not in inf_names]


def _domain_job(rng, workdir: str, index: int, kind: str):
    infinite = kind.endswith("finitary")
    e = _corpus_expr(rng, "01", lambda e: 1 <= len(ref.var_order(e)))
    names = ref.var_order(e)
    mapping, images, finite = _domain_spec(rng, names, infinite)
    path = f"{workdir}/domains-{index}.json"
    files = {path: json.dumps(mapping)}
    combos = [dict(zip(names, c)) for c in itertools.product(*(images[n] for n in names))]
    expr = ref.text(e)
    if kind.startswith("member"):
        box = not kind.startswith("member_diamond")
        w = _corpus_word(rng, e, "01")
        found = None
        for nu in combos:
            if oracles.matches(oracles.substitute(e, nu), w) != box:
                found = {n: nu[n] for n in finite}
                break
        answer = (found is None) if box else (found is not None)
        args = _decision("member", "01", "box" if box else "diamond", "--expr", expr,
                         "--word", w or "_", "--domains", path, "--witness")
        valuation = None if found is None else ref.valuation_text(found)
        return args, expect(0 if answer else 1, _answer_lines(answer, valuation)), files
    D = ref.Derivatives()
    box = "diamond" not in kind
    lang = ref.Language(D, [D.of(oracles.substitute(e, nu)) for nu in combos], box)
    if kind.startswith("nonempty"):
        w = ref.shortest_member(lang, "01")
        args = _decision("nonempty", "01", "box" if box else "diamond", "--expr", expr,
                         "--domains", path, "--witness")
        if box:  # a deterministic product: shortlex-least witness
            check = expect(0 if w is not None else 1, _answer_lines(w is not None, _word_text(w)))
            return args, check, files
        return args, shortest_check(w, True, lang.member), files

    args = _decision("build-nfa", "01", "box" if box else "diamond", "--expr", expr,
                     "--domains", path, "--format", "json")
    return args, language_check(lang.members_upto("01", 6)), files


CORPUS_CLASSES = (
    "member_box", "member_box", "member_diamond", "member_diamond",
    "nonempty_box", "nonempty_diamond", "universal_box", "universal_diamond",
    "contains_box", "contains_diamond", "intersect_box", "intersect_diamond",
    "fast_member_box", "fast_member_diamond_sh0", "fast_member_diamond",
    "fast_nonempty_box",
    "member_box_enumerate", "member_diamond_enumerate", "member_box_finitary",
    "nonempty_box_enumerate", "nonempty_diamond_enumerate",
    "build_box_enumerate", "build_diamond_enumerate", "build_box_finitary",
)


def _corpus_job(rng, cls: str, workdir: str, index: int) -> Job:
    letters = "012" if rng.random() < 0.3 else "01"
    files: dict[str, str] = {}
    if cls.endswith(("enumerate", "finitary")):
        args, check, files = _domain_job(rng, workdir, index, cls)
    elif cls.startswith("fast_member_diamond"):
        args, check = _fast_member_diamond(rng, letters, cls.endswith("sh0"))
    elif cls == "fast_member_box":
        args, check = _fast_member_box(rng, letters)
    elif cls == "fast_nonempty_box":
        args, check = _fast_nonempty_box(rng, letters)
    else:
        problem, sem = cls.split("_")
        maker = {"member": _member, "nonempty": _nonempty, "universal": _universal,
                 "contains": _contains, "intersect": _intersect}[problem]
        args, check = maker(rng, letters, sem)
    return Job(args, cls, check, light=True, files=files)


def corpus(seed: int, workdir: str, blocks: int = 40) -> list[list[Job]]:
    """Seeded acceptance-corpus traffic: small random expressions (size <= 12,
    at most 3 variables), every problem under both semantics, the fast paths
    where their preconditions hold, and both regular-domain routes."""
    rng = random.Random(seed)
    out = []
    for b in range(blocks):
        classes = list(CORPUS_CLASSES)
        rng.shuffle(classes)
        block = []
        for cls in classes:
            while True:
                try:
                    block.append(_corpus_job(rng, cls, workdir, b * 100 + len(block)))
                    break
                except ref.ReferenceTooLarge:
                    continue
        out.append(block)
    return out


# ---------------------------------------------------------------------------
# valuation_scan


def _scan_expr(rng, k: int, pure_vars: int, kinds: list[str] | None = None):
    """A simple star-free concatenation over 012 with k variables and two
    fixed letters.  The first ``pure_vars`` slots are a bare variable; the
    others alternate $x|0|1|2 (any letter) and $x|a (the letter a, or the
    variable's image); the fixed letters follow the first slot and the middle
    one.  The order is fixed and only the letters are drawn, because the cost
    of a full scan depends on the shape: shuffled slots made it vary by half
    between seeds.  ``kinds`` overrides the slot kinds.  Returns the
    expression and per-slot (kind, letter) in order."""
    if kinds is None:
        kinds = ["var"] * pure_vars + ["any" if i % 2 == 0 else "or" for i in range(k - pure_vars)]
        kinds.insert(k // 2 + 1, "lit")
        kinds.insert(1, "lit")
    slots, parts, v = [], [], 0
    for kind in kinds:
        a = rng.choice("012")
        if kind == "lit":
            parts.append(Lit(a))
        else:
            v += 1
            x = Var(f"x{v}")
            if kind == "any":
                parts.append(Union(x, _TRIT))
            elif kind == "or":
                parts.append(Union(x, Lit(a)))
            else:
                parts.append(x)
        slots.append((kind, a))
    return _cat(parts), slots


def _scan_word(rng, slots, var_letter: str | None, break_lit: bool) -> str:
    """A word of one letter per slot: fixed letters kept (one of them changed
    if break_lit), 'or' slots given their letter, bare variables var_letter
    (random if None), 'any' slots random."""
    letters = []
    lits = [i for i, (kind, _) in enumerate(slots) if kind == "lit"]
    broken = rng.choice(lits) if break_lit else None
    for i, (kind, a) in enumerate(slots):
        if i == broken:
            letters.append(rng.choice([c for c in "012" if c != a]))
        elif kind in ("lit", "or"):
            letters.append(a)
        elif kind == "var" and var_letter is not None:
            letters.append(var_letter)
        else:
            letters.append(rng.choice("012"))
    return "".join(letters)


def _scan_member(e, w: str, sem: str, fast: bool) -> tuple[list[str], Check]:
    answer, nu = ref.membership(e, w, "012", sem == "box")
    args = _decision("member", "012", sem, "--expr", ref.text(e), "--word", w)
    if fast:
        return args + ["--fast"], expect(0 if answer else 1, _answer_lines(answer))
    valuation = None if nu is None else ref.valuation_text(nu)
    return args + ["--witness"], expect(0 if answer else 1, _answer_lines(answer, valuation))


def valuation_scan(seed: int, workdir: str) -> list[list[Job]]:
    """Expressions with 6 to 10 variables over 012 (729 to 59 049 valuations):
    box and diamond membership, box universality and --fast membership.
    Full scans (box true, diamond false, box universal) stay at k <= 8;
    k = 9 and 10 only run scans that stop at the first valuation."""
    rng = random.Random(seed)
    block: list[Job] = []

    def add(cls, args_check, light=False):
        args, check = args_check
        block.append(Job(args, cls, check, light=light))

    for k in (6, 7, 8):
        e, slots = _scan_expr(rng, k, pure_vars=0)
        full_word = _scan_word(rng, slots, None, break_lit=False)  # box true
        broken = _scan_word(rng, slots, None, break_lit=True)  # diamond false
        add(f"member_box_full_k{k}", _scan_member(e, full_word, "box", False))
        if k < 8:
            add(f"member_diamond_full_k{k}", _scan_member(e, broken, "diamond", False))
            universal = Union(Star(_TRIT), e)
            add(f"universal_box_full_k{k}", (
                _decision("universal", "012", "box", "--expr", ref.text(universal), "--witness"),
                universal_check(universal, "012", True),
            ))
        add(f"fast_member_diamond_k{k}", _scan_member(e, broken, "diamond", True), light=True)
    # The box fast path grows about 12x per extra letter of the word (ROADMAP
    # item 1): on the expressions above it takes 0.2 s at k = 6, 7 s at k = 8,
    # with seed-to-seed swings in time and memory that would drown the rest.
    # It runs on k slots of $x|0|1|2 instead (5 ms at k = 6, 35 ms at k = 7).
    for k in (6, 7):
        e = _scan_expr(rng, k, pure_vars=0, kinds=["any"] * k)[0]
        w = "".join(rng.choice("012") for _ in range(k))
        add(f"fast_member_box_k{k}", _scan_member(e, w, "box", True), light=k == 6)
    for k in (9, 10):
        e, slots = _scan_expr(rng, k, pure_vars=2)
        # Bare variables read a letter other than the first: the first
        # valuation already rejects (box) ...
        early_false = _scan_word(rng, slots, rng.choice("12"), break_lit=False)
        # ... or, reading the first letter, already accepts (diamond).
        early_true = _scan_word(rng, slots, "0", break_lit=False)
        add(f"member_box_early_k{k}", _scan_member(e, early_false, "box", False), light=True)
        add(f"member_diamond_early_k{k}", _scan_member(e, early_true, "diamond", False), light=True)
        add(f"universal_box_early_k{k}", (
            _decision("universal", "012", "box", "--expr", ref.text(e), "--witness"),
            universal_check(e, "012", True),
        ), light=True)
        add(f"fast_member_diamond_k{k}", _scan_member(e, early_true, "diamond", True), light=True)
    return [block]


# ---------------------------------------------------------------------------
# families


def _vars(n: int) -> list:
    return [Var(f"x{i}") for i in range(1, n + 1)]


def _subword(n: int):
    """(0|1)* x1 ... xn (0|1)*"""
    return _cat([Star(_BIT)] + _vars(n) + [Star(_BIT)])


def _doubleexp(n: int):
    """((0|1)^(n+1))* x1 ... x(n+1) ((0|1)^(n+1))*"""
    block = Star(_cat([_BIT] * (n + 1)))
    return _cat([block] + _vars(n + 1) + [block])


def _power(n: int):
    """(x1 ... xn)*"""
    return Star(_cat(_vars(n)))


def _family_member(tree, w: str, box: bool, closed_form: bool) -> tuple[list[str], Check]:
    """Membership of w with --witness; the answer must agree with the
    family's closed form, the reported valuation comes from the matcher."""
    answer, nu = ref.membership(tree, w, "01", box)
    if answer != closed_form:
        raise RuntimeError(f"closed form and valuation matcher disagree on {w!r}")
    args = _decision("member", "01", "box" if box else "diamond", "--expr", ref.text(tree),
                     "--word", w, "--witness")
    valuation = None if nu is None else ref.valuation_text(nu)
    return args, expect(0 if answer else 1, _answer_lines(answer, valuation))


def _doubleexp_member(n: int) -> Callable[[str], bool]:
    if n == 1:
        return _aligned_blocks_member
    tree = _doubleexp(n)
    space = ref.ValuationSpace(ref.var_order(tree), "01")
    return lambda w: space.match(tree, w) == space.full


def _lemma3(es):
    """Lemma 3's fold of a tuple into one expression whose certainty language
    is empty iff the intersection of the tuple's certainty languages is
    (alphabet 01: 0 is the counted marker, 1 the fence)."""
    k = len(es)
    others = Star(Lit("1"))
    one_marker = _cat([others, Lit("0"), others])
    separator = _cat([Lit("1")] + [Lit("0")] * k + [Lit("1")])
    branches = [_cat([separator, es[0]])]
    for i in range(2, k + 1):
        branches.append(_cat([Lit("1")] + [one_marker] * (i - 1) + [separator, es[i - 1]]))
    prefix = [others]
    for i in range(1, k):
        prefix += [Var(f"L3_{i}"), others]
    return _cat(prefix + [_alt(branches)])


def _lemma3_job(rng) -> tuple[list[str], Check]:
    """Box nonemptiness of a folded tuple of 2 or 3 random expressions."""
    pool = (("x",), ("x", "y"))[rng.randrange(2)]
    es, size = [], rng.randint(2, 3)
    while len(es) < size:
        cand = oracles.random_expr(rng, oracles.Alphabet("01"), pool, rng.randint(2, 6))
        if _nodes(cand) <= 6:
            es.append(cand)
    combined = _lemma3(es)
    D = ref.Derivatives()
    parts = [D.of(inst) for e in es for _, inst in ref.instances(e, "01")]
    shared = ref.shortest_member(ref.Language(D, parts, True), "01")
    w = ref.shortest_member(ref.language(D, combined, "01", True), "01")
    if (shared is None) != (w is None):
        raise RuntimeError("the reference disagrees with lemma 3 on a tuple")
    args = _decision("nonempty", "01", "box", "--expr", ref.text(combined), "--witness")
    return args, expect(0 if w is not None else 1, _answer_lines(w is not None, _word_text(w)))


def families(seed: int, workdir: str) -> list[list[Job]]:
    """The paper's lower-bound families at growing n over 01."""
    rng = random.Random(seed)
    block: list[Job] = []

    def add(cls, args, check, light=False):
        block.append(Job(args, cls, check, light=light))

    for n in (2, 3, 4):
        w = ref.shortest_covering_word(n)
        if len(w) != _shortest_covering_length(n):
            raise RuntimeError(f"covering word of the wrong length for n={n}")
        add(f"nonempty_box_subword_n{n}",
            _decision("nonempty", "01", "box", "--expr", ref.text(_subword(n)), "--witness"),
            expect(0, ["true", w]), light=n < 4)
    for n in (2, 3):
        # L(n) \ L(n+1) starts with the shortest n-covering word, which is too
        # short to hold every (n+1)-block.
        add(f"contains_box_subword_n{n}",
            _decision("contains", "01", "box", "--lhs", ref.text(_subword(n)),
                      "--rhs", ref.text(_subword(n + 1)), "--witness"),
            expect(1, ["false", ref.shortest_covering_word(n)]))
    for n in (1, 2):
        member, expr = _doubleexp_member(n), ref.text(_doubleexp(n))
        pairs = ref.fooling_pairs_box(n)
        words = list(ref.words_upto("01", 6))
        for u, v in rng.sample(pairs, min(4, len(pairs))):
            words += [u + v, v + u, u + u, (u + v)[1:] + "0"]
        add(f"build_box_doubleexp_n{n}",
            _decision("build-nfa", "01", "box", "--expr", expr, "--format", "json"),
            language_check({w: member(w) for w in words}))
        u, v = rng.choice(pairs)
        for w in (u + v, u + u):
            add(f"member_box_doubleexp_n{n}", *_family_member(_doubleexp(n), w, True, member(w)),
                light=True)
    # Membership in the families of seeded words: 24 light jobs that make the
    # middle of the latency distribution dense, so that its median does not
    # sit on the jump between the light and the heavy jobs above and below.
    for n in (2, 3, 4):
        tree = _subword(n)
        grams = set(ref.power_words(n))
        for _ in range(4):
            w = "".join(rng.choice("01") for _ in range(2**n + n + 2))
            covers = {w[i : i + n] for i in range(len(w) - n + 1)} == grams
            add(f"member_box_subword_n{n}", *_family_member(tree, w, True, covers), light=True)
    for n in (3, 5):
        tree, member = _power(n), _power_member(n)
        for _ in range(6):
            u = "".join(rng.choice("01") for _ in range(n))
            w = u * rng.randint(1, 4) if rng.random() < 0.5 else u + u[::-1] + u[:1]
            add(f"member_diamond_power_n{n}", *_family_member(tree, w, False, member(w)),
                light=True)
    for n in (2, 4, 6, 8, 9, 10):
        member = _power_member(n)
        w = next(u for u in ref.words_upto("01", n + 1) if not member(u))
        add(f"universal_diamond_power_n{n}",
            _decision("universal", "01", "diamond", "--expr", ref.text(_power(n)), "--witness"),
            expect(1, ["false", w]), light=n <= 6)
    for n in (4, 7, 9, 10):
        member = _power_member(n)
        words = list(ref.words_upto("01", 6))
        for _ in range(12):
            u = "".join(rng.choice("01") for _ in range(n))
            words += [u * 2, u * 3, u + u[::-1], (u * 2)[:-1]]
        add(f"build_diamond_power_n{n}",
            _decision("build-nfa", "01", "diamond", "--expr", ref.text(_power(n)), "--format",
                      "json"),
            language_check({w: member(w) for w in words}))
    for n in (1, 2, 3, 4, 5):
        pairs = [(w, w) for w in ref.power_words(n)]
        bound = ref.fooling_bound(pairs, _power_member(n))
        add(f"fooling_diamond_n{n}", ["fooling", "verify", "--kind", "diamond", "--n", str(n)],
            expect(0, [f"verified: every NFA for this language needs at least {bound} states"]),
            light=n <= 3)
    bound = ref.fooling_bound(ref.fooling_pairs_box(1), _aligned_blocks_member)
    add("fooling_box_n1", ["fooling", "verify", "--kind", "box", "--n", "1"],
        expect(0, [f"verified: every NFA for this language needs at least {bound} states"]),
        light=True)
    for _ in range(4):
        args, check = _lemma3_job(rng)
        add("nonempty_box_lemma3", args, check, light=True)
    rng.shuffle(block)
    return [block]


WORKLOADS = {"corpus": corpus, "valuation_scan": valuation_scan, "families": families}
