"""End-to-end acceptance checks.

Each test covers one acceptance criterion and asserts the runtime budget it
is expected to meet; ``pytest -v tests/test_acceptance.py`` therefore prints
one pass/fail line per criterion.  The heavy random corpus is generated once
and shared between the oracle-equivalence sweep (criterion 2) and the
invariant sweep (criterion 8).
"""

from __future__ import annotations

import itertools
import random
import time
from collections import deque
from dataclasses import dataclass

from click.testing import CliRunner

import oracles
from prx.automata import determinize, is_empty, product_all
from prx.cli import main as cli_main
from prx.constructions import (
    family_box_doubleexp,
    family_box_subword,
    family_diamond_power,
    fooling_pairs_box,
    fooling_pairs_diamond,
    lemma3_combine,
    verify_fooling_set,
)
from prx.fast_paths import (
    membership_diamond_fixed_word,
    membership_diamond_simple_sh0,
)
from prx.semantics import (
    BOX,
    DIAMOND,
    construct_nfa,
    containment,
    membership,
    nonemptiness,
    universality,
)
from prx.syntax import Alphabet, is_simple, parse, size, star_height, variables
from prx.valuations import DomainSpec

AB = Alphabet("01")
ABC = Alphabet("012")


# ---------------------------------------------------------------------------
# Shared random corpus (criteria 2 and 8)


@dataclass
class _Record:
    expr: object
    alphabet: Alphabet
    words: tuple[str, ...]
    instances: tuple[tuple[dict, frozenset], ...]
    box: frozenset
    dia: frozenset


_CORPUS: list[_Record] | None = None


def _corpus() -> list[_Record]:
    """500 random expressions with their per-valuation bounded languages.

    Languages are computed purely by the reference set algebra in oracles.py;
    nothing from the library's automata layer is involved, so these sets can
    serve as ground truth for every decision procedure below.
    """
    global _CORPUS
    if _CORPUS is not None:
        return _CORPUS
    rng = random.Random(43317)
    records: list[_Record] = []
    for alphabet, count in ((AB, 350), (ABC, 150)):
        words = tuple(oracles.all_words(alphabet, 6))
        made = 0
        while made < count:
            e = oracles.random_expr(rng, alphabet, ("x", "y", "z"), rng.randint(3, 12))
            if size(e) > 12 or len(variables(e)) > 3:
                continue
            instances = tuple(
                (nu, oracles.bounded_language(oracles.substitute(e, nu), 6))
                for nu in oracles.letter_valuations(variables(e), alphabet)
            )
            langs = [lang for _, lang in instances]
            records.append(
                _Record(
                    expr=e,
                    alphabet=alphabet,
                    words=words,
                    instances=instances,
                    box=frozenset.intersection(*langs),
                    dia=frozenset.union(*langs),
                )
            )
            made += 1
    _CORPUS = records
    return records


def _nfa_language(nfa, words) -> frozenset:
    d = determinize(nfa)
    return frozenset(w for w in words if d.accepts_word(w))


def _shortlex_min(words, alphabet: Alphabet) -> str:
    return min(words, key=lambda u: oracles.shortlex_key(u, alphabet))


# ---------------------------------------------------------------------------
# Criterion 1: worked examples, exact answers


def test_criterion_1_worked_examples():
    start = time.perf_counter()
    sandwich = parse("(0$x)*1($x$y)*", AB)
    assert membership(sandwich, "01110", AB, DIAMOND).answer is True
    assert membership(sandwich, "1", AB, BOX).answer is True

    subword = parse("(0|1)*$x$y(0|1)*", AB)
    assert membership(subword, "10011", AB, BOX).answer is True
    for w in oracles.all_words(AB, 4):
        assert membership(subword, w, AB, BOX).answer is False

    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    print(f"criterion 1 (worked examples): PASS in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 2: oracle equivalence across every decision route


def test_criterion_2_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(43318)
    assert len(_corpus()) >= 500
    for rec in _corpus():
        e, alphabet = rec.expr, rec.alphabet

        # Constructed automata against the reference set algebra.
        assert _nfa_language(construct_nfa(e, alphabet, BOX), rec.words) == rec.box
        assert _nfa_language(construct_nfa(e, alphabet, DIAMOND), rec.words) == rec.dia

        # Fixed-word possibility search runs unconditionally.
        for w in rec.words:
            hit, nu = membership_diamond_fixed_word(e, w, alphabet)
            assert hit == (w in rec.dia)
            if hit and len(w) <= 4:
                assert oracles.matches(oracles.substitute(e, nu.as_dict()), w)

        simple = is_simple(e)
        flat = star_height(e) == 0
        if simple:
            box_words = {
                w for w in rec.words if membership(e, w, alphabet, BOX).answer
            }
            assert box_words == rec.box
        if simple and flat:
            fast_dia = {
                w for w in rec.words if membership_diamond_simple_sh0(e, w, alphabet)
            }
            assert fast_dia == rec.dia
        if flat:
            # Star-free expressions of this size only produce words that the
            # length-6 window already covers, so the bounded set is the whole
            # certainty language and the witness must be its shortlex minimum.
            rep = nonemptiness(e, alphabet, BOX)
            nonempty, witness = rep.answer, rep.witness
            assert nonempty == bool(rec.box)
            if nonempty:
                assert witness == _shortlex_min(rec.box, alphabet)

        # The general per-valuation scan, sampled.
        for w in rng.sample(rec.words, 4):
            rep = membership(e, w, alphabet, BOX)
            assert rep.answer == (w in rec.box)
            if not rep.answer:
                assert not oracles.matches(oracles.substitute(e, rep.valuation), w)
            rep = membership(e, w, alphabet, DIAMOND)
            assert rep.answer == (w in rec.dia)
            if rep.answer:
                assert oracles.matches(oracles.substitute(e, rep.valuation), w)

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 2 (oracle equivalence, {len(_corpus())} expressions): "
          f"PASS in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 3: shortest certain words of the subword family


def _shortest_covering_length(n: int) -> int:
    """Length of the shortest binary word containing every length-n block.

    Plain BFS over (suffix of length n-1, set of blocks seen) states; this is
    independent of the library and pins down the expected witness lengths.
    """
    grams = ["".join(t) for t in itertools.product("01", repeat=n)]
    bit = {g: 1 << i for i, g in enumerate(grams)}
    full = (1 << len(grams)) - 1
    keep = n - 1
    queue = deque([("", 0, 0)])
    seen = {("", 0)}
    while queue:
        suffix, mask, length = queue.popleft()
        if mask == full:
            return length
        for ch in "01":
            grown = suffix + ch
            new_mask = mask | bit[grown] if len(grown) == n else mask
            new_suffix = grown[-keep:] if keep else ""
            state = (new_suffix, new_mask)
            if state not in seen:
                seen.add(state)
                queue.append((new_suffix, new_mask, length + 1))
    raise AssertionError("BFS must terminate with a covering word")


def test_criterion_3_subword_family_shortest_words():
    start = time.perf_counter()
    for n, expected in ((2, 5), (3, 10)):
        family = family_box_subword(n)
        rep = nonemptiness(family, AB, BOX)
        assert rep.answer is True
        assert len(rep.witness) == expected == _shortest_covering_length(n)
        assert len(rep.witness) >= 2**n + 1
        blocks = {rep.witness[i : i + n] for i in range(len(rep.witness) - n + 1)}
        assert blocks == {"".join(t) for t in itertools.product("01", repeat=n)}
        assert membership(family, rep.witness, AB, BOX).answer is True
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    print(f"criterion 3 (subword family shortest words): PASS in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 4: fooling-set state lower bounds


def _power_member(n: int):
    """Closed form for the possibility language of ($x1...$xn)*."""

    def member(w: str) -> bool:
        if not w:
            return True
        if len(w) % n:
            return False
        return w == w[: n] * (len(w) // n)

    return member


def _aligned_blocks_member(w: str) -> bool:
    """Closed form for the certainty language of the n=1 double-block family."""
    if len(w) % 2:
        return False
    return {w[i : i + 2] for i in range(0, len(w), 2)} == {"00", "01", "10", "11"}


def test_criterion_4_fooling_set_lower_bounds():
    start = time.perf_counter()
    for n in (1, 2, 3, 4):
        pairs = fooling_pairs_diamond(n)
        verified, bound, violation = verify_fooling_set(pairs, _power_member(n))
        assert verified, violation
        assert bound == 2**n
        built = construct_nfa(family_diamond_power(n), AB, DIAMOND)
        assert built.n_states >= 2**n

    # The closed form matches the decision procedure on small words.
    power2 = family_diamond_power(2)
    for w in oracles.all_words(AB, 4):
        assert _power_member(2)(w) == membership(power2, w, AB, DIAMOND).answer

    pairs = fooling_pairs_box(1)
    verified, bound, violation = verify_fooling_set(pairs, _aligned_blocks_member)
    assert verified, violation
    assert bound == 6 >= 2 ** (2**1)
    double1 = family_box_doubleexp(1)
    for u, v in pairs:
        assert membership(double1, u + v, AB, BOX).answer is True
        assert _aligned_blocks_member(u + v)
    assert membership(double1, "00000000", AB, BOX).answer is False

    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"criterion 4 (fooling-set lower bounds): PASS in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 5: combined-expression emptiness equivalence


def _random_tuple(rng, alphabet, k, pool):
    es = []
    for _ in range(k):
        while True:
            cand = oracles.random_expr(rng, alphabet, pool, rng.randint(2, 6))
            if size(cand) <= 6:
                es.append(cand)
                break
    return es


def test_criterion_5_combined_emptiness_equivalence():
    start = time.perf_counter()
    rng = random.Random(77001)
    pools = ((), ("x",), ("x", "y"))
    for case in range(200):
        es = _random_tuple(rng, AB, rng.randint(1, 3), pools[rng.randrange(3)])
        combined, wide = lemma3_combine(es, AB)
        lib_empty = is_empty(construct_nfa(combined, wide, BOX))[0]
        parts = [construct_nfa(e, AB, BOX) for e in es]
        ref_empty, ref_witness = is_empty(product_all(parts))
        assert lib_empty == ref_empty
        if not ref_empty and len(ref_witness) <= 6:
            for e in es:
                assert ref_witness in oracles.brute_language(
                    e, variables(e), AB, 6, box=True
                )
        if case % 10 == 0:
            shared = frozenset.intersection(
                *(oracles.brute_language(e, variables(e), AB, 6, box=True) for e in es)
            )
            if shared:
                assert not ref_empty and not lib_empty

    unary = Alphabet("0")
    for _ in range(20):
        es = _random_tuple(rng, unary, rng.randint(2, 3), ("x",))
        combined, wide = lemma3_combine(es, unary)
        assert len(wide) == 2
        lib_empty = is_empty(construct_nfa(combined, wide, BOX))[0]
        parts = [construct_nfa(e, unary, BOX) for e in es]
        assert lib_empty == is_empty(product_all(parts))[0]

    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 5 (combined emptiness, 220 tuples): PASS in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 6: certainty under regular domains, both routes


_INFINITE_DOMAINS = (
    ("0*", "0000000"),
    ("1*", "1111111"),
    ("00*", "0000000"),
    ("11*", "1111111"),
    ("0*1", "00000001"),
    ("10*", "10000000"),
    ("(00)*", "00000000"),
    ("(01)*", "01010101"),
    ("(10)*", "10101010"),
)


def test_criterion_6_domain_routes_consistency():
    start = time.perf_counter()
    rng = random.Random(909090)
    words = tuple(oracles.all_words(AB, 6))
    checked = mixed = 0
    while checked < 120:
        e = oracles.random_expr(rng, AB, ("x", "y", "z"), rng.randint(3, 12))
        names = variables(e)
        if size(e) > 12 or not names or len(names) > 3:
            continue
        all_finite = checked < 60
        infinite_names = (
            frozenset()
            if all_finite
            else frozenset(rng.sample(list(names), rng.randint(1, len(names))))
        )

        mapping: dict[str, str] = {}
        word_lists: dict[str, list[str]] = {}
        for name in names:
            if name in infinite_names:
                dom, long_word = _INFINITE_DOMAINS[rng.randrange(len(_INFINITE_DOMAINS))]
                dom_expr = parse(dom, AB)
                assert oracles.matches(dom_expr, long_word) and len(long_word) >= 7
                shorts = sorted(
                    oracles.bounded_language(dom_expr, 6),
                    key=lambda u: oracles.shortlex_key(u, AB),
                )
                mapping[name] = dom
                # Any image longer than every probed word acts the same way,
                # so one representative beyond the window makes the
                # intersection below exact for words of length <= 6.
                word_lists[name] = shorts + [long_word]
            else:
                count = rng.randint(1, 4)
                pool = sorted(
                    {
                        "".join(rng.choice("01") for _ in range(rng.randint(0, 3)))
                        for _ in range(count)
                    },
                    key=lambda u: oracles.shortlex_key(u, AB),
                )
                mapping[name] = "|".join(w if w else "_" for w in pool)
                word_lists[name] = pool

        spec = DomainSpec.from_json(mapping, AB)
        expected: frozenset | None = None
        for combo in itertools.product(*(word_lists[n] for n in names)):
            lang = oracles.bounded_language(
                oracles.substitute(e, dict(zip(names, combo))), 6
            )
            expected = lang if expected is None else expected & lang
            if not expected:
                break

        built = construct_nfa(e, AB, BOX, domains=spec, route="finitary")
        got = _nfa_language(built, words)
        assert got == (expected or frozenset())
        if checked % 10 == 0:
            assert oracles.nfa_bounded_language(built, AB, 6) == got

        if all_finite:
            via_enumeration = construct_nfa(e, AB, BOX, domains=spec, route="enumerate")
            assert _nfa_language(via_enumeration, words) == got
            dia = frozenset()
            for combo in itertools.product(*(word_lists[n] for n in names)):
                dia |= oracles.bounded_language(
                    oracles.substitute(e, dict(zip(names, combo))), 6
                )
            union = construct_nfa(e, AB, DIAMOND, domains=spec)
            assert _nfa_language(union, words) == dia
        else:
            mixed += 1
        checked += 1

    assert mixed >= 60
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    print(f"criterion 6 (domain routes, {checked} specs): PASS in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# Criterion 7: universality worked examples, exact


def test_criterion_7_universality_examples():
    runner = CliRunner()
    cases = [
        (["universal", "--alphabet", "01", "--semantics", "box",
          "--expr", "(0|1)*"], 0, "true\n"),
        (["universal", "--alphabet", "01", "--semantics", "box",
          "--expr", "$x(0|1)*", "--witness"], 1, "false\n_\nx=0\n"),
        (["universal", "--alphabet", "01", "--semantics", "diamond",
          "--expr", "($x(0|1)*)|_"], 0, "true\n"),
        (["universal", "--alphabet", "01", "--semantics", "diamond",
          "--expr", "$x(0|1)*", "--witness"], 1, "false\n_\n"),
    ]
    for args, code, out in cases:
        res = runner.invoke(cli_main, args)
        assert res.exit_code == code and res.output == out

    assert universality(parse("(0|1)*", AB), AB, BOX).answer is True
    rep = universality(parse("$x(0|1)*", AB), AB, BOX)
    assert rep.answer is False and rep.witness == ""
    assert universality(parse("($x(0|1)*)|_", AB), AB, DIAMOND).answer is True
    rep = universality(parse("$x(0|1)*", AB), AB, DIAMOND)
    assert rep.answer is False and rep.witness == ""
    print("criterion 7 (universality examples): PASS")


# ---------------------------------------------------------------------------
# Criterion 8: sandwich and witness re-verification across the corpus


def test_criterion_8_sandwich_and_witness_invariants():
    start = time.perf_counter()
    violations = 0
    for rec in _corpus():
        e, alphabet = rec.expr, rec.alphabet

        # Sandwich: certainty <= every instance <= possibility.
        for _, lang in rec.instances:
            if not (rec.box <= lang <= rec.dia):
                violations += 1

        # Nonemptiness witnesses verify and have minimal length.  (They are
        # deterministic but not promised to be shortlex-least: the possibility
        # route searches a nondeterministic instance automaton.)
        for sem, full in ((BOX, rec.box), (DIAMOND, rec.dia)):
            rep = nonemptiness(e, alphabet, sem)
            if rep.answer:
                if not membership(e, rep.witness, alphabet, sem).answer:
                    violations += 1
                if sem is DIAMOND and not oracles.matches(
                    oracles.substitute(e, rep.valuation), rep.witness
                ):
                    violations += 1
                if len(rep.witness) <= 6:
                    if rep.witness not in full or len(rep.witness) != len(
                        _shortlex_min(full, alphabet)
                    ):
                        violations += 1
                elif full:
                    violations += 1
            elif full:
                violations += 1

        # Universality counterexamples verify against the membership scan.
        for sem, full in ((BOX, rec.box), (DIAMOND, rec.dia)):
            rep = universality(e, alphabet, sem)
            missing = [w for w in rec.words if w not in full]
            if rep.answer:
                if missing:
                    violations += 1
            else:
                if membership(e, rep.witness, alphabet, sem).answer:
                    violations += 1
                if len(rep.witness) <= 6 and rep.witness in full:
                    violations += 1
                if sem is BOX and rep.valuation is not None:
                    if oracles.matches(
                        oracles.substitute(e, rep.valuation), rep.witness
                    ):
                        violations += 1
                if sem is DIAMOND:
                    # The union automaton is determinized whole, so its
                    # counterexample is the overall shortest missing word.
                    if missing and rep.witness != missing[0]:
                        violations += 1
                    if not missing and len(rep.witness) <= 6:
                        violations += 1

    # Containment separators verify on sampled same-alphabet pairs.
    rng = random.Random(43319)
    data = _corpus()
    candidates = [
        (a, b) for a, b in zip(data, data[1:]) if a.alphabet is b.alphabet
    ]
    for lhs, rhs in rng.sample(candidates, 60):
        for sem, left, right in (
            (BOX, lhs.box, rhs.box),
            (DIAMOND, lhs.dia, rhs.dia),
        ):
            rep = containment(lhs.expr, rhs.expr, lhs.alphabet, sem)
            if rep.answer:
                if not left <= right:
                    violations += 1
            else:
                in_left = membership(lhs.expr, rep.witness, lhs.alphabet, sem).answer
                in_right = membership(rhs.expr, rep.witness, lhs.alphabet, sem).answer
                if not in_left or in_right:
                    violations += 1
                if len(rep.witness) <= 6 and (
                    rep.witness not in left or rep.witness in right
                ):
                    violations += 1

    assert violations == 0
    elapsed = time.perf_counter() - start
    print(f"criterion 8 (invariants, zero violations): PASS in {elapsed:.2f}s")
