"""Command-line interface.

Every decision subcommand prints ``true`` or ``false`` (or a JSON report
with ``--output json``) and exits 0 for true, 1 for false, 2 on any error
(usage, parse, caps, files) — scriptable and byte-deterministic for
identical invocations.

Remember that ``$`` introduces a variable, so expressions need quoting in a
shell: ``prx member --alphabet 01 --expr '(0$x)*1($x$y)*' --word 01110``.
The empty word is written ``_`` on the command line.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass
from functools import partial
from typing import Callable

import click

from .automata import DEFAULT_STATE_CAP, export_dot, nfa_to_json
from .constructions import (
    FoolingSet,
    family_box_doubleexp,
    family_box_subword,
    family_diamond_power,
    fooling_pairs_box,
    fooling_pairs_diamond,
    verify_fooling_set,
)
from .errors import NotSimple, PreconditionViolated, PrxError
from .fast_paths import (
    membership_diamond_fixed_word,
    membership_diamond_simple_sh0,
)
from .semantics import (
    BOX,
    DIAMOND,
    DecisionReport,
    Semantics,
    construct_nfa,
    containment,
    membership,
    nonemptiness,
    nonempty_int_reg,
    universality,
)
from .syntax import Alphabet, ParamRegex, is_simple, parse, print_regex, star_height
from .valuations import DEFAULT_VALUATION_CAP, DEFAULT_WORD_CAP, DomainSpec


@dataclass
class CliConfig:
    """Validated per-invocation settings shared by the decision commands."""

    alphabet: Alphabet
    semantics: Semantics
    valuation_cap: int
    state_cap: int
    word_cap: int
    output: str
    witness: bool
    domains: DomainSpec | None

    @classmethod
    def build(
        cls,
        alphabet: str,
        semantics: str,
        max_valuations: int,
        max_states: int,
        max_words: int,
        domains: str | None,
        output: str = "text",
        witness: bool = False,
    ) -> "CliConfig":
        alpha = Alphabet(alphabet)
        spec = None
        if domains is not None:
            with open(domains, "r", encoding="utf-8") as fh:
                mapping = json.load(fh)
            if not isinstance(mapping, dict):
                raise ValueError("the domains file must hold a JSON object")
            spec = DomainSpec.from_json(mapping, alpha)
        return cls(
            alphabet=alpha,
            semantics=Semantics(semantics),
            valuation_cap=max_valuations,
            state_cap=max_states,
            word_cap=max_words,
            output=output,
            witness=witness,
            domains=spec,
        )

    @property
    def limits(self) -> dict:
        """Caps and domains, as keyword arguments of the decision functions."""
        return {
            "valuation_cap": self.valuation_cap,
            "state_cap": self.state_cap,
            "word_cap": self.word_cap,
            "domains": self.domains,
        }


def _decision_options(f, report: bool = True):
    """The option set shared by every decision subcommand; ``build-nfa``
    takes it without ``report``, that is, without ``--witness`` and
    ``--output``, which only a decision reads."""
    witness = click.option("--witness", is_flag=True, help="Also print the witness / counterexample.")
    output = click.option(
        "--output",
        type=click.Choice(["text", "json"]),
        default="text",
        show_default=True,
        help="text prints true/false; json prints the full decision report.",
    )
    options = [
        click.option("--alphabet", required=True, help="Alphabet letters in declaration order, e.g. 01."),
        click.option(
            "--semantics",
            type=click.Choice(["box", "diamond"]),
            default="box",
            show_default=True,
            help="box = word must match under every valuation; diamond = under some valuation.",
        ),
        click.option(
            "--domains",
            type=click.Path(exists=True, dir_okay=False),
            default=None,
            help='JSON file mapping variables to regular domains, e.g. {"x": "0*"}.',
        ),
        witness,
        click.option(
            "--max-valuations",
            type=click.IntRange(min=1),
            default=DEFAULT_VALUATION_CAP,
            show_default=True,
            help="Refuse to enumerate more valuations than this.",
        ),
        click.option(
            "--max-states",
            type=click.IntRange(min=1),
            default=DEFAULT_STATE_CAP,
            show_default=True,
            help="Refuse to build automata larger than this.",
        ),
        click.option(
            "--max-words",
            type=click.IntRange(min=1),
            default=DEFAULT_WORD_CAP,
            show_default=True,
            help="Refuse to enumerate more domain words than this.",
        ),
        output,
    ]
    for option in reversed(options):
        if report or option not in (witness, output):
            f = option(f)
    return f


_fast_option = click.option(
    "--fast", is_flag=True, help="Use the specialized algorithms; error if none applies."
)

#: Failures reported as ``error: ...`` with exit code 2 rather than a
#: traceback; a recursion error can only come from a domains file nested too
#: deeply for the JSON reader (expressions are handled without recursion).
_ERRORS = (PrxError, ValueError, RecursionError, OSError)


def _echo(text: str, err: bool = False, nl: bool = True) -> None:
    """``click.echo`` to the current stdout (or stderr).

    The stream is looked up on every call: click's default output caches a
    wrapper per stream object that keeps the stream alive, so a stream an
    in-process caller swaps in for one call would never be freed.
    """
    click.echo(text, file=click.get_text_stream("stderr" if err else "stdout"), nl=nl)


def _emit(report: DecisionReport, cfg: CliConfig) -> int:
    if cfg.output == "json":
        _echo(json.dumps(report.to_json()))
    else:
        _echo("true" if report.answer else "false")
        if cfg.witness:
            if report.witness is not None:
                _echo(report.witness or "_")
            if report.valuation is not None:
                _echo(",".join(f"{k}={v or '_'}" for k, v in report.valuation.items()))
    return 0 if report.answer else 1


def _fail(message: str) -> "sys.NoReturn":
    _echo(f"error: {message}", err=True)
    sys.exit(2)


def _decide(raw: dict, texts: list[str], decide: Callable[..., DecisionReport]) -> "sys.NoReturn":
    """Run one decision command: settings, expressions, decision, report.

    ``decide(cfg, *exprs)`` gets the expressions parsed in order; the exit
    code is 0 for true, 1 for false and 2 on any error.
    """
    try:
        cfg = CliConfig.build(**raw)
        exprs = [parse(text, cfg.alphabet) for text in texts]
        report = decide(cfg, *exprs)
    except _ERRORS as err:
        _fail(str(err))
    sys.exit(_emit(report, cfg))


@click.group()
def main():
    """Decide properties of parameterized regular expressions.

    Expressions mix alphabet letters with variables ($x) standing for
    unknown letters; the box semantics quantifies over all substitutions,
    the diamond semantics over some.  Quote expressions in the shell ($ is
    special) and write the empty word as _.
    """


@main.command()
@click.option("--expr", required=True, help="The parameterized expression.")
@click.option("--word", required=True, help="The word to test (_ for the empty word).")
@_decision_options
@_fast_option
def member(expr, word, fast, **raw):
    """Is the word in the expression's language?"""

    def decide(cfg: CliConfig, e: ParamRegex) -> DecisionReport:
        w = "" if word == "_" else word
        if fast:
            return _member_fast(e, w, cfg)
        return membership(
            e, w, cfg.alphabet, cfg.semantics, cfg.valuation_cap,
            domains=cfg.domains, word_cap=cfg.word_cap,
        )

    _decide(raw, [expr], decide)


def _member_fast(e: ParamRegex, w: str, cfg: CliConfig) -> DecisionReport:
    if cfg.domains is not None:
        raise PrxError("--fast supports the base semantics only, not --domains")
    if cfg.semantics is BOX:
        if not is_simple(e):
            raise NotSimple("--fast --semantics box needs each variable to occur at most once")
        return DecisionReport(
            answer=membership(e, w, cfg.alphabet, BOX, cfg.valuation_cap).answer
        )
    if is_simple(e) and star_height(e) == 0:
        return DecisionReport(answer=membership_diamond_simple_sh0(e, w, cfg.alphabet))
    found, nu = membership_diamond_fixed_word(e, w, cfg.alphabet, cfg.state_cap)
    return DecisionReport(answer=found, valuation=nu.as_dict() if nu else None)


@main.command()
@click.option("--expr", required=True, help="The parameterized expression.")
@_decision_options
@_fast_option
def nonempty(expr, fast, **raw):
    """Does the expression's language contain any word?"""

    def decide(cfg: CliConfig, e: ParamRegex) -> DecisionReport:
        if not fast:
            return nonemptiness(e, cfg.alphabet, cfg.semantics, **cfg.limits)
        if cfg.domains is not None:
            raise PrxError("--fast supports the base semantics only, not --domains")
        if cfg.semantics is not BOX:
            raise PrxError("no fast path: the general diamond check is already linear")
        if star_height(e) != 0:
            raise PreconditionViolated("expected a star-free expression")
        report = nonemptiness(e, cfg.alphabet, BOX, cfg.valuation_cap, cfg.state_cap)
        return DecisionReport(answer=report.answer, witness=report.witness)

    _decide(raw, [expr], decide)


@main.command()
@click.option("--expr", required=True, help="The parameterized expression.")
@_decision_options
def universal(expr, **raw):
    """Does the expression's language contain every word?"""
    _decide(raw, [expr], lambda cfg, e: universality(
        e, cfg.alphabet, cfg.semantics, **cfg.limits))


@main.command()
@click.option("--lhs", required=True, help="Left expression (the candidate subset).")
@click.option("--rhs", required=True, help="Right expression (the candidate superset).")
@_decision_options
def contains(lhs, rhs, **raw):
    """Is the left language contained in the right one?"""
    _decide(raw, [lhs, rhs], lambda cfg, e1, e2: containment(
        e1, e2, cfg.alphabet, cfg.semantics, **cfg.limits))


@main.command()
@click.option("--expr", required=True, help="The parameterized expression.")
@click.option("--regular", required=True, help="A variable-free expression to intersect with.")
@_decision_options
def intersect(expr, regular, **raw):
    """Does the expression's language intersect the regular language?"""
    _decide(raw, [expr, regular], lambda cfg, e, r: nonempty_int_reg(
        e, r, cfg.alphabet, cfg.semantics, **cfg.limits))


@main.command(name="build-nfa")
@click.option("--expr", required=True, help="The parameterized expression.")
@click.option(
    "--format",
    "fmt",
    type=click.Choice(["dot", "json"]),
    default="dot",
    show_default=True,
    help="Graphviz dot or a JSON transition table.",
)
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None,
              help="Write here instead of stdout.")
@partial(_decision_options, report=False)
def build_nfa(expr, fmt, out, **raw):
    """Construct the variable-free NFA for the chosen semantics."""
    try:
        cfg = CliConfig.build(**raw)
        e = parse(expr, cfg.alphabet)
        a = construct_nfa(e, cfg.alphabet, cfg.semantics, **cfg.limits)
        text = export_dot(a) if fmt == "dot" else json.dumps(nfa_to_json(a), indent=2)
        if out is not None:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text if text.endswith("\n") else text + "\n")
        else:
            _echo(text)
    except _ERRORS as err:
        _fail(str(err))
    sys.exit(0)


@main.command()
@click.option(
    "--kind",
    type=click.Choice(["box-subword", "box-doubleexp", "diamond-power"]),
    required=True,
)
@click.option("--n", type=click.IntRange(min=1), required=True)
def family(kind, n):
    """Print the n-th member of a named expression family (alphabet 01)."""
    builders = {
        "box-subword": family_box_subword,
        "box-doubleexp": family_box_doubleexp,
        "diamond-power": family_diamond_power,
    }
    try:
        expr = builders[kind](n)
    except _ERRORS as err:
        _fail(str(err))
    _echo(print_regex(expr))
    sys.exit(0)


@main.group()
def fooling():
    """Generate or verify fooling-set lower-bound certificates."""


def _fooling_pairs(kind: str, n: int) -> FoolingSet:
    return fooling_pairs_box(n) if kind == "box" else fooling_pairs_diamond(n)


def _fooling_oracle(kind: str, n: int):
    alphabet = Alphabet("01")
    if kind == "box":
        e = family_box_doubleexp(n)
        return lambda w: membership(e, w, alphabet, BOX).answer
    e = family_diamond_power(n)
    return lambda w: membership(e, w, alphabet, DIAMOND).answer


@fooling.command()
@click.option("--kind", type=click.Choice(["box", "diamond"]), required=True)
@click.option("--n", type=click.IntRange(min=1), required=True,
              help="Family index (box grows as C(2^(n+1), 2^n) pairs — keep n at 1-2).")
@click.option("--out", type=click.Path(dir_okay=False, writable=True), default=None)
def generate(kind, n, out):
    """Emit the fooling pairs as tab-separated words (_ for the empty word)."""
    try:
        text = _fooling_pairs(kind, n).to_tsv()
        if out is not None:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        else:
            _echo(text, nl=False)
    except _ERRORS as err:
        _fail(str(err))
    sys.exit(0)


@fooling.command()
@click.option("--kind", type=click.Choice(["box", "diamond"]), required=True)
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--pairs", "pairs_file", type=click.Path(exists=True, dir_okay=False),
              default=None, help="Verify these pairs instead of the generated ones.")
def verify(kind, n, pairs_file):
    """Check the fooling conditions against the matching family's language."""
    try:
        if pairs_file is not None:
            with open(pairs_file, "r", encoding="utf-8") as fh:
                pairs = FoolingSet.from_tsv(fh.read())
        else:
            pairs = _fooling_pairs(kind, n)
        verified, bound, violation = verify_fooling_set(pairs, _fooling_oracle(kind, n))
    except _ERRORS as err:
        _fail(str(err))
    if verified:
        _echo(f"verified: every NFA for this language needs at least {bound} states")
        sys.exit(0)
    _echo(f"not verified: {violation}")
    sys.exit(1)


if __name__ == "__main__":
    main()
