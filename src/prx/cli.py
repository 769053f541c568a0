"""Command-line interface.

Every decision subcommand prints ``true`` or ``false`` (or a JSON report
with ``--output json``) and exits 0 for true, 1 for false, 2 on usage or
cap errors — scriptable and byte-deterministic for identical invocations.

Remember that ``$`` introduces a variable, so expressions need quoting in a
shell: ``prx member --alphabet 01 --expr '(0$x)*1($x$y)*' --word 01110``.
The empty word is written ``_`` on the command line.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass

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
from .errors import PrxError
from .fast_paths import (
    membership_box_fixed_word,
    membership_diamond_fixed_word,
    membership_diamond_simple_sh0,
    nonemptiness_box_sh0,
)
from .semantics import (
    BOX,
    DIAMOND,
    DecisionReport,
    Semantics,
    construct_nfa,
    construct_nfa_domains,
    containment,
    decide_domains,
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
        output: str,
        witness: bool,
        domains: str | None,
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


def _decision_options(f):
    """The option set shared by every decision subcommand."""
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
        click.option("--fast", is_flag=True, help="Use the specialized algorithms; error if none applies."),
        click.option("--witness", is_flag=True, help="Also print the witness / counterexample."),
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
        click.option(
            "--output",
            type=click.Choice(["text", "json"]),
            default="text",
            show_default=True,
            help="text prints true/false; json prints the full decision report.",
        ),
    ]
    for option in reversed(options):
        f = option(f)
    return f


def _word_arg(text: str) -> str:
    return "" if text == "_" else text


def _emit(report: DecisionReport, cfg: CliConfig) -> int:
    if cfg.output == "json":
        click.echo(json.dumps(report.to_json()))
    else:
        click.echo("true" if report.answer else "false")
        if cfg.witness:
            if report.witness is not None:
                click.echo(report.witness or "_")
            if report.valuation is not None:
                click.echo(",".join(f"{k}={v or '_'}" for k, v in report.valuation.items()))
    return 0 if report.answer else 1


def _fail(message: str) -> "sys.NoReturn":
    click.echo(f"error: {message}", err=True)
    sys.exit(2)


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
def member(expr, word, **raw):
    """Is the word in the expression's language?"""
    fast = raw.pop("fast")
    try:
        cfg = CliConfig.build(**raw)
        e = parse(expr, cfg.alphabet)
        w = _word_arg(word)
        if fast:
            report = _member_fast(e, w, cfg)
        elif cfg.domains is not None:
            report = decide_domains(
                "membership", e, cfg.domains, cfg.alphabet, cfg.semantics, w=w,
                valuation_cap=cfg.valuation_cap, word_cap=cfg.word_cap, state_cap=cfg.state_cap,
            )
        else:
            report = membership(
                e, w, cfg.alphabet, cfg.semantics,
                valuation_cap=cfg.valuation_cap,
            )
    except (PrxError, ValueError) as err:
        _fail(str(err))
    sys.exit(_emit(report, cfg))


def _member_fast(e: ParamRegex, w: str, cfg: CliConfig) -> DecisionReport:
    if cfg.domains is not None:
        raise PrxError("--fast supports the base semantics only, not --domains")
    if cfg.semantics is BOX:
        return DecisionReport(answer=membership_box_fixed_word(e, w, cfg.alphabet))
    if is_simple(e) and star_height(e) == 0:
        return DecisionReport(answer=membership_diamond_simple_sh0(e, w, cfg.alphabet))
    found, nu = membership_diamond_fixed_word(e, w, cfg.alphabet)
    return DecisionReport(answer=found, valuation=nu.as_dict() if nu else None)


@main.command()
@click.option("--expr", required=True, help="The parameterized expression.")
@_decision_options
def nonempty(expr, **raw):
    """Does the expression's language contain any word?"""
    fast = raw.pop("fast")
    try:
        cfg = CliConfig.build(**raw)
        e = parse(expr, cfg.alphabet)
        if fast:
            if cfg.domains is not None:
                raise PrxError("--fast supports the base semantics only, not --domains")
            if cfg.semantics is not BOX:
                raise PrxError("no fast path: the general diamond check is already linear")
            answer, witness = nonemptiness_box_sh0(e, cfg.alphabet, word_cap=cfg.word_cap)
            report = DecisionReport(answer=answer, witness=witness)
        elif cfg.domains is not None:
            report = decide_domains(
                "nonemptiness", e, cfg.domains, cfg.alphabet, cfg.semantics,
                valuation_cap=cfg.valuation_cap, word_cap=cfg.word_cap, state_cap=cfg.state_cap,
            )
        else:
            report = nonemptiness(
                e, cfg.alphabet, cfg.semantics,
                valuation_cap=cfg.valuation_cap, state_cap=cfg.state_cap,
            )
    except (PrxError, ValueError) as err:
        _fail(str(err))
    sys.exit(_emit(report, cfg))


@main.command()
@click.option("--expr", required=True, help="The parameterized expression.")
@_decision_options
def universal(expr, **raw):
    """Does the expression's language contain every word?"""
    fast = raw.pop("fast")
    try:
        cfg = CliConfig.build(**raw)
        e = parse(expr, cfg.alphabet)
        if fast:
            raise PrxError("no fast path for universality")
        if cfg.domains is not None:
            report = decide_domains(
                "universality", e, cfg.domains, cfg.alphabet, cfg.semantics,
                valuation_cap=cfg.valuation_cap, word_cap=cfg.word_cap, state_cap=cfg.state_cap,
            )
        else:
            report = universality(
                e, cfg.alphabet, cfg.semantics,
                valuation_cap=cfg.valuation_cap, state_cap=cfg.state_cap,
            )
    except (PrxError, ValueError) as err:
        _fail(str(err))
    sys.exit(_emit(report, cfg))


@main.command()
@click.option("--lhs", required=True, help="Left expression (the candidate subset).")
@click.option("--rhs", required=True, help="Right expression (the candidate superset).")
@_decision_options
def contains(lhs, rhs, **raw):
    """Is the left language contained in the right one?"""
    fast = raw.pop("fast")
    try:
        cfg = CliConfig.build(**raw)
        e1 = parse(lhs, cfg.alphabet)
        e2 = parse(rhs, cfg.alphabet)
        if fast:
            raise PrxError("no fast path for containment")
        if cfg.domains is not None:
            report = decide_domains(
                "containment", e1, cfg.domains, cfg.alphabet, cfg.semantics, e2=e2,
                valuation_cap=cfg.valuation_cap, word_cap=cfg.word_cap, state_cap=cfg.state_cap,
            )
        else:
            report = containment(
                e1, e2, cfg.alphabet, cfg.semantics,
                valuation_cap=cfg.valuation_cap, state_cap=cfg.state_cap,
            )
    except (PrxError, ValueError) as err:
        _fail(str(err))
    sys.exit(_emit(report, cfg))


@main.command()
@click.option("--expr", required=True, help="The parameterized expression.")
@click.option("--regular", required=True, help="A variable-free expression to intersect with.")
@_decision_options
def intersect(expr, regular, **raw):
    """Does the expression's language intersect the regular language?"""
    fast = raw.pop("fast")
    try:
        cfg = CliConfig.build(**raw)
        e = parse(expr, cfg.alphabet)
        r = parse(regular, cfg.alphabet)
        if fast:
            raise PrxError("no fast path for regular intersection")
        if cfg.domains is not None:
            report = decide_domains(
                "nonempty_int_reg", e, cfg.domains, cfg.alphabet, cfg.semantics, r=r,
                valuation_cap=cfg.valuation_cap, word_cap=cfg.word_cap, state_cap=cfg.state_cap,
            )
        else:
            report = nonempty_int_reg(
                e, r, cfg.alphabet, cfg.semantics,
                valuation_cap=cfg.valuation_cap, state_cap=cfg.state_cap,
            )
    except (PrxError, ValueError) as err:
        _fail(str(err))
    sys.exit(_emit(report, cfg))


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
@_decision_options
def build_nfa(expr, fmt, out, **raw):
    """Construct the variable-free NFA for the chosen semantics."""
    fast = raw.pop("fast")
    try:
        cfg = CliConfig.build(**raw)
        e = parse(expr, cfg.alphabet)
        if fast:
            raise PrxError("no fast path for NFA construction")
        if cfg.domains is not None:
            a = construct_nfa_domains(
                e, cfg.domains, cfg.alphabet, cfg.semantics,
                valuation_cap=cfg.valuation_cap, word_cap=cfg.word_cap, state_cap=cfg.state_cap,
            )
        else:
            a = construct_nfa(
                e, cfg.alphabet, cfg.semantics,
                valuation_cap=cfg.valuation_cap, state_cap=cfg.state_cap,
            )
        text = export_dot(a) if fmt == "dot" else json.dumps(nfa_to_json(a), indent=2)
    except (PrxError, ValueError) as err:
        _fail(str(err))
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        click.echo(text)
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
    except (PrxError, ValueError) as err:
        _fail(str(err))
    click.echo(print_regex(expr))
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
        pairs = _fooling_pairs(kind, n)
    except (PrxError, ValueError) as err:
        _fail(str(err))
    text = pairs.to_tsv()
    if out is not None:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        click.echo(text, nl=False)
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
    except (PrxError, ValueError) as err:
        _fail(str(err))
    if verified:
        click.echo(f"verified: every NFA for this language needs at least {bound} states")
        sys.exit(0)
    click.echo(f"not verified: {violation}")
    sys.exit(1)


if __name__ == "__main__":
    main()
