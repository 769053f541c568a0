"""Tests of the benchmark itself: references, checks, tracing and output schema.

Run from the repository root:  python -m pytest -q perfbench/tests
"""

from __future__ import annotations

import io
import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "tests"), str(ROOT / "src")]

import oracles  # noqa: E402
import reference as ref  # noqa: E402
import workloads  # noqa: E402
from tracing import Tracer  # noqa: E402
from worker import Loop, Outputs, run_job  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _random_exprs(seed: int, count: int, letters: str):
    rng = random.Random(seed)
    alphabet = oracles.Alphabet(letters)
    out = []
    while len(out) < count:
        e = oracles.random_expr(rng, alphabet, ("x", "y", "z"), rng.randint(3, 10))
        if len(ref.var_order(e)) <= 3:
            out.append(e)
    return out


# ---------------------------------------------------------------------------
# References agree with the acceptance oracles


@pytest.mark.parametrize("letters", ["01", "012"])
def test_valuation_sets_match_brute_force(letters):
    alphabet = oracles.Alphabet(letters)
    for e in _random_exprs(5, 60, letters):
        names = ref.var_order(e)
        for w in list(oracles.all_words(alphabet, 3)):
            for box in (True, False):
                answer, nu = ref.membership(e, w, letters, box)
                assert answer == oracles.brute_membership(e, names, alphabet, w, box)
                first = next(
                    (v for v in oracles.letter_valuations(names, alphabet)
                     if oracles.matches(oracles.substitute(e, v), w) != box),
                    None,
                )
                assert nu == first


def test_derivative_languages_match_bounded_languages():
    D = ref.Derivatives()
    alphabet = oracles.Alphabet("01")
    words = list(oracles.all_words(alphabet, 5))
    for e in _random_exprs(6, 80, "01"):
        for box in (True, False):
            want = oracles.brute_language(e, ref.var_order(e), alphabet, 5, box)
            lang = ref.language(D, e, "01", box)
            assert {w for w in words if lang.member(w)} == want
            shortest = ref.shortest_member(lang, "01")
            if want:
                assert shortest == min(want, key=lambda u: oracles.shortlex_key(u, alphabet))


def test_covering_word_is_shortest_and_covers():
    for n in (2, 3, 4):
        w = ref.shortest_covering_word(n)
        assert {w[i : i + n] for i in range(len(w) - n + 1)} == set(ref.power_words(n))
        assert len(w) == 2**n + n - 1


# ---------------------------------------------------------------------------
# Checks accept prx's output and reject anything else


@pytest.mark.parametrize("name", ["corpus", "valuation_scan", "families"])
def test_checks_accept_prx_and_reject_wrong_output(name, tmp_path):
    make = workloads.WORKLOADS[name]
    rel = str(tmp_path)
    blocks = make(11, rel, blocks=1) if name == "corpus" else make(11, rel)
    jobs = [j for j in blocks[0] if j.light][:12]
    assert jobs
    for job in jobs:
        for path, content in job.files.items():
            Path(path).write_text(content)
        code, out, _ = run_job(job.args)
        assert job.check(code, out) is None, job.args
        assert job.check(code, "maybe\n") is not None
        assert job.check(2, out) is not None


# ---------------------------------------------------------------------------
# Tracing


def test_box_membership_spans_nest_with_expected_counts():
    tracer = Tracer()
    tracer.install()
    try:
        job = ["member", "--alphabet", "01", "--expr", "($x|0|1)($y|0|1)", "--word", "01"]
        loop = Loop([json.dumps(job)], Outputs(io.StringIO()), tracer)
        loop.run(0)
    finally:
        tracer.uninstall()
    import prx.semantics

    assert prx.semantics.apply_to_nfa.__module__ == "prx.valuations"  # restored
    assert loop.runs[0][2] == 0
    spans = tracer.spans
    (member,) = [i for i, s in enumerate(spans) if s[0] == "semantics.membership"]
    assert spans[spans[member][3]][0] == "cli"
    under = [s[0] for s in spans if s[3] == member]
    assert under.count("valuations.apply_to_nfa") == 4
    assert under.count("automata.accepts") == 4
    # Each valuation is applied, then its instance simulated.
    pairs = [n for n in under if n in ("valuations.apply_to_nfa", "automata.accepts")]
    assert pairs == ["valuations.apply_to_nfa", "automata.accepts"] * 4
    metrics = tracer.metrics()
    assert metrics["semantics.membership.calls"][0] == 1
    assert metrics["valuations.apply_to_nfa.calls"][0] == 4
    assert metrics["automata.accepts.calls"][0] == 4
    assert metrics["valuations.enumerate.drawn"][0] == 4
    assert metrics["valuations.enumerate.space"][0] == 4
    assert metrics["valuations.scan_ratio"][0] == 1.0


def test_counts_repeat_and_deleted_functions_are_absent(monkeypatch):
    jobs = [
        ["universal", "--alphabet", "01", "--semantics", "box", "--expr", "(0|1)*|$x $y", "--witness"],
        ["nonempty", "--alphabet", "01", "--expr", "(0|1)*$x $y (0|1)*", "--witness"],
        ["member", "--alphabet", "012", "--semantics", "diamond", "--expr", "$x 1$y", "--word",
         "210", "--fast", "--witness"],
    ]
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            loop = Loop([json.dumps(job) for job in jobs], Outputs(io.StringIO()), tracer)
            for i in range(len(jobs)):
                loop.run(i)
        finally:
            tracer.uninstall()
        counts.append({k: v for k, (v, unit) in tracer.metrics().items() if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["automata.determinize.calls"] > 0

    import prx.fast_paths

    monkeypatch.delattr(prx.fast_paths, "membership_diamond_simple_sh0")
    tracer = Tracer()
    tracer.install()
    tracer.uninstall()
    assert "fast_paths.membership_diamond_simple_sh0" in tracer.absent()
    assert set(tracer.metrics()) >= {m["name"] for m in BENCHMARK["per_layer"]} - {
        "trace.overhead_ratio"
    }


# ---------------------------------------------------------------------------
# The command and its output schema


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True,
        timeout=170,
    )


@pytest.mark.parametrize("name", ["corpus", "valuation_scan", "families"])
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_run_prints_the_declared_metrics(name, trace):
    proc = _run(ROOT, "--workload", name, "--seed", "7", "--seconds", "0.2", "--trace", trace,
                "--slice", "8")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 8
    declared = BENCHMARK["per_layer"] if trace == "1" else BENCHMARK["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
