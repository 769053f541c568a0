"""prx benchmark: seeded CLI jobs in a single-client closed loop.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0

Run from the root of a source checkout: the benchmark imports ``src/prx``
and the acceptance oracles in ``tests/``.  This process starts one fresh
worker process, which imports ``prx.cli``, then generates the jobs and their
reference outcomes and hands the jobs over; the worker runs them one at a
time, each through the in-process click entry point.

``--trace 0`` measures the end-to-end metrics.  Jobs run for ``--seconds``,
at least the workload's fixed blocks and always whole blocks.  Between jobs,
spread over the run and left out of its clock, the worker times fresh
processes starting up (set-up time) and a seeded sample of jobs run as
``python -m prx.cli`` subprocesses.  ``--trace 1`` runs the fixed blocks
untraced, traced, untraced and traced again, with spans on every public prx
function, and reports the per-layer metrics of the last traced pass.

Every printed answer is checked against the reference.  The last stdout line
is the JSON result; the exit code is non-zero if any output is wrong.
Details (digest, sample counts, per-class times) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# Fixed blocks per workload: run in full by every run, traced by --trace 1,
# and digested so that runs can be compared output for output.
FIXED_BLOCKS = {"corpus": 40, "valuation_scan": 1, "families": 1}
CORPUS_BLOCKS = 800  # 24 jobs each; a 25 s run executes each once or twice
SETUP_SAMPLES = 9  # fresh processes timed from spawn to "ready", besides the worker
CLI_SAMPLES = 25  # jobs re-run as python -m prx.cli subprocesses
# Throughput is the median over segments of the run, so that a few seconds
# in which the shared machine runs slow do not move it.
SEGMENT_S = 1.0
TAIL_STRETCHES = 5
TAIL_MIN_SAMPLES = 1000
DEADLINE_S = 170  # the whole run, generation and checks included


class BenchError(Exception):
    """The benchmark could not run to completion."""


def _percentile_tail(latencies: list[float]) -> tuple[float, float]:
    """The value with 10 samples above it, and its percentile.

    A run with many samples is cut into TAIL_STRETCHES consecutive stretches
    of at least TAIL_MIN_SAMPLES and the median of their tails is reported:
    at 20 000 samples the tail of the whole run is the 99.95th percentile,
    where a few moments in which the shared machine stalls decide the value.
    """
    k = max(1, min(TAIL_STRETCHES, len(latencies) // TAIL_MIN_SAMPLES))
    size = len(latencies) // k
    tails = []
    for s in range(k):
        ordered = sorted(latencies[s * size : (s + 1) * size])
        i = max(0, len(ordered) - 11)
        tails.append(ordered[i])
    return statistics.median(tails), 100.0 * (i + 1) / len(ordered)


def _segment_rates(marks) -> list[float]:
    """Jobs per second over consecutive whole blocks grouped into segments of
    at least SEGMENT_S seconds (a shorter last segment is dropped unless it is
    the only one)."""
    rates, jobs0, t0 = [], 0, 0.0
    for jobs, t in marks:
        if t - t0 >= SEGMENT_S:
            rates.append((jobs - jobs0) / (t - t0))
            jobs0, t0 = jobs, t
    if not rates:
        jobs, t = marks[-1]
        rates.append(jobs / t)
    return rates


def _digest(runs) -> str:
    h = hashlib.sha256()
    for index, _, code, sha in runs:
        h.update(f"{index}\t{code}\t{sha}\n".encode())
    return h.hexdigest()


def _check_outputs(jobs, result) -> tuple[int, int, list[str]]:
    """(attempted, failed, messages): every execution of a job must print the
    reference outcome, and every repeat must print exactly what the first did."""
    outputs = result["outputs"]
    verdict: dict[int, str | None] = {}
    first: dict[int, tuple] = {}
    attempted = failed = 0
    messages = []
    for p in result["passes"]:
        for index, _, code, sha in p["runs"]:
            attempted += 1
            if index not in verdict:
                got_code, out, err = outputs[index]
                if got_code is None:
                    verdict[index] = "uncaught exception: " + err.strip().splitlines()[-1]
                else:
                    verdict[index] = jobs[index].check(got_code, out)
                first[index] = (code, sha)
            problem = verdict[index]
            if problem is None and first[index] != (code, sha):
                problem = "output differs between repeats"
            if problem is not None:
                failed += 1
                if len(messages) < 10:
                    messages.append(f"job {index} ({jobs[index].cls}) {jobs[index].args}: {problem}")
    return attempted, failed, messages


def _probe_plan(fixed_jobs, seed: int) -> list:
    """Set-up probes and python -m prx.cli runs of a seeded sample of light
    jobs from the fixed blocks, interleaved so each kind spreads over the run."""
    light = [i for i, job in enumerate(fixed_jobs) if job.light]
    cli = [["cli", i] for i in random.Random(seed).choices(light, k=CLI_SAMPLES)]
    plan = []
    every = len(cli) // SETUP_SAMPLES
    for n in range(SETUP_SAMPLES):
        plan.append(["setup", None])
        plan += cli[n * every : (n + 1) * every]
    return plan + cli[SETUP_SAMPLES * every :]


def _count_classes(jobs, runs) -> dict[str, int]:
    counts: dict[str, int] = {}
    for index, *_ in runs:
        counts[jobs[index].cls] = counts.get(jobs[index].cls, 0) + 1
    return dict(sorted(counts.items()))


def _class_medians(jobs, runs) -> dict[str, float]:
    by_class: dict[str, list[float]] = {}
    for index, seconds, *_ in runs:
        by_class.setdefault(jobs[index].cls, []).append(seconds)
    return {c: round(1000 * statistics.median(v), 3) for c, v in sorted(by_class.items())}


def _make_jobs(args, work: Path):
    """The workload's jobs (flattened), its blocks as index lists, and the
    number of fixed blocks; domain files are written under ``work``."""
    import workloads

    make = workloads.WORKLOADS[args.workload]
    rel = str(work.relative_to(ROOT))
    if args.workload == "corpus":
        blocks = make(args.seed, rel, blocks=CORPUS_BLOCKS)
    else:
        blocks = make(args.seed, rel)
    fixed = FIXED_BLOCKS[args.workload]
    if args.slice:
        blocks, fixed = [[j for b in blocks for j in b if j.light][: args.slice]], 1
    jobs = [j for b in blocks for j in b]
    for job in jobs:
        for path, content in job.files.items():
            (ROOT / path).write_text(content, encoding="utf-8")
    index_blocks, i = [], 0
    for b in blocks:
        index_blocks.append(list(range(i, i + len(b))))
        i += len(b)
    return jobs, index_blocks, fixed


def _start_worker() -> tuple[subprocess.Popen, float]:
    """A fresh worker and its set-up time.  It starts before the jobs are
    generated: a child's peak resident memory counts the parent it was forked
    from, and the parent is small only then."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    t0 = time.perf_counter()
    worker = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py")],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=ROOT, env=env, text=True,
    )
    if worker.stdout.readline().strip() != "ready":
        _stop(worker)
        raise BenchError("the worker did not start")
    return worker, time.perf_counter() - t0


def _stop(worker: subprocess.Popen) -> None:
    if worker.poll() is None:
        worker.kill()
    worker.wait()


def _serve(worker: subprocess.Popen, request: dict, deadline: float) -> dict:
    """Hand the worker its request and collect the result and the outputs."""
    worker.stdin.write(json.dumps(request) + "\n")
    worker.stdin.flush()
    try:
        worker.wait(timeout=max(deadline - time.perf_counter(), 1))
    except subprocess.TimeoutExpired:
        raise BenchError(f"the worker did not finish within {DEADLINE_S} s") from None
    if worker.stdout.read().strip() != "done" or worker.returncode != 0:
        raise BenchError(f"the worker failed (exit {worker.returncode})")
    result = json.loads(Path(request["out"]).read_text())
    result["outputs"] = {}
    with open(request["outputs"], encoding="utf-8") as fh:
        for line in fh:
            index, code, out, err = json.loads(line)
            result["outputs"][index] = (code, out, err)
    return result


def _end_to_end(result, jobs, worker_setup: float, attempted: int, failed: int, messages, detail):
    runs = result["passes"][0]["runs"]
    latencies = [r[1] for r in runs]
    tail, pct = _percentile_tail(latencies)
    rates = _segment_rates(result["passes"][0]["marks"])
    first = {index: (code, sha) for index, _, code, sha in reversed(runs)}
    setup, cli_times = [worker_setup], []
    for kind, seconds, code, sha, index in result["probes"]:
        if kind == "setup":
            setup.append(seconds)
            if code is None:
                messages.append("a set-up probe did not start")
            continue
        cli_times.append(seconds)
        if (code, sha) != first[index]:
            messages.append(f"job {index}: python -m prx.cli printed something else (exit {code})")
    detail["samples"] = {
        "jobs": len(latencies), "segments": len(rates),
        "latency_tail_percentile": round(pct, 3), "cli": len(cli_times),
        "setup": len(setup), "wall_s": result["passes"][0]["wall"],
    }
    detail["class_median_ms"] = _class_medians(jobs, runs)
    slowest = sorted(runs, key=lambda r: r[1])[-11:]
    detail["slowest_jobs"] = [[r[0], jobs[r[0]].cls, round(1000 * r[1], 3)] for r in slowest]
    return {
        "jobs_per_s": (statistics.median(rates), "1/s"),
        "latency_p50_ms": (1000 * statistics.median(latencies), "ms"),
        "latency_tail_ms": (1000 * tail, "ms"),
        "cli_p50_ms": (1000 * statistics.median(cli_times), "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
        "ok_ratio": ((attempted - failed) / attempted, "ratio"),
    }


def run(args) -> int:
    if not (ROOT / "src" / "prx" / "cli.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print("error: run from a prx source checkout (src/prx and tests/oracles.py)", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + DEADLINE_S
    sys.path[:0] = [str(HERE), str(ROOT / "tests"), str(ROOT / "src")]
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = ROOT / ".perfbench_work" / f"{tag}-{os.getpid()}"
    outdir = ROOT / ".perfbench_out"
    worker, worker_setup = _start_worker()
    try:
        work.mkdir(parents=True, exist_ok=True)
        outdir.mkdir(exist_ok=True)
        jobs, index_blocks, fixed = _make_jobs(args, work)
        n_fixed = sum(len(b) for b in index_blocks[:fixed])
        # One line of blocks, then one line per job: the worker keeps the lines
        # and decodes each when it runs, so its memory stays that of prx.
        job_file = work / "jobs.jsonl"
        job_file.write_text("\n".join([json.dumps({"blocks": index_blocks})]
                                      + [json.dumps(j.args) for j in jobs]) + "\n")
        request = {
            "jobs": str(job_file), "fixed_blocks": fixed, "seconds": args.seconds,
            "mode": "trace" if args.trace else "timed", "out": str(work / "result.json"),
            "outputs": str(work / "outputs.jsonl"),
            "spans": str(outdir / f"spans-{tag}.tsv.gz"),
            "probes": [] if args.trace else _probe_plan(jobs[:n_fixed], args.seed),
        }
        result = _serve(worker, request, deadline)
    finally:
        _stop(worker)
        shutil.rmtree(work, ignore_errors=True)

    attempted, failed, messages = _check_outputs(jobs, result)
    digests = [_digest(p["runs"][:n_fixed]) for p in result["passes"]]
    if len(set(digests)) != 1:
        messages.append("traced and untraced runs printed different outputs")
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "digest": digests[0], "fixed_jobs": n_fixed,
        "jobs_by_class": _count_classes(jobs, result["passes"][0]["runs"]),
    }
    if args.trace:
        metrics = result["layers"]
        detail["absent"] = result["absent"]
        detail["hook_failures"] = result["hook_failures"]
    else:
        metrics = _end_to_end(result, jobs, worker_setup, attempted, failed, messages, detail)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    correct = failed == 0 and not messages
    detail["problems"] = messages
    (outdir / f"{tag}.json").write_text(json.dumps({"detail": detail, "metrics": metrics}, indent=1))
    for message in messages:
        print(f"wrong: {message}", file=sys.stderr)
    print(json.dumps({"detail": detail}))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("corpus", "valuation_scan", "families"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--slice", type=int, default=0,
                        help="keep only the first N light jobs (a smoke test)")
    args = parser.parse_args()
    try:
        return run(args)
    except BenchError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
