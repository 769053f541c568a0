"""Fresh worker process: imports ``prx.cli``, then runs CLI jobs in a closed loop.

Protocol on stdin/stdout: the worker prints ``ready`` once ``prx.cli`` is
imported, then reads one line.  An empty line ends it (a set-up probe); a
JSON request names the job file, the mode and where to write results, and
the worker prints ``done`` when they are written.

One client, one job at a time: each job is the in-process click entry point
``main(args, standalone_mode=False)`` with stdout and stderr captured.
"""

from __future__ import annotations

import contextlib
import gc
import gzip
import hashlib
import io
import json
import resource
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import click  # noqa: E402
from prx.cli import main as cli  # noqa: E402


def run_job(args: list[str]) -> tuple[int | None, str, str]:
    """(exit code, stdout, stderr); the code is None if an exception escaped."""
    out, err = io.StringIO(), io.StringIO()
    code: int | None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rv = cli.main(args, prog_name="prx", standalone_mode=False)
            code = rv if isinstance(rv, int) else 0
        except SystemExit as stop:
            code = stop.code if isinstance(stop.code, int) else (0 if stop.code is None else 1)
        except click.ClickException as usage:
            usage.show()
            code = usage.exit_code
        except Exception:  # noqa: BLE001 - an uncaught error is a failed job
            err.write(traceback.format_exc())
            code = None
    return code, out.getvalue(), err.getvalue()


def digest(text: str) -> int:
    """64 bits of the SHA-256 of a job's output."""
    return int.from_bytes(hashlib.sha256(text.encode()).digest()[:8], "big")


class Outputs:
    """Each job's first output, written out as it comes so that the worker's
    memory stays that of prx."""

    def __init__(self, fh):
        self.fh = fh
        self.seen: set[int] = set()

    def add(self, index: int, code: int | None, out: str, err: str) -> None:
        if index not in self.seen:
            self.seen.add(index)
            self.fh.write(json.dumps([index, code, out, err[-2000:]]) + "\n")


class Loop:
    """Runs jobs by index, keeping timings and digests of their output."""

    def __init__(self, jobs: list[str], outputs: Outputs, tracer=None):
        self.jobs = jobs  # each a JSON argument vector, decoded when it runs
        self.outputs = outputs
        self.tracer = tracer
        # Per execution: job index, seconds, exit code (-1: an exception
        # escaped) and digest of stdout, in typed arrays so that the records
        # neither grow the worker's memory much nor slow its collections.
        self.index, self.seconds = array("l"), array("d")
        self.code, self.digest = array("l"), array("Q")

    def __len__(self) -> int:
        return len(self.index)

    @property
    def runs(self) -> list[tuple]:
        codes = [None if c < 0 else c for c in self.code]
        return list(zip(self.index, self.seconds, codes, self.digest))

    def run(self, index: int) -> None:
        tracer = self.tracer
        args = json.loads(self.jobs[index])
        if tracer is not None:
            tracer.job = index
            rec = tracer.open("cli")
        t0 = perf_counter()
        code, out, err = run_job(args)
        elapsed = perf_counter() - t0
        if tracer is not None:
            tracer.close(rec)
        self.index.append(index)
        self.seconds.append(elapsed)
        self.code.append(-1 if code is None else code)
        self.digest.append(digest(out))
        self.outputs.add(index, code, out, err)


def probe(kind: str, args: list[str]) -> list:
    """One sample in a fresh process: ``setup`` times a new worker from spawn
    to ready; ``cli`` times ``python -m prx.cli`` on a job and keeps its
    exit code and the digest of its stdout."""
    t0 = perf_counter()
    if kind == "setup":
        proc = subprocess.Popen([sys.executable, __file__], stdin=subprocess.PIPE,
                                stdout=subprocess.PIPE, text=True)
        try:
            ready = proc.stdout.readline().strip() == "ready"
            elapsed = perf_counter() - t0
            proc.stdin.write("\n")
            proc.stdin.flush()
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        return [kind, elapsed, 0 if ready else None, ""]
    done = subprocess.run([sys.executable, "-m", "prx.cli", *args], capture_output=True,
                          text=True, timeout=60)
    elapsed = perf_counter() - t0
    return [kind, elapsed, done.returncode, digest(done.stdout)]


def timed(blocks, outputs: Outputs, fixed: int, seconds: float, plan: list):
    """The fixed blocks, then further blocks in order (cycling) until the
    time is up; a run always ends at a block boundary.  The probes in
    ``plan`` ([kind, job index]) run one at a time between jobs, spread evenly
    over the run, and their time is left out of the run's clock."""
    loop = Loop(blocks["jobs"], outputs)
    marks = []  # (jobs run, seconds on the clock) at each block boundary
    samples = []
    pending = list(plan)
    interval = seconds / (len(plan) + 1)
    paused = 0.0
    t0 = perf_counter()

    def clock() -> float:
        return perf_counter() - t0 - paused

    def run_probe() -> None:
        nonlocal paused
        kind, index = pending.pop(0)
        start = perf_counter()
        args = json.loads(loop.jobs[index]) if index is not None else []
        samples.append(probe(kind, args) + [index])
        paused += perf_counter() - start

    b = 0
    order = blocks["blocks"]
    while b < fixed or clock() < seconds:
        for index in order[b % len(order)]:
            loop.run(index)
            if pending and clock() >= interval * (len(plan) - len(pending) + 1):
                run_probe()
        b += 1
        marks.append((len(loop), clock()))
    while pending:
        run_probe()
    return loop, marks, samples


def fixed_pass(blocks, outputs: Outputs, fixed: int, tracer=None):
    loop = Loop(blocks["jobs"], outputs, tracer)
    t0 = perf_counter()
    for block in blocks["blocks"][:fixed]:
        for index in block:
            loop.run(index)
    return loop, perf_counter() - t0


def serve(request: dict) -> dict:
    with open(request["jobs"], encoding="utf-8") as fh:
        blocks = json.loads(fh.readline())
        blocks["jobs"] = fh.read().splitlines()
    # A CLI call starts with a small heap; the job list must not make the
    # collections inside jobs slower, so it is moved out of the collector's view.
    gc.collect()
    gc.freeze()
    with open(request["outputs"], "w", encoding="utf-8") as fh:
        result = run_mode(request, blocks, Outputs(fh))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for p in result["passes"]:
        p["runs"] = p.pop("loop").runs
    return result


def run_mode(request: dict, blocks, outputs: Outputs) -> dict:
    fixed = request["fixed_blocks"]
    result: dict = {}
    if request["mode"] == "timed":
        loop, marks, samples = timed(blocks, outputs, fixed, request["seconds"], request["probes"])
        result["passes"] = [{"loop": loop, "wall": marks[-1][1], "marks": marks}]
        result["probes"] = samples
    else:
        from tracing import Tracer

        # Untraced and traced passes alternate twice, so that drift in the
        # machine's speed affects both sides of the overhead ratio alike.
        # The per-layer metrics come from the last traced pass.
        result["passes"] = []
        walls = {False: 0.0, True: 0.0}
        for traced in (False, True, False, True):
            tracer = Tracer() if traced else None
            if tracer is not None:
                tracer.install()
            try:
                loop, wall = fixed_pass(blocks, outputs, fixed, tracer)
            finally:
                if tracer is not None:
                    tracer.uninstall()
            walls[traced] += wall
            result["passes"].append({"loop": loop, "wall": wall})
        layers = tracer.metrics()
        layers["trace.overhead_ratio"] = (walls[True] / walls[False], "ratio")
        result["layers"] = layers
        result["absent"] = tracer.absent()
        result["hook_failures"] = dict(tracer.hook_failures)
        with gzip.open(request["spans"], "wt", encoding="utf-8") as fh:
            fh.write("name\tstart\tend\tparent\tjob\tprx_error\n")
            for rec in tracer.spans:
                fh.write("\t".join(map(str, rec)) + "\n")
    return result


def main() -> None:
    proto = sys.stdout
    print("ready", file=proto, flush=True)
    line = sys.stdin.readline()
    if not line.strip():
        return
    request = json.loads(line)
    result = serve(request)
    with open(request["out"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    print("done", file=proto, flush=True)


if __name__ == "__main__":
    main()
