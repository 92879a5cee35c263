"""End-to-end benchmark of the ``mahlercf`` command line.

    python3 perfbench/run.py --workload cf-expand --seed 1 --seconds 18 --trace 0

Run from the root of a checkout.  Every request runs ``mahlercf`` in a fresh
interpreter, as a user's invocation does: it pays the cold import and starts
with empty series and denominator caches.  The load is a closed loop with one
client: the next request starts when the previous one has exited.
``MAHLERCF_THREADS`` is unset for every request.

``--trace 0`` runs whole rounds of requests (workloads.rounds) for at least
``--seconds`` at the reference speed (see below) and prints the end-to-end
metrics:

  setup_s         median time of a fresh interpreter importing mahlercf.cli
  req_p50_s       median time per request
  req_tail_s      time at the workload's tail percentile (workloads.TAIL)
  requests_per_s  requests completed per second spent in requests
  peak_rss_mb     highest per-request peak RSS, from os.wait4 on each child

and, in the lines before the result, fail_ratio (failed over attempted).
No timed request fails at the seed commit.  On value-certs, where the seed
commit fails every eval past 4300 digits, one such request (the defect probe)
runs after the timed loop; it is neither timed nor counted in ``attempted``,
and its outcome is printed, so the defect stays in view until it is fixed.

The speed of a shared machine changes by up to 1.5x within seconds to
minutes, and every wall time drifts with it.  So the run also times a
reference task that holds no mahlercf code (REFERENCE: a fresh interpreter
that imports mpmath and multiplies integer polynomials) just before every
request, and each request and set-up time t is scaled to the machine speed at
which the reference takes REFERENCE_NOMINAL_S: it counts as
t * REFERENCE_NOMINAL_S / r, where r is the reference time measured just
before it.  The four timings in the result are medians, percentiles and
rates of these scaled times; the lines before the result give the raw wall
times too.  The run's length is scaled the same way, so that a run holds the
same number of rounds whatever the machine's speed at the time.

``--trace 1`` runs the seed's fixed traced request list (one round of each
layout, whatever ``--seconds`` says, so that its counts repeat exactly) once
untraced and once through ``tracing.py``, and prints the per-layer metrics.

Every output is checked (checks.py).  The last line of stdout is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.  ``failed`` counts
every failed request; ``correct`` is false when a request, the probe
included, fails other than the way the seed commit fails it
(checks.seed_defect).
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import checks
import tracing
from workloads import TAIL, WORKLOADS, Request, defect_probe, rounds, traced_requests

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench-work"
REFERENCES = HERE / "references.json"

SETUP_SAMPLES = 10

# The reference task: a cold start, a pure-Python import (mpmath, which sympy
# imports too) and big-integer polynomial arithmetic, the kinds of work that
# make up a request, with none of mahlercf's code, so that no change to the
# program changes its time.
REFERENCE = [sys.executable, "-c", """
import mpmath
a = [(i * 7919) % 10**40 + 1 for i in range(150)]
b = [(i * 104729) % 10**40 + 3 for i in range(150)]
for _ in range(10):
    c = [0] * 299
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
"""]
# Median time of REFERENCE on a 2-core shared Xeon (Python 3.11.7, mpmath
# 1.3.0); only a scale, chosen so that scaled times read near wall times.
REFERENCE_NOMINAL_S = 0.11
REQUEST_TIMEOUT_S = 120.0


@dataclass
class Outcome:
    request: Request
    seconds: float
    exit_code: int
    stdout: bytes
    stderr: bytes
    max_rss_kb: int
    failure: str | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.pop("MAHLERCF_THREADS", None)
    # As for an installed package, mahlercf's bytecode is cached (under src/)
    # once and then reused by every request.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = str(SRC)
    return env


def execute(cmd: list[str], cwd: Path) -> tuple[float, int, bytes, bytes, int]:
    """Run cmd to completion; return wall seconds, exit code (negative for a
    signal), stdout, stderr and the child's own peak RSS in KiB.

    os.wait4 reports the rusage of exactly this child, whereas
    getrusage(RUSAGE_CHILDREN) keeps the maximum over all children reaped."""
    with tempfile.TemporaryFile(dir=cwd) as out, tempfile.TemporaryFile(dir=cwd) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, cwd=cwd, env=child_env())
        reaped = threading.Event()
        timer = threading.Timer(REQUEST_TIMEOUT_S, lambda: reaped.is_set() or proc.kill())
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            reaped.set()
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return seconds, proc.returncode, out.read(), err.read(), usage.ru_maxrss


def run_request(request: Request, cwd: Path, spans_path: Path | None = None) -> Outcome:
    if spans_path is None:
        prefix = [sys.executable, "-m", "mahlercf.cli"]
    else:
        prefix = [sys.executable, str(HERE / "tracing.py"), str(spans_path)]
    seconds, code, out, err, rss = execute(prefix + list(request.argv) + ["--no-timestamp"], cwd)
    return Outcome(request, seconds, code, out, err, rss)


IMPORT_CLI = [sys.executable, "-c", "import mahlercf.cli"]


def sample(cmd: list[str], cwd: Path) -> float:
    seconds, code, _, err, _ = execute(cmd, cwd)
    if code != 0:
        raise RuntimeError(f"sample exited {code}:\n{err.decode(errors='replace')}")
    return seconds


def percentile(values: list[float], pct: int) -> float:
    """Percentile interpolated between the two nearest ranks."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def judge(outcomes: list[Outcome], references: dict) -> bool:
    """Fill in each outcome's failure; True when no request failed that the
    seed commit got right."""
    correct = True
    for o in outcomes:
        reference = references.get(o.request.key)
        o.failure = checks.failure(o.request, o.exit_code, o.stdout, o.stderr, reference)
        if o.failure and not checks.seed_defect(reference, o.exit_code, o.stderr):
            correct = False
    return correct


def report_failures(outcomes: list[Outcome]) -> None:
    reasons: dict[str, list[str]] = {}
    for o in outcomes:
        if o.failure:
            reasons.setdefault(f"{o.request.subcommand}: {o.failure}", []).append(o.request.key)
    for reason, keys in sorted(reasons.items()):
        print(f"  failed x{len(keys)}  {reason}  (e.g. {keys[0]})")


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(workload: str, seed: int, seconds: float, cwd: Path, references: dict) -> dict:
    # The run measures whole rounds: a round starts while less than `seconds`
    # have passed at the reference speed, and then runs to its end, so every
    # run holds the same mix of short and long requests.  A reference sample
    # precedes every request and, for every other request until there are
    # SETUP_SAMPLES, a set-up sample follows it; each request and set-up
    # sample is scaled by the reference sample taken just before it.
    setup: list[tuple[float, float]] = []  # (set-up time, its reference time)
    timed: list[tuple[float, float]] = []  # (request time, its reference time)
    outcomes: list[Outcome] = []
    start = time.perf_counter()

    def scaled_elapsed() -> float:
        speed = REFERENCE_NOMINAL_S / statistics.median(r for _, r in timed) if timed else 1.0
        return (time.perf_counter() - start) * speed

    for batch in rounds(workload, seed):
        if scaled_elapsed() >= seconds:
            break
        for request in batch:
            reference = sample(REFERENCE, cwd)
            if len(outcomes) % 2 == 0 and len(setup) < SETUP_SAMPLES:
                setup.append((sample(IMPORT_CLI, cwd), reference))
            outcomes.append(run_request(request, cwd))
            timed.append((outcomes[-1].seconds, reference))
    length = scaled_elapsed()
    while len(setup) < SETUP_SAMPLES:
        reference = sample(REFERENCE, cwd)
        setup.append((sample(IMPORT_CLI, cwd), reference))

    probe = defect_probe(workload, seed)
    probes = [run_request(probe, cwd)] if probe else []

    correct = judge(outcomes + probes, references)
    times = [t for t, _ in timed]
    scaled = [t * REFERENCE_NOMINAL_S / r for t, r in timed]
    failed = sum(1 for o in outcomes if o.failure)
    tail = TAIL[workload]
    n = len(outcomes)
    raw = {
        "setup_s": statistics.median(t for t, _ in setup),
        "req_p50_s": statistics.median(times),
        "req_tail_s": percentile(times, tail),
        "requests_per_s": n / sum(times),
    }
    metrics = {
        "setup_s": metric(statistics.median(t * REFERENCE_NOMINAL_S / r for t, r in setup), "s"),
        "req_p50_s": metric(statistics.median(scaled), "s"),
        "req_tail_s": metric(percentile(scaled, tail), "s"),
        "requests_per_s": metric(n / sum(scaled), "1/s"),
    }
    metrics["peak_rss_mb"] = metric(max(o.max_rss_kb for o in outcomes) / 1024, "MB")
    beyond = sum(1 for t in times if t > raw["req_tail_s"])
    print(f"workload {workload}, seed {seed}: {n} requests in {sum(times):.2f} s"
          f" (run {length:.2f} s at the reference speed), closed loop, 1 client")
    print(f"  reference       {statistics.median(r for _, r in timed):.4f} s    median of {n};"
          f" scaled = raw * {REFERENCE_NOMINAL_S} / reference")
    print(f"  setup_s         {metrics['setup_s']['value']:.4f} s    raw {raw['setup_s']:.4f},"
          f" median of {len(setup)}")
    print(f"  req_p50_s       {metrics['req_p50_s']['value']:.4f} s    raw"
          f" {raw['req_p50_s']:.4f}, n={n}")
    print(f"  req_tail_s      {metrics['req_tail_s']['value']:.4f} s    raw"
          f" {raw['req_tail_s']:.4f}, p{tail}, {beyond} beyond, n={n}")
    print(f"  requests_per_s  {metrics['requests_per_s']['value']:.4f} 1/s  raw"
          f" {raw['requests_per_s']:.4f}, n={n}")
    print(f"  peak_rss_mb     {metrics['peak_rss_mb']['value']:.1f} MB   max over n={n}")
    print(f"  fail_ratio      {failed / n:.4f}      {failed}/{n}")
    report_failures(outcomes)
    for o in probes:
        print(f"  defect probe    {o.failure or 'fixed, output matches the reference'}"
              f"  (untimed: {o.request.key})")
    return {"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}


def traced(workload: str, seed: int, cwd: Path, references: dict) -> dict:
    requests = traced_requests(workload, seed)
    plain: list[Outcome] = []
    spanned: list[Outcome] = []
    span_files = []
    for i, request in enumerate(requests):
        plain.append(run_request(request, cwd))
        span_files.append(cwd / f"spans-{i}.json")
        spanned.append(run_request(request, cwd, span_files[-1]))
    correct = judge(plain + spanned, references)
    layer = tracing.layer_metrics(span_files)
    layer["cli.stdout_bytes"] = sum(len(o.stdout) for o in spanned)
    layer["trace.overhead_ratio"] = sum(o.seconds for o in spanned) / sum(
        o.seconds for o in plain) - 1
    layer = {name: layer[name] for name in tracing.UNITS}
    failed = sum(1 for o in plain + spanned if o.failure)
    print(f"workload {workload}, seed {seed}: {len(requests)} requests, each untraced and traced")
    for name, value in layer.items():
        print(f"  {name:36s} {value}")
    report_failures(plain + spanned)
    metrics = {name: metric(value, tracing.UNITS[name]) for name, value in layer.items()}
    return {"correct": correct, "attempted": len(plain + spanned), "failed": failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mahlercf" / "cli.py").is_file():
        print(f"error: no mahlercf sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    references = json.loads(REFERENCES.read_text())
    WORK_ROOT.mkdir(exist_ok=True)
    cwd = Path(tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT))
    try:
        execute(IMPORT_CLI, cwd)  # writes the bytecode caches of a fresh checkout
        if args.trace:
            result = traced(args.workload, args.seed, cwd, references)
        else:
            result = end_to_end(args.workload, args.seed, args.seconds, cwd, references)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run is using it
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
