#!/usr/bin/env python3
"""Record the benchmark's end-to-end metrics for a parent commit and this
checkout, side by side, in one JSON file.

    python3 scripts/bench_record.py --parent REV --out BENCH_<n>.json

Extracts revision REV of this repository (``git archive``) into a temporary
directory, then runs the benchmark command of BENCHMARK.json,
``perfbench/run.py --workload W --seed S --seconds T`` with T its
``run_seconds``, unchanged, as a subprocess from the root of each checkout:
for each seed and each workload of BENCHMARK.json one pair of runs, the parent first at odd seeds and this checkout first at
even ones.  Each side runs its own copy of perfbench/, so both sides run the
benchmark of their own commit.  The file holds:

- the machine (CPU model, core count) and the Python version
- each side's commit, and a SHA-256 over its ``src/`` sources, so that an
  uncommitted change is identified too
- per workload and side, the median and quartiles of every end-to-end metric
  that BENCHMARK.json names, each run's values and request counts, and the
  number of pairs in which this checkout reads better
- the interpreter floor: the same statistics for a fresh ``python -c pass``,
  so that a reader can subtract the start-up that no library change moves
  (the import of ``mahlercf.cli`` on top of it is each side's ``setup_s``)

Only the standard library is used.  Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
FLOOR_SAMPLES = 15


def git(*args: str) -> bytes:
    return subprocess.run(["git", "-C", str(ROOT), *args], check=True,
                          capture_output=True).stdout


def source_digest(checkout: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted((checkout / "src").rglob("*.py")):
        digest.update(str(path.relative_to(checkout)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    return line.partition(":")[2].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def harness(checkout: Path, workload: str, seed: int) -> dict:
    """One unchanged benchmark run; its last line of stdout, parsed."""
    cmd = [sys.executable, *BENCHMARK["command"][1:], "--workload", workload,
           "--seed", str(seed), "--seconds", str(BENCHMARK["run_seconds"])]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                         f"{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    return {"attempted": result["attempted"], "failed": result["failed"],
            "correct": result["correct"],
            "metrics": {name: m["value"] for name, m in result["metrics"].items()}}


def floor_time() -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], check=True)
    return time.perf_counter() - start


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values)}


def better(metric: dict, change: float, parent: float) -> bool:
    return change < parent if metric["better"] == "lower" else change > parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--seeds", type=int, default=10,
                        help="pairs per workload (seeds 1..N; default 10)")
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    if args.seeds < 1:
        parser.error("--seeds must be at least 1")
    workloads = [w["name"] for w in BENCHMARK["workloads"]]
    metrics = {m["name"]: m for m in BENCHMARK["end_to_end"]}

    with tempfile.TemporaryDirectory(prefix="bench-record-") as scratch:
        parent = Path(scratch)
        try:
            archive = git("archive", args.parent)
        except subprocess.CalledProcessError as exc:
            parser.error(f"cannot archive {args.parent!r}: {exc.stderr.decode().strip()}")
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            # the "data" filter (Python 3.10.12 and later) refuses paths outside parent
            safe = {"filter": "data"} if hasattr(tarfile, "data_filter") else {}
            tar.extractall(parent, **safe)
        sides = {"parent": parent, "change": ROOT}
        record = {
            "machine": {"cpu": cpu_model(), "cores": os.cpu_count(),
                        "python": platform.python_version()},
            "harness": {"command": [*BENCHMARK["command"], "--workload", "W", "--seed", "S",
                                    "--seconds", str(BENCHMARK["run_seconds"])],
                        "seeds": list(range(1, args.seeds + 1)),
                        "order": "parent first at odd seeds, change first at even seeds"},
            "sides": {
                "parent": {"commit": git("rev-parse", args.parent).decode().strip(),
                           "src_sha256": source_digest(parent)},
                "change": {"commit": git("rev-parse", "HEAD").decode().strip(),
                           "src_uncommitted": bool(git("status", "--porcelain", "--", "src")),
                           "src_sha256": source_digest(ROOT)},
            },
        }

        record["floor_s"] = {"python -c pass": summary([floor_time()
                                                       for _ in range(FLOOR_SAMPLES)])}

        runs: dict[str, list[dict]] = {w: [] for w in workloads}
        for seed in range(1, args.seeds + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in workloads:
                pair = {"seed": seed, "first": order[0]}
                for side in order:
                    print(f"seed {seed} {workload} {side}", file=sys.stderr, flush=True)
                    pair[side] = harness(sides[side], workload, seed)
                runs[workload].append(pair)

    record["workloads"] = {}
    for workload, pairs in runs.items():
        entry = {}
        for side in sides:
            entry[side] = {
                name: {**summary([p[side]["metrics"][name] for p in pairs]),
                       "unit": metrics[name]["unit"]}
                for name in metrics
            }
        entry["change_better_pairs"] = {
            name: sum(better(metric, p["change"]["metrics"][name], p["parent"]["metrics"][name])
                      for p in pairs)
            for name, metric in metrics.items()
        }
        entry["runs"] = pairs
        record["workloads"][workload] = entry
    args.out.write_text(json.dumps(record, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
