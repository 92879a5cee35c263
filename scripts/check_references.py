#!/usr/bin/env python3
"""Check every benchmark menu request against its recorded reference output.

    python3 scripts/check_references.py [--workload NAME]

Runs each request of the three workload menus (perfbench/workloads.py), or of
the one menu that ``--workload`` names, as ``mahlercf <argv> --no-timestamp``
from the source tree, replays after the saves that write their files, and
compares the exit code and the SHA-256 of stdout with perfbench/references.json
through the benchmark's own ``checks.failure``.  Requests marked ``seed_fails`` are reported apart: each
either matches its reference or fails the way the seed commit fails it
(``checks.seed_defect``).  Exits 0 when every request is one of those, else 1
after listing the others.  Nothing under perfbench/ is written.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import json
import shutil
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))

import checks  # noqa: E402
from run import REFERENCES, WORK_ROOT, execute  # noqa: E402
from workloads import WORKLOADS, menu  # noqa: E402

JOBS = 2  # requests run at once; timings do not matter here


def verdict(request, reference: dict, cwd: str) -> str:
    """Return "match", "seed defect" or the reason the request failed."""
    argv = [sys.executable, "-m", "mahlercf.cli", *request.argv, "--no-timestamp"]
    _, code, out, err, _ = execute(argv, Path(cwd))
    problem = checks.failure(request, code, out, err, reference)
    if problem is None:
        return "match"
    if checks.seed_defect(reference, code, err):
        return "seed defect"
    return problem


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, help="check this menu only")
    args = parser.parse_args(argv)
    references = json.loads(REFERENCES.read_text())
    requests = {r.key: r for w in WORKLOADS if args.workload in (None, w) for r in menu(w)}
    # Replays read files that the --save requests write, so they run last.
    batches = ([r for r in requests.values() if "--replay" not in r.argv],
               [r for r in requests.values() if "--replay" in r.argv])
    verdicts: dict[str, str] = {}
    WORK_ROOT.mkdir(exist_ok=True)
    cwd = tempfile.mkdtemp(prefix="check-references-", dir=WORK_ROOT)
    try:
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            for batch in batches:
                futures = {pool.submit(verdict, r, references.get(r.key), cwd): r.key
                           for r in batch}
                for future in concurrent.futures.as_completed(futures):
                    verdicts[futures[future]] = future.result()
    finally:
        shutil.rmtree(cwd, ignore_errors=True)

    plain = [k for k in verdicts if not references.get(k, {}).get("seed_fails")]
    seed_fails = [k for k in verdicts if k not in plain]
    plain_bad = [k for k in plain if verdicts[k] != "match"]
    seed_bad = [k for k in seed_fails if verdicts[k] not in ("match", "seed defect")]
    print(f"{len(plain) - len(plain_bad)}/{len(plain)} requests match their reference "
          "in exit code and stdout SHA-256")
    for outcome in ("seed defect", "match"):
        count = sum(verdicts[k] == outcome for k in seed_fails)
        print(f"{count}/{len(seed_fails)} seed_fails requests: {outcome}")
    for key in sorted(plain_bad + seed_bad):
        print(f"FAIL {key}: {verdicts[key]}")
    return 1 if plain_bad or seed_bad else 0


if __name__ == "__main__":
    sys.exit(main())
