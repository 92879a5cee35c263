"""Record the reference output of every request on every workload menu.

    python3 perfbench/make_references.py

Run at the commit whose outputs are the reference (the benchmark's seed
commit); it rewrites perfbench/references.json.  Each request runs as
``mahlercf <argv> --no-timestamp``; the entry keeps the exit code, the SHA-256
and size of stdout, and ``seed_fails``.  A request whose plain run dies with
a traceback is recorded from a rerun with Python's 4300-digit limit on
int-to-str conversion lifted, and is marked ``seed_fails``: its reference is
what the seed code prints when that limit does not stop it.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import json
import shutil
import sys
import tempfile

import checks
from run import REFERENCES, ROOT, WORK_ROOT, execute
from workloads import WORKLOADS, Request, menu

JOBS = 2  # requests recorded at once; timings do not matter here

UNLIMITED = (
    "import sys; sys.set_int_max_str_digits(0); from mahlercf.cli import main; "
    "raise SystemExit(main(sys.argv[1:]))"
)


def record(argv: tuple[str, ...], cwd) -> dict:
    args = list(argv) + ["--no-timestamp"]
    _, code, out, err, _ = execute([sys.executable, "-m", "mahlercf.cli"] + args, cwd)
    seed_fails = checks.TRACEBACK in err
    if seed_fails:
        _, code, out, err, _ = execute([sys.executable, "-c", UNLIMITED] + args, cwd)
        if checks.TRACEBACK in err:
            raise RuntimeError(f"{' '.join(argv)} fails even without the digit limit")
    problem = checks.independent_check(Request(argv), out)
    if problem:
        raise RuntimeError(f"{' '.join(argv)}: {problem}")
    return {"exit": code, "sha256": hashlib.sha256(out).hexdigest(), "bytes": len(out),
            "seed_fails": seed_fails}


def main() -> int:
    argparse.ArgumentParser(description=__doc__.split("\n\n")[0]).parse_args()
    requests = {r.key: r for w in WORKLOADS for r in menu(w)}
    refs = {}
    # Replays read files that the --save requests write, so they run last.
    first = [r for r in requests.values() if "--replay" not in r.argv]
    last = [r for r in requests.values() if "--replay" in r.argv]
    WORK_ROOT.mkdir(exist_ok=True)
    cwd = tempfile.mkdtemp(prefix="references-", dir=WORK_ROOT)
    try:
        with concurrent.futures.ThreadPoolExecutor(JOBS) as pool:
            for batch in (first, last):
                futures = {pool.submit(record, r.argv, cwd): r.key for r in batch}
                for done, future in enumerate(concurrent.futures.as_completed(futures), 1):
                    refs[futures[future]] = future.result()
                    print(f"{done}/{len(batch)} {futures[future]}", file=sys.stderr)
    finally:
        shutil.rmtree(cwd, ignore_errors=True)
    REFERENCES.write_text(json.dumps(dict(sorted(refs.items())), indent=1) + "\n")
    print(f"wrote {len(refs)} references to {REFERENCES.relative_to(ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
