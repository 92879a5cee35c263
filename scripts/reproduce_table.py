#!/usr/bin/env python3
"""Reproduce the per-prime witness survey as `mahlercf table --include-missing
--no-timestamp` prints it: the squaring orbits of the nontrivial 1-units
mod p^2, each with the first convergent denominator q_t that has a certified
root in it. With --all-hits, also list every later (t, residue) pair, so that
a quoted pair is found even when it is not the first hit in its orbit."""

import argparse

from mahlercf.cli import main as mahlercf
from mahlercf.padic import enumerate_orbit_hits, prime_range


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=str, default=None,
                        help="comma-separated list; default all odd primes <= p-max")
    parser.add_argument("--p-max", type=int, default=37)
    parser.add_argument("--t-bound", type=int, default=200)
    parser.add_argument("--all-hits", action="store_true")
    parser.add_argument("--csv", action="store_true")
    args = parser.parse_args()

    table = ["table", "--p-max", str(args.p_max), "--t-bound", str(args.t_bound),
             *(["--primes", args.primes] if args.primes else []),
             *(["--output", "csv"] if args.csv else []), "--include-missing", "--no-timestamp"]
    code = mahlercf(table)
    if code or not args.all_hits:
        return code
    print()
    primes = ([int(p) for p in args.primes.split(",") if p.strip()] if args.primes
              else prime_range(3, args.p_max + 1))
    for p in primes:
        hits = enumerate_orbit_hits(p, args.t_bound)
        rendered = ", ".join(f"(t={t}, r={r})" for t, r in hits)
        print(f"p={p} all certified pairs: {rendered or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
