#!/usr/bin/env python3
"""Reproduce the per-prime witness survey: for each prime, the squaring
orbits of the nontrivial 1-units mod p^2 and the first convergent
denominator q_t with a certified root in each orbit. With --all-hits, also
list every later (t, residue) pair so externally quoted rows can be located
even when they are not the first hit in their orbit."""

import argparse
import sys

from mahlercf.padic import enumerate_orbit_hits, orbit_table, orbit_table_csv, prime_range


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--primes", type=str, default=None,
                        help="comma-separated list; default all odd primes <= p-max")
    parser.add_argument("--p-max", type=int, default=37)
    parser.add_argument("--t-bound", type=int, default=200)
    parser.add_argument("--all-hits", action="store_true")
    parser.add_argument("--csv", action="store_true")
    args = parser.parse_args()

    if args.primes:
        primes = [int(p) for p in args.primes.split(",")]
    else:
        primes = list(prime_range(3, args.p_max + 1))

    rows = orbit_table(primes, args.t_bound, include_missing=True)
    if args.csv:
        sys.stdout.writelines(orbit_table_csv(rows))
    else:
        for row in rows:
            classes = ", ".join(f"+-{c}" for c in row.a_classes)
            if row.t is None:
                print(f"p={row.p}: no hit <= {args.t_bound} for orbit covering {{{classes}}}")
            else:
                print(f"p={row.p}: first t={row.t}, residue={row.residue}, "
                      f"a in {{{classes}}} mod {row.p**2}")

    if args.all_hits:
        print()
        for p in primes:
            hits = enumerate_orbit_hits(p, args.t_bound)
            rendered = ", ".join(f"(t={t}, r={r})" for t, r in hits)
            print(f"p={p} all certified pairs: {rendered or 'none'}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
