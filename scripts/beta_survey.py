#!/usr/bin/env python3
"""Print the monic-recurrence parameters beta_n (and for d=3 the derived
a_k/b_k coefficients) over a range.  The betas are those the expansion
reads off its convergent chain;
beta_sequence adds the check that every monic quotient has the rigid shape.
For an independent check of the d=2 betas, run ``mahlercf verify --identity
bzz``, which compares them with the closed recurrence."""

import argparse

from mahlercf.errors import MahlerCFError
from mahlercf.structure import beta_sequence


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=2, choices=(2, 3))
    parser.add_argument("--n", type=int, default=40)
    args = parser.parse_args()

    try:
        seq = beta_sequence(args.d, args.n)
    except MahlerCFError as exc:
        parser.error(str(exc))

    print(f"beta parameters for d={args.d}, n=2..{args.n}")
    print(f"{'n':>4}  {'beta_n':>24}")
    for n in range(2, args.n + 1):
        print(f"{n:>4}  {str(seq.beta(n)):>24}")

    if args.d == 3:
        print(f"\nderived coefficients for d=3, k=1..{args.n // 6}")
        print(f"{'k':>4}  {'a_k':>12}  {'b_k':>12}")
        for k in range(1, args.n // 6 + 1):
            a_k = seq.a_coeff(k)
            b_k = seq.b_coeff(k) if k >= 4 else "-"
            print(f"{k:>4}  {str(a_k):>12}  {str(b_k):>12}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
