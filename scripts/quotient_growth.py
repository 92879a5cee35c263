#!/usr/bin/env python3
"""For d >= 4: show the strictly growing approximation rates of the partial
products, the first partial quotient of degree >= d in the expansion of g_d,
and the certified effective irrationality exponents of f_d(a)."""

import argparse
from fractions import Fraction

from mahlercf.approx import irrationality_witness
from mahlercf.errors import MahlerCFError
from mahlercf.structure import well_approx_rate, well_approx_report


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--d", type=int, default=4)
    parser.add_argument("--a", type=int, default=2)
    parser.add_argument("--k-max", type=int, default=3)
    args = parser.parse_args()
    if args.d < 4:
        parser.error("growth phenomena require d >= 4")

    try:
        report = well_approx_report(args.d, args.k_max)
        witness = irrationality_witness(args.a, args.d, args.k_max)
    except MahlerCFError as exc:
        parser.error(str(exc))
    print(f"approximation rates of r_k for d={args.d}, k=0..{args.k_max}:")
    for k, rate in enumerate(report.rates):
        print(f"  k={k}: rate {rate} (closed form {well_approx_rate(args.d, k)})")
    print(f"first partial quotient of degree >= {args.d}: index "
          f"{report.first_large_quotient_index}, degree "
          f"{report.first_large_quotient_degree}")

    print(f"\neffective irrationality exponent samples for f_{args.d}({args.a}):")
    for sample in witness.samples:
        print(f"  k={sample.k}: denominator ~10^{len(str(sample.denominator)) - 1}, "
              f"exponent >= {sample.exponent_decimal()}")
    floor_tau = Fraction(2 * args.d - 3, 2)
    verdict = witness.exponent_at_least(floor_tau)
    print(f"exponent >= {floor_tau} ({float(floor_tau)}): {'yes' if verdict else 'no'}")
    return 0 if verdict else 1


if __name__ == "__main__":
    raise SystemExit(main())
