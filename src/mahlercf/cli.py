"""Command-line front end: reproducible, scriptable pipelines over the library.

Subcommands
-----------
cf           expand the continued fraction of a family member and print
             quotients, monic denominators, betas, and approximation rates
verify       check a named identity over a range and emit a JSON report
witness      search for (or replay) a p-adic non-bad-approximability witness
table        reproduce the per-prime orbit table (first usable index, residue,
             passing a-classes)
eval         evaluate f_d(a) or g_d(a) to a certified error bound, optionally
             with a certified real continued-fraction prefix
demo-hensel  lift a witness root p-adically and locate an exponent that meets it

Exit codes (stable contract): 0 success; 1 verification failure or nothing
found within bounds; 2 quotient-shape violation (expected for d >= 4);
3 precision exhausted after retries; 4 invalid arguments or bounds.

All output is deterministic for identical inputs; JSON and CSV carry a
timestamp field that --no-timestamp suppresses (text output never has one).
"""

import argparse
import re
import sys
from collections.abc import Iterable, Iterator

from ._identities import IDENTITY_D, IDENTITY_NAMES
from .errors import (
    InsufficientPrecision,
    InvalidParameter,
    MahlerCFError,
    NotFound,
    ScaleNotInvertible,
    SearchExhausted,
    ShapeViolation,
)

# Each subcommand imports the library functions it runs, so that building the
# parser loads no arithmetic and a request loads only what it uses.  The
# annotations that name library classes are never evaluated.

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_SHAPE = 2
EXIT_PRECISION = 3
EXIT_BAD_INPUT = 4

DEFAULT_P_BOUND = 40
DEFAULT_N0_BOUND = 16
DEFAULT_T_BOUND = 200
DEPTH_HARD_CAP = 2000


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with the bad-input code."""

    def error(self, message: str) -> None:  # type: ignore[override]
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def _parse_range(text: str) -> tuple[int, int]:
    try:
        lo_text, hi_text = text.split("..", 1)
        lo, hi = int(lo_text), int(hi_text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected A..B, got {text!r}") from exc
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return lo, hi


# Fraction("1e-N") builds 10**N, so the decimal exponent is bounded first.
EPS_EXPONENT_BOUND = 100_000


def _parse_fraction(text: str) -> "Fraction":
    from fractions import Fraction

    exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*\Z", text, re.IGNORECASE)
    try:
        if exponent and abs(int(exponent[1])) > EPS_EXPONENT_BOUND:
            raise argparse.ArgumentTypeError(
                f"eps exponent must lie within +-{EPS_EXPONENT_BOUND}: {text!r}"
            )
        value = Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational number: {text!r}") from exc
    if value <= 0:
        raise argparse.ArgumentTypeError("eps must be positive")
    return value


def _parse_primes(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}") from exc


def _timestamp() -> str:
    from datetime import datetime, timezone  # loaded only when a timestamp is printed
    return datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def _layout(items: Iterable[str], indent: str, brackets: str) -> Iterator[str]:
    """The list or object (brackets "[]" or "{}") whose items have the given
    texts, in pieces, as json.dumps(indent=2) lays it out at `indent`: each
    item on its own line two spaces deeper, and bare brackets when empty."""
    opening = brackets[0]
    for item in items:
        yield f"{opening}\n{indent}  {item}"
        opening = ","
    yield brackets if opening == brackets[0] else f"\n{indent}{brackets[1]}"


def _emit_json(fields: dict, args: argparse.Namespace) -> None:
    """Write json.dumps(fields, indent=2) and a newline, with "generated_at"
    last unless --no-timestamp.  A field whose value is an iterator is a list
    given as the texts of its items (see _layout), written one at a time, so
    that a large list is never held as one string."""
    import json

    if not args.no_timestamp:
        fields = {**fields, "generated_at": _timestamp()}
    opening = "{"
    for key, value in fields.items():
        sys.stdout.write(f"{opening}\n  {json.dumps(key)}: ")
        if isinstance(value, Iterator):
            sys.stdout.writelines(_layout(value, "  ", "[]"))
        else:
            sys.stdout.write(json.dumps(value, indent=2).replace("\n", "\n  "))
        opening = ","
    sys.stdout.write("\n}\n")


def _poly_json(poly: "RatPoly", indent: str) -> str:
    """poly as the object {"coeffs": {degree: reduced fraction string}} that
    json.dumps(indent=2) lays out at `indent`, with one gcd per coefficient."""
    from .polys import _ratio_text

    num, den = poly.scale.numerator, poly.scale.denominator
    terms = sorted(poly.int_coeffs().items())
    coeffs = "".join(_layout((f'"{deg}": "{_ratio_text(num, c, den)}"' for deg, c in terms),
                             indent + "  ", "{}"))
    return "".join(_layout((f'"coeffs": {coeffs}',), indent, "{}"))


def _write_cf_json(cf: "CFExpansion", args: argparse.Namespace) -> None:
    """Write the `cf` document ("a", "convergents", "betas" for --kind G)
    through _emit_json, one convergent at a time, building no payload."""
    fields = {
        "a": (_poly_json(a, "    ") for a in cf.partial_quotients),
        "convergents": (
            "".join(_layout((f'"n": {c.index}', f'"p": {_poly_json(c.p, "      ")}',
                             f'"q": {_poly_json(c.q, "      ")}',
                             f'"rate": {"null" if c.rate is None else c.rate}'), "    ", "{}"))
            for c in cf.convergents
        ),
    }
    if args.kind == "G":
        fields["betas"] = (f'"{cf.beta(n)}"' for n in range(2, cf.last_index + 1))
    _emit_json(fields, args)


# ---------------------------------------------------------------------------
# subcommand implementations
# ---------------------------------------------------------------------------


def _cmd_cf(args: argparse.Namespace) -> int:
    if args.d < 2:
        raise InvalidParameter("need d >= 2")
    if args.n < 1:
        raise InvalidParameter("need n >= 1")
    if args.n > DEPTH_HARD_CAP:
        raise InvalidParameter(f"depth {args.n} exceeds hard cap {DEPTH_HARD_CAP}")

    if args.kind == "G":
        if args.floor is not None:
            print("note: --floor is ignored for --kind G, which expands from "
                  "the default floor", file=sys.stderr)
        from .structure import beta_sequence

        # beta extraction enforces the quotient shape; d >= 4 violates it at a
        # small index and exits with the shape code.
        cf = beta_sequence(args.d, args.n).monic
    else:
        from .contfrac import convergent_soundness, expand_family

        cf, series = expand_family(args.d, args.kind, args.n, args.floor)
        convergent_soundness(series, cf)

    if args.output == "json":
        _write_cf_json(cf, args)
        return EXIT_OK

    print(f"continued fraction of {args.kind.lower()}_{args.d}, {args.n} quotients")
    print(f"a_0 = {cf.partial_quotients[0]}")
    for i, a in enumerate(cf.partial_quotients[1:], 1):
        # the rate of convergent i - 1 is deg a_i (Convergent.rate)
        rate = a.degree()
        print(f"a_{i} = {a}   [rate of convergent {i - 1}: {rate}]")
    if args.kind == "G":
        print("monic denominators and betas:")
        for i in range(1, args.n + 1):
            beta_text = f"   beta_{i} = {cf.beta(i)}" if i >= 2 else ""
            print(f"qhat_{i} = {cf.monic_denominator(i)}{beta_text}")
    return EXIT_OK


def _cmd_verify(args: argparse.Namespace) -> int:
    from .structure import verify_identity

    name = args.identity
    k_range = {"bzz": (2, args.n), "theorem1": args.m,
               "funceq": (0, abs(args.floor))}.get(name, args.k)
    d = args.d if args.d is not None else IDENTITY_D.get(name, 2)
    report = verify_identity(name, d, k_range)
    if args.output == "json":
        _emit_json({"identity": name, "d": d, "range": list(k_range),
                    "status": report.status, "failures": report.failures}, args)
    else:
        print(f"identity {name} (d={d}, range {k_range}): {report.status}")
        for failure in report.failures:
            print(f"  failure: {failure}")
    return EXIT_OK if report.status == "pass" else EXIT_FAIL


def _cmd_witness(args: argparse.Namespace) -> int:
    if args.replay is not None:
        import json

        from .padic import BadApproxWitness, revalidate_witness

        # A file that is not UTF-8 JSON, nests too deep for the parser or
        # holds an integer past the interpreter's digit limit is bad input;
        # one that cannot be opened is an i/o error (main).
        try:
            with open(args.replay, "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (ValueError, RecursionError) as exc:
            raise InvalidParameter(f"unreadable witness file {args.replay}: {exc}") from exc
        # revalidate_witness raises unless every stored field is confirmed
        witness = revalidate_witness(BadApproxWitness.from_json_dict(data))
        print(
            f"replay witness a={witness.a} d={witness.d} p={witness.p} "
            f"n0={witness.n0} t={witness.t} residue={witness.residue}: valid"
        )
        return EXIT_OK

    if args.a is None or args.d is None:
        raise InvalidParameter("witness requires --a and --d (or --replay FILE)")
    from .padic import witness_search

    # --threads and MAHLERCF_THREADS cap the worker count; the search runs
    # serially, which meets any cap.
    try:
        witness = witness_search(args.a, args.d, args.p_bound, args.n0_bound, args.t_bound)
    except NotFound as exc:
        print(f"no witness found: {exc}")
        return EXIT_FAIL
    payload = witness.to_json_dict()
    if args.save is not None:
        import json

        with open(args.save, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
    if args.output == "json":
        _emit_json(payload, args)
    else:
        print(
            f"witness for a={witness.a}, d={witness.d}: p={witness.p}, "
            f"n0={witness.n0}, t={witness.t}, residue={witness.residue}"
        )
        print(f"  conditions: {witness.conditions}")
        if args.save is not None:
            print(f"  saved to {args.save}; replay with: mahlercf witness --replay {args.save}")
        else:
            print("  save with --save FILE and replay with: mahlercf witness --replay FILE")
    return EXIT_OK


def _cmd_table(args: argparse.Namespace) -> int:
    from .padic import TABLE_PRIME_BOUND, orbit_table, prime_range

    if args.d != 2:
        raise InvalidParameter("the orbit table is defined for d = 2")
    top = args.p_max if args.primes is None else max(args.primes, default=0)
    if top > TABLE_PRIME_BOUND:
        raise InvalidParameter(f"table primes must not exceed {TABLE_PRIME_BOUND}, got {top}")
    if args.primes is not None:
        count = sum(1 for _ in prime_range(2, TABLE_PRIME_BOUND))
        if len(args.primes) > count:
            raise InvalidParameter(f"--primes lists {len(args.primes)} entries; at most {count}")
        primes = args.primes
    else:
        primes = list(prime_range(3, args.p_max + 1))
    if not primes:
        raise InvalidParameter("no primes requested")
    if args.t_bound < 1:
        raise InvalidParameter("--t-bound must be positive")
    rows = orbit_table(primes, args.t_bound, include_missing=args.include_missing)
    if args.output == "json":
        # each orbit is walked once for both lists
        rows_json = ("".join(_layout((
            f'"p": {r.p}', f'"t": {"null" if r.t is None else r.t}',
            f'"residue": {"null" if r.residue is None else r.residue}',
            f'"orbit": {"".join(_layout(map(str, orbit), "      ", "[]"))}',
            f'"a_classes": {"".join(_layout(map(str, r.classes_of(orbit)), "      ", "[]"))}',
        ), "    ", "{}")) for r in rows for orbit in (r.orbit,))
        _emit_json({"d": args.d, "t_bound": args.t_bound, "rows": rows_json}, args)
    elif args.output == "csv":
        if not args.no_timestamp:
            print(f"# generated_at: {_timestamp()}")
        print("p,t,residue,a_classes")
        for row in rows:  # t and residue are both None for an orbit without a root
            t, residue = ("", "") if row.t is None else (row.t, row.residue)
            print(f"{row.p},{t},{residue},{' '.join(f'+-{c}' for c in row.classes_of(row.orbit))}")
    else:
        for row in rows:
            classes = ", ".join(f"+-{c}" for c in row.classes_of(row.orbit))
            print(f"p={row.p}: first t={row.t}, residue={row.residue}, a in {{{classes}}} mod {row.p**2}")
    return EXIT_OK


def _cmd_eval(args: argparse.Namespace) -> int:
    from fractions import Fraction

    from .approx import eval_mahler, real_cf_prefix

    if args.cf_terms < 0:
        raise InvalidParameter("max_terms must be non-negative")
    eps = Fraction(1, 10**12) if args.eps is None else args.eps
    value = eval_mahler(args.a, args.d, eps, args.which)
    target = f"{args.which.lower()}_{args.d}({args.a})"
    # Render the value before the prefix walk, so that a value too long to
    # render fails at once; print nothing until both are done.
    if args.output == "json":
        v, e = value.value, value.error_bound
        payload = {"value": f"{v.numerator}/{v.denominator}",
                   "error_bound": f"{e.numerator}/{e.denominator}",
                   "decimal": value.decimal(), "target": target}
        if args.cf_terms:
            payload["cf_prefix"] = real_cf_prefix(value, args.cf_terms)
        _emit_json(payload, args)
        return EXIT_OK
    lines = [f"{target} = {value.decimal()}  (error <= {value.error_bound})"]
    if args.cf_terms:
        lines.append(f"certified continued-fraction prefix: {real_cf_prefix(value, args.cf_terms)}")
    print("\n".join(lines))
    return EXIT_OK


def _cmd_demo_hensel(args: argparse.Namespace) -> int:
    from .padic import check_conditions, convergent_denominators, hensel_divisibility_demo

    denominators = convergent_denominators(args.d, args.t)
    witness = check_conditions(args.a, args.d, args.p, args.n0, args.t, denominators[args.t])
    if not witness.passed:
        print(
            f"conditions fail at a={args.a}, d={args.d}, p={args.p}, "
            f"n0={args.n0}, t={args.t}: {witness.conditions}"
        )
        return EXIT_FAIL
    try:
        demo = hensel_divisibility_demo(witness, args.m, args.cap)
    except SearchExhausted as exc:
        print(f"no exponent found: {exc}")
        return EXIT_FAIL
    payload = {
        "a": args.a,
        "d": args.d,
        "p": args.p,
        "t": args.t,
        "m": args.m,
        "lifted_root": demo.lifted_root,
        "n": demo.n,
        "exponent_residue": demo.exponent_residue,
        "evaluation": 0,  # the demo raises unless q_t vanishes there
    }
    if args.output == "json":
        _emit_json(payload, args)
    else:
        print(
            f"root {witness.residue} mod {args.p}^2 lifts to {demo.lifted_root} "
            f"mod {args.p}^{args.m}"
        )
        print(
            f"n = {demo.n}: {args.a}^{args.d}^{demo.n} = {demo.exponent_residue} "
            f"mod {args.p}^{args.m}, and q_{args.t} evaluates to 0 there"
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser assembly and dispatch
# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="mahlercf", description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, outputs: tuple[str, ...]) -> None:
        p.add_argument("--output", choices=outputs, default="text")
        p.add_argument("--no-timestamp", action="store_true")

    p_cf = sub.add_parser("cf", help="expand a continued fraction")
    p_cf.add_argument("--d", type=int, required=True)
    p_cf.add_argument("--n", type=int, required=True)
    p_cf.add_argument("--kind", choices=("F", "G", "H", "U"), default="G")
    p_cf.add_argument("--floor", type=int, default=None)
    add_common(p_cf, ("text", "json"))

    p_verify = sub.add_parser("verify", help="verify a named identity")
    p_verify.add_argument("--identity", choices=IDENTITY_NAMES, required=True)
    p_verify.add_argument("--d", type=int, default=None)
    p_verify.add_argument("--k", type=_parse_range, default=(0, 30), metavar="A..B")
    p_verify.add_argument("--m", type=_parse_range, default=(0, 100), metavar="A..B")
    p_verify.add_argument("--n", type=int, default=200)
    p_verify.add_argument("--floor", type=int, default=200)
    add_common(p_verify, ("text", "json"))

    p_witness = sub.add_parser("witness", help="search for or replay a witness")
    p_witness.add_argument("--a", type=int, default=None)
    p_witness.add_argument("--d", type=int, default=None)
    p_witness.add_argument("--p-bound", type=int, default=DEFAULT_P_BOUND)
    p_witness.add_argument("--n0-bound", type=int, default=DEFAULT_N0_BOUND)
    p_witness.add_argument("--t-bound", type=int, default=DEFAULT_T_BOUND)
    p_witness.add_argument("--threads", type=int, default=None)
    p_witness.add_argument("--save", default=None, metavar="FILE")
    p_witness.add_argument("--replay", default=None, metavar="FILE")
    add_common(p_witness, ("text", "json"))

    p_table = sub.add_parser("table", help="per-prime orbit table")
    p_table.add_argument("--d", type=int, default=2)
    p_table.add_argument("--primes", type=_parse_primes, default=None)
    p_table.add_argument("--p-max", type=int, default=37)
    p_table.add_argument("--t-bound", type=int, default=DEFAULT_T_BOUND)
    p_table.add_argument("--include-missing", action="store_true")
    add_common(p_table, ("text", "json", "csv"))

    p_eval = sub.add_parser("eval", help="certified numeric evaluation")
    p_eval.add_argument("--a", type=int, required=True)
    p_eval.add_argument("--d", type=int, required=True)
    p_eval.add_argument("--which", choices=("F", "G"), default="F")
    p_eval.add_argument("--eps", type=_parse_fraction, default=None)
    p_eval.add_argument("--cf-terms", type=int, default=0)
    add_common(p_eval, ("text", "json"))

    p_hensel = sub.add_parser("demo-hensel", help="p-adic root lifting demo")
    p_hensel.add_argument("--a", type=int, required=True)
    p_hensel.add_argument("--d", type=int, required=True)
    p_hensel.add_argument("--p", type=int, required=True)
    p_hensel.add_argument("--n0", type=int, required=True)
    p_hensel.add_argument("--t", type=int, required=True)
    p_hensel.add_argument("--m", type=int, default=3)
    p_hensel.add_argument("--cap", type=int, default=None)
    add_common(p_hensel, ("text", "json"))

    return parser


_DISPATCH = {
    "cf": _cmd_cf,
    "verify": _cmd_verify,
    "witness": _cmd_witness,
    "table": _cmd_table,
    "eval": _cmd_eval,
    "demo-hensel": _cmd_demo_hensel,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except ShapeViolation as exc:
        print(f"quotient shape violated at index {exc.index}: {exc}", file=sys.stderr)
        return EXIT_SHAPE
    except InsufficientPrecision as exc:
        print(f"precision exhausted: {exc}", file=sys.stderr)
        return EXIT_PRECISION
    except (InvalidParameter, ScaleNotInvertible) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except MahlerCFError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL


if __name__ == "__main__":
    raise SystemExit(main())
