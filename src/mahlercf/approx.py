"""Certified numeric evaluation of the product series and integer approximants.

Everything here is exact.  Values and error bounds are `Fraction`s, and every
inequality between real quantities is decided by integer cross-multiplication.
Floating point never enters; decimal strings are rendered digit by digit from
exact rationals and only for human consumption.

Two families of approximants live here:

* Partial products ``r_k(a) = prod_{t<=k} (1 - a^{-d^t})`` with the tail bound
  ``|f_d(a) - r_k(a)| <= 2 / a^{d^{k+1}}`` (the neglected factors differ from 1
  by a geometric-series tail dominated by twice its first term).
* Iterated approximants obtained from a polynomial convergent (p_t, q_t) of the
  series g_d by applying the self-similarity g_d(x) = x^{d^2-2d} (x-1) g_d(x^d)
  n times: the rational number
  ``prod_{k<n} a^{(d^2-2d) d^k} (a^{d^k}-1) * p_t(a^{d^n}) / q_t(a^{d^n})``
  approximates g_d(a) with quality O(1/q^2), and its numerator carries the
  divisibility ladder exploited by the p-adic witness conditions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .contfrac import expand_family
from .errors import (
    IdentityFailure,
    InvalidParameter,
    NotFound,
    PrecisionCascade,
    ScaleNotInvertible,
)
from .polys import IntPolyWithContent, RatPoly, poly_normalize_integer, poly_substitute_power

__all__ = [
    "CertifiedValue",
    "IteratedApproximant",
    "ExponentSample",
    "IrrationalityReport",
    "partial_product_value",
    "eval_mahler",
    "iterated_approximants",
    "iterated_pair_polynomials",
    "locate_as_convergent",
    "quality_sup",
    "divisibility_ladder",
    "real_cf_prefix",
    "irrationality_witness",
]


# ---------------------------------------------------------------------------
# certified values
# ---------------------------------------------------------------------------


def _fraction_text(value: Fraction) -> str:
    return f"{value.numerator}/{value.denominator}"


def _decimal_render(value: Fraction, digits: int) -> str:
    """Render `digits` decimal places of `value` exactly, with a trailing
    ellipsis marking truncation."""
    sign = "-" if value < 0 else ""
    v = -value if value < 0 else value
    int_part = v.numerator // v.denominator
    frac_part = v - int_part
    rendered = []
    for _ in range(max(0, digits)):
        frac_part *= 10
        digit = frac_part.numerator // frac_part.denominator
        rendered.append(str(digit))
        frac_part -= digit
    if not rendered:
        return f"{sign}{int_part}"
    return f"{sign}{int_part}." + "".join(rendered) + "…"


@dataclass(frozen=True)
class CertifiedValue:
    """An exact rational `value` with a guaranteed `error_bound`:
    the targeted real number lies in [value - error_bound, value + error_bound].
    """

    value: Fraction
    error_bound: Fraction
    target: str

    def __post_init__(self) -> None:
        if self.error_bound < 0:
            raise InvalidParameter("error_bound must be non-negative")

    def interval(self) -> tuple[Fraction, Fraction]:
        return (self.value - self.error_bound, self.value + self.error_bound)

    def certified_digits(self, cap: int = 50) -> int:
        """Number of decimal places that are pinned down by the error bound."""
        if self.error_bound == 0:
            return cap
        digits = 0
        threshold = Fraction(1, 2)
        while digits < cap and self.error_bound <= threshold / 10:
            threshold /= 10
            digits += 1
        return digits

    def decimal(self, digits: int | None = None) -> str:
        if digits is None:
            digits = max(1, self.certified_digits(cap=30))
        return _decimal_render(self.value, digits)

    def to_json_dict(self) -> dict:
        return {
            "value": _fraction_text(self.value),
            "error_bound": _fraction_text(self.error_bound),
            "decimal": self.decimal(),
            "target": self.target,
        }


def partial_product_value(a: int, d: int, k: int) -> Fraction:
    """The exact partial product prod_{t=0..k} (1 - a^{-d^t})."""
    if a < 2 or d < 2 or k < 0:
        raise InvalidParameter("need a >= 2, d >= 2, k >= 0")
    out = Fraction(1)
    for t in range(k + 1):
        out *= 1 - Fraction(1, a ** (d**t))
    return out


def _tail_bound(a: int, d: int, k: int) -> Fraction:
    # Factors omitted after index k multiply the value by
    # prod_{t>k}(1 - a^{-d^t}) in [1 - 2 a^{-d^{k+1}}, 1], and the partial
    # product itself lies in (0, 1]; hence the absolute error is at most
    # 2 / a^{d^{k+1}}.
    return Fraction(2, a ** (d ** (k + 1)))


def eval_mahler(a: int, d: int, eps: Fraction, which: str = "F") -> CertifiedValue:
    """Evaluate f_d(a) (``which="F"``) or g_d(a) = a^{1-d} f_d(a) (``"G"``)
    to guaranteed absolute error at most `eps`."""
    if a < 2 or d < 2:
        raise InvalidParameter("need a >= 2 and d >= 2")
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidParameter("eps must be positive")
    if which not in ("F", "G"):
        raise InvalidParameter("which must be 'F' or 'G'")
    monomial = Fraction(1, a ** (d - 1)) if which == "G" else Fraction(1)
    k = 0
    while _tail_bound(a, d, k) * monomial > eps:
        k += 1
    value = partial_product_value(a, d, k) * monomial
    bound = _tail_bound(a, d, k) * monomial
    name = "f" if which == "F" else "g"
    return CertifiedValue(value=value, error_bound=bound, target=f"{name}_{d}({a})")


# ---------------------------------------------------------------------------
# iterated integer approximants
# ---------------------------------------------------------------------------


def _eval_integer_poly(coeffs: dict[int, int], point: int) -> int:
    return sum(c * point**deg for deg, c in coeffs.items())


def _prefactor_value(a: int, d: int, n: int) -> int:
    """prod_{k<n} a^{(d^2-2d) d^k} * (a^{d^k} - 1), the accumulated factor from
    iterating g_d(x) = x^{d^2-2d} (x-1) g_d(x^d) n times, evaluated at a."""
    out = 1
    shift = d * d - 2 * d
    for k in range(n):
        step = d**k
        out *= a ** (shift * step) * (a**step - 1)
    return out


def _prefactor_polynomial(d: int, n: int) -> RatPoly:
    out = RatPoly.one()
    shift = d * d - 2 * d
    for k in range(n):
        step = d**k
        out = out * RatPoly.monomial(shift * step) * (RatPoly.monomial(step) - RatPoly.one())
    return out


@dataclass(frozen=True)
class IteratedApproximant:
    """Integer fraction numerator/denominator approximating g_d(a), built from
    convergent index t of g_d by n substitution steps; `quality_low/high` is a
    certified interval around |g_d(a) - numerator/denominator| * denominator^2.
    """

    a: int
    d: int
    t: int
    n: int
    numerator: int
    denominator: int
    quality_low: Fraction
    quality_high: Fraction


def _convergent_pair(d: int, t: int) -> tuple[RatPoly, RatPoly]:
    cf, _ = expand_family(d, "G", t)
    conv = cf.convergents[t]
    return conv.p, conv.q


def _integer_pair(p: RatPoly, q: RatPoly) -> tuple[dict[int, int], IntPolyWithContent]:
    """The convergent p/q of g_d over integers: q split by
    ``poly_normalize_integer`` with the scale of monic q, and the integer
    coefficients of p scaled by the same factor.  p is the polynomial part of
    q * g_d and g_d has integer coefficients, so the scaled p is integral;
    IdentityFailure if it is not."""
    q_int = poly_normalize_integer(q).monic()
    p_int = {}
    for deg, c in (p * (1 / (q.leading_coefficient() * q_int.scale))).coeffs.items():
        if c.denominator != 1:
            raise IdentityFailure("convergent numerator not integral over the primitive q")
        p_int[deg] = c.numerator
    return p_int, q_int


def _quality_interval(
    a: int,
    d: int,
    frac: Fraction,
    denominator: int,
) -> tuple[Fraction, Fraction]:
    """Certified interval for |g_d(a) - frac| * denominator^2, refining the
    series evaluation until the error bound is small against the gap."""
    eps = Fraction(1, max(4, denominator * denominator))
    square = denominator * denominator
    floor_eps = Fraction(1, square * 2**40)
    for _ in range(12):
        cert = eval_mahler(a, d, eps, which="G")
        gap = abs(cert.value - frac)
        if cert.error_bound <= gap / 4 or cert.error_bound <= floor_eps:
            low = gap - cert.error_bound
            if low < 0:
                low = Fraction(0)
            high = gap + cert.error_bound
            return low * square, high * square
        eps = eps * eps
    raise PrecisionCascade(
        f"could not separate approximant from g_{d}({a}) within 12 refinements"
    )


def iterated_approximants(
    a: int, d: int, t: int, n_max: int
) -> tuple[IteratedApproximant, ...]:
    """Build the integer approximants of g_d(a) for n = 0..n_max from
    convergent index t, with certified quality intervals.

    For d = 3 the index t must be even: odd-index convergents expand with a
    degree-1 next quotient, which is too weak for the substituted fraction to
    stay a convergent.
    """
    if d not in (2, 3):
        raise InvalidParameter("iterated approximants are defined for d in {2, 3}")
    if a < 2:
        raise InvalidParameter("need a >= 2")
    if t < 1:
        raise InvalidParameter("need t >= 1")
    if d == 3 and t % 2 != 0:
        raise InvalidParameter("for d = 3 the convergent index t must be even")
    if n_max < 0:
        raise InvalidParameter("need n_max >= 0")
    p_int, q_int = _integer_pair(*_convergent_pair(d, t))
    out = []
    for n in range(n_max + 1):
        point = a ** (d**n)
        prefactor = _prefactor_value(a, d, n)
        numerator = prefactor * _eval_integer_poly(p_int, point)
        denominator = _eval_integer_poly(q_int.int_coeffs(), point)
        if denominator == 0:
            raise InvalidParameter(f"denominator vanished at n={n}")
        if denominator < 0:
            numerator, denominator = -numerator, -denominator
        low, high = _quality_interval(a, d, Fraction(numerator, denominator), denominator)
        out.append(
            IteratedApproximant(
                a=a,
                d=d,
                t=t,
                n=n,
                numerator=numerator,
                denominator=denominator,
                quality_low=low,
                quality_high=high,
            )
        )
    return tuple(out)


def quality_sup(approximants: Iterable[IteratedApproximant]) -> Fraction:
    """The measured supremum of the quality upper bounds (empirical constant)."""
    sup = Fraction(0)
    for approx in approximants:
        if approx.quality_high > sup:
            sup = approx.quality_high
    return sup


def iterated_pair_polynomials(d: int, t: int, n: int) -> tuple[RatPoly, RatPoly]:
    """The polynomial form of the iterated approximant: numerator
    prod_{k<n} x^{(d^2-2d) d^k} (x^{d^k} - 1) * p_t(x^{d^n}) and denominator
    q_t(x^{d^n})."""
    if d not in (2, 3):
        raise InvalidParameter("defined for d in {2, 3}")
    if d == 3 and t % 2 != 0:
        raise InvalidParameter("for d = 3 the convergent index t must be even")
    p_poly, q_poly = _convergent_pair(d, t)
    step = d**n
    return (
        _prefactor_polynomial(d, n) * poly_substitute_power(p_poly, step),
        poly_substitute_power(q_poly, step),
    )


def locate_as_convergent(d: int, numerator: RatPoly, denominator: RatPoly) -> int:
    """Return the convergent index of g_d whose fraction equals
    numerator/denominator, or raise NotFound.

    The search expands g_d deep enough to cover deg(denominator); monic
    denominators are compared first, then the numerators are cross-multiplied.
    """
    deg = denominator.degree()
    if not isinstance(deg, int):
        raise InvalidParameter("denominator must be nonzero")
    # denominator degrees grow at least by 1 per index, so deg+1 suffices
    max_index = deg + 1
    cf, _ = expand_family(d, "G", max_index)
    target_monic = denominator.monic()
    for conv in cf.convergents:
        if conv.q.degree() == deg and conv.q.monic() == target_monic:
            if conv.p * denominator == numerator * conv.q:
                return conv.index
    raise NotFound(
        f"fraction with denominator degree {deg} is not a convergent of g_{d} "
        f"within index {max_index}"
    )


def divisibility_ladder(witness, n_offset_max: int = 5) -> tuple[tuple[int, int, int], ...]:
    """For a validated witness (fields a, d, p, n0, t), verify exactly that
    p^{n-n0} divides the iterated numerator for n = n0 .. n0+n_offset_max.

    Returns tuples (n, required_exponent, actual_valuation).  Raises
    IdentityFailure on the first miss and ScaleNotInvertible if the
    denominator-clearing factor shares a factor with p.
    """
    a, d, p, n0, t = witness.a, witness.d, witness.p, witness.n0, witness.t
    p_int, q_int = _integer_pair(*_convergent_pair(d, t))
    scale = q_int.scale.denominator
    if scale % p == 0:
        raise ScaleNotInvertible(
            f"clearing factor {scale} is divisible by p={p}; ladder undefined"
        )
    results = []
    for n in range(n0, n0 + n_offset_max + 1):
        point = a ** (d**n)
        numerator = _prefactor_value(a, d, n) * _eval_integer_poly(p_int, point)
        required = n - n0
        valuation = 0
        value = numerator
        while value != 0 and value % p == 0 and valuation < required + 64:
            value //= p
            valuation += 1
        if numerator % (p**required) != 0:
            raise IdentityFailure(
                f"p^{required} does not divide the iterated numerator at n={n} "
                f"(a={a}, d={d}, p={p}, t={t})"
            )
        results.append((n, required, valuation))
    return tuple(results)


# ---------------------------------------------------------------------------
# real continued fractions from certified intervals
# ---------------------------------------------------------------------------


def real_cf_prefix(value: CertifiedValue, max_terms: int) -> list[int]:
    """Integer continued-fraction prefix certified by the interval
    [value - bound, value + bound]: emits partial quotients only while both
    endpoints agree, stopping at the first disagreement (short output is the
    degradation mode, never a wrong quotient)."""
    if max_terms < 0:
        raise InvalidParameter("max_terms must be non-negative")
    low, high = value.interval()
    out: list[int] = []
    exact = value.error_bound == 0
    while len(out) < max_terms:
        floor_low = math.floor(low)
        floor_high = math.floor(high)
        if floor_low != floor_high:
            break
        out.append(floor_low)
        low -= floor_low
        high -= floor_high
        if exact:
            if low == 0:
                break
            low = high = 1 / low
            continue
        if low <= 0:
            # lower endpoint hit an integer: the next quotient is unbounded
            break
        # reciprocal reverses the interval order
        low, high = 1 / high, 1 / low
    return out


# ---------------------------------------------------------------------------
# irrationality measure of f_d(a) for d >= 4
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ExponentSample:
    """One partial product r_k(a) = p/denominator viewed as a rational
    approximation of f_d(a), with its certified error and the exponent it
    witnesses: error_upper <= denominator^(-exponent)."""

    k: int
    denominator: int
    error_upper: Fraction
    proof_inequality: bool
    exponent_64ths: int

    def exponent_decimal(self) -> str:
        thousandths = self.exponent_64ths * 1000 // 64
        return f"{thousandths // 1000}.{thousandths % 1000:03d}"


@dataclass(frozen=True)
class IrrationalityReport:
    a: int
    d: int
    k_max: int
    samples: tuple[ExponentSample, ...]

    def exponent_at_least(self, tau: Fraction) -> bool:
        """Exact check that the deepest sample certifies exponent >= tau."""
        tau = Fraction(tau)
        sample = self.samples[-1]
        err = sample.error_upper
        # err <= q^(-tau)  <=>  err^tau.den * q^tau.num <= 1
        lhs = err.numerator**tau.denominator * sample.denominator**tau.numerator
        rhs = err.denominator**tau.denominator
        return lhs <= rhs


def _exponent_64ths(error: Fraction, denominator: int, cap_64ths: int) -> int:
    """Largest m with error <= denominator^(-m/64), by binary search with exact
    integer comparisons: error^64 * denominator^m <= 1."""
    num64 = error.numerator**64
    den64 = error.denominator**64
    lo, hi = 0, cap_64ths
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if num64 * denominator**mid <= den64:
            lo = mid
        else:
            hi = mid - 1
    return lo


def irrationality_witness(a: int, d: int, k_max: int) -> IrrationalityReport:
    """Measure the irrationality exponent witnessed by the partial products of
    f_d(a) for d >= 4: each r_k(a) has denominator a^{(d^{k+1}-1)/(d-1)} and
    error at most 2/a^{d^{k+1}}, so the effective exponent approaches d - 1
    from below as k grows.  All comparisons are exact."""
    if d < 4:
        raise InvalidParameter("irrationality witness requires d >= 4")
    if a < 2:
        raise InvalidParameter("need a >= 2")
    if k_max < 0:
        raise InvalidParameter("need k_max >= 0")
    samples = []
    for k in range(k_max + 1):
        power = d ** (k + 1)
        denominator = a ** ((power - 1) // (d - 1))
        error_upper = Fraction(2, a**power)
        # the proof's display: 2/a^{d^{k+1}} <= denominator^{-(d-1)}
        #   <=> 2 * a^{d^{k+1} - 1} <= a^{d^{k+1}}  <=>  2 <= a
        proof_ok = 2 * denominator ** (d - 1) <= a**power
        exponent = _exponent_64ths(error_upper, denominator, cap_64ths=64 * (d + 1))
        # internal consistency: a deeper partial product stays within the bound
        deeper = partial_product_value(a, d, k + 2)
        shallow = partial_product_value(a, d, k)
        if abs(deeper - shallow) > error_upper:
            raise IdentityFailure(
                f"tail bound violated at a={a}, d={d}, k={k}"
            )
        samples.append(
            ExponentSample(
                k=k,
                denominator=denominator,
                error_upper=error_upper,
                proof_inequality=proof_ok,
                exponent_64ths=exponent,
            )
        )
    return IrrationalityReport(a=a, d=d, k_max=k_max, samples=tuple(samples))
