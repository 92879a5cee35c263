"""Exact truncated Laurent series in x^{-1} with precision-floor tracking.

A ``TruncatedLaurentSeries`` stores finitely many exact coefficients for all
degrees >= ``floor``; degrees below the floor are unknown, not zero.  Every
operation computes the deepest floor at which its result is still exact:

* add/sub: ``max`` of the floors;
* multiply by an exactly-known Laurent polynomial b: floor + top-degree(b);
* shift by x^k: floor + k;
* substitute x -> x^d: floor becomes d * floor (intermediate degrees that are
  not multiples of d are exactly zero, hence known).

The family generators produce the infinite products

    f_d(x) = prod_{t>=0} (1 - x^{-d^t})

and the companions g_d = x^{-(d-1)} f_d, h_d = x^{-1} f_d,
u_d = (1 - x^{-1}) f_d, exactly down to any requested floor: factors with
d^t > -floor cannot touch degrees >= floor, so the product is finite.  It
is a disjoint union, not a product: d^t exceeds 1 + d + ... + d^{t-1}, so
each factor adds a negated, shifted copy of the terms so far that overlaps
none of them, and every coefficient is 0 or +-1.

A rational function p/q enters through ``from_fraction``, the Euclidean
quotient of x^{-floor} p by q shifted back by x^floor; the benchmark tracer
names it, so it stays while the tracer does.

A series is stored in the form ``polys`` gives every value: one rational
scale times a primitive integer map (content 1, top coefficient positive),
held by the base class it shares with ``RatPoly``.  A sum and a floored
product are one ``polys._mul_add`` each, with one content pass; negation is
a change of scale.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Union

from .errors import (
    InsufficientPrecision,
    InvalidParameter,
    MismatchAt,
)
from .polys import _ONE, _ZERO, RatPoly, _divide, _mul_add, _ScaledIntMap

_Scalar = Union[int, Fraction]

FAMILY_KINDS = ("F", "G", "H", "U")
# Deepest verify_functional_equations floor.  At d = 2, `verify --identity
# funceq --floor 100000` takes about 0.5 s end to end at a peak RSS of about
# 100 MB on a 2-core Xeon (Python 3.11.7), median of 3 runs.
FUNCEQ_FLOOR_BOUND = 100_000


class TruncatedLaurentSeries(_ScaledIntMap):
    """Finitely many exact coefficients of a Laurent series in x^{-1}, all
    of degree >= ``floor``."""

    __slots__ = ("_floor",)

    def __init__(self, coeffs: Mapping[int, _Scalar], floor: int):
        if not isinstance(floor, int):
            raise InvalidParameter(f"floor must be an integer, got {floor!r}")
        super().__init__(coeffs, floor)
        self._floor = floor

    @classmethod
    def _of(cls, scale: Fraction, ints: dict[int, int], floor: int) -> "TruncatedLaurentSeries":
        """The series scale * ints down to floor, for a map in normal form."""
        series = super()._of(scale, ints)
        series._floor = floor
        return series

    # -- queries ------------------------------------------------------

    @property
    def floor(self) -> int:
        return self._floor

    def coeff(self, degree: int) -> Fraction:
        if degree < self._floor:
            raise InsufficientPrecision(
                f"coefficient at degree {degree} is below the floor {self._floor}"
            )
        return super().coeff(degree)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        return _mul_add(_ONE, self, other, max(self._floor, other._floor))

    def __sub__(self, other: "TruncatedLaurentSeries") -> "TruncatedLaurentSeries":
        return self + other.negate()

    def negate(self) -> "TruncatedLaurentSeries":
        return TruncatedLaurentSeries._of(-self._scale, self._ints, self._floor)

    def mul_laurent(self, poly: Mapping[int, _Scalar]) -> "TruncatedLaurentSeries":
        """Multiply by an exactly-known Laurent polynomial (degree -> coeff).

        The result floor is floor + max degree of the polynomial: the unknown
        tail (degrees <= floor-1) shifted up by the top monomial is the first
        contamination.
        """
        factor = TruncatedLaurentSeries(poly, min(poly, default=0))
        return _mul_add(self, factor, _NIL, self._floor + max(factor._ints, default=0))

    def shift(self, offset: int) -> "TruncatedLaurentSeries":
        """Multiply by x^offset (exact monomial: floor moves by offset)."""
        return TruncatedLaurentSeries._of(
            self._scale, {deg + offset: c for deg, c in self._ints.items()}, self._floor + offset
        )

    def substitute_power(self, d: int) -> "TruncatedLaurentSeries":
        """Return the series with x replaced by x^d; floor becomes d*floor."""
        if not isinstance(d, int) or d < 1:
            raise InvalidParameter(f"substitution power must be a positive integer, got {d!r}")
        return TruncatedLaurentSeries._of(
            self._scale, {deg * d: c for deg, c in self._ints.items()}, self._floor * d
        )

    # -- identity -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TruncatedLaurentSeries):
            return NotImplemented
        return (self._floor, self._scale, self._ints) == (other._floor, other._scale, other._ints)

    def __hash__(self) -> int:
        return hash((self._floor, self._scale, frozenset(self._ints.items())))

    # -- construction from rational functions ---------------------------

    @classmethod
    def from_fraction(cls, p: RatPoly, q: RatPoly, floor: int) -> "TruncatedLaurentSeries":
        """p/q down to floor: the Euclidean quotient of x^{-floor} p by q, shifted back."""
        shifted = {deg - floor: c for deg, c in p.int_coeffs().items()}
        scale, ints, _, _ = _divide(shifted, q.int_coeffs())
        return cls._of(p.scale / q.scale * scale, {k + floor: c for k, c in ints.items()}, floor)

    # -- rendering ----------------------------------------------------

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"TruncatedLaurentSeries(floor={self._floor}, terms={len(self._ints)})"

    def __str__(self) -> str:
        if not self._ints:
            return f"0 (down to x^{self._floor})"
        return f"{super().__str__()}  (exact down to x^{self._floor})"


_NIL = TruncatedLaurentSeries({}, 0)  # the zero addend of a floored product


def generate(d: int, kind: str, floor: int) -> TruncatedLaurentSeries:
    """Generate one of the four studied series exactly down to floor:
    F = f_d, G = x^{-(d-1)} f_d, H = x^{-1} f_d, U = (1 - x^{-1}) f_d."""
    if not isinstance(d, int) or d < 2:
        raise InvalidParameter(f"family parameter d must be an integer >= 2, got {d!r}")
    if kind not in FAMILY_KINDS:
        raise InvalidParameter(f"family kind must be one of {FAMILY_KINDS}, got {kind!r}")
    if not isinstance(floor, int) or floor > 0:
        raise InvalidParameter(f"floor must be an integer <= 0, got {floor!r}")
    if kind == "F":
        return _generate_f(d, floor)
    if kind == "G":
        return _generate_f(d, floor + (d - 1)).shift(-(d - 1))
    if kind == "H":
        return _generate_f(d, floor + 1).shift(-1)
    return _generate_f(d, floor).mul_laurent({0: 1, -1: -1})


def _generate_f(d: int, floor: int) -> TruncatedLaurentSeries:
    """f_d down to floor as the disjoint union of the module docstring: one
    dict update per factor, all of whose terms lie above -d^t; no term is
    above a positive floor."""
    if floor > 0:
        return TruncatedLaurentSeries._of(_ZERO, {}, floor)
    ints = {0: 1}
    power = 1
    while power <= -floor:
        ints.update({deg - power: -c for deg, c in ints.items() if deg - power >= floor})
        power *= d
    # The top term stays 1 at degree 0, so the map is primitive as it stands.
    return TruncatedLaurentSeries._of(Fraction(1), ints, floor)


def partial_product(d: int, k: int) -> tuple[RatPoly, RatPoly]:
    """The finite product r_k = prod_{t=0}^{k} (1 - x^{-d^t}) as an exact
    polynomial fraction (numerator, denominator = x^total): since d^k <= total
    < d^{k+1}, f_d down to -total is r_k, read off ``_generate_f``."""
    if d < 2 or k < 0:
        raise InvalidParameter("need d >= 2 and k >= 0")
    total = (d ** (k + 1) - 1) // (d - 1)
    num = _generate_f(d, -total).shift(total)
    return RatPoly._of(num.scale, num.int_coeffs()), RatPoly.monomial(total)


def rate_of_approximation(u: TruncatedLaurentSeries, p: RatPoly, q: RatPoly) -> int:
    """The c with ||u - p/q|| = -2||q|| - c, for the fraction exactly as given
    (q is NOT reduced against p first; the degree of q as supplied enters)."""
    approx = TruncatedLaurentSeries.from_fraction(p, q, u.floor)
    diff = u - approx
    deg = diff.degree()
    if deg is None:
        raise InsufficientPrecision(
            f"u - p/q vanishes above the floor {diff.floor}; regenerate u deeper"
        )
    return -deg - 2 * q.degree()


def verify_functional_equations(d: int, floor: int) -> None:
    """Check the defining self-similarity of the family exactly, coefficient
    by coefficient, for every degree >= floor:

        f_d(x^d) * (x - 1) == x * f_d(x)
        g_d(x^d) * x^{d^2 - 2d} * (x - 1) == g_d(x)

    Both sides are computed independently from truncated generators; any
    mismatch raises MismatchAt with the largest offending degree.
    """
    if d < 2:
        raise InvalidParameter(f"d must be >= 2, got {d}")
    if floor > -d:
        raise InvalidParameter(f"floor must be <= -d, got {floor}")
    if floor < -FUNCEQ_FLOOR_BOUND:
        raise InvalidParameter(f"floor {floor} is past the bound -{FUNCEQ_FLOOR_BOUND}")

    # f-identity, multiplied out to avoid any division: floors stay exact.
    f = generate(d, "F", floor - 1)
    lhs = f.substitute_power(d).mul_laurent({1: 1, 0: -1})  # f(x^d) * (x - 1)
    rhs = f.shift(1)  # x * f(x)
    _compare_series(lhs, rhs, floor)

    # g-identity: g(x^d) * x^{d^2-2d} * (x-1) == g(x).
    g = generate(d, "G", floor)
    shift = d * d - 2 * d
    lhs_g = g.substitute_power(d).shift(shift).mul_laurent({1: 1, 0: -1})
    _compare_series(lhs_g, g, floor)


def _compare_series(a: TruncatedLaurentSeries, b: TruncatedLaurentSeries, floor: int) -> None:
    if a.floor > floor or b.floor > floor:
        raise InsufficientPrecision(
            f"comparison floor {floor} deeper than computed floors {a.floor}, {b.floor}"
        )
    mismatches = [k for k in (a - b).int_coeffs() if k >= floor]
    if mismatches:
        raise MismatchAt(max(mismatches))
