"""Exact univariate polynomial arithmetic over the rationals.

Polynomials are stored sparsely (degree -> nonzero Fraction).  The zero
polynomial is the empty map and its degree is the sentinel ``NEG_INF`` so
that degree comparisons never collide with genuine (possibly negative)
degrees elsewhere in the package.

All values are immutable after construction; every operation returns a new
polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DivisionByZeroPoly, InvalidParameter, ZeroPolynomial

NEG_INF = float("-inf")

_ZERO = Fraction(0)

_Scalar = Union[int, Fraction]


def _as_fraction(value: _Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidParameter(f"not a rational scalar: {value!r}")


class RatPoly:
    """Sparse polynomial with ``Fraction`` coefficients and degrees >= 0."""

    __slots__ = ("_coeffs",)

    def __init__(self, coeffs: Mapping[int, _Scalar] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for deg, c in coeffs.items():
                if not isinstance(deg, int) or deg < 0:
                    raise InvalidParameter(f"invalid degree {deg!r}")
                frac = _as_fraction(c)
                if frac != 0:
                    clean[deg] = frac
        self._coeffs = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "RatPoly":
        return cls()

    @classmethod
    def one(cls) -> "RatPoly":
        return cls({0: 1})

    @classmethod
    def constant(cls, value: _Scalar) -> "RatPoly":
        return cls({0: _as_fraction(value)})

    @classmethod
    def x(cls) -> "RatPoly":
        return cls({1: 1})

    @classmethod
    def monomial(cls, degree: int, coeff: _Scalar = 1) -> "RatPoly":
        return cls({degree: _as_fraction(coeff)})

    @classmethod
    def from_ascending(cls, coeffs: Iterable[_Scalar]) -> "RatPoly":
        """Build from an ascending coefficient list (constant term first)."""
        return cls({i: _as_fraction(c) for i, c in enumerate(coeffs)})

    @classmethod
    def from_text(cls, text: str) -> "RatPoly":
        """Parse the ascending comma-separated coefficient format.

        ``"1, 0, 1"`` is x^2 + 1; entries may be integers or "num/den".
        """
        parts = [p.strip() for p in text.split(",")]
        if parts == [""]:
            raise InvalidParameter("empty polynomial text")
        try:
            return cls.from_ascending(Fraction(p) for p in parts)
        except (ValueError, ZeroDivisionError) as exc:
            raise InvalidParameter(f"bad polynomial text {text!r}: {exc}") from exc

    # -- queries ------------------------------------------------------

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return dict(self._coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def degree(self) -> int | float:
        """Maximum stored degree; NEG_INF for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else NEG_INF

    def coeff(self, degree: int) -> Fraction:
        return self._coeffs.get(degree, Fraction(0))

    def leading_coefficient(self) -> Fraction:
        if not self._coeffs:
            return Fraction(0)
        return self._coeffs[max(self._coeffs)]

    def monic(self) -> "RatPoly":
        lc = self.leading_coefficient()
        if lc == 0:
            raise ZeroPolynomial("cannot make the zero polynomial monic")
        return self * (1 / lc)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "RatPoly | int | Fraction") -> "RatPoly":
        return RatPoly(_add(self._coeffs, self._coerce(other)._coeffs))

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly({deg: -c for deg, c in self._coeffs.items()})

    def __sub__(self, other: "RatPoly | int | Fraction") -> "RatPoly":
        return self + (-self._coerce(other))

    def __rsub__(self, other: "RatPoly | int | Fraction") -> "RatPoly":
        return self._coerce(other) - self

    def __mul__(self, other: "RatPoly | int | Fraction") -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            scalar = _as_fraction(other)
            if scalar == 0:
                return RatPoly.zero()
            return RatPoly({deg: c * scalar for deg, c in self._coeffs.items()})
        return RatPoly(_mul(self._coeffs, self._coerce(other)._coeffs))

    __rmul__ = __mul__

    @staticmethod
    def _coerce(value: "RatPoly | int | Fraction") -> "RatPoly":
        if isinstance(value, RatPoly):
            return value
        return RatPoly.constant(value)

    # -- identity -----------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = RatPoly.constant(other)
        if not isinstance(other, RatPoly):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self._coeffs.items()))

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    # -- rendering ----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {"coeffs": {str(deg): str(c) for deg, c in sorted(self._coeffs.items())}}

    def __repr__(self) -> str:
        return f"RatPoly({self!s})"

    def __str__(self) -> str:
        return _render_terms(self._coeffs) if self._coeffs else "0"


def _render_terms(coeffs: Mapping[int, Fraction]) -> str:
    """Render a nonempty coefficient map as "x^2 - 1/2*x + 3", top degree first."""
    out = ""
    for deg in sorted(coeffs, reverse=True):
        c = coeffs[deg]
        mag = abs(c)
        if deg == 0:
            body = str(mag)
        else:
            var = "x" if deg == 1 else f"x^{deg}"
            body = var if mag == 1 else f"{mag}*{var}"
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += f" {'-' if c < 0 else '+'} {body}"
    return out


# -- the arithmetic kernel ------------------------------------------------
#
# Every sum, product and long division in the package, of polynomials and
# of truncated Laurent series alike, runs through these three loops over
# sparse coefficient maps (degree -> nonzero Fraction; degrees may be
# negative): _add, _mul and _divide.


def _add(a: Mapping[int, Fraction], b: Mapping[int, Fraction]) -> dict[int, Fraction]:
    """The sum of two coefficient maps, without the terms that cancel."""
    out = dict(a)
    for deg, c in b.items():
        s = out.get(deg, _ZERO) + c
        if s:
            out[deg] = s
        else:
            out.pop(deg, None)
    return out


def _mul(
    a: Mapping[int, Fraction], b: Mapping[int, Fraction], floor: int | None = None
) -> dict[int, Fraction]:
    """The product of two coefficient maps, without its terms below floor."""
    out: dict[int, Fraction] = {}
    for d1, c1 in a.items():
        for d2, c2 in b.items():
            deg = d1 + d2
            if floor is not None and deg < floor:
                continue
            prev = out.get(deg)
            out[deg] = c1 * c2 if prev is None else prev + c1 * c2
    return {deg: c for deg, c in out.items() if c}


def _divide(
    num: Mapping[int, Fraction], den: Mapping[int, Fraction], stop: int
) -> tuple[dict[int, Fraction], dict[int, Fraction]]:
    """Top-down long division of coefficient maps: (quotient, remainder) with
    num == quotient*den + remainder, where the quotient holds every term of
    degree >= stop and the remainder has no term above stop + deg(den) - 1.
    With stop = 0 this is Euclidean division of polynomials; with a negative
    stop it expands num/den as a Laurent series down to x^stop."""
    if not den:
        raise DivisionByZeroPoly("division by the zero coefficient map")
    e = max(den)
    lc = den[e]
    lower = [(deg, c) for deg, c in den.items() if deg != e]
    rem = dict(num)
    quo: dict[int, Fraction] = {}
    while rem:
        top = max(rem)
        k = top - e
        if k < stop:
            break
        factor = rem.pop(top) / lc
        quo[k] = factor
        for deg, c in lower:
            target = deg + k
            s = rem.get(target, _ZERO) - factor * c
            if s:
                rem[target] = s
            else:
                del rem[target]
    return quo, rem


@dataclass(frozen=True)
class IntPolyWithContent:
    """An exactly factored polynomial: original = scale * primitive.

    ``coeffs`` maps each degree to an integer coefficient of the primitive
    part, which has content 1 and a positive leading coefficient; ``scale``
    carries the extracted rational factor.
    """

    coeffs: dict[int, int]
    scale: Fraction

    @property
    def primitive(self) -> RatPoly:
        return RatPoly(self.coeffs)

    def int_coeffs(self) -> dict[int, int]:
        """The stored integer map itself, not a copy: callers must not mutate it."""
        return self.coeffs

    def monic(self) -> "IntPolyWithContent":
        """The monic polynomial original / lc: the same primitive part, scale 1/lc."""
        return IntPolyWithContent(self.coeffs, Fraction(1, self.coeffs[max(self.coeffs)]))


def poly_divmod(a: RatPoly, b: RatPoly) -> tuple[RatPoly, RatPoly]:
    """Euclidean division: a = q*b + r with deg r < deg b."""
    if b.is_zero():
        raise DivisionByZeroPoly("polynomial division by zero")
    quo, rem = _divide(a._coeffs, b._coeffs, 0)
    return RatPoly(quo), RatPoly(rem)


def poly_substitute_power(q: RatPoly, d: int) -> RatPoly:
    """Return q(x^d): every degree is multiplied by d."""
    if not isinstance(d, int) or d < 1:
        raise InvalidParameter(f"substitution power must be a positive integer, got {d!r}")
    return RatPoly({deg * d: c for deg, c in q.coeffs.items()})


def poly_normalize_integer(q: RatPoly) -> IntPolyWithContent:
    """Split q into (scale, primitive integer polynomial with lc > 0)."""
    if q.is_zero():
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    coeffs = q.coeffs
    denom_lcm = 1
    for c in coeffs.values():
        denom_lcm = denom_lcm * c.denominator // math.gcd(denom_lcm, c.denominator)
    ints = {deg: int(c * denom_lcm) for deg, c in coeffs.items()}
    content = 0
    for v in ints.values():
        content = math.gcd(content, abs(v))
    sign = 1 if ints[max(ints)] > 0 else -1
    divisor = sign * content
    primitive = {deg: v // divisor for deg, v in ints.items()}
    return IntPolyWithContent(coeffs=primitive, scale=Fraction(divisor, denom_lcm))


def poly_eval_mod(q: IntPolyWithContent | Mapping[int, int], r: int, m: int) -> int:
    """Evaluate an integer-coefficient polynomial at r modulo m.

    Uses sparse evaluation with modular powering so that substituted
    high-degree polynomials (degree in the thousands, few terms) stay cheap.
    Accepts an IntPolyWithContent (its primitive part is used) or a plain
    degree->int map.
    """
    if m < 1:
        raise InvalidParameter(f"modulus must be >= 1, got {m}")
    coeffs = q.coeffs if isinstance(q, IntPolyWithContent) else q
    total = 0
    for deg, c in coeffs.items():
        total = (total + c * pow(r, deg, m)) % m
    return total % m
