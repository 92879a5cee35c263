"""Exact univariate polynomial arithmetic over the rationals.

A polynomial, and a truncated Laurent series (``laurent``), is stored as one
rational scale times a primitive integer coefficient map (degree -> nonzero
int): the map has content 1 and a positive top coefficient, so every value
has exactly one stored form (Gauss's lemma).  The private base class
``_ScaledIntMap`` owns that form for both value classes.  The zero value is
the empty map with scale 0, and its degree is ``None`` in both classes.
``coeffs`` and ``coeff`` answer in ``Fraction``s.

All values are immutable after construction; every operation returns a new
value.  Values may share an integer map, which is never mutated.
"""

from __future__ import annotations

import math
from decimal import Decimal
from fractions import Fraction
from typing import Iterable, Mapping, Union

from .errors import DivisionByZeroPoly, InvalidParameter, ZeroPolynomial

_ZERO = Fraction(0)

_Scalar = Union[int, Fraction]


def _as_fraction(value: _Scalar) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise InvalidParameter(f"not a rational scalar: {value!r}")


class _ScaledIntMap:
    """A rational scale times a primitive integer map with a positive top
    coefficient: the stored form of ``RatPoly`` and
    ``TruncatedLaurentSeries``."""

    __slots__ = ("_scale", "_ints")

    def __init__(self, coeffs: Mapping[int, _Scalar], lowest: int):
        """Store a map of integer degrees >= lowest to rational scalars."""
        terms = []
        for deg, c in coeffs.items():
            if not isinstance(deg, int) or deg < lowest:
                raise InvalidParameter(f"invalid degree {deg!r}: need an integer >= {lowest}")
            frac = _as_fraction(c)
            if frac != 0:
                terms.append((deg, frac.numerator, frac.denominator))
        self._scale, self._ints = _from_ratios(terms)

    @classmethod
    def _of(cls, scale: Fraction, ints: dict[int, int], floor: int | None = None):
        """The value scale * ints, for a map already in normal form; a
        polynomial is exact at every degree, so it keeps no floor."""
        value = object.__new__(cls)
        value._scale, value._ints = scale, ints
        return value

    @property
    def coeffs(self) -> dict[int, Fraction]:
        return {deg: self._scale * c for deg, c in self._ints.items()}

    @property
    def scale(self) -> Fraction:
        """The rational factor in front of ``int_coeffs()``."""
        return self._scale

    def int_coeffs(self) -> dict[int, int]:
        """The stored primitive integer map itself, not a copy: callers must
        not mutate it."""
        return self._ints

    def is_zero(self) -> bool:
        return not self._ints

    def degree(self) -> int | None:
        """The largest degree with a nonzero coefficient; None for zero."""
        return max(self._ints) if self._ints else None

    def coeff(self, degree: int) -> Fraction:
        return self._scale * self._ints.get(degree, 0)

    def __str__(self) -> str:
        return _render_terms(self._scale, self._ints) if self._ints else "0"


class RatPoly(_ScaledIntMap):
    """Polynomial with rational coefficients and degrees >= 0."""

    __slots__ = ()

    def __init__(self, coeffs: Mapping[int, _Scalar] | None = None):
        super().__init__(coeffs or {}, 0)

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
    def monomial(cls, degree: int) -> "RatPoly":
        return cls({degree: 1})

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
    def primitive(self) -> "RatPoly":
        """The integer part ``int_coeffs()`` as a polynomial of scale 1."""
        return RatPoly._of(Fraction(1) if self._ints else _ZERO, self._ints)

    def leading_coefficient(self) -> Fraction:
        if not self._ints:
            return Fraction(0)
        return self._scale * self._ints[max(self._ints)]

    def monic(self) -> "RatPoly":
        """The same integer part with scale 1/lc of that part."""
        if not self._ints:
            raise ZeroPolynomial("cannot make the zero polynomial monic")
        return RatPoly._of(Fraction(1, self._ints[max(self._ints)]), self._ints)

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "RatPoly | int | Fraction") -> "RatPoly":
        return _mul_add(_ONE, self, self._coerce(other))

    __radd__ = __add__

    def __neg__(self) -> "RatPoly":
        return RatPoly._of(-self._scale, self._ints)

    def __sub__(self, other: "RatPoly | int | Fraction") -> "RatPoly":
        return self + (-self._coerce(other))

    def __mul__(self, other: "RatPoly | int | Fraction") -> "RatPoly":
        if isinstance(other, (int, Fraction)):
            scalar = _as_fraction(other)
            if scalar == 0:
                return RatPoly.zero()
            return RatPoly._of(self._scale * scalar, self._ints)
        return _mul_add(self, self._coerce(other), _NIL)

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
        return self._scale == other._scale and self._ints == other._ints

    def __hash__(self) -> int:
        if self.degree() in (0, None):
            # equal to its value as a number, so it hashes as that number
            return hash(self.coeff(0))
        return hash((self._scale, frozenset(self._ints.items())))

    def __bool__(self) -> bool:
        return bool(self._ints)

    # -- rendering ----------------------------------------------------

    def __repr__(self) -> str:
        return f"RatPoly({self!s})"


# the unit factor of a sum and the zero addend of a product through _mul_add
_ONE, _NIL = RatPoly._of(Fraction(1), {0: 1}), RatPoly._of(_ZERO, {})


def _ratio_text(num: int, c: int, den: int) -> str:
    """str(Fraction(num * c, den)) for den > 0 and num/den in lowest terms,
    at any size; the one gcd reads c and den only."""
    g = math.gcd(c, den)
    num, den = num * (c // g), den // g
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:  # past the interpreter's int-to-str digit limit; Decimal has none
        return str(Decimal(num)) if den == 1 else f"{Decimal(num)}/{Decimal(den)}"


def _render_terms(scale: Fraction, ints: Mapping[int, int]) -> str:
    """Render scale * ints, a nonempty map, as "x^2 - 1/2*x + 3", top degree
    first."""
    num, den = scale.numerator, scale.denominator
    size, out = abs(num), ""
    for deg in sorted(ints, reverse=True):
        c = ints[deg] if num > 0 else -ints[deg]  # the sign of num * ints[deg]
        mag = _ratio_text(size, abs(c), den)
        if deg == 0:
            body = mag
        else:
            var = "x" if deg == 1 else f"x^{deg}"
            body = var if mag == "1" else f"{mag}*{var}"
        if not out:
            out = ("-" if c < 0 else "") + body
        else:
            out += f" {'-' if c < 0 else '+'} {body}"
    return out


# -- the arithmetic kernel ------------------------------------------------
#
# Every sum, product and long division in the package, of polynomials and
# of truncated Laurent series alike, runs through two loops over integer
# coefficient maps (degree -> nonzero int; degrees may be negative):
# _mul_add and _divide.  A sum is _mul_add(_ONE, a, b), a product
# _mul_add(a, b, _NIL), and the recurrence of the convergents and of their
# residuals one _mul_add per step.  A value is a rational scale times a
# primitive map whose top coefficient is positive; each kernel result drops
# its terms below an optional floor and takes one content pass (_primitive),
# made nowhere else.  Rescalings and degree moves keep a map primitive.


def _primitive(ints: dict[int, int]) -> tuple[int, dict[int, int]]:
    """(content, ints / content) with the content signed so that the top
    coefficient of the quotient map is positive; (0, ints) for the empty
    map.  ints holds no zero and is not mutated."""
    if not ints:
        return 0, ints
    content = math.gcd(*ints.values())
    if ints[max(ints)] < 0:
        content = -content
    if content != 1:
        ints = {deg: c // content for deg, c in ints.items()}
    return content, ints


def _from_ratios(terms: Iterable[tuple[int, int, int]]) -> tuple[Fraction, dict[int, int]]:
    """(scale, primitive map) of the map deg -> num/den, given as the triples
    (deg, num, den) with num != 0 and den > 0, not necessarily in lowest
    terms."""
    terms = list(terms)
    if not terms:
        return _ZERO, {}
    common = math.lcm(*(den for _, _, den in terms))
    content, ints = _primitive({deg: num * (common // den) for deg, num, den in terms})
    return Fraction(content, common), ints


def _mul_add(
    a: _ScaledIntMap, b: _ScaledIntMap, c: _ScaledIntMap, floor: int | None = None
) -> _ScaledIntMap:
    """a*b + c in normal form, as a value of c's class (a series known down
    to floor), without its terms below floor; the product terms are added
    straight into the scaled map of c in one pass."""
    scale = a._scale * b._scale
    sc = c._scale or scale or 1  # any nonzero scale when both terms are zero
    # scale*(a*b) + sc*c = (sc/v) * (u*(a*b) + v*c) with u/v = scale/sc
    ratio = scale / sc
    u, v = ratio.numerator, ratio.denominator
    short, long = sorted((a._ints, b._ints), key=len)
    out = {deg: v * coeff for deg, coeff in c._ints.items()}
    get = out.get
    for d1, c1 in short.items():
        c1 *= u
        for d2, c2 in long.items():
            deg = d1 + d2
            out[deg] = get(deg, 0) + c1 * c2
    out = {deg: coeff for deg, coeff in out.items() if coeff and (floor is None or deg >= floor)}
    content, out = _primitive(out)
    return type(c)._of(sc * Fraction(content, v), out, floor)


def _divide(
    num: Mapping[int, int], den: Mapping[int, int], floor: int | None = None
) -> tuple[Fraction, dict[int, int], Fraction, dict[int, int]]:
    """Top-down Euclidean pseudo-division of integer maps, den with a
    positive top coefficient: (qs, quo, rs, rem) in normal form with
    num == qs*quo*den + rs*rem, where quo holds every term of degree >= 0
    and rem has no term above deg(den) - 1; with a floor, rem is cut to its
    terms of degree >= floor before its content pass.

    Each step scales the remainder by lc/gcd(lc, top) instead of dividing
    by lc, and a content pass keeps its integers primitive."""
    if not den:
        raise DivisionByZeroPoly("division by the zero coefficient map")
    e = max(den)
    lc = den[e]
    lower = [(deg, c) for deg, c in den.items() if deg != e]
    rem = dict(num)
    sn, sd = 1, 1  # num == (quotient so far)*den + (sn/sd)*rem
    quo: list[tuple[int, int, int]] = []
    while rem:
        top = max(rem)
        k = top - e
        if k < 0:
            break
        t = rem.pop(top)
        g = math.gcd(t, lc)
        t, m = t // g, lc // g
        quo.append((k, sn * t, sd * m))
        if m != 1:
            rem = {deg: c * m for deg, c in rem.items()}
        for deg, c in lower:
            target = deg + k
            s = rem.get(target, 0) - t * c
            if s:
                rem[target] = s
            else:
                del rem[target]
        if m != 1:
            content = math.gcd(*rem.values()) if rem else 1
            if content != 1:
                rem = {deg: c // content for deg, c in rem.items()}
            g = math.gcd(sn * content, sd * m)
            sn, sd = sn * content // g, sd * m // g
    qs, quo_ints = _from_ratios(quo)
    if floor is not None:
        rem = {deg: c for deg, c in rem.items() if deg >= floor}
    content, rem = _primitive(rem)
    return qs, quo_ints, Fraction(sn * content, sd), rem


def poly_divmod(a: RatPoly, b: RatPoly, floor: int | None = None) -> tuple[RatPoly, RatPoly]:
    """Euclidean division a = q*b + r, deg r < deg b; r is cut below a floor."""
    qs, quo, rs, rem = _divide(a._ints, b._ints, floor)
    return RatPoly._of(a._scale / b._scale * qs, quo), RatPoly._of(a._scale * rs, rem)


def poly_substitute_power(q: RatPoly, d: int) -> RatPoly:
    """Return q(x^d): every degree is multiplied by d."""
    if not isinstance(d, int) or d < 1:
        raise InvalidParameter(f"substitution power must be a positive integer, got {d!r}")
    return RatPoly._of(q._scale, {deg * d: c for deg, c in q._ints.items()})


def poly_normalize_integer(q: RatPoly) -> RatPoly:
    """q itself, which is stored as (scale, primitive integer map with
    lc > 0); ZeroPolynomial for the zero polynomial."""
    if q.is_zero():
        raise ZeroPolynomial("cannot normalize the zero polynomial")
    return q


def poly_eval_mod(coeffs: Mapping[int, int], r: int, m: int) -> int:
    """Evaluate an integer-coefficient polynomial, given as its degree -> int
    map, at r modulo m.

    Uses sparse evaluation with modular powering so that substituted
    high-degree polynomials (degree in the thousands, few terms) stay cheap.
    """
    if m < 1:
        raise InvalidParameter(f"modulus must be >= 1, got {m}")
    total = 0
    for deg, c in coeffs.items():
        total = (total + c * pow(r, deg, m)) % m
    return total % m
