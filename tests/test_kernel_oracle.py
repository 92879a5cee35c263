"""Differential tests of the integer kernel against the Fraction kernel.

``RatPoly`` and ``TruncatedLaurentSeries`` store a rational scale times a
primitive integer map.  The reference below is the earlier kernel, three
loops over sparse maps of ``Fraction`` (degree -> nonzero Fraction), kept as
it was, together with the earlier per-operation glue and rendering.  Every
operation must give the same ``Fraction`` coefficients, floors and strings
as the reference.
"""

import json
import sys
from fractions import Fraction
from typing import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mahlercf.cli import _poly_json
from mahlercf.laurent import TruncatedLaurentSeries, _generate_f
from mahlercf.polys import (
    RatPoly,
    _mul_add,
    _render_terms,
    poly_divmod,
    poly_substitute_power,
)

_ZERO = Fraction(0)


# -- the reference kernel ----------------------------------------------------


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


def _render(coeffs: Mapping[int, Fraction]) -> str:
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


# -- the reference operations ------------------------------------------------


def poly_str(coeffs):
    return _render(coeffs) if coeffs else "0"


def poly_json(coeffs):
    """A polynomial's object in cf --output json, as json.dumps lays it out
    at the top level."""
    return json.dumps({"coeffs": {str(deg): str(c) for deg, c in sorted(coeffs.items())}},
                      indent=2)


def series_str(coeffs, floor):
    if not coeffs:
        return f"0 (down to x^{floor})"
    return _render(coeffs) + f"  (exact down to x^{floor})"


def series_add(a, fa, b, fb):
    floor = max(fa, fb)
    return {k: c for k, c in _add(a, b).items() if k >= floor}, floor


def series_mul_laurent(a, fa, poly):
    terms = {d: Fraction(c) for d, c in poly.items() if c}
    if not terms:
        return {}, fa
    floor = fa + max(terms)
    return _mul(a, terms, floor), floor


# -- inputs ------------------------------------------------------------------

# numerators up to 10^6 in size, small and large denominators, some zeros
nonzero = st.one_of(
    st.integers(min_value=1, max_value=10**6).map(Fraction),
    st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**4),
    st.fractions(min_value=-5, max_value=5, max_denominator=6),
).map(lambda c: c or Fraction(-1))
coefficients = st.one_of(st.just(Fraction(0)), nonzero, nonzero.map(lambda c: -c))


@st.composite
def polys(draw, max_degree=8, min_degree=-1):
    degree = draw(st.integers(min_value=min_degree, max_value=max_degree))
    if degree < 0:
        return RatPoly.zero()
    coeffs = {deg: draw(coefficients) for deg in range(degree)}
    coeffs[degree] = draw(nonzero)
    return RatPoly(coeffs)


@st.composite
def series(draw, lo=-12, hi=6):
    floor = draw(st.integers(min_value=lo, max_value=0))
    coeffs = draw(st.dictionaries(st.integers(min_value=floor, max_value=hi), coefficients,
                                  max_size=12))
    return TruncatedLaurentSeries(coeffs, floor)


laurent_polys = st.dictionaries(st.integers(min_value=-4, max_value=4), coefficients, max_size=5)
scalars = st.one_of(coefficients, st.integers(min_value=-10**6, max_value=10**6))


def same_poly(poly: RatPoly, coeffs: dict) -> None:
    assert poly.coeffs == coeffs
    assert str(poly) == poly_str(coeffs)
    assert _poly_json(poly, "") == poly_json(coeffs)
    assert poly == RatPoly(coeffs)


def same_series(s: TruncatedLaurentSeries, coeffs: dict, floor: int) -> None:
    assert s.floor == floor
    assert s.coeffs == coeffs
    assert str(s) == series_str(coeffs, floor)
    assert s == TruncatedLaurentSeries(coeffs, floor)


# -- polynomials ---------------------------------------------------------------


class TestPolynomials:
    @given(polys(), polys())
    def test_add_and_sub(self, a, b):
        same_poly(a + b, _add(a.coeffs, b.coeffs))
        same_poly(a - b, _add(a.coeffs, {k: -c for k, c in b.coeffs.items()}))

    @given(polys(), st.lists(st.integers(min_value=0, max_value=8), max_size=4))
    def test_full_and_partial_cancellation(self, a, keep):
        same_poly(a - a, {})
        same_poly(-a + a, {})
        part = RatPoly({k: c for k, c in a.coeffs.items() if k in keep})
        same_poly(a - part, {k: c for k, c in a.coeffs.items() if k not in keep})

    @given(polys())
    def test_neg(self, a):
        same_poly(-a, {k: -c for k, c in a.coeffs.items()})

    @given(polys(), polys())
    def test_product(self, a, b):
        same_poly(a * b, _mul(a.coeffs, b.coeffs))

    @given(polys(), polys(), polys())
    def test_fused_product_and_sum(self, a, b, c):
        same_poly(_mul_add(a, b, c), _add(_mul(a.coeffs, b.coeffs), c.coeffs))
        same_poly(_mul_add(a, b, -(a * b)), {})

    @given(polys(), polys(), polys(), st.integers(min_value=-1, max_value=17))
    def test_fused_product_and_sum_above_a_floor(self, a, b, c, floor):
        full = _add(_mul(a.coeffs, b.coeffs), c.coeffs)
        same_poly(_mul_add(a, b, c, floor), {k: v for k, v in full.items() if k >= floor})
        same_poly(_mul_add(a, b, c, 0), full)
        same_poly(_mul_add(a, b, -(a * b), floor), {})

    @given(polys(), scalars)
    def test_scalar_product(self, a, s):
        expected = {k: c * s for k, c in a.coeffs.items()} if s else {}
        same_poly(a * s, expected)
        same_poly(s * a, expected)

    @given(polys(), polys(min_degree=0))
    def test_divmod(self, a, b):
        quo, rem = poly_divmod(a, b)
        ref_quo, ref_rem = _divide(a.coeffs, b.coeffs, 0)
        same_poly(quo, ref_quo)
        same_poly(rem, ref_rem)

    @given(polys(max_degree=4), st.integers(min_value=1, max_value=4))
    def test_substitute_power(self, a, d):
        same_poly(poly_substitute_power(a, d), {k * d: c for k, c in a.coeffs.items()})

    @given(polys())
    def test_monic_and_leading_coefficient(self, a):
        if a:
            lc = a.leading_coefficient()
            assert lc == a.coeffs[max(a.coeffs)]
            same_poly(a.monic(), {k: c / lc for k, c in a.coeffs.items()})

    @settings(max_examples=5)
    @given(st.lists(nonzero, min_size=221, max_size=221), polys(max_degree=3, min_degree=1))
    def test_divmod_of_200_steps_and_more(self, coeffs, den):
        num = RatPoly.from_ascending(coeffs)
        quo, rem = poly_divmod(num, den)
        ref_quo, ref_rem = _divide(num.coeffs, den.coeffs, 0)
        assert quo.degree() >= 217  # one division step per quotient degree
        same_poly(quo, ref_quo)
        same_poly(rem, ref_rem)

    def test_worked_euclid_step(self):
        # lc 10^6 in the divisor: the quotient and remainder are exact
        a = RatPoly.from_text("3, -7/2, 0, 5")
        b = RatPoly.from_text("1/3, 1000000")
        quo, rem = poly_divmod(a, b)
        ref_quo, ref_rem = _divide(a.coeffs, b.coeffs, 0)
        same_poly(quo, ref_quo)
        same_poly(rem, ref_rem)


class TestHash:
    @pytest.mark.parametrize("value", [3, -3, 0, Fraction(1, 2), Fraction(-7, 3)])
    def test_constants_hash_as_their_value(self, value):
        poly = RatPoly.constant(value)
        assert poly == value
        assert hash(poly) == hash(value)
        assert len({poly, value}) == 1

    @given(polys(), polys(), scalars.filter(bool))
    def test_equal_values_hash_alike(self, a, b, s):
        # the same value reached by two routes has one stored form
        left, right = (a + b) * s, a * s + b * s
        assert left == right
        assert hash(left) == hash(right)


# -- rendering ------------------------------------------------------------------


class TestRendering:
    @given(polys())
    def test_render_terms(self, a):
        if a:
            assert _render_terms(a.scale, a.int_coeffs()) == _render(a.coeffs)

    def test_render_path_builds_no_fraction_per_coefficient(self, monkeypatch):
        poly = RatPoly({k: Fraction(k + 1, 7) for k in range(60)})
        built = []
        original = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", staticmethod(counting))
        text, data = str(poly), _poly_json(poly, "")
        monkeypatch.undo()
        assert built == []
        assert text == _render(poly.coeffs)
        assert data == poly_json(poly.coeffs)

    def test_coefficients_past_the_int_to_str_digit_limit(self):
        # 5001-digit numerators and denominators, past the interpreter's
        # default limit of 4300 digits; the reference renders them with the
        # limit lifted
        big = 10**5000 + 1
        poly = RatPoly({0: Fraction(big, 3), 1: Fraction(-7, big), 3: Fraction(big)})
        text, data = str(poly), _poly_json(poly, "")
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            assert text == _render(poly.coeffs)
            assert data == poly_json(poly.coeffs)
        finally:
            sys.set_int_max_str_digits(limit)


# -- truncated Laurent series -------------------------------------------------------


class TestSeries:
    @given(series(), series())
    def test_add_and_sub(self, a, b):
        same_series(a + b, *series_add(a.coeffs, a.floor, b.coeffs, b.floor))
        negated = {k: -c for k, c in b.coeffs.items()}
        same_series(a - b, *series_add(a.coeffs, a.floor, negated, b.floor))

    @given(series())
    def test_negate_and_full_cancellation(self, a):
        same_series(a.negate(), {k: -c for k, c in a.coeffs.items()}, a.floor)
        same_series(a - a, {}, a.floor)

    @given(series(), laurent_polys)
    def test_mul_laurent_with_a_floor(self, a, poly):
        same_series(a.mul_laurent(poly), *series_mul_laurent(a.coeffs, a.floor, poly))

    @given(series(), st.integers(min_value=-6, max_value=6))
    def test_shift(self, a, offset):
        same_series(a.shift(offset), {k + offset: c for k, c in a.coeffs.items()},
                    a.floor + offset)

    @given(series(), st.integers(min_value=1, max_value=4))
    def test_substitute_power(self, a, d):
        same_series(a.substitute_power(d), {k * d: c for k, c in a.coeffs.items()}, a.floor * d)

    @given(polys(), polys(min_degree=0), st.integers(min_value=-30, max_value=0))
    def test_from_fraction(self, p, q, floor):
        same_series(TruncatedLaurentSeries.from_fraction(p, q, floor),
                    _divide(p.coeffs, q.coeffs, floor)[0], floor)

    @settings(max_examples=5)
    @given(polys(max_degree=5, min_degree=0), polys(max_degree=4, min_degree=1),
           st.integers(min_value=-260, max_value=-200))
    def test_from_fraction_of_200_steps_and_more(self, p, q, floor):
        expanded = TruncatedLaurentSeries.from_fraction(p, q, floor)
        same_series(expanded, _divide(p.coeffs, q.coeffs, floor)[0], floor)

    @given(st.integers(min_value=2, max_value=7), st.integers(min_value=-400, max_value=0))
    def test_generated_f_is_the_product_of_its_factors(self, d, floor):
        # f_d down to floor, one floored product per factor 1 - x^{-d^t}
        product, power = {0: Fraction(1)}, 1
        while power <= -floor:
            product = _mul(product, {0: Fraction(1), -power: Fraction(-1)}, floor)
            power *= d
        same_series(_generate_f(d, floor), product, floor)
