"""Exact sparse polynomial arithmetic: ring laws, the integer kernel,
division, modular evaluation."""

import json
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mahlercf.cli import _poly_json
from mahlercf.errors import DivisionByZeroPoly, ZeroPolynomial
from mahlercf.laurent import TruncatedLaurentSeries, generate, rate_of_approximation
from mahlercf.polys import (
    RatPoly,
    _divide,
    _mul_add,
    _primitive,
    _ScaledIntMap,
    poly_divmod,
    poly_eval_mod,
    poly_normalize_integer,
    poly_substitute_power,
)

small_coeff = st.fractions(
    min_value=-5, max_value=5, max_denominator=4
)


@st.composite
def rat_polys(draw, max_degree=6):
    degree = draw(st.integers(min_value=-1, max_value=max_degree))
    if degree < 0:
        return RatPoly.zero()
    coeffs = {
        deg: draw(small_coeff)
        for deg in range(degree + 1)
    }
    coeffs[degree] = draw(small_coeff.filter(lambda c: c != 0))
    return RatPoly(coeffs)


int_maps = st.dictionaries(
    st.integers(min_value=-8, max_value=4),
    st.integers(min_value=-10**6, max_value=10**6).filter(bool),
    max_size=8,
)
scales = st.fractions(min_value=-1000, max_value=1000, max_denominator=1000).filter(bool)


def assert_normal(scale, ints):
    """The kernel's normal form: a nonzero primitive map with a positive top
    coefficient and a nonzero scale, or the empty map with scale 0."""
    assert all(type(c) is int and c for c in ints.values())
    if ints:
        assert scale != 0
        assert math.gcd(*ints.values()) == 1
        assert ints[max(ints)] > 0
    else:
        assert scale == 0


def normal(ints):
    """(content, primitive map) of an integer map, checked to be normal."""
    content, prim = _primitive(ints)
    assert_normal(Fraction(content), prim)
    assert {k: content * c for k, c in prim.items()} == ints
    return content, prim


def valued(scale, ints):
    """The Fraction map scale * ints."""
    return {k: scale * c for k, c in ints.items()}


def stored(scale, ints):
    """The kernel operand scale * ints, for a map in normal form; its degrees
    may be negative."""
    return _ScaledIntMap._of(scale, ints)


ONE, NIL = stored(Fraction(1), {0: 1}), stored(Fraction(0), {})


def kernel_sum(sa, a, sb, b):
    """(scale, map) of sa*a + sb*b through the kernel, as 1*(sa*a) + sb*b."""
    total = _mul_add(ONE, stored(sa, a), stored(sb, b))
    return total.scale, total.int_coeffs()


def kernel_product(a, b, floor=None):
    """(scale, map) of a*b, without its terms below floor, through the
    kernel, as a*b + 0."""
    ca, a = _primitive(a)
    cb, b = _primitive(b)
    product = _mul_add(stored(Fraction(ca), a), stored(Fraction(cb), b), NIL, floor)
    return product.scale, product.int_coeffs()


def dense_product(a: dict, b: dict) -> dict:
    """Reference product: one convolution sum per output degree."""
    if not a or not b:
        return {}
    lo_a, lo_b = min(a), min(b)
    out = {}
    for k in range(lo_a + lo_b, max(a) + max(b) + 1):
        total = sum(a.get(i, 0) * b.get(k - i, 0) for i in range(lo_a, k - lo_b + 1))
        if total:
            out[k] = total
    return out


class TestConstruction:
    def test_from_text_ascending(self):
        poly = RatPoly.from_text("1, 0, 1")
        assert poly == RatPoly({0: Fraction(1), 2: Fraction(1)})
        assert poly.degree() == 2

    def test_from_json_round_trip(self):
        # the "coeffs" object that cf --output json writes for a polynomial
        poly = RatPoly.from_text("1, -1/2, 0, 3")
        data = json.loads(_poly_json(poly, ""))
        assert data == {"coeffs": {"0": "1", "1": "-1/2", "3": "3"}}
        assert RatPoly({int(k): Fraction(v) for k, v in data["coeffs"].items()}) == poly
        assert json.loads(_poly_json(RatPoly.zero(), "")) == {"coeffs": {}}

    def test_zero_degree_is_none(self):
        # one convention for both value classes, from the shared base
        assert RatPoly.zero().degree() is None
        assert TruncatedLaurentSeries({}, -3).degree() is None

    def test_monomial_and_x(self):
        assert RatPoly.x() == RatPoly.monomial(1)
        assert RatPoly.monomial(3).degree() == 3


class TestRingLaws:
    @given(rat_polys(), rat_polys(), rat_polys())
    def test_add_mul_distribute(self, a, b, c):
        assert a * (b + c) == a * b + a * c

    @given(rat_polys(), rat_polys())
    def test_mul_commutes(self, a, b):
        assert a * b == b * a

    @given(rat_polys())
    def test_additive_inverse(self, a):
        assert a - a == RatPoly.zero()

    @given(rat_polys(), rat_polys())
    def test_degree_of_product(self, a, b):
        if a.is_zero() or b.is_zero():
            assert (a * b).degree() is None
        else:
            assert (a * b).degree() == a.degree() + b.degree()


class TestDivision:
    @given(rat_polys(), rat_polys().filter(lambda p: not p.is_zero()))
    def test_divmod_identity(self, num, den):
        quotient, remainder = poly_divmod(num, den)
        assert num == quotient * den + remainder
        assert remainder.is_zero() or remainder.degree() < den.degree()

    def test_divmod_worked_examples(self):
        quotient, remainder = poly_divmod(
            RatPoly.from_text("1, 0, 1"), RatPoly.from_text("1, 1")
        )
        assert quotient == RatPoly.from_text("-1, 1")
        assert remainder == RatPoly.from_text("2")

        cubic = RatPoly.from_text("1, 0, 0, 1")
        quotient, remainder = poly_divmod(cubic, cubic)
        assert quotient == RatPoly.one()
        assert remainder.is_zero()

    @pytest.mark.parametrize("divide", [
        poly_divmod,
        lambda p, q: TruncatedLaurentSeries.from_fraction(p, q, -4),
        lambda p, q: rate_of_approximation(generate(2, "F", -4), p, q),
    ], ids=["poly_divmod", "from_fraction", "rate_of_approximation"])
    def test_division_by_zero_raises(self, divide):
        # the kernel is the one place that refuses a zero divisor
        with pytest.raises(DivisionByZeroPoly):
            divide(RatPoly.one(), RatPoly.zero())

    @given(int_maps, int_maps.filter(bool), st.integers(min_value=-12, max_value=6))
    def test_division_kernel_identity(self, num, den, floor):
        # num == qs*quo*den + rs*rem, with both parts in normal form; with a
        # floor, the same quotient and the remainder's terms at or above it
        _, num = normal(num)
        _, den = normal(den)
        qs, quotient, rs, remainder = _divide(num, den)
        assert_normal(qs, quotient)
        assert_normal(rs, remainder)
        rebuilt = dense_product(valued(qs, quotient), den)
        for deg, c in valued(rs, remainder).items():
            rebuilt[deg] = rebuilt.get(deg, 0) + c
        assert {k: v for k, v in rebuilt.items() if v} == num
        assert min(quotient, default=0) >= 0
        assert all(deg < max(den) for deg in remainder)
        cut_qs, cut_quotient, cut_rs, cut_remainder = _divide(num, den, floor)
        assert_normal(cut_rs, cut_remainder)
        assert (cut_qs, cut_quotient) == (qs, quotient)
        assert valued(cut_rs, cut_remainder) == {
            k: v for k, v in valued(rs, remainder).items() if k >= floor
        }


class TestAddKernel:
    @given(int_maps, int_maps, scales, scales, st.sets(st.integers(min_value=-8, max_value=4)))
    def test_sum_is_the_dense_sum(self, a, b, sa, sb, cancel):
        # b also carries -a at the degrees in cancel, so those terms vanish
        b = {**b, **{k: -a[k] for k in cancel if k in a}}
        ca, a = normal(a)
        cb, b = normal(b)
        sa, sb = sa * ca if a else Fraction(0), sb * cb if b else Fraction(0)
        dense = {k: sa * a.get(k, 0) + sb * b.get(k, 0) for k in range(-8, 5)}
        scale, total = kernel_sum(sa, a, sb, b)
        assert_normal(scale, total)
        assert valued(scale, total) == {k: v for k, v in dense.items() if v}

    @given(int_maps.filter(bool), scales)
    def test_full_cancellation_is_the_normal_zero(self, a, sa):
        _, a = normal(a)
        assert kernel_sum(sa, a, -sa, a) == (0, {})


class TestMultiplyKernel:
    @given(int_maps, int_maps, st.integers(min_value=-16, max_value=8))
    def test_floored_product_is_the_full_product_above_floor(self, a, b, floor):
        full = dense_product(a, b)
        assert valued(*kernel_product(a, b)) == full
        assert valued(*kernel_product(a, b, floor)) == {
            k: v for k, v in full.items() if k >= floor
        }

    @given(int_maps, int_maps, st.one_of(st.none(), st.integers(min_value=-16, max_value=8)))
    def test_product_through_the_kernel_is_in_normal_form(self, a, b, floor):
        assert_normal(*kernel_product(a, b, floor))


class TestTransforms:
    @given(rat_polys(max_degree=4), rat_polys(max_degree=4), st.integers(min_value=1, max_value=3))
    def test_substitute_power_evaluates_consistently(self, a, b, d):
        # x -> x^d is a ring map: substituting into a product or a sum
        # gives the same coefficient map as combining the substituted parts.
        sub_a, sub_b = poly_substitute_power(a, d), poly_substitute_power(b, d)
        assert poly_substitute_power(a * b, d).coeffs == (sub_a * sub_b).coeffs
        assert poly_substitute_power(a + b, d).coeffs == (sub_a + sub_b).coeffs
        assert sub_a.coeffs == {deg * d: c for deg, c in a.coeffs.items()}

    def test_substitute_power_worked_examples(self):
        assert poly_substitute_power(RatPoly.from_text("1, 1"), 2) == RatPoly.from_text("1, 0, 1")
        three_terms = RatPoly.from_text("1, 1, 1")
        assert poly_substitute_power(three_terms, 1) == three_terms
        assert poly_substitute_power(three_terms, 3) == RatPoly.from_text("1, 0, 0, 1, 0, 0, 1")


class TestIntegerNormalization:
    def test_clears_denominators_and_content(self):
        poly = RatPoly.from_text("1/2, 0, 3/2")
        normalized = poly_normalize_integer(poly)
        assert normalized.primitive == RatPoly.from_text("1, 0, 3")
        assert normalized.scale == Fraction(1, 2)
        assert normalized.primitive * normalized.scale == poly

    def test_sign_convention_positive_leading(self):
        poly = RatPoly.from_text("2, 0, -2")
        normalized = poly_normalize_integer(poly)
        assert normalized.primitive.leading_coefficient() > 0

    def test_int_coeffs(self):
        poly = RatPoly.from_text("2, 4")
        assert poly.int_coeffs() == {0: 1, 1: 2}
        assert poly.scale == Fraction(2)
        assert poly.primitive == RatPoly.from_text("1, 2")
        assert all(type(c) is int for c in poly.int_coeffs().values())

    def test_normalize_returns_the_stored_form(self):
        poly = RatPoly.from_text("-1/3, 0, -2/3")
        normalized = poly_normalize_integer(poly)
        assert normalized is poly
        assert (normalized.int_coeffs(), normalized.scale) == ({0: 1, 2: 2}, Fraction(-1, 3))
        with pytest.raises(ZeroPolynomial):
            poly_normalize_integer(RatPoly.zero())


class TestModularEvaluation:
    @given(
        st.dictionaries(
            st.integers(min_value=0, max_value=12),
            st.integers(min_value=-50, max_value=50),
            max_size=6,
        ),
        st.integers(min_value=0, max_value=48),
        st.integers(min_value=2, max_value=97),
    )
    def test_matches_direct_evaluation(self, coeffs, point, modulus):
        direct = sum(c * point**deg for deg, c in coeffs.items()) % modulus
        assert poly_eval_mod(coeffs, point, modulus) == direct

    def test_accepts_normalized_poly(self):
        # the padic call sites pass a poly's stored integer map; its value is
        # the poly's over the scale
        normalized = poly_normalize_integer(RatPoly.from_text("1/2, 0, 1/2"))
        assert normalized.scale == Fraction(1, 2)
        assert poly_eval_mod(normalized.int_coeffs(), 3, 7) == (1 + 9) % 7
