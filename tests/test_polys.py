"""Exact sparse polynomial arithmetic: ring laws, division, modular evaluation."""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mahlercf.errors import DivisionByZeroPoly, InvalidParameter
from mahlercf.polys import (
    NEG_INF,
    IntPolyWithContent,
    RatPoly,
    _divide,
    _mul,
    poly_divmod,
    poly_eval_mod,
    poly_gcd,
    poly_normalize_integer,
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


laurent_maps = st.dictionaries(
    st.integers(min_value=-8, max_value=4), small_coeff.filter(lambda c: c != 0), max_size=8
)


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
        poly = RatPoly.from_text("1, -1/2, 0, 3")
        again = RatPoly.from_json(poly.to_json_dict())
        assert poly == again

    def test_zero_degree_is_neg_inf(self):
        assert RatPoly.zero().degree() == NEG_INF

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
            assert (a * b).degree() == NEG_INF
        else:
            assert (a * b).degree() == a.degree() + b.degree()

    @given(rat_polys(max_degree=4), st.integers(min_value=0, max_value=4))
    def test_pow_matches_repeated_product(self, a, exponent):
        expected = RatPoly.one()
        for _ in range(exponent):
            expected = expected * a
        assert a**exponent == expected


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

    def test_division_by_zero_raises(self):
        with pytest.raises(DivisionByZeroPoly):
            poly_divmod(RatPoly.one(), RatPoly.zero())

    @given(rat_polys(), rat_polys().filter(lambda p: not p.is_zero()),
           st.integers(min_value=-6, max_value=0))
    def test_division_kernel_identity(self, num, den, stop):
        quotient, remainder = _divide(num.coeffs, den.coeffs, stop)
        rebuilt = dense_product(quotient, den.coeffs)
        for deg, c in remainder.items():
            rebuilt[deg] = rebuilt.get(deg, 0) + c
        assert {k: v for k, v in rebuilt.items() if v} == num.coeffs
        assert min(quotient, default=stop) >= stop
        assert max(remainder, default=NEG_INF) < stop + den.degree()

    def test_gcd(self):
        a = RatPoly.from_text("-1, 0, 1")  # x^2 - 1
        b = RatPoly.from_text("1, 2, 1")  # (x+1)^2
        assert poly_gcd(a, b) == RatPoly.from_text("1, 1")


class TestMultiplyKernel:
    @given(laurent_maps, laurent_maps, st.integers(min_value=-16, max_value=8))
    def test_floored_product_is_the_full_product_above_floor(self, a, b, floor):
        full = dense_product(a, b)
        assert _mul(a, b) == full
        assert _mul(a, b, floor) == {k: v for k, v in full.items() if k >= floor}


class TestTransforms:
    @given(rat_polys(max_degree=4), st.integers(min_value=1, max_value=3))
    def test_substitute_power_evaluates_consistently(self, a, d):
        point = Fraction(2)
        assert a.substitute_power(d).eval_at(point) == a.eval_at(point**d)

    @given(rat_polys(max_degree=5), rat_polys(max_degree=5))
    def test_derivative_product_rule(self, a, b):
        lhs = (a * b).derivative()
        rhs = a.derivative() * b + a * b.derivative()
        assert lhs == rhs

    def test_shift_degrees(self):
        poly = RatPoly.from_text("1, 1")
        assert poly.shift_degrees(2) == RatPoly({2: Fraction(1), 3: Fraction(1)})

    def test_substitute_power_worked_examples(self):
        assert RatPoly.from_text("1, 1").substitute_power(2) == RatPoly.from_text("1, 0, 1")
        three_terms = RatPoly.from_text("1, 1, 1")
        assert three_terms.substitute_power(1) == three_terms
        assert three_terms.substitute_power(3) == RatPoly.from_text("1, 0, 0, 1, 0, 0, 1")

    def test_derivative_worked_examples(self):
        assert RatPoly.from_text("1, 0, 1").derivative() == RatPoly.from_text("0, 2")
        assert RatPoly.from_text("5").derivative() == RatPoly.zero()
        # (x+1)(x^8 - x^6 + x^2 + 2): derivative at 1 is s(1) + 2 s'(1) = 3 + 8
        product = RatPoly.from_text("1, 1") * RatPoly.from_text("2, 0, 1, 0, 0, 0, -1, 0, 1")
        assert product.derivative().eval_at(Fraction(1)) == 11


class TestIntegerNormalization:
    def test_clears_denominators_and_content(self):
        poly = RatPoly.from_text("1/2, 0, 3/2")
        normalized = poly_normalize_integer(poly)
        assert normalized.primitive == RatPoly.from_text("1, 0, 3")
        assert normalized.scale == Fraction(1, 2)
        assert normalized.reconstruct() == poly

    def test_sign_convention_positive_leading(self):
        poly = RatPoly.from_text("2, 0, -2")
        normalized = poly_normalize_integer(poly)
        assert normalized.primitive.leading_coefficient() > 0

    def test_int_coeffs(self):
        normalized = poly_normalize_integer(RatPoly.from_text("2, 4"))
        assert normalized.primitive == RatPoly.from_text("1, 2")
        assert normalized.int_coeffs() == {0: 1, 1: 2}


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
        normalized = poly_normalize_integer(RatPoly.from_text("1, 0, 1"))
        assert poly_eval_mod(normalized, 3, 7) == (1 + 9) % 7

    def test_rejects_non_integer_coefficients(self):
        with pytest.raises(InvalidParameter):
            poly_eval_mod(RatPoly.from_text("1/2"), 2, 7)
