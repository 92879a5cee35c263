"""Truncated Laurent series: generation oracle, precision-floor algebra,
functional-equation checks.

The generation oracle is independent of the product code: the coefficient of
x^{-n} in prod_{t>=0}(1 - x^{-d^t}) is 0 unless every base-d digit of n is 0
or 1, and otherwise (-1)^(digit sum).
"""

from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mahlercf.errors import (
    InsufficientPrecision,
    InvalidParameter,
    MismatchAt,
)
from mahlercf.laurent import (
    TruncatedLaurentSeries,
    generate,
    partial_product,
    rate_of_approximation,
    verify_functional_equations,
)
from mahlercf.polys import RatPoly


def digit_oracle_coefficient(d: int, n: int) -> int:
    """Coefficient of x^{-n} in the infinite product, by base-d digits."""
    total = 0
    while n:
        n, digit = divmod(n, d)
        if digit > 1:
            return 0
        total += digit
    return -1 if total % 2 else 1


class TestGenerationOracle:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_f_matches_digit_oracle(self, d):
        series = generate(d, "F", -100)
        for n in range(0, 101):
            assert series.coeff(-n) == digit_oracle_coefficient(d, n), (d, n)

    @pytest.mark.parametrize("d", [2, 3])
    def test_g_is_shifted_f(self, d):
        f = generate(d, "F", -60)
        g = generate(d, "G", -60)
        # g = x^{1-d} f
        for deg in range(-60, 2 - d):
            assert g.coeff(deg) == f.coeff(deg + d - 1), (d, deg)

    @pytest.mark.parametrize("d", [2, 3])
    def test_h_is_shifted_f(self, d):
        f = generate(d, "F", -60)
        h = generate(d, "H", -60)
        for deg in range(-60, 0):
            assert h.coeff(deg) == f.coeff(deg + 1)

    @pytest.mark.parametrize("d", [2, 3])
    def test_u_is_difference(self, d):
        f = generate(d, "F", -60)
        u = generate(d, "U", -60)
        for deg in range(-59, 1):
            assert u.coeff(deg) == f.coeff(deg) - f.coeff(deg + 1)

    @pytest.mark.parametrize("kind", ["F", "G", "H", "U"])
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_every_floor_near_0_is_the_deep_series_cut_there(self, d, kind):
        # a floor above the top term of g_d or h_d gives the zero series,
        # in normal form with scale 0
        deep = generate(d, kind, -60)
        for floor in range(-(d + 1), 1):
            series = generate(d, kind, floor)
            assert series.floor == floor
            assert series.coeffs == {k: c for k, c in deep.coeffs.items() if k >= floor}, floor
            assert (series.scale == 0) == (not series.int_coeffs()), floor

    def test_family_validation(self):
        with pytest.raises(InvalidParameter):
            generate(1, "F", -10)
        with pytest.raises(InvalidParameter):
            generate(2, "Q", -10)
        with pytest.raises(InvalidParameter):
            generate(2, "F", 5)


class TestFloorAlgebra:
    def test_coeff_below_floor_raises(self):
        series = generate(2, "F", -10)
        assert series.coeff(-10) in (-1, 0, 1)
        with pytest.raises(InsufficientPrecision):
            series.coeff(-11)

    def test_add_takes_max_floor(self):
        a = generate(2, "F", -20)
        b = generate(2, "F", -10)
        assert (a + b).floor == -10
        # a's terms at x^-20..x^-11 have no partner in b, so the sum drops them
        assert any(k < -10 for k in a.coeffs)
        expected = {k: a.coeff(k) + b.coeff(k) for k in range(-10, 1)}
        assert (a + b).coeffs == {k: c for k, c in expected.items() if c}
        assert b + a == a + b

    def test_mul_poly_raises_floor_by_top_degree(self):
        series = generate(2, "F", -20)
        poly = RatPoly.from_text("0, 0, 1")  # x^2
        assert series.mul_laurent(poly.coeffs).floor == -18

    def test_mul_laurent_with_negative_degrees(self):
        series = generate(2, "F", -20)
        shifted = series.mul_laurent({-3: Fraction(1)})
        assert shifted.floor == -23
        assert shifted.coeff(-3) == series.coeff(0)

    def test_substitute_power_scales_floor(self):
        f = generate(2, "F", -10)
        sub = f.substitute_power(2)
        assert sub.floor == -20
        assert sub.coeff(-2) == f.coeff(-1)
        assert sub.coeff(-1) == 0



class TestExactFractions:
    def test_from_fraction_division_is_exact(self):
        num = RatPoly.from_text("1")
        den = RatPoly.from_text("1, 1")  # 1 + x
        series = TruncatedLaurentSeries.from_fraction(num, den, -12)
        # 1/(x+1) = x^{-1} - x^{-2} + x^{-3} - ...
        for n in range(1, 13):
            assert series.coeff(-n) == (-1) ** (n + 1)

    @given(
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=6),
        st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=5).filter(any),
        st.integers(min_value=-20, max_value=0),
    )
    def test_from_fraction_times_denominator_is_numerator(self, p_coeffs, q_coeffs, floor):
        p, q = RatPoly.from_ascending(p_coeffs), RatPoly.from_ascending(q_coeffs)
        product = TruncatedLaurentSeries.from_fraction(p, q, floor).mul_laurent(q.coeffs)
        assert product.floor == floor + q.degree()
        top = max(len(p_coeffs), product.floor + 1)
        for deg in range(product.floor, top):
            assert product.coeff(deg) == p.coeff(deg)

    def test_partial_product_fraction(self):
        # (x-1)(x^2-1)(x^4-1) over x^7
        expected = (
            RatPoly.from_text("-1, 1")
            * RatPoly.from_text("-1, 0, 1")
            * RatPoly.from_text("-1, 0, 0, 0, 1")
        )
        assert partial_product(2, 2) == (expected, RatPoly.monomial(7))
        # r_k is read off f_d; the reference multiplies its k + 1 factors
        # (x^{d^t} - 1), each over x^{d^t}
        for d in range(2, 7):
            k = 0
            while d ** (k + 1) <= 50000:
                num = RatPoly.one()
                for t in range(k + 1):
                    num = num * (RatPoly.monomial(d**t) - 1)
                poly, denom = partial_product(d, k)
                assert (poly.scale, poly.int_coeffs()) == (num.scale, num.int_coeffs()), (d, k)
                assert denom == RatPoly.monomial(sum(d**t for t in range(k + 1)))
                k += 1


class TestRates:
    def test_rate_of_zero_over_one_for_g3(self):
        g3 = generate(3, "G", -30)
        rate = rate_of_approximation(g3, RatPoly.zero(), RatPoly.one())
        assert rate == 2

    def test_rate_raises_when_difference_vanishes_so_far(self):
        g = generate(2, "G", -10)
        # compare the series against itself as an exact fraction is impossible;
        # use a fraction matching every stored coefficient instead
        num = RatPoly.zero()
        for deg in range(-10, 1):
            num = num + g.coeff(deg) * RatPoly.monomial(deg + 10)
        with pytest.raises(InsufficientPrecision):
            rate_of_approximation(g, num, RatPoly.monomial(10))


class TestFunctionalEquations:
    @pytest.mark.parametrize("d", [2, 3, 4, 5])
    def test_self_similarity_holds(self, d):
        assert verify_functional_equations(d, -64) is None

    def test_minimal_floor(self):
        assert verify_functional_equations(2, -2) is None

    def test_floor_must_cover_one_substitution(self):
        with pytest.raises(InvalidParameter):
            verify_functional_equations(3, -2)

    def test_floor_past_the_bound_is_rejected_before_generation(self, monkeypatch):
        import mahlercf.laurent as laurent

        monkeypatch.setattr(laurent, "generate", None)  # a generation would raise TypeError
        with pytest.raises(InvalidParameter, match="past the bound -100000"):
            verify_functional_equations(2, -(laurent.FUNCEQ_FLOOR_BOUND + 1))

    def test_mismatch_is_detected(self):
        from mahlercf.laurent import _compare_series

        f = generate(2, "F", -10)
        corrupted = f + TruncatedLaurentSeries({-3: Fraction(1)}, -10)
        with pytest.raises(MismatchAt) as err:
            _compare_series(f, corrupted, -10)
        assert err.value.degree == -3
        # the largest bad degree is reported, and a deeper operand's terms
        # below the comparison floor are not compared
        twice = corrupted + TruncatedLaurentSeries({-7: Fraction(2)}, -10)
        with pytest.raises(MismatchAt) as err:
            _compare_series(twice, f, -10)
        assert err.value.degree == -3
        _compare_series(generate(2, "F", -20), f, -10)  # agrees down to -10
