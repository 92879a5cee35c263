"""Certified evaluation, iterated approximants, real continued fractions."""

import math
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mahlercf.approx import (
    CertifiedValue,
    _integer_pair,
    divisibility_ladder,
    eval_mahler,
    irrationality_witness,
    iterated_approximants,
    iterated_pair_polynomials,
    locate_as_convergent,
    partial_product_value,
    quality_sup,
    real_cf_prefix,
)
from mahlercf.errors import (
    IdentityFailure,
    InvalidParameter,
    NotFound,
    ScaleNotInvertible,
)
from mahlercf.contfrac import expand_family
from mahlercf.padic import witness_search
from mahlercf.polys import RatPoly


class TestCertifiedValue:
    def test_interval_is_symmetric_around_value(self):
        cv = CertifiedValue(
            value=Fraction(1, 3), error_bound=Fraction(1, 100), target="t"
        )
        low, high = cv.interval()
        assert low == Fraction(1, 3) - Fraction(1, 100)
        assert high == Fraction(1, 3) + Fraction(1, 100)

    def test_json_shape(self):
        cv = eval_mahler(2, 2, Fraction(1, 10**6))
        data = cv.to_json_dict()
        assert set(data) == {"value", "error_bound", "decimal", "target"}
        assert data["value"] == "752014125/2147483648"
        assert data["error_bound"] == "1/2147483648"
        assert data["decimal"].endswith("…")
        assert data["target"] == "f_2(2)"

    def test_decimal_prefix(self):
        cv = eval_mahler(2, 2, Fraction(1, 10**6))
        assert cv.decimal(8) == "0.35018386…"
        assert cv.certified_digits() >= 8


class TestEvalMahler:
    def test_f2_at_2_exact_value(self):
        cv = eval_mahler(2, 2, Fraction(1, 10**6))
        assert cv.value == Fraction(752014125, 2**31)
        assert cv.error_bound == Fraction(1, 2**31)

    def test_partial_product_value(self):
        assert partial_product_value(2, 2, 3) == Fraction(11475, 2**15)

    def test_minimal_depth_bound(self):
        # for a=2, d=4 the first tail bound below 1e-10 is 2/2^(4^3)
        cv = eval_mahler(2, 4, Fraction(1, 10**10))
        assert cv.error_bound == Fraction(2, 2**64)

    def test_tail_bound_honest(self):
        # the certified interval at a looser precision contains the value
        # computed at a much tighter one
        rough = eval_mahler(2, 2, Fraction(1, 10**3))
        fine = eval_mahler(2, 2, Fraction(1, 10**30))
        low, high = rough.interval()
        assert low <= fine.value <= high
        assert fine.error_bound < rough.error_bound

    def test_g_variant_scales_by_power_of_a(self):
        f = eval_mahler(2, 3, Fraction(1, 10**6), which="F")
        g = eval_mahler(2, 3, Fraction(1, 10**6), which="G")
        assert g.value == f.value / 2 ** (3 - 1)
        assert g.error_bound == f.error_bound / 2 ** (3 - 1)
        assert g.target == "g_3(2)"

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameter):
            eval_mahler(1, 2, Fraction(1, 100))
        with pytest.raises(InvalidParameter):
            eval_mahler(2, 1, Fraction(1, 100))
        with pytest.raises(InvalidParameter):
            eval_mahler(2, 2, Fraction(0))
        with pytest.raises(InvalidParameter):
            eval_mahler(2, 2, Fraction(1, 100), which="Z")


class TestIteratedApproximants:
    def test_d2_denominator_chain(self):
        apxs = iterated_approximants(2, 2, 9, 2)
        assert [a.denominator for a in apxs] == [594, 307290, 72729235746]
        for a in apxs:
            assert a.quality_low <= a.quality_high
            assert a.quality_low > 0

    def test_d2_quality_narrows_to_constant(self):
        apxs = iterated_approximants(2, 2, 9, 2)
        final = apxs[2]
        assert Fraction(118, 100) < final.quality_low <= final.quality_high
        assert final.quality_high < Fraction(119, 100)
        assert final.quality_high - final.quality_low < Fraction(1, 10**6)
        assert quality_sup(apxs) == max(a.quality_high for a in apxs)

    def test_d3_quality_stays_small(self):
        apxs = iterated_approximants(2, 3, 8, 2)
        sup = quality_sup(apxs)
        assert Fraction(1, 5) < sup < Fraction(1, 4)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameter):
            iterated_approximants(2, 3, 9, 1)  # odd t for d=3
        with pytest.raises(InvalidParameter):
            iterated_approximants(2, 4, 8, 1)
        with pytest.raises(InvalidParameter):
            iterated_approximants(2, 2, 0, 1)


class TestLocateAsConvergent:
    @pytest.mark.parametrize(
        "d,t,n", [(2, 9, 0), (2, 9, 1), (2, 9, 2), (3, 8, 1), (3, 8, 2)]
    )
    def test_iterated_pair_is_a_convergent(self, d, t, n):
        num, den = iterated_pair_polynomials(d, t, n)
        assert locate_as_convergent(d, num, den) == t * d**n

    def test_mismatched_pair_not_found(self):
        wrong_num, _ = iterated_pair_polynomials(2, 9, 0)
        _, den = iterated_pair_polynomials(2, 9, 1)
        with pytest.raises(NotFound):
            locate_as_convergent(2, wrong_num, den)


class TestDivisibilityLadder:
    def test_d2_ladder_exact_steps(self):
        w = witness_search(2, 2, 11, 8, 20)
        assert (w.p, w.n0, w.t) == (3, 1, 18)
        assert divisibility_ladder(w, 3) == ((1, 0, 1), (2, 1, 2), (3, 2, 3), (4, 3, 4))

    def test_d3_ladder_exact_steps(self):
        w = witness_search(2, 3, 7, 6, 10)
        assert (w.p, w.n0, w.t) == (7, 2, 8)
        assert divisibility_ladder(w, 3) == ((2, 0, 2), (3, 1, 3), (4, 2, 4), (5, 3, 5))

    def test_valuation_meets_requirement(self):
        w = witness_search(2, 2, 11, 8, 20)
        for n, required, valuation in divisibility_ladder(w, 4):
            assert n >= w.n0
            assert required == n - w.n0
            assert valuation >= required

    def test_wrong_prime_raises(self):
        fake = SimpleNamespace(a=2, d=2, p=7, n0=1, t=18)
        with pytest.raises(IdentityFailure):
            divisibility_ladder(fake, 3)

    def test_scale_sharing_prime_raises(self):
        fake = SimpleNamespace(a=3, d=3, p=2, n0=1, t=8)
        with pytest.raises(ScaleNotInvertible):
            divisibility_ladder(fake, 2)


class TestRealCFPrefix:
    def test_f2_at_2_prefix(self):
        cv = eval_mahler(2, 2, Fraction(1, 10**24))
        assert real_cf_prefix(cv, 10) == [0, 2, 1, 5, 1, 12, 1, 2, 1, 19]

    def test_exact_rational_terminates_canonically(self):
        cv = CertifiedValue(value=Fraction(7, 3), error_bound=Fraction(0), target="e")
        assert real_cf_prefix(cv, 10) == [2, 3]

    def test_wide_interval_stops_early(self):
        wide = CertifiedValue(
            value=Fraction(752014125, 2**31),
            error_bound=Fraction(1, 100),
            target="w",
        )
        prefix = real_cf_prefix(wide, 10)
        assert len(prefix) < 10
        assert prefix == [0, 2, 1]


class TestIrrationalityWitness:
    def test_d4_exponent_exactly_three(self):
        rep = irrationality_witness(2, 4, 3)
        assert [s.exponent_64ths for s in rep.samples] == [192, 192, 192, 192]
        assert rep.samples[0].exponent_decimal() == "3.000"
        assert all(s.proof_inequality for s in rep.samples)
        assert rep.exponent_at_least(Fraction(3))
        assert not rep.exponent_at_least(Fraction(25, 8))

    def test_d5_exponent_decreases_to_four(self):
        rep = irrationality_witness(3, 5, 3)
        assert [s.exponent_64ths for s in rep.samples] == [279, 259, 256, 256]
        assert [s.exponent_decimal() for s in rep.samples[:2]] == ["4.359", "4.046"]
        assert rep.exponent_at_least(Fraction(7, 2))

    def test_error_upper_matches_tail_bound(self):
        rep = irrationality_witness(2, 4, 2)
        for s in rep.samples:
            assert s.error_upper <= Fraction(2, 2 ** (4 ** (s.k + 1)))

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameter):
            irrationality_witness(2, 3, 3)
        with pytest.raises(InvalidParameter):
            irrationality_witness(1, 4, 3)


def canonical_integer_pair(p, q):
    """Reference for ``_integer_pair``: the joint integer-primitive form of
    p/q, built independently: make q monic, clear the denominators of both
    polynomials, then remove their joint integer content.  Returns
    (p_int, q_int, clearing factor)."""
    lead = q.leading_coefficient()
    p_monic, q_monic = p * (1 / lead), q * (1 / lead)
    scale = 1
    for poly in (p_monic, q_monic):
        for coeff in poly.coeffs.values():
            scale = math.lcm(scale, coeff.denominator)
    p_int, q_int = p_monic * scale, q_monic * scale
    content = 0
    for poly in (p_int, q_int):
        for coeff in poly.coeffs.values():
            content = math.gcd(content, coeff.numerator)
    if content > 1:
        p_int, q_int = p_int * Fraction(1, content), q_int * Fraction(1, content)
        scale //= math.gcd(scale, content)
    return p_int, q_int, scale


class TestIntegerPair:
    @pytest.mark.parametrize("d", [2, 3])
    def test_matches_the_joint_content_reference(self, d):
        cf, _ = expand_family(d, "G", 120)
        for conv in cf.convergents:
            p_ref, q_ref, scale_ref = canonical_integer_pair(conv.p, conv.q)
            p_int, q_int = _integer_pair(conv.p, conv.q)
            assert RatPoly(p_int) == p_ref, conv.index
            assert q_int.primitive == q_ref, conv.index
            assert q_int.scale.denominator == scale_ref, conv.index

    def test_non_integral_numerator_raises(self):
        # over the primitive x, the pair 1/(2x) has numerator 1/2
        with pytest.raises(IdentityFailure):
            _integer_pair(RatPoly.one(), RatPoly.from_text("0, 2"))
