"""Input guards of the library that no other test reaches: each raises its
error class with its exact message."""

from fractions import Fraction

import pytest

from mahlercf.approx import (
    CertifiedValue, irrationality_witness, partial_product_value, real_cf_prefix,
)
from mahlercf.contfrac import CFExpansion, cf_expand
from mahlercf.errors import InvalidParameter, ZeroPolynomial
from mahlercf.laurent import TruncatedLaurentSeries, generate, partial_product
from mahlercf.padic import check_conditions, power_tower_residue, wieferich_scan
from mahlercf.polys import RatPoly, poly_eval_mod, poly_substitute_power
from mahlercf.structure import beta_closed_form, beta_sequence, ones_polynomial, well_approx_report

GUARDS = {
    "approx.partial_product_value": (
        lambda: partial_product_value(1, 2, 0), InvalidParameter, "need a >= 2, d >= 2, k >= 0"),
    "approx.real_cf_prefix": (
        lambda: real_cf_prefix(CertifiedValue(Fraction(1), Fraction(0), "one"), -1),
        InvalidParameter, "max_terms must be non-negative"),
    "approx.irrationality_witness": (
        lambda: irrationality_witness(2, 4, -1), InvalidParameter, "need k_max >= 0"),
    "contfrac.CFExpansion": (
        lambda: CFExpansion([]), InvalidParameter, "a continued fraction needs at least a_0"),
    "contfrac.cf_expand": (
        lambda: cf_expand(generate(2, "G", -10), -1),
        InvalidParameter, "quotient count must be an integer >= 0, got -1"),
    "laurent.TruncatedLaurentSeries": (
        lambda: TruncatedLaurentSeries({}, 1.5),
        InvalidParameter, "floor must be an integer, got 1.5"),
    "laurent.substitute_power": (
        lambda: generate(2, "F", -4).substitute_power(0),
        InvalidParameter, "substitution power must be a positive integer, got 0"),
    "laurent.partial_product": (
        lambda: partial_product(1, 0), InvalidParameter, "need d >= 2 and k >= 0"),
    "padic.wieferich_scan": (
        lambda: wieferich_scan(2, 2), InvalidParameter, "bound must be >= 3, got 2"),
    "padic.wieferich_scan-bound": (
        lambda: wieferich_scan(2, 10**7 + 1),
        InvalidParameter, "bound must not exceed 10000000, got 10000001"),
    "padic.power_tower_residue": (
        lambda: power_tower_residue(2, 2, -1, 7), InvalidParameter, "n0 must be >= 0, got -1"),
    "padic.check_conditions": (
        lambda: check_conditions(2, 4, 7, 1, 1, RatPoly.one()),
        InvalidParameter, "certificates exist for d in {2, 3}, got 4"),
    "polys.constant": (
        lambda: RatPoly.constant(1.5), InvalidParameter, "not a rational scalar: 1.5"),
    "polys.RatPoly": (
        lambda: RatPoly({-1: 1}), InvalidParameter, "invalid degree -1: need an integer >= 0"),
    "polys.monic": (
        lambda: RatPoly.zero().monic(), ZeroPolynomial, "cannot make the zero polynomial monic"),
    "polys.poly_substitute_power": (
        lambda: poly_substitute_power(RatPoly.x(), 0),
        InvalidParameter, "substitution power must be a positive integer, got 0"),
    "polys.poly_eval_mod": (
        lambda: poly_eval_mod({0: 1}, 2, 0), InvalidParameter, "modulus must be >= 1, got 0"),
    "structure.ones_polynomial": (
        lambda: ones_polynomial(0), InvalidParameter, "need d >= 1, got 0"),
    "structure.beta_sequence": (
        lambda: beta_sequence(1, 5), InvalidParameter, "need d >= 2, got 1"),
    "structure.beta_closed_form": (
        lambda: beta_closed_form(3), InvalidParameter, "need n >= 4, got 3"),
    "structure.well_approx_report": (
        lambda: well_approx_report(4, 0), InvalidParameter, "need k_max >= 1, got 0"),
}


@pytest.mark.parametrize("call, error, message", GUARDS.values(), ids=GUARDS.keys())
def test_guard_raises_its_error_and_message(call, error, message):
    with pytest.raises(error) as caught:
        call()
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_monic_denominator_before_the_chain_is_the_seed_zero():
    # qhat_{-1} = 0, the seed of the monic recurrence
    assert CFExpansion([RatPoly.zero(), RatPoly.x()]).monic_denominator(-1).is_zero()
