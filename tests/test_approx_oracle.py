"""Differential tests of the integer walks in ``approx`` against ``Fraction``
references.

The references below are the earlier implementations: the interval walk with
its exact-value branch, the digit count and the digit-by-digit rendering in
``Fraction`` arithmetic, and the partial product as a product of
``Fraction`` factors.  The library must give the same prefixes, digit
counts, strings and values.
"""

import math
from fractions import Fraction

from hypothesis import given
from hypothesis import strategies as st

from mahlercf.approx import (
    DECIMAL_DIGITS_CAP,
    CertifiedValue,
    _decimal_render,
    eval_mahler,
    partial_product_value,
    real_cf_prefix,
)

# -- the references ------------------------------------------------------------


def reference_prefix(value: CertifiedValue, max_terms: int) -> list[int]:
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
            break
        low, high = 1 / high, 1 / low
    return out


def reference_digits(error_bound: Fraction, cap: int) -> int:
    if error_bound == 0:
        return cap
    digits = 0
    threshold = Fraction(1, 2)
    while digits < cap and error_bound <= threshold / 10:
        threshold /= 10
        digits += 1
    return digits


def reference_render(value: Fraction, digits: int) -> str:
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


def reference_product(a: int, d: int, k: int) -> Fraction:
    out = Fraction(1)
    for t in range(k + 1):
        out *= 1 - Fraction(1, a ** (d**t))
    return out


# -- strategies ----------------------------------------------------------------

_rationals = st.fractions(max_denominator=10**12).filter(lambda f: abs(f) < 10**6)
_bounds = st.one_of(
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_denominator=10**40).filter(lambda f: f < 10),
    st.integers(0, 80).map(lambda n: Fraction(1, 10**n)),
)


@st.composite
def _intervals(draw):
    """A certified value: any rational with any bound (0 included), or one
    whose lower or upper endpoint lies on an integer."""
    bound = draw(_bounds)
    kind = draw(st.sampled_from(["any", "low on integer", "high on integer"]))
    if kind == "any":
        value = draw(_rationals)
    else:
        whole = draw(st.integers(-50, 50))
        value = whole + bound if kind == "low on integer" else whole - bound
    return CertifiedValue(value=value, error_bound=bound)


# -- the tests -----------------------------------------------------------------


@given(_intervals(), st.integers(0, 60))
def test_prefix_matches_the_fraction_walk(value, max_terms):
    assert real_cf_prefix(value, max_terms) == reference_prefix(value, max_terms)


@given(_rationals, st.integers(1, 40))
def test_point_intervals_match_the_exact_branch(point, max_terms):
    value = CertifiedValue(value=point, error_bound=Fraction(0))
    assert real_cf_prefix(value, max_terms) == reference_prefix(value, max_terms)


@given(st.sampled_from([2, 3, 10]), st.sampled_from([2, 3]), st.integers(12, 600),
       st.sampled_from("FG"))
def test_prefix_of_eval_values_matches(a, d, exponent, which):
    value = eval_mahler(a, d, Fraction(1, 10**exponent), which)
    assert real_cf_prefix(value, 10**6) == reference_prefix(value, 10**6)


@given(_bounds)
def test_certified_digits_match(bound):
    value = CertifiedValue(value=Fraction(1, 3), error_bound=bound)
    assert value.certified_digits() == reference_digits(bound, DECIMAL_DIGITS_CAP)


@given(st.integers(0, 40), st.integers(1, 10**6))
def test_certified_digits_at_the_decade_edges(n, scale):
    # bounds just below, at and just above 10^-n / 2
    edge = Fraction(1, 2 * 10**n)
    for bound in (edge, edge * (1 - Fraction(1, scale + 1)), edge * (1 + Fraction(1, scale))):
        value = CertifiedValue(value=Fraction(0), error_bound=bound)
        assert value.certified_digits() == reference_digits(bound, DECIMAL_DIGITS_CAP)


@given(st.one_of(_rationals, st.fractions(max_denominator=10**40)), st.integers(1, 40))
def test_decimal_rendering_matches(value, digits):
    assert _decimal_render(value, digits) == reference_render(value, digits)


@given(st.sampled_from([2, 3, 10]), st.sampled_from([2, 3]), st.integers(1, 400),
       st.sampled_from("FG"))
def test_decimal_of_eval_values_matches(a, d, exponent, which):
    value = eval_mahler(a, d, Fraction(1, 10**exponent), which)
    digits = max(1, reference_digits(value.error_bound, DECIMAL_DIGITS_CAP))
    assert value.decimal() == reference_render(value.value, digits)


@given(st.integers(2, 12), st.integers(2, 5), st.integers(0, 5))
def test_partial_product_matches(a, d, k):
    assert partial_product_value(a, d, k) == reference_product(a, d, k)
