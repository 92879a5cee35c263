"""Differential test of the residual soundness check against the check it replaced.

``convergent_soundness`` reads the rate of convergent i off the residual
x^D (q_i u - p_i), one floored multiply-add per partial quotient.  The
reference below is the earlier check, kept as it was: each convergent p_i/q_i
is long-divided as a Laurent series down to its local floor
-(2 deg q_i + c_i), and down to u.floor only when u - p_i/q_i vanishes above
the local floor.  Both must return equal rates, or raise the same exception
type with the same text, on the expansions of f_d, g_d, h_d and u_d and on
single-quotient perturbations of them.
"""

import functools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mahlercf.contfrac import CFExpansion, convergent_soundness, expand_family
from mahlercf.errors import InsufficientPrecision, RateViolation
from mahlercf.laurent import TruncatedLaurentSeries, rate_of_approximation
from mahlercf.polys import RatPoly

# -- the reference check -----------------------------------------------------


def truncated(u, floor):
    """u known only down to floor (>= u.floor)."""
    return TruncatedLaurentSeries({k: c for k, c in u.coeffs.items() if k >= floor}, floor)


def reference_soundness(u, cf):
    """Each convergent divided down to its local floor, and down to u.floor
    only if u - p/q vanishes there."""
    rates = []
    for conv in cf.convergents:
        if conv.rate is None:
            break
        floor = max(u.floor, -(2 * int(conv.q.degree()) + conv.rate))
        try:
            measured = rate_of_approximation(truncated(u, floor), conv.p, conv.q)
        except InsufficientPrecision:
            measured = rate_of_approximation(u, conv.p, conv.q)
        if measured != conv.rate:
            raise RateViolation(
                f"convergent {conv.index}: measured rate {measured} != "
                f"deg a_{conv.index + 1} = {conv.rate}"
            )
        if measured < 1:
            raise RateViolation(f"convergent {conv.index} has nonpositive rate {measured}")
        rates.append(measured)
    return rates


def outcome(check, u, cf):
    """The rates, or the type and text of the exception raised."""
    try:
        return check(u, cf)
    except (RateViolation, InsufficientPrecision) as exc:
        return type(exc), str(exc)


def same_outcome(u, cf):
    expected = outcome(reference_soundness, u, cf)
    assert outcome(convergent_soundness, u, cf) == expected
    return expected


# -- inputs ------------------------------------------------------------------

N = 24


@functools.cache
def expansion(d, kind, floor):
    return expand_family(d, kind, N, floor)


scalars = st.fractions(min_value=-7, max_value=7, max_denominator=5).filter(bool)
perturbations = st.one_of(
    scalars.map(lambda k: ("add", k)),
    scalars.filter(lambda k: k != 1).map(lambda k: ("scale", k)),
    st.just(("times x", None)),
)


def perturbed(a, kind, k):
    if kind == "add":
        return a + k
    if kind == "scale":
        return a * k
    return a * RatPoly.x()


# -- the tests ---------------------------------------------------------------


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("kind", "FGHU")
def test_unperturbed_expansions(d, kind):
    for floor in (None, -(N * d + 16)):
        cf, series = expansion(d, kind, floor)
        assert same_outcome(series, cf) == [int(a.degree()) for a in cf.partial_quotients[1:]]


@given(
    st.sampled_from([2, 3]),
    st.sampled_from("FGHU"),
    st.booleans(),
    st.integers(min_value=0, max_value=N),
    perturbations,
)
def test_one_perturbed_quotient(d, kind, explicit_floor, i, perturbation):
    cf, series = expansion(d, kind, -(N * d + 16) if explicit_floor else None)
    quotients = list(cf.partial_quotients)
    quotients[i] = perturbed(quotients[i], *perturbation)
    same_outcome(series, CFExpansion(quotients))


@given(
    st.sampled_from([2, 3]),
    st.sampled_from("FGHU"),
    st.booleans(),
    st.lists(scalars, min_size=1, max_size=3),
)
def test_replaced_constant_quotient(d, kind, explicit_floor, coeffs):
    cf, series = expansion(d, kind, -(N * d + 16) if explicit_floor else None)
    a0 = RatPoly.from_ascending(coeffs)
    same_outcome(series, CFExpansion([a0, *cf.partial_quotients[1:]]))


def test_a_residual_that_vanishes_above_the_floor():
    # u = x/(x^2 + 1) down to x^-12 is p_2/q_2 of [0; x, x, x], so
    # u - p_2/q_2 has no term above the floor and rate 2 is not pinned down
    u = TruncatedLaurentSeries({-1 - 2 * k: (-1) ** k for k in range(6)}, -12)
    x = RatPoly.x()
    cf = CFExpansion([RatPoly.zero(), x, x, x])
    assert same_outcome(u, cf) == (
        InsufficientPrecision,
        "u - p/q vanishes above the floor -12; regenerate u deeper",
    )
    assert same_outcome(u, CFExpansion([RatPoly.zero(), x, x])) == [1, 1]


@pytest.mark.parametrize("kind", "GU")
def test_deep_expansions(kind):
    cf, series = expand_family(2, kind, 200)
    assert same_outcome(series, cf) == [1] * 200
