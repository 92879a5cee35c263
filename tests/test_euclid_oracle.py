"""Differential tests of the expansion pipeline against the exact Euclid.

``contfrac._euclid_chain`` cuts each remainder r_i = ±(q_i N - p_i x^D) to
its terms of degree >= deg q_i, and ``expand_family`` first tries the
certificate depth n*d + 16 when no floor is given.  The references below are
the pipeline without either: the Euclid that carries every remainder term,
the default floor and its doublings, and the chain step ``a * cur + prev``.
Every case must give the same quotients and chains, or the same exception
type and text.
"""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mahlercf.contfrac import (
    DEPTH_CAP_DEFAULT,
    CFExpansion,
    _euclid_chain,
    cf_expand,
    default_floor,
    expand_family,
    family_series,
)
from mahlercf.errors import InsufficientPrecision, InvalidParameter
from mahlercf.polys import RatPoly, poly_divmod

# -- the reference pipeline --------------------------------------------------


def exact_chain(num: RatPoly, den: RatPoly, n: int, certify_degree: int) -> list[RatPoly]:
    """Euclid on num/den with every remainder term kept."""
    quotients: list[RatPoly] = []
    a0, rem = poly_divmod(num, den)
    quotients.append(a0)
    x_cur, y_cur = den, rem
    deg_q = 0
    while len(quotients) <= n and not y_cur.is_zero():
        a, rem = poly_divmod(x_cur, y_cur)
        deg_q += int(a.degree())
        if 2 * deg_q > certify_degree:
            break
        quotients.append(a)
        x_cur, y_cur = y_cur, rem
    return quotients


def reference_cf_expand(u, n: int) -> list[RatPoly]:
    floor = u.floor
    num = RatPoly({deg - floor: c for deg, c in u.int_coeffs().items()}) * u.scale
    quotients = exact_chain(num, RatPoly.monomial(-floor), n, -floor)
    if len(quotients) <= n:
        raise InsufficientPrecision(
            f"only {len(quotients) - 1} partial quotients certified at floor {floor}; "
            f"requested {n} - regenerate with a deeper floor"
        )
    return quotients


def reference_expand(d: int, kind: str, n: int, floor: int | None = None):
    """The quotients from the default floor and its doublings, and the floor
    that gave them."""
    depth = -(floor if floor is not None else default_floor(d, n))
    if depth <= 0:
        raise InvalidParameter(f"floor must be negative, got {-depth}")
    last_error = None
    while depth <= DEPTH_CAP_DEFAULT:
        try:
            return reference_cf_expand(family_series(d, kind, -depth), n), -depth
        except InsufficientPrecision as exc:
            last_error = exc
            depth *= 2
    if last_error is None:
        raise InsufficientPrecision(
            f"starting depth {depth} for {kind}_{d} with n={n} already exceeds "
            f"the depth cap {DEPTH_CAP_DEFAULT}"
        )
    raise InsufficientPrecision(
        f"depth cap {DEPTH_CAP_DEFAULT} reached for {kind}_{d} with n={n}: {last_error}"
    )


def reference_chain(quotients, prev: RatPoly, cur: RatPoly) -> tuple[RatPoly, ...]:
    chain = [cur]
    for a in quotients[1:]:
        cur, prev = a * cur + prev, cur
        chain.append(cur)
    return tuple(chain)


def outcome(expand, *args):
    try:
        return expand(*args)
    except (InsufficientPrecision, InvalidParameter) as exc:
        return type(exc), str(exc)


def assert_same_expansion(d, kind, n, floor=None):
    got = outcome(expand_family, d, kind, n, floor)
    want = outcome(reference_expand, d, kind, n, floor)
    if isinstance(want[0], type):
        assert got == want, (d, kind, n, floor)
        return
    (cf, series), (quotients, want_floor) = got, want
    assert isinstance(cf, CFExpansion), (d, kind, n, floor, got)
    assert cf.partial_quotients == tuple(quotients), (d, kind, n, floor)
    assert cf.raw_q == reference_chain(quotients, RatPoly.zero(), RatPoly.one())
    assert cf.raw_p == reference_chain(quotients, RatPoly.one(), quotients[0])
    # only an expansion without a floor tries the certificate depth first
    first = -(n * d + 16)
    if floor is None and isinstance(outcome(reference_cf_expand, family_series(d, kind, first), n),
                                    list):
        want_floor = first
    assert series.floor == want_floor, (d, kind, n, floor)


# -- Euclid on random integer maps ---------------------------------------------

small_ints = st.integers(min_value=-9, max_value=9).filter(bool)
large_ints = st.integers(min_value=-(10**12), max_value=10**12).filter(bool)


@st.composite
def numerators(draw):
    """(N, D): a sparse or dense integer map over degrees 0..D + 3."""
    depth = draw(st.integers(min_value=1, max_value=60))
    degrees = st.integers(min_value=0, max_value=depth + 3)
    coeffs = st.one_of(small_ints, large_ints)
    if draw(st.booleans()):
        ints = draw(st.dictionaries(degrees, coeffs, max_size=8))
    else:
        ints = {deg: draw(coeffs) for deg in range(draw(degrees) + 1)}
        ints = {deg: c for deg, c in ints.items() if draw(st.integers(0, 5))}
    scale = draw(st.fractions(min_value=-50, max_value=50, max_denominator=50).filter(bool))
    return RatPoly(ints) * scale, depth


class TestEuclidChain:
    @given(numerators(), st.integers(min_value=0, max_value=40))
    def test_same_quotients_as_the_exact_euclid(self, case, n):
        num, depth = case
        assert _euclid_chain(num, depth, n) == exact_chain(num, RatPoly.monomial(depth), n, depth)

    @pytest.mark.parametrize("d", [2, 3])
    def test_a_family_truncation_at_every_shallow_depth(self, d):
        for depth in range(1, 90):
            u = family_series(d, "F", -depth)
            num = RatPoly({deg + depth: c for deg, c in u.int_coeffs().items()}) * u.scale
            want = exact_chain(num, RatPoly.monomial(depth), 200, depth)
            assert _euclid_chain(num, depth, 200) == want, depth


# -- expand_family sweeps --------------------------------------------------------

SWEEP_N = [0, 1, 2, 9, 20, 33, 47, 55, 58, 60]


def sweep_floors(d, n):
    return [None, -40, -(n * d // 2) - 3, -n * d - 5]


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("kind", ["F", "G", "H", "U"])
def test_expand_family_sweep(d, kind):
    for n in SWEEP_N:
        for floor in sweep_floors(d, n):
            assert_same_expansion(d, kind, n, floor)


@pytest.mark.parametrize("d, n", [
    (2, 200), (2, 300), (2, 496), (2, 497), (2, 600),
    (3, 200), (3, 300), (3, 330), (3, 331), (3, 600),
])
def test_deep_g_expansions_and_the_depth_cap(d, n):
    assert_same_expansion(d, "G", n)


@pytest.mark.parametrize("n", range(55, 61))
def test_a_failed_first_attempt_falls_back_to_the_default_floor(n):
    # the certificate depth n*d + 16 is too shallow for f_2 here, so the
    # expansion comes from the default floor, as it did without the attempt
    with pytest.raises(InsufficientPrecision):
        cf_expand(family_series(2, "F", -(2 * n + 16)), n)
    cf, series = expand_family(2, "F", n)
    assert series.floor == default_floor(2, n)
    assert cf.partial_quotients == expand_family(2, "F", n, default_floor(2, n))[0].partial_quotients
