"""Continued-fraction expansion: certification, convergent laws, monic quantities."""

import argparse
import json
from fractions import Fraction

import pytest

from mahlercf.cli import _write_cf_json
from mahlercf.contfrac import (
    CFExpansion,
    cf_expand,
    convergent_soundness,
    default_floor,
    expand_family,
    monic_normalize,
)
from mahlercf.errors import (
    IdentityFailure,
    InsufficientPrecision,
    InvalidParameter,
    RateViolation,
)
from mahlercf.laurent import (
    TruncatedLaurentSeries,
    generate,
    partial_product,
    rate_of_approximation,
)
from mahlercf.polys import RatPoly, poly_divmod, poly_substitute_power

FROZEN_BETAS_D2 = [
    Fraction(v)
    for v in (
        "2,-1,1,1,1,-1,1,-1,3,-1/3,1/3,3,-1,1,-1,-1,3,-1,1,1/3,5/3,-1/5,1/5".split(",")
    )
]  # beta_2 .. beta_24

FROZEN_BETAS_D3 = [
    Fraction(v)
    for v in ("2,-1/2,-1/2,4,-2,1/4,7/4,-2/7,16/7,-7/8,-1/8".split(","))
]  # beta_2 .. beta_12


def exact_quotients(num, den, n):
    """Reference: the partial quotients a_0..a_n of the rational function
    num/den by plain Euclid over poly_divmod, fewer if a remainder vanishes."""
    quotients = []
    while len(quotients) <= n and not den.is_zero():
        a, rem = poly_divmod(num, den)
        quotients.append(a)
        num, den = den, rem
    return tuple(quotients)


class TestExactExpansion:
    def test_already_monic_expansion_has_unit_betas(self):
        # [0; x, x, x] expands (x^2+1)/(x^3+2x) = 1/(x + 1/(x + 1/x)), whose
        # monic convergent denominators x, x^2+1, x^3+2x make the monic
        # quantities those of the raw chain
        x = RatPoly.x()
        cf = CFExpansion([RatPoly.zero(), x, x, x])
        monic = monic_normalize(cf)
        for n in range(1, 4):
            assert monic.monic_denominator(n) == cf.convergents[n].q
        assert monic.beta(2) == 1
        assert monic.beta(3) == 1
        assert monic.monic_quotient(2) == cf.partial_quotients[2]

    def test_exact_and_truncated_paths_agree(self):
        poly, denom = partial_product(2, 4)
        exact = TruncatedLaurentSeries.from_fraction(poly, denom, -40)
        exact_prefix = exact_quotients(poly, denom, 14)
        # the same rational function fed through plain coefficient truncation
        plain = TruncatedLaurentSeries(
            {deg: exact.coeff(deg) for deg in range(-40, 1) if exact.coeff(deg)},
            -40,
        )
        cf_plain = cf_expand(plain, 14)
        assert exact_prefix[:15] == cf_plain.partial_quotients[:15]

    def test_partial_product_cf_agrees_with_full_series_on_certified_prefix(self):
        # |f_2 - r_4| has degree -2^5 = -32, so the two quotient sequences must
        # agree on every convergent with 2*deg(q) < 32 (the certification
        # criterion applied to the difference of the two inputs)
        poly, denom = partial_product(2, 4)
        f2 = generate(2, "F", -64)
        r_prefix = exact_quotients(poly, denom, 15)
        cf_f = cf_expand(f2, 15)
        certified = [
            conv.index
            for conv in cf_f.convergents
            if 2 * int(conv.q.degree()) < 32
        ]
        top = max(certified)
        assert top >= 8
        assert r_prefix[: top + 1] == cf_f.partial_quotients[: top + 1]


class TestSelfSimilarity:
    @pytest.mark.parametrize(
        "d,t,n", [(2, 9, 0), (2, 9, 1), (2, 9, 2), (3, 8, 1), (3, 8, 2)]
    )
    def test_iterated_pair_is_a_convergent(self, d, t, n):
        # iterating g_d(x) = x^{d^2-2d} (x-1) g_d(x^d) n times carries the
        # convergent p_t/q_t to P/Q with
        #   P = prod_{k<n} x^{(d^2-2d) d^k} (x^{d^k}-1) * p_t(x^{d^n}),
        #   Q = q_t(x^{d^n}),
        # which is the convergent of g_d at index t d^n
        cf, _ = expand_family(d, "G", t * d**n)
        source, target = cf.convergents[t], cf.convergents[t * d**n]
        big_p = poly_substitute_power(source.p, d**n)
        for k in range(n):
            step = d**k
            big_p = (
                big_p
                * RatPoly.monomial((d * d - 2 * d) * step)
                * (RatPoly.monomial(step) - RatPoly.one())
            )
        big_q = poly_substitute_power(source.q, d**n)
        assert big_p * target.q == big_q * target.p
        assert big_q.degree() == target.q.degree()


@pytest.fixture(scope="module")
def expansions():
    """Every family for d = 2, 3 at n = 30, keyed by (d, kind)."""
    return {(d, kind): expand_family(d, kind, 30) for d in (2, 3) for kind in "FGHU"}


class TestConvergentLaws:
    @staticmethod
    def determinant(cf, n):
        """p_n q_{n-1} - p_{n-1} q_n on the raw chain, with p_{-1} = 1, q_{-1} = 0."""
        p = [RatPoly.one(), *cf.raw_p]
        q = [RatPoly.zero(), *cf.raw_q]
        return p[n + 1] * q[n] - p[n] * q[n + 1]

    def test_determinant_identity(self, g2_expansion):
        cf, _ = g2_expansion
        for n in range(0, 30):
            det = self.determinant(cf, n)
            assert det in (RatPoly.one(), -RatPoly.one())

    def test_determinant_alternates(self, g2_expansion):
        cf, _ = g2_expansion
        signs = []
        for n in range(0, 12):
            det = self.determinant(cf, n)
            signs.append(1 if det == RatPoly.one() else -1)
        assert signs == [(-1) ** (n + 1) for n in range(0, 12)]

    def test_rates_equal_next_quotient_degree(self, g2_expansion, g3_expansion, expansions):
        for cf, series in (g2_expansion, g3_expansion, *expansions.values()):
            rates = convergent_soundness(series, cf)
            assert rates == [conv.rate for conv in cf.convergents[:-1]]
            assert all(r >= 1 for r in rates)

    def test_local_rates_equal_full_floor_rates(self, expansions):
        for (d, kind), (cf, series) in expansions.items():
            full = [rate_of_approximation(series, conv.p, conv.q) for conv in cf.convergents[:-1]]
            assert convergent_soundness(series, cf) == full, (d, kind)

    def test_each_residual_is_one_floored_step(self, monkeypatch):
        # e_0 = u - a_0 is one unfloored step; e_{i+1} = a_{i+1} e_i + e_{i-1}
        # is one step floored at deg q_{i+1}, and nothing is divided
        import mahlercf.contfrac as contfrac

        cf, series = expand_family(2, "H", 40)
        floors = []
        step = contfrac._mul_add

        def recording(a, cur, prev, floor=None):
            floors.append(floor)
            return step(a, cur, prev, floor)

        def dividing(*args):
            raise AssertionError("the soundness check divides")

        monkeypatch.setattr(contfrac, "_mul_add", recording)
        monkeypatch.setattr(TruncatedLaurentSeries, "from_fraction", classmethod(dividing))
        assert convergent_soundness(series, cf) == [1] * 40
        assert floors == [None, *(int(q.degree()) for q in cf.raw_q[1:])]

    def test_d2_rates_all_one(self, g2_expansion):
        cf, _ = g2_expansion
        assert all(conv.rate == 1 for conv in cf.convergents[:-1])

    def test_d3_rates_alternate(self, g3_expansion):
        cf, _ = g3_expansion
        rates = [conv.rate for conv in cf.convergents[:-1]]
        assert rates[:8] == [2, 1, 2, 1, 2, 1, 2, 1]

    def test_denominator_degrees_increase(self, g3_expansion):
        cf, _ = g3_expansion
        degrees = [conv.q.degree() for conv in cf.convergents]
        assert degrees == sorted(degrees)
        assert all(b > a for a, b in zip(degrees, degrees[1:]))

    def test_sign_normalization(self, g2_expansion):
        cf, _ = g2_expansion
        for conv in cf.convergents:
            assert conv.q.leading_coefficient() > 0


class TestCertification:
    def test_insufficient_precision_on_shallow_floor(self):
        f2 = generate(2, "F", -6)
        with pytest.raises(InsufficientPrecision):
            cf_expand(f2, 12)

    def test_expand_family_retries_on_depth(self):
        cf, series = expand_family(2, "G", 30, floor=-8)
        assert len(cf.partial_quotients) == 31
        assert series.floor <= -60

    def test_depth_cap_stops_retries(self, monkeypatch):
        import mahlercf.contfrac as contfrac

        monkeypatch.setattr(contfrac, "DEPTH_CAP_DEFAULT", 16)
        with pytest.raises(InsufficientPrecision, match="depth cap 16 reached"):
            expand_family(6, "U", 50, floor=-8)

    def test_default_floor_formula(self):
        assert default_floor(2, 10) == -(2 * 10 * 2 + 16)
        assert default_floor(3, 7) == -(2 * 7 * 3 + 16)


BOUNDARY_FLOORS = range(-8, -100, -1)


def last_certified_index(deep, floor):
    """The last index N of a deep expansion with 2*deg q_N <= -floor."""
    degrees = [int(q.degree()) for q in deep.raw_q]
    last = max(i for i, deg in enumerate(degrees) if 2 * deg <= -floor)
    assert last + 1 < len(degrees), "the deep expansion must reach past the boundary"
    return last


class TestCertificationBoundary:
    """At a floor F, exactly the quotients a_0..a_N with 2*deg q_N <= -F are
    certified: cf_expand emits them, and not one more."""

    @pytest.mark.parametrize("d,kind", [(2, "G"), (2, "F"), (2, "H"), (2, "U"), (3, "G"), (3, "F")])
    def test_emits_exactly_the_certified_prefix(self, d, kind):
        deep, _ = expand_family(d, kind, 60)
        for floor in BOUNDARY_FLOORS:
            n = last_certified_index(deep, floor)
            series = generate(d, kind, floor)
            cf = cf_expand(series, n)
            assert cf.partial_quotients == deep.partial_quotients[: n + 1], floor
            with pytest.raises(InsufficientPrecision):
                cf_expand(series, n + 1)

    def test_a_tail_below_the_floor_leaves_the_prefix(self):
        # g_2 perturbed just below the floor agrees with g_2 down to the
        # floor, so both expansions begin with the prefix certified there
        deep, _ = expand_family(2, "G", 60)
        for floor in BOUNDARY_FLOORS:
            n = last_certified_index(deep, floor)
            g2 = generate(2, "G", floor - 40)
            perturbed = g2 + TruncatedLaurentSeries({floor - 1: 1}, g2.floor)
            assert perturbed.truncate(floor) == g2.truncate(floor)
            cf = cf_expand(perturbed, n)
            assert cf.partial_quotients == deep.partial_quotients[: n + 1], floor


class TestMonicView:
    def test_frozen_betas_d2(self, g2_expansion):
        cf, _ = g2_expansion
        monic = monic_normalize(cf)
        betas = [monic.beta(i) for i in range(2, 25)]
        assert betas == FROZEN_BETAS_D2

    def test_frozen_betas_d3(self, g3_expansion):
        cf, _ = g3_expansion
        monic = monic_normalize(cf)
        betas = [monic.beta(i) for i in range(2, 13)]
        assert betas == FROZEN_BETAS_D3

    def test_monic_denominator_fixtures_d3(self, g3_expansion):
        cf, _ = g3_expansion
        monic = monic_normalize(cf)
        assert monic.monic_denominator(1) == RatPoly.from_text("1, 1, 1")
        assert monic.monic_denominator(2) == RatPoly.from_text("1, 0, 0, 1")
        assert monic.monic_denominator(4) == RatPoly.from_text("-1, 0, 0, -1, 0, 0, 1")
        assert monic.monic_denominator(6) == RatPoly.from_text(
            "1, 0, 0, 0, 0, 0, 0, 0, 0, 1"
        )
        for n in (-2, monic.last_index + 1):
            with pytest.raises(InvalidParameter):
                monic.monic_denominator(n)

    def test_monic_normalize_returns_its_argument(self, g2_expansion):
        cf, _ = g2_expansion
        assert monic_normalize(cf) is cf
        with pytest.raises(InvalidParameter, match="needs at least two convergents"):
            monic_normalize(CFExpansion([RatPoly.one()]))

    def test_beta_convention_beta1_zero(self, g2_expansion):
        cf, _ = g2_expansion
        monic = monic_normalize(cf)
        assert monic.beta(1) == 0

    def test_beta_and_quotient_range_checks(self, g2_expansion):
        cf, _ = g2_expansion
        monic = monic_normalize(cf)
        top = monic.last_index
        for n in (0, top + 1):
            beta_message = rf"^beta_{n} not available \(have 1\.\.{top}\)$"
            with pytest.raises(InvalidParameter, match=beta_message):
                monic.beta(n)
            with pytest.raises(InvalidParameter, match=f"^monic quotient {n} not available$"):
                monic.monic_quotient(n)

    def test_numerators_are_built_only_when_read(self, monkeypatch, capsys):
        import mahlercf.padic as padic
        import mahlercf.structure as structure

        built = []

        def recording(*args):
            cf, series = expand_family(*args)
            built.append(cf)
            return cf, series

        for module in (structure, padic):
            monkeypatch.setattr(module, "expand_family", recording)
        monkeypatch.setattr(padic, "_denominator_cache", {})
        seq = structure.beta_sequence(3, 40)
        padic.convergent_denominators(2, 40)
        assert len(built) == 2
        for cf in built:
            assert not {"raw_p", "convergents"} & set(vars(cf))
        _write_cf_json(seq.monic, argparse.Namespace(kind="G", no_timestamp=True))
        assert {"raw_p", "convergents"} <= set(vars(seq.monic))

    def test_json_schema(self, g2_expansion, capsys):
        cf, _ = g2_expansion
        _write_cf_json(cf, argparse.Namespace(kind="G", no_timestamp=True))
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"a", "convergents", "betas"}
        assert data["betas"][0] == "2"
        first = data["convergents"][0]
        assert set(first) == {"n", "p", "q", "rate"}

    def test_quotient_degree_validation(self):
        with pytest.raises(InvalidParameter):
            CFExpansion((RatPoly.zero(), RatPoly.one()))


class TestTypedChecks:
    """Each certification check raises a typed error, which ``python -O``
    cannot strip, when its identity is broken on purpose."""

    def test_degree_bookkeeping(self, monkeypatch):
        # a chain step that drops the partial quotient leaves deg q_1 at 0
        import mahlercf.contfrac as contfrac

        monkeypatch.setattr(contfrac, "_mul_add", lambda a, cur, prev: cur + prev)
        with pytest.raises(IdentityFailure, match="deg q_1"):
            CFExpansion([RatPoly.zero(), RatPoly.x()])

    def test_chain_cannot_be_edited(self):
        # the monic quantities read the chain built at construction, so no
        # later edit may put it out of step with the partial quotients
        cf, _ = expand_family(2, "G", 6)
        for chain in (cf.partial_quotients, cf.raw_q, cf.raw_p):
            with pytest.raises(TypeError):
                chain[2] = chain[2] + 1

    @staticmethod
    def replaced(cf, i, a):
        """cf with its partial quotient a_i replaced by a."""
        quotients = list(cf.partial_quotients)
        quotients[i] = a
        return CFExpansion(quotients)

    def test_rate_differs_from_next_degree(self):
        cf, series = expand_family(2, "G", 6)
        tampered = self.replaced(cf, 4, cf.partial_quotients[4] * RatPoly.x())
        with pytest.raises(RateViolation, match="^convergent 3: measured rate 1 != deg a_4 = 2$"):
            convergent_soundness(series, tampered)

    def test_rate_above_the_claim_is_measured_at_the_full_floor(self):
        # convergent 2 of g_3 has rate 2, which a degree-1 a_3 claims to be 1
        cf, series = expand_family(3, "G", 6)
        assert cf.partial_quotients[3].degree() == 2
        tampered = self.replaced(cf, 3, RatPoly.x())
        with pytest.raises(RateViolation, match="^convergent 2: measured rate 2 != deg a_3 = 1$"):
            convergent_soundness(series, tampered)

    def test_nonpositive_rate(self):
        # ||g_2 - 1/1|| = 0, so 1/1 approximates at rate 0, not deg a_1 = 1
        cf, series = expand_family(2, "G", 6)
        tampered = self.replaced(cf, 0, RatPoly.one())
        with pytest.raises(RateViolation, match="^convergent 0: measured rate 0 != deg a_1 = 1$"):
            convergent_soundness(series, tampered)
