"""Quotient shape, beta extraction, classification, named identities."""

import json
from fractions import Fraction
from types import SimpleNamespace

import pytest

from mahlercf.cli import main
from mahlercf.contfrac import CFExpansion, Convergent, expand_family, monic_normalize
from mahlercf.errors import (
    ClassificationFailure,
    InvalidParameter,
    ShapeViolation,
)
from mahlercf.polys import RatPoly, poly_divmod, poly_normalize_integer
from mahlercf.structure import (
    IDENTITY_NAMES,
    beta_closed_form,
    beta_sequence,
    classify_all,
    classify_convergent,
    ones_polynomial,
    verify_identity,
    well_approx_rate,
    well_approx_report,
)


class TestShape:
    def test_ones_polynomial(self):
        assert ones_polynomial(2) == RatPoly.from_text("1, 1")
        assert ones_polynomial(4) == RatPoly.from_text("1, 1, 1, 1")

    def test_quotient_shape_holds_d2_d3(self, betas_d2, betas_d3):
        for seq, d in ((betas_d2, 2), (betas_d3, 3)):
            monic = seq.monic
            for i in range(1, 20):
                quotient = monic.monic_quotient(i)
                if i % 2 == 1:
                    assert quotient == ones_polynomial(d), (d, i)
                else:
                    assert quotient == RatPoly.from_text("-1, 1"), (d, i)

    @pytest.mark.parametrize("d", [2, 3])
    def test_beta_sequence_builds_the_chain_once(self, d, monkeypatch):
        # one chain step a_i * q_{i-1} + q_{i-2} per quotient; scalar
        # rescalings of the monic quantities are not polynomial products
        import mahlercf.contfrac as contfrac

        products = []
        step = contfrac._mul_add

        def counting(a, cur, prev):
            products.append(a)
            return step(a, cur, prev)

        monkeypatch.setattr(contfrac, "_mul_add", counting)
        beta_sequence(d, 40)
        assert len(products) == 40

    def test_shape_violation_d4(self):
        with pytest.raises(ShapeViolation) as err:
            beta_sequence(4, 10)
        assert err.value.index == 6

    def test_first_shape_violation_fixtures(self):
        # d = 4 breaks at index 6 (above); d = 5 breaks one step earlier.
        with pytest.raises(ShapeViolation) as err:
            beta_sequence(5, 40)
        assert err.value.index == 5


class TestBetas:
    def test_seed_betas(self, betas_d2):
        assert betas_d2.beta(2) == 2
        assert betas_d2.beta(3) == -1
        assert betas_d2.beta(4) == 1

    def test_beta_conventions(self, betas_d2):
        assert betas_d2.beta(0) == 0
        assert betas_d2.beta(1) == 0
        assert betas_d2.monic.last_index == 40
        with pytest.raises(InvalidParameter):
            betas_d2.beta(41)

    def test_closed_form_matches_oracle_d2(self, betas_d2):
        closed = beta_closed_form(40)
        for i in range(2, 41):
            assert closed[i] == betas_d2.beta(i), i

    def test_d3_sub_leading_coefficients(self, betas_d3):
        assert [betas_d3.a_coeff(m) for m in range(1, 7)] == [
            Fraction(0),
            Fraction(1),
            Fraction(1, 2),
            Fraction(-1),
            Fraction(3),
            Fraction(0),
        ]
        assert [betas_d3.b_coeff(m) for m in range(4, 7)] == [
            Fraction(-1),
            Fraction(1),
            Fraction(0),
        ]

    def test_a_b_coefficients_match_an_explicit_collapse(self):
        # Reference: divide an odd-index qhat by x^2+x+1, then undo x -> x^3.
        seq = beta_sequence(3, 60)
        for m in range(1, 61):
            body = seq.monic.monic_denominator(m)
            if m % 2:
                body, rem = poly_divmod(body, ones_polynomial(3))
                assert rem.is_zero(), m
            assert all(deg % 3 == 0 for deg in body.coeffs), m
            s = {deg // 3: c for deg, c in body.coeffs.items()}
            k = m // 2
            assert seq.a_coeff(m) == (s.get(k - 1, 0) if k >= 1 else 0), m
            assert seq.b_coeff(m) == (s.get(k - 2, 0) if k >= 2 else 0), m
        for m in (-1, 0, 61):
            assert seq.a_coeff(m) == seq.b_coeff(m) == 0

    def test_a_b_coefficients_require_d3(self, betas_d2):
        with pytest.raises(InvalidParameter):
            betas_d2.a_coeff(3)


class TestIntegerForms:
    def test_q9_d2_primitive(self, g2_expansion):
        cf, _ = g2_expansion
        monic = monic_normalize(cf)
        q9 = poly_normalize_integer(monic.monic_denominator(9))
        assert q9.primitive == RatPoly.from_text("2, 2, 1, 1, 0, 0, -1, -1, 1, 1")
        # factors as (x+1)(x^8 - x^6 + x^2 + 2)
        factor = RatPoly.from_text("1, 1") * RatPoly.from_text("2, 0, 1, 0, 0, 0, -1, 0, 1")
        assert q9.primitive == factor

    def test_q8_d3_primitive_and_scale(self, g3_expansion):
        cf, _ = g3_expansion
        monic = monic_normalize(cf)
        q8 = poly_normalize_integer(monic.monic_denominator(8))
        assert q8.primitive == RatPoly.from_text("1, 0, 0, 1, 0, 0, 1, 0, 0, 2, 0, 0, 2")
        assert q8.scale == Fraction(1, 2)


class TestClassification:
    @pytest.mark.parametrize("d", [2, 3])
    def test_all_convergents_classify_by_parity(self, d):
        # convergent m of g_d comes from convergent m // 2 of h_d at even m
        # and of u_d at odd m
        h_exp, _ = expand_family(d, "H", 14)
        u_exp, _ = expand_family(d, "U", 14)
        classified = classify_all(d, 24)
        assert len(classified) == 25
        for m, source in enumerate(classified):
            expected = (h_exp if m % 2 == 0 else u_exp).convergents[m // 2]
            assert source.index == m // 2
            assert (source.p, source.q) == (expected.p, expected.q), m

    def test_classify_single(self, g2_expansion):
        cf, _ = g2_expansion
        from mahlercf.contfrac import cf_expand
        from mahlercf.laurent import generate

        h_exp = cf_expand(generate(2, "H", -80), 16)
        u_exp = cf_expand(generate(2, "U", -80), 16)
        source = classify_convergent(2, cf.convergents[4], h_exp, u_exp)
        assert source is h_exp.convergents[2]


class TestClassificationFailures:
    """Each way a convergent can fail to classify raises ClassificationFailure
    naming its index, for both parities."""

    CASES = [(d, m) for d in (2, 3) for m in (6, 7)]

    @staticmethod
    def _sources(d, depth=10):
        return expand_family(d, "H", depth)[0], expand_family(d, "U", depth)[0]

    @staticmethod
    def _convergent(d, m):
        cf, _ = expand_family(d, "G", 12)
        return cf.convergents[m]

    def _reason(self, d, conv, h_exp, u_exp) -> str:
        with pytest.raises(ClassificationFailure) as err:
            classify_convergent(d, conv, h_exp, u_exp)
        assert err.value.index == conv.index
        prefix = f"convergent {conv.index} of g_{d}: "
        assert str(err.value).startswith(prefix)
        return str(err.value)[len(prefix):]

    @pytest.mark.parametrize("d, m", CASES)
    def test_untampered_convergent_classifies(self, d, m):
        h_exp, u_exp = self._sources(d)
        source = classify_convergent(d, self._convergent(d, m), h_exp, u_exp)
        assert source.index == m // 2

    @pytest.mark.parametrize("d, m", CASES)
    def test_numerator_off_shape(self, d, m):
        # p_m + x is neither divisible by x-1 (even m) nor a polynomial in x^d
        conv = self._convergent(d, m)
        tampered = Convergent(index=m, p=conv.p + RatPoly.x(), q=conv.q, rate=conv.rate)
        assert self._reason(d, tampered, *self._sources(d)).startswith("numerator ")

    @pytest.mark.parametrize("d, m", CASES)
    def test_denominator_off_shape(self, d, m):
        # q_m + x is neither a polynomial in x^d (even m) nor divisible by
        # 1+x+...+x^{d-1} (odd m)
        conv = self._convergent(d, m)
        tampered = Convergent(index=m, p=conv.p, q=conv.q + RatPoly.x(), rate=conv.rate)
        assert self._reason(d, tampered, *self._sources(d)).startswith("denominator ")

    @pytest.mark.parametrize("d, m", CASES)
    def test_zero_denominator(self, d, m):
        conv = self._convergent(d, m)
        self._reason(d, Convergent(index=m, p=conv.p, q=RatPoly.zero(), rate=conv.rate),
                     *self._sources(d))

    @pytest.mark.parametrize("d, m", CASES)
    def test_source_expansion_too_short(self, d, m):
        reason = self._reason(d, self._convergent(d, m), *self._sources(d, depth=1))
        assert "no source convergent of degree 3" in reason

    @pytest.mark.parametrize("d, m", CASES)
    def test_pair_does_not_match_the_source(self, d, m):
        # p_m is (x-1) P(x^d) at even m and P(x^d) at odd m; the shift keeps
        # that shape and adds x to P
        conv = self._convergent(d, m)
        shift = (RatPoly.from_text("-1, 1") if m % 2 == 0 else 1) * RatPoly.monomial(d)
        tampered = Convergent(index=m, p=conv.p + shift, q=conv.q, rate=conv.rate)
        assert "does not match source convergent 3" in self._reason(d, tampered, *self._sources(d))

    @pytest.mark.parametrize("d, m", CASES)
    def test_source_not_coprime_to_x_minus_1(self, d, m):
        # An even convergent ((x-1)·1, x^d - 1) undoes to (1, x-1), an odd one
        # (x^d - 1, (1+...+x^{d-1}) x^d) to (x-1, x); the matching source pair
        # then has the side that must be coprime to x-1 divisible by it.
        x_minus_1 = RatPoly.from_text("-1, 1")
        x_d_minus_1 = RatPoly.monomial(d) - 1
        if m % 2 == 0:
            conv = Convergent(index=m, p=x_minus_1, q=x_d_minus_1, rate=1)
            source = Convergent(index=1, p=RatPoly.one(), q=x_minus_1, rate=1)
        else:
            conv = Convergent(index=m, p=x_d_minus_1, q=ones_polynomial(d) * RatPoly.monomial(d),
                              rate=1)
            source = Convergent(index=1, p=x_minus_1, q=RatPoly.x(), rate=1)
        stub = SimpleNamespace(convergents=[source])
        reason = self._reason(d, conv, stub, stub)
        assert "divisible by x-1" in reason
        assert ("denominator" if m % 2 == 0 else "numerator") in reason


class TestIdentities:
    def test_identity_vocabulary_frozen(self):
        assert IDENTITY_NAMES == (
            "funceq",
            "lemma5",
            "prop2",
            "prop_sum3",
            "prop_bk",
            "theorem1",
            "bzz",
        )

    @pytest.mark.parametrize("name", ["lemma5", "prop2", "prop_sum3", "prop_bk"])
    def test_d3_identities_pass(self, name):
        report = verify_identity(name, 3, (0, 10))
        assert report.status == "pass"
        assert report.failures == []

    def test_bzz_passes(self):
        report = verify_identity("bzz", 2, (2, 60))
        assert report.status == "pass"

    def test_theorem1_passes(self):
        report = verify_identity("theorem1", 2, (0, 20))
        assert report.status == "pass"

    def test_funceq_passes(self):
        report = verify_identity("funceq", 3, (0, 40))
        assert report.status == "pass"

    def test_report_json_schema(self, capsys):
        # the CLI lays out the report's JSON from the record fields
        assert main(["verify", "--identity", "prop2", "--d", "3", "--k", "0..5", "--output",
                     "json", "--no-timestamp"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"identity", "d", "range", "status", "failures"}

    def test_unknown_identity_rejected(self):
        with pytest.raises(InvalidParameter):
            verify_identity("nonsense", 2, (0, 5))

    def test_bzz_requires_d2(self):
        with pytest.raises(InvalidParameter):
            verify_identity("bzz", 3, (2, 10))


def _perturb_beta(monkeypatch, index: int) -> None:
    # every identity reads its betas through CFExpansion.beta
    beta = CFExpansion.beta
    monkeypatch.setattr(
        CFExpansion, "beta", lambda self, n: beta(self, n) + (1 if n == index else 0)
    )


class TestIdentityFailureReports:
    """The exact report of each identity when one input is perturbed."""

    @pytest.mark.parametrize(
        "name, d, k_range, failures",
        [
            ("prop2", 3, (0, 4), [{"k": 2, "lhs": "-13/7", "rhs": "-2"}]),
            # beta_14 is also the right side at k = 6
            ("prop2", 3, (0, 6), [{"k": 2, "lhs": "-13/7", "rhs": "-2"},
                                  {"k": 6, "lhs": "-14", "rhs": "-13"}]),
            ("prop_sum3", 3, (0, 4), [{"k": 2, "lhs": "4", "rhs": "3"}]),
            ("prop_bk", 3, (0, 4), [{"k": 2, "lhs": "29/14", "rhs": "1"}]),
            ("bzz", 2, (2, 30), [{"k": 14, "closed": "-1", "oracle": "0"}]),
        ],
    )
    def test_perturbed_beta_report(self, monkeypatch, name, d, k_range, failures):
        _perturb_beta(monkeypatch, 14)
        report = verify_identity(name, d, k_range)
        assert (report.identity, report.d, report.k_range, report.status, report.failures) == (
            name, d, k_range, "fail", failures)

    def test_lemma5_denominator_failure(self, monkeypatch):
        # lemma5 reads no betas; perturb qhat_12 = qhat_{6k} at k = 2
        denominator = CFExpansion.monic_denominator
        monkeypatch.setattr(
            CFExpansion,
            "monic_denominator",
            lambda self, n: denominator(self, n) + (1 if n == 12 else 0),
        )
        report = verify_identity("lemma5", 3, (0, 4))
        assert report.failures == [{"k": 2, "part": "denominator"}]
        assert report.status == "fail"

    def test_lemma5_numerator_failure(self, monkeypatch):
        # perturb the raw numerator p_18 = p_{6k} at k = 3
        raw_p = CFExpansion.raw_p.func

        def perturbed(self):
            chain = list(raw_p(self))
            chain[18] = chain[18] + 1
            return tuple(chain)

        monkeypatch.setattr(CFExpansion, "raw_p", property(perturbed))
        report = verify_identity("lemma5", 3, (0, 4))
        assert report.failures == [{"k": 3, "part": "numerator"}]
        assert report.status == "fail"


class TestWellApproximation:
    def test_rate_formula(self):
        for d in (4, 5, 6, 7):
            for k in range(4):
                expected = d ** (k + 1) - 2 * (d ** (k + 1) - 1) // (d - 1)
                assert well_approx_rate(d, k) == expected

    def test_d4_report(self):
        report = well_approx_report(4, 3)
        assert report.rates == [2, 6, 22, 86]
        assert report.first_large_quotient_index == 6
        assert report.first_large_quotient_degree == 5

    def test_d5_report(self):
        report = well_approx_report(5, 2)
        assert report.rates == [3, 13, 63]
        assert report.first_large_quotient_index == 5
        assert report.first_large_quotient_degree == 9

    def test_requires_d_at_least_4(self):
        with pytest.raises(InvalidParameter):
            well_approx_report(3, 2)
