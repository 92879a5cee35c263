"""Quotient shape, beta extraction, classification, named identities."""

import json
import time
from fractions import Fraction
from functools import lru_cache
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mahlercf.structure as structure
from mahlercf.cli import main
from mahlercf.contfrac import CFExpansion, Convergent, expand_family, monic_normalize
from mahlercf.errors import (
    ClassificationFailure,
    InvalidParameter,
    ShapeViolation,
)
from mahlercf.polys import RatPoly, poly_divmod, poly_normalize_integer, poly_substitute_power
from mahlercf.structure import (
    IDENTITY_NAMES,
    X_MINUS_1,
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
        # p_m + x is neither divisible by x-1 (even m) nor a polynomial in x^d;
        # q_m still names source 3, whose shape p_m + x does not have
        conv = self._convergent(d, m)
        tampered = Convergent(index=m, p=conv.p + RatPoly.x(), q=conv.q, rate=conv.rate)
        assert self._reason(d, tampered, *self._sources(d)) == (
            "pair does not match source convergent 3")

    @pytest.mark.parametrize("d, m", CASES)
    def test_denominator_off_shape(self, d, m):
        # q_m + x is neither a polynomial in x^d (even m) nor divisible by
        # 1+x+...+x^{d-1} (odd m); its degree still names source 3
        conv = self._convergent(d, m)
        tampered = Convergent(index=m, p=conv.p, q=conv.q + RatPoly.x(), rate=conv.rate)
        assert self._reason(d, tampered, *self._sources(d)) == (
            "pair does not match source convergent 3")

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


def _undone(poly: RatPoly, d: int) -> RatPoly | None:
    """poly(x^{1/d}), or None when poly is not a polynomial in x^d."""
    if any(deg % d for deg in poly.coeffs):
        return None
    return RatPoly({deg // d: c for deg, c in poly.coeffs.items()})


def reference_classify(d, conv, h_exp, u_exp) -> int | None:
    """The index of the source convergent of conv by the divide-and-undo
    procedure that classify_convergent replaced, or None where it fails:
    divide the factor out of its side, undo x -> x^d on both sides, find the
    source by the degree of the undone denominator, cross-multiply, and
    check the side that must be coprime to x-1."""
    if conv.index % 2 == 0:
        factors, sources, coprime = (X_MINUS_1, None), h_exp, 1
    else:
        factors, sources, coprime = (None, ones_polynomial(d)), u_exp, 0
    inner = []
    for poly, factor in zip((conv.p, conv.q), factors):
        if factor is not None:
            poly, rem = poly_divmod(poly, factor)
            if not rem.is_zero():
                return None
        undone = _undone(poly, d)
        if undone is None:
            return None
        inner.append(undone)
    inner_p, inner_q = inner
    source = next((c for c in sources.convergents if c.q.degree() == inner_q.degree()), None)
    if source is None or inner_p * source.q != inner_q * source.p:
        return None
    if sum((source.p, source.q)[coprime].coeffs.values()) == 0:
        return None
    return source.index


@lru_cache(maxsize=None)
def _expansions(d: int) -> tuple[CFExpansion, CFExpansion, CFExpansion]:
    """g_d to m = 40 and its two source expansions."""
    return tuple(expand_family(d, kind, 40 if kind == "G" else 22)[0] for kind in "GHU")


_SMALL_POLY = st.lists(st.integers(-2, 2), min_size=1, max_size=5).map(RatPoly.from_ascending)
_SCALAR = st.fractions(min_value=-3, max_value=3, max_denominator=4).filter(bool)


@st.composite
def _tampered(draw) -> tuple[int, Convergent]:
    """A convergent of g_d, d in {2, 3} and m <= 40, left as it is or
    tampered: a polynomial added to p, to q or to both (often in x^d, or
    times the parity's factor, so that the shape survives), p and q scaled,
    both multiplied by a common factor, or the two swapped."""
    d = draw(st.sampled_from((2, 3)))
    conv = _expansions(d)[0].convergents[draw(st.integers(0, 40))]
    p, q = conv.p, conv.q

    def extra() -> RatPoly:
        poly = draw(_SMALL_POLY)
        if draw(st.booleans()):
            poly = poly_substitute_power(poly, d)
        if draw(st.booleans()):
            poly = poly * draw(st.sampled_from((X_MINUS_1, ones_polynomial(d))))
        return poly

    how = draw(st.sampled_from(("none", "p", "q", "both", "scale", "common", "swap")))
    if how in ("p", "both"):
        p = p + extra()
    if how in ("q", "both"):
        q = q + extra()
    if how == "scale":
        scale = draw(_SCALAR)
        p, q = p * scale, q * (scale if draw(st.booleans()) else draw(_SCALAR))
    if how == "common":
        factor = extra()
        p, q = p * factor, q * factor
    if how == "swap":
        p, q = q, p
    return d, Convergent(index=conv.index, p=p, q=q, rate=conv.rate)


def _scan_left(convergents, target, key):
    """The lookup that the bisection replaced: the first convergent whose key
    is target, scanning the whole expansion, or len(convergents)."""
    return next((i for i, c in enumerate(convergents) if key(c) == target), len(convergents))


def _verdict(d, conv, h_exp, u_exp) -> int | str:
    """The index of the source of conv, or the message of its failure."""
    try:
        return classify_convergent(d, conv, h_exp, u_exp).index
    except ClassificationFailure as exc:
        return str(exc)


def _verdicts(d, conv) -> tuple[int | str, int | str]:
    """conv's verdict with the bisection, and with the scan in its place."""
    _, h_exp, u_exp = _expansions(d)
    bisected = _verdict(d, conv, h_exp, u_exp)
    with mock.patch.object(structure, "bisect_left", _scan_left):
        return bisected, _verdict(d, conv, h_exp, u_exp)


# convergents whose denominator has no source: (d, m, new q from the old)
_NO_SOURCE = {
    # deg q_6 + 1 is odd, so the target degree (deg q + 1) / 2 is no integer
    "non-integer": (2, 6, lambda q: q * RatPoly.monomial(1)),
    # an integer degree past the last source of the expansion
    "past the end": (3, 8, lambda q: q * RatPoly.monomial(300)),
    # (0 - (d-1)) / d lies below every source degree
    "below the first": (3, 5, lambda q: RatPoly.one()),
    "zero": (2, 4, lambda q: RatPoly.zero()),
}


class TestClassificationAgainstTheReference:
    """classify_convergent builds the shape forward from the source; the
    procedure it replaced took the pair apart.  Every source convergent is
    coprime, so the two accept the same pairs with the same source.  It
    finds the source by bisection on the degree of q, which gives the verdict
    of the scan it replaced."""

    @settings(max_examples=300)
    @given(_tampered())
    def test_tampered_pairs_get_the_reference_verdict(self, case):
        d, conv = case
        _, h_exp, u_exp = _expansions(d)
        try:
            index = classify_convergent(d, conv, h_exp, u_exp).index
        except ClassificationFailure:
            index = None
        assert index == reference_classify(d, conv, h_exp, u_exp)

    @settings(max_examples=300)
    @given(_tampered())
    def test_tampered_pairs_get_the_scan_verdict(self, case):
        bisected, scanned = _verdicts(*case)
        assert bisected == scanned

    @pytest.mark.parametrize("d, m, change", _NO_SOURCE.values(), ids=_NO_SOURCE)
    def test_a_degree_without_a_source_fails_as_the_scan_did(self, d, m, change):
        conv = _expansions(d)[0].convergents[m]
        conv = Convergent(index=m, p=conv.p, q=change(conv.q), rate=conv.rate)
        bisected, scanned = _verdicts(d, conv)
        assert bisected == scanned
        assert f"convergent {m} of g_{d}: no source convergent of degree " in bisected


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

    @pytest.mark.parametrize("d, m_max, budget", [(2, 496, 2.0), (3, 330, 1.0)])
    def test_theorem1_at_the_reach_of_each_d(self, d, m_max, budget):
        # the largest m below the depth cap of the g_d expansion; on a
        # 2-core Xeon (Python 3.11.7) d = 2 takes about 0.5 s of CPU and
        # d = 3 about 0.25 s
        start = time.process_time()
        report = verify_identity("theorem1", d, (0, m_max))
        assert time.process_time() - start < budget
        assert report.status == "pass"

    @pytest.mark.parametrize("d, m_max", [(4, 84), (5, 60), (6, 34)])
    def test_theorem1_at_d_from_4(self, capsys, d, m_max):
        # the sources of the last convergents lie past index m_max // 2 + 2
        assert main(["verify", "--identity", "theorem1", "--d", str(d), "--m", f"0..{m_max}",
                     "--no-timestamp"]) == 0
        assert capsys.readouterr().out == f"identity theorem1 (d={d}, range (0, {m_max})): pass\n"

    @pytest.mark.parametrize("d", [2, 3])
    def test_classify_all_expands_each_family_once_at_d_2_and_3(self, d, monkeypatch):
        calls = []
        expand = structure.expand_family
        monkeypatch.setattr(structure, "expand_family",
                            lambda d, kind, n: calls.append((kind, n)) or expand(d, kind, n))
        classify_all(d, 100)
        assert calls == [("G", 100), ("H", 52), ("U", 52)]

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
        assert (report.status, report.failures) == ("fail", failures)

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
