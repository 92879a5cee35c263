"""Structural facts about the continued fractions of the generated families.

Everything here is *checked against the Euclidean oracle* in contfrac rather
than assumed: the parity classification of g_d convergents, the rigid
quotient shape for d in {2, 3} with its beta parameters (read off the
expansion of g_d, which answers the monic quantities), the closed beta
recurrence for d = 2, the d = 3 coefficient identities, and the
well-approximability witnesses for d >= 4.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    ClassificationFailure,
    InvalidParameter,
    MismatchAt,
    RateViolation,
    ShapeViolation,
    ZeroDenominator,
)
from .contfrac import CFExpansion, Convergent, expand_family, monic_normalize
from .laurent import generate, partial_product, rate_of_approximation, verify_functional_equations
from .polys import RatPoly, poly_divmod, poly_substitute_power


def ones_polynomial(d: int) -> RatPoly:
    """1 + x + ... + x^{d-1} (the degree-(d-1) all-ones polynomial)."""
    if d < 1:
        raise InvalidParameter(f"need d >= 1, got {d}")
    return RatPoly.from_ascending([1] * d)


X_MINUS_1 = RatPoly.from_ascending([-1, 1])


def _is_multiple(numerator: RatPoly, divisor: RatPoly) -> bool:
    if numerator.is_zero():
        return True
    _, rem = poly_divmod(numerator, divisor)
    return rem.is_zero()


def _undo_power(p: RatPoly, d: int) -> RatPoly | None:
    """Inverse of substituting x -> x^d, or None if p is not a polynomial in x^d."""
    ints = p.int_coeffs()
    if any(deg % d for deg in ints):
        return None
    return RatPoly.from_int_coeffs({deg // d: c for deg, c in ints.items()}, p.scale)


# ---------------------------------------------------------------------------
# parity classification of g_d convergents
# ---------------------------------------------------------------------------


def classify_convergent(
    d: int,
    conv: Convergent,
    h_expansion: CFExpansion,
    u_expansion: CFExpansion,
) -> Convergent:
    """Decompose a convergent p_m/q_m of g_d according to its parity and
    return the convergent it comes from by the substitution x -> x^d.

    Even m: q_m must be a polynomial in x^d, (x-1) must divide p_m, and
    (p_m/(x-1), q_m) with the substitution undone must equal an h_d
    convergent whose denominator is coprime to x-1.

    Odd m: q_m must be divisible by 1+x+...+x^{d-1} with a quotient that is
    a polynomial in x^d, p_m a polynomial in x^d, and the undone pair must
    equal a u_d convergent whose numerator is coprime to x-1.

    Raises ClassificationFailure(m) when any step fails.
    """
    m = conv.index
    p_m, q_m = conv.p, conv.q

    def fail(reason: str) -> ClassificationFailure:
        return ClassificationFailure(m, f"convergent {m} of g_{d}: {reason}")

    if m % 2 == 0:
        inner_q = _undo_power(q_m, d)
        if inner_q is None:
            raise fail("denominator is not a polynomial in x^d")
        if not _is_multiple(p_m, X_MINUS_1):
            raise fail("numerator is not divisible by x-1")
        reduced_p, _ = poly_divmod(p_m, X_MINUS_1)
        inner_p = _undo_power(reduced_p, d)
        if inner_p is None:
            raise fail("numerator/(x-1) is not a polynomial in x^d")
        source_exp = h_expansion
    else:
        quot, rem = poly_divmod(q_m, ones_polynomial(d))
        if not rem.is_zero():
            raise fail("denominator is not divisible by 1+x+...+x^{d-1}")
        inner_q = _undo_power(quot, d)
        if inner_q is None:
            raise fail("denominator quotient is not a polynomial in x^d")
        inner_p = _undo_power(p_m, d)
        if inner_p is None:
            raise fail("numerator is not a polynomial in x^d")
        source_exp = u_expansion

    target_deg = int(inner_q.degree()) if not inner_q.is_zero() else 0
    source = None
    for cand in source_exp.convergents:
        if int(cand.q.degree()) == target_deg:
            source = cand
            break
    if source is None:
        raise fail(
            f"no source convergent of degree {target_deg} within the supplied expansion"
        )
    # Same fraction up to a scalar: cross-multiplication must be proportional.
    if inner_p * source.q != inner_q * source.p:
        raise fail(f"undone pair does not match source convergent {source.index}")
    if m % 2 == 0 and _is_multiple(source.q, X_MINUS_1):
        raise fail("source h-convergent denominator divisible by x-1")
    if m % 2 and _is_multiple(source.p, X_MINUS_1):
        raise fail("source u-convergent numerator divisible by x-1")
    return source


def classify_all(d: int, m_max: int) -> list[Convergent]:
    """Classify every convergent of g_d up to index m_max: the source
    convergent of each, from h_d at even m and from u_d at odd m."""
    g_exp, _ = expand_family(d, "G", m_max)
    depth = m_max // 2 + 2
    h_exp, _ = expand_family(d, "H", depth)
    u_exp, _ = expand_family(d, "U", depth)
    return [
        classify_convergent(d, conv, h_exp, u_exp)
        for conv in g_exp.convergents[: m_max + 1]
    ]


# ---------------------------------------------------------------------------
# rigid quotient shape and beta extraction (d in {2, 3})
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BetaSequence:
    """Beta parameters of the two-term monic recurrence

        qhat_{2k+1} = (1+x+...+x^{d-1}) qhat_{2k}   + beta_{2k+1} qhat_{2k-1}
        qhat_{2k+2} = (x-1)             qhat_{2k+1} + beta_{2k+2} qhat_{2k}

    read from the expansion ``monic`` of g_d.

    For d = 3, ``a_coeff(m)`` and ``b_coeff(m)`` are the second- and
    third-highest coefficients s_{k-1} and s_{k-2}, k = m // 2, of the cube
    form qhat_{2k} = s(x^3), qhat_{2k+1} = (x^2+x+1) s(x^3); indices outside
    s's support, or m outside 1..monic.last_index, give 0.

    ``beta(1) = 0`` by the seed convention rho_{-1} = 0 / qhat_{-1} = 0.
    """

    d: int
    monic: CFExpansion

    def beta(self, n: int) -> Fraction:
        if n == 0:
            # Only ever used multiplied by beta_1 = 0; any finite value works,
            # 0 keeps the seed row of every identity exact.
            return Fraction(0)
        return self.monic.beta(n)

    def a_coeff(self, m: int) -> Fraction:
        if self.d != 3:
            raise InvalidParameter("sub-leading coefficients are a d=3 construction")
        return self._cube_coeff(m, 1)

    def b_coeff(self, m: int) -> Fraction:
        if self.d != 3:
            raise InvalidParameter("sub-sub-leading coefficients are a d=3 construction")
        return self._cube_coeff(m, 2)

    def _cube_coeff(self, m: int, drop: int) -> Fraction:
        # The rigid shape makes s monic of degree k, and degree 3j of either
        # cube form carries s_j alone, so no division by x^2+x+1 is needed;
        # one coefficient of qhat_m = q_m / rho_m is read off the raw q_m.
        j = m // 2 - drop
        if j < 0 or not 1 <= m <= self.monic.last_index:
            return Fraction(0)
        return self.monic.raw_q[m].coeff(3 * j) / self.monic.leading_coeff(m)


def beta_sequence(d: int, n: int) -> BetaSequence:
    """The betas beta_1..beta_n of g_d, read from the expansion of g_d; each
    is read off the one chain that the expansion built and checked, and
    nothing is re-verified.

    Each monic quotient must have the rigid shape (1+x+...+x^{d-1} at odd
    steps, x-1 at even steps); the monic recurrence is the raw one divided
    by rho_{n+1}, so the denominators then obey the two-term recurrence of
    BetaSequence.
    ShapeViolation(i) reports the first index whose quotient departs from
    the rigid pattern — expected for every d >= 4.
    """
    if d < 2:
        raise InvalidParameter(f"need d >= 2, got {d}")
    if n < 2:
        raise InvalidParameter(f"need at least two quotients, got n={n}")
    cf = monic_normalize(expand_family(d, "G", n)[0])
    odd_shape = ones_polynomial(d)
    for i in range(1, n + 1):
        shape = odd_shape if i % 2 == 1 else X_MINUS_1
        if cf.monic_quotient(i) != shape:
            raise ShapeViolation(i, f"monic quotient {i} is {cf.monic_quotient(i)}, not {shape}")
    return BetaSequence(d=d, monic=cf)


def beta_closed_form(n: int) -> dict[int, Fraction]:
    """The d=2 closed recurrence: seeds beta_2=2, beta_3=-1, beta_4=1, then

        beta_{2k+1} = -beta_{k+1} / beta_{2k}
        beta_{2k+2} = 1 + (-1)^k - beta_{2k+1}        (k >= 2)

    Returns {2: ..., ..., n: ...}; ZeroDenominator if some beta_{2k} = 0
    (never observed)."""
    if n < 4:
        raise InvalidParameter(f"need n >= 4, got {n}")
    betas: dict[int, Fraction] = {2: Fraction(2), 3: Fraction(-1), 4: Fraction(1)}
    k = 2
    while 2 * k + 1 <= n:
        if betas[2 * k] == 0:
            raise ZeroDenominator(f"beta_{2 * k} = 0 blocks the closed recurrence")
        betas[2 * k + 1] = -betas[k + 1] / betas[2 * k]
        if 2 * k + 2 <= n:
            betas[2 * k + 2] = 1 + (-1) ** k - betas[2 * k + 1]
        k += 1
    return {i: betas[i] for i in range(2, n + 1)}


# ---------------------------------------------------------------------------
# named identity checks
# ---------------------------------------------------------------------------


IDENTITY_NAMES = ("funceq", "lemma5", "prop2", "prop_sum3", "prop_bk", "theorem1", "bzz")


@dataclass(frozen=True)
class IdentityReport:
    identity: str
    d: int
    k_range: tuple[int, int]
    status: str
    failures: list

    def to_json_dict(self) -> dict:
        return {
            "identity": self.identity,
            "d": self.d,
            "range": list(self.k_range),
            "status": self.status,
            "failures": self.failures,
        }


def verify_identity(
    name: str,
    d: int,
    k_range: tuple[int, int],
) -> IdentityReport:
    """Check one named identity exactly over k_range (inclusive).

    Identity tokens (fixed CLI vocabulary):
      funceq    — family self-similarity under x -> x^d (k_range = floor range);
      lemma5    — d=3: qhat_{6k} = qhat_{2k}(x^3) and the matching numerator
                  collapse phat_{6k} = x^3 (x-1) phat_{2k}(x^3);
      prop2     — d=3: beta_{6k+6} beta_{6k+4} beta_{6k+2} = beta_{2k+2};
      prop_sum3 — d=3: sum_{i=1..6} beta_{6k+i} = 3;
      prop_bk   — d=3: sum_{j-i>1} beta_{6k+i} beta_{6k+j} = 3 + beta_{6k} beta_{6k+1};
      theorem1  — every g_d convergent classifies (even -> H, odd -> U);
      bzz       — d=2: the closed beta recurrence matches the oracle betas.

    Returns a report with status "pass"/"fail" and the failing k values.
    """
    lo, hi = k_range
    if lo > hi:
        raise InvalidParameter(f"empty range {k_range}")
    failures: list = []

    if name == "funceq":
        floor = -abs(hi) if hi != 0 else -abs(lo)
        try:
            verify_functional_equations(d, min(floor, -d))
        except MismatchAt as exc:
            failures.append({"degree": exc.degree})
    elif name == "bzz":
        if d != 2:
            raise InvalidParameter("the closed beta recurrence is a d=2 statement")
        n = max(hi, 4)
        oracle = beta_sequence(2, n)
        closed = beta_closed_form(n)
        for i in range(max(lo, 2), n + 1):
            if closed[i] != oracle.beta(i):
                failures.append({"k": i, "closed": str(closed[i]), "oracle": str(oracle.beta(i))})
    elif name == "theorem1":
        classify_all(d, hi)  # raises ClassificationFailure at the first failure
    elif name in ("lemma5", "prop2", "prop_sum3", "prop_bk"):
        if d != 3:
            raise InvalidParameter(f"identity {name} is a d=3 statement")
        failures = _verify_d3_identity(name, lo, hi)
    else:
        raise InvalidParameter(f"unknown identity {name!r} (choose from {IDENTITY_NAMES})")

    status = "pass" if not failures else "fail"
    return IdentityReport(identity=name, d=d, k_range=(lo, hi), status=status, failures=failures)


def _verify_d3_identity(name: str, lo: int, hi: int) -> list:
    failures: list = []
    if name == "lemma5":
        depth = 6 * hi + 2
        seq = beta_sequence(3, depth)
        cf = seq.monic
        for k in range(max(lo, 1), hi + 1):
            rho6, rho2 = cf.leading_coeff(6 * k), cf.leading_coeff(2 * k)
            q6 = cf.monic_denominator(6 * k)
            q2 = cf.monic_denominator(2 * k)
            p6 = cf.raw_p[6 * k] * (1 / rho6)
            p2 = cf.raw_p[2 * k] * (1 / rho2)
            if q6 != poly_substitute_power(q2, 3):
                failures.append({"k": k, "part": "denominator"})
                continue
            expected_p = RatPoly.monomial(3) * X_MINUS_1 * poly_substitute_power(p2, 3)
            if p6 != expected_p:
                failures.append({"k": k, "part": "numerator"})
        return failures

    depth = 6 * hi + 6
    seq = beta_sequence(3, depth)
    for k in range(max(lo, 0), hi + 1):
        if name == "prop2":
            lhs = seq.beta(6 * k + 6) * seq.beta(6 * k + 4) * seq.beta(6 * k + 2)
            rhs = seq.beta(2 * k + 2)
        elif name == "prop_sum3":
            lhs = sum(seq.beta(6 * k + i) for i in range(1, 7))
            rhs = Fraction(3)
        else:  # prop_bk
            lhs = Fraction(0)
            for i in range(1, 7):
                for j in range(i + 2, 7):
                    lhs += seq.beta(6 * k + i) * seq.beta(6 * k + j)
            rhs = 3 + seq.beta(6 * k) * seq.beta(6 * k + 1)
        if lhs != rhs:
            failures.append({"k": k, "lhs": str(lhs), "rhs": str(rhs)})
    return failures


# ---------------------------------------------------------------------------
# d >= 4: explicit well-approximability witnesses
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class WellApproxReport:
    d: int
    k_max: int
    rates: list[int]
    first_large_quotient_index: int
    first_large_quotient_degree: int


def well_approx_rate(d: int, k: int) -> int:
    """Predicted rate of the truncated product r_k against f_d:
    d^{k+1} - 2 (d^{k+1} - 1)/(d - 1)."""
    return d ** (k + 1) - 2 * (d ** (k + 1) - 1) // (d - 1)


def well_approx_report(d: int, k_max: int) -> WellApproxReport:
    """Witness that f_d (d >= 4) admits approximations far better than any
    badly-approximable series allows.

    For each k <= k_max the finite product r_k = prod_{t<=k} (1 - x^{-d^t}),
    written over the denominator x^{(d^{k+1}-1)/(d-1)}, is measured against
    f_d; the rate must equal d^{k+1} - 2(d^{k+1}-1)/(d-1) and grow strictly.
    Also scans the first 40 quotients of g_d for one of degree >= d (the
    trigger that rules out the rigid d in {2,3} shape).
    """
    if d < 4:
        raise InvalidParameter(f"well-approximability witnesses need d >= 4, got {d}")
    if k_max < 1:
        raise InvalidParameter(f"need k_max >= 1, got {k_max}")
    f = generate(d, "F", -(d ** (k_max + 1) + 8))
    rates: list[int] = []
    prev = None
    for k in range(0, k_max + 1):
        num, den = partial_product(d, k)
        measured = rate_of_approximation(f, num, den)
        predicted = well_approx_rate(d, k)
        if measured != predicted:
            raise RateViolation(
                f"r_{k} against f_{d}: measured rate {measured}, predicted {predicted}"
            )
        if prev is not None and measured <= prev:
            raise RateViolation(f"rates not strictly increasing at k={k}")
        rates.append(measured)
        prev = measured

    cf, _ = expand_family(d, "G", 40)
    first_idx = first_deg = -1
    for i, a in enumerate(cf.partial_quotients):
        if i >= 1 and int(a.degree()) >= d:
            first_idx, first_deg = i, int(a.degree())
            break
    if first_idx < 0:
        raise RateViolation(
            f"no partial quotient of degree >= {d} within depth 40"
        )
    return WellApproxReport(
        d=d,
        k_max=k_max,
        rates=rates,
        first_large_quotient_index=first_idx,
        first_large_quotient_degree=first_deg,
    )

