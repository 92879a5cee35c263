"""Structural facts about the continued fractions of the generated families.

Everything here is *checked against the Euclidean oracle* in contfrac rather
than assumed: the parity classification of g_d convergents (the h_d or u_d
convergent each one comes from, put into the shape of its parity, gives it
up to a scalar), the rigid quotient shape for d in {2, 3} with its beta
parameters (read off the expansion of g_d, which answers the monic
quantities), the closed beta recurrence for d = 2, the d = 3 coefficient
identities, and the well-approximability witnesses for d >= 4.
"""

from __future__ import annotations

from bisect import bisect_left
from fractions import Fraction

from ._identities import IDENTITY_D, IDENTITY_NAMES
from ._record import _Record
from .errors import (
    ClassificationFailure,
    InvalidParameter,
    MismatchAt,
    RateViolation,
    ShapeViolation,
    ZeroDenominator,
)
from .contfrac import CFExpansion, Convergent, expand_family
from .laurent import generate, partial_product, rate_of_approximation, verify_functional_equations
from .polys import RatPoly, poly_substitute_power


def ones_polynomial(d: int) -> RatPoly:
    """1 + x + ... + x^{d-1} (the degree-(d-1) all-ones polynomial)."""
    if d < 1:
        raise InvalidParameter(f"need d >= 1, got {d}")
    return RatPoly.from_ascending([1] * d)


X_MINUS_1 = RatPoly.from_ascending([-1, 1])


# ---------------------------------------------------------------------------
# parity classification of g_d convergents
# ---------------------------------------------------------------------------


_SIDES = ("numerator", "denominator")


def classify_convergent(
    d: int,
    conv: Convergent,
    h_expansion: CFExpansion,
    u_expansion: CFExpansion,
) -> Convergent:
    """Return the convergent P/Q that the convergent p_m/q_m of g_d comes
    from by the substitution x -> x^d, checked forward: P/Q is put into the
    shape of m's parity and compared with the pair.

    Even m: P/Q is the h_d convergent with deg q_m = d deg Q, the pair is
    c ((x-1) P(x^d), Q(x^d)) for one scalar c, and Q is coprime to x-1.

    Odd m: P/Q is the u_d convergent with deg q_m = (d-1) + d deg Q, the
    pair is c (P(x^d), (1+x+...+x^{d-1}) Q(x^d)), and P is coprime to x-1.

    Raises ClassificationFailure(m) when any step fails.
    """
    m = conv.index

    def fail(reason: str) -> ClassificationFailure:
        return ClassificationFailure(m, f"convergent {m} of g_{d}: {reason}")

    side = m % 2  # the side the factor multiplies: p_m at even m, q_m at odd m
    factor, sources = (X_MINUS_1, h_expansion) if side == 0 else (ones_polynomial(d), u_expansion)
    top = conv.q.degree()
    target = None if top is None else Fraction(top - side * (d - 1), d)
    convergents = sources.convergents  # the degree of q rises strictly along them
    i = 0 if top is None else bisect_left(convergents, target, key=lambda c: c.q.degree())
    source = convergents[i] if i < len(convergents) else None
    if source is None or source.q.degree() != target:
        raise fail(f"no source convergent of degree {target} within the supplied expansion")
    shape = [poly_substitute_power(source.p, d), poly_substitute_power(source.q, d)]
    shape[side] = factor * shape[side]
    p, q = shape
    # (p_m, q_m) = c (p, q) for one scalar c: both sides keep their primitive
    # maps, and their scales share one ratio
    if ((conv.p.int_coeffs(), conv.q.int_coeffs()) != (p.int_coeffs(), q.int_coeffs())
            or conv.p.scale * q.scale != p.scale * conv.q.scale):
        raise fail(f"pair does not match source convergent {source.index}")
    # x-1 divides a polynomial exactly when its coefficients sum to 0
    coprime = 1 - side
    if sum((source.p, source.q)[coprime].int_coeffs().values()) == 0:
        raise fail(f"source {_SIDES[coprime]} is divisible by x-1")
    return source


def classify_all(d: int, m_max: int) -> list[Convergent]:
    """Classify every convergent of g_d up to index m_max: the source
    convergent of each, from h_d at even m and from u_d at odd m.  Each
    source expansion doubles from m_max // 2 + 2 quotients until it reaches
    the degree (deg q_m - side (d-1)) // d of the source of the last m of its
    parity; at d in {2, 3} the first already does, at d >= 4 not always."""
    convergents = expand_family(d, "G", m_max)[0].convergents[: m_max + 1]
    sources = []
    for side, kind in enumerate("HU"):
        last = convergents[side::2][-1:]  # degrees rise, so it needs the deepest source
        needed = max(((c.q.degree() - side * (d - 1)) // d for c in last), default=0)
        n = m_max // 2 + 2
        while (expansion := expand_family(d, kind, n)[0]).convergents[-1].q.degree() < needed:
            n *= 2
        sources.append(expansion)
    return [classify_convergent(d, conv, *sources) for conv in convergents]


# ---------------------------------------------------------------------------
# rigid quotient shape and beta extraction (d in {2, 3})
# ---------------------------------------------------------------------------


class BetaSequence(_Record):
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
        return self._cube_coeff(m, 1)

    def b_coeff(self, m: int) -> Fraction:
        return self._cube_coeff(m, 2)

    def _cube_coeff(self, m: int, drop: int) -> Fraction:
        if self.d != 3:
            raise InvalidParameter("the cube-form coefficients are a d=3 construction")
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
    cf, _ = expand_family(d, "G", n)
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


# (lhs, rhs) of block k of each d=3 beta identity, from the betas b of g_3.
_D3_BLOCKS = {
    "prop2": lambda b, k: (b(6 * k + 6) * b(6 * k + 4) * b(6 * k + 2), b(2 * k + 2)),
    "prop_sum3": lambda b, k: (sum(b(6 * k + i) for i in range(1, 7)), Fraction(3)),
    "prop_bk": lambda b, k: (
        sum(b(6 * k + i) * b(6 * k + j) for i in range(1, 7) for j in range(i + 2, 7)),
        3 + b(6 * k) * b(6 * k + 1),
    ),
}


class IdentityReport(_Record):
    failures: list

    @property
    def status(self) -> str:
        return "fail" if self.failures else "pass"


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

    Returns a report of the failing k values, whose status is "pass" when
    there are none and "fail" otherwise.
    """
    lo, hi = k_range
    if name in IDENTITY_D and d != IDENTITY_D[name]:
        raise InvalidParameter(f"identity {name} is a d={IDENTITY_D[name]} statement")
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
        n = max(hi, 4)
        oracle = beta_sequence(2, n)
        closed = beta_closed_form(n)
        for i in range(max(lo, 2), n + 1):
            if closed[i] != oracle.beta(i):
                failures.append({"k": i, "closed": str(closed[i]), "oracle": str(oracle.beta(i))})
    elif name == "theorem1":
        classify_all(d, hi)  # raises ClassificationFailure at the first failure
    elif name == "lemma5":
        failures = _verify_lemma5(lo, hi)
    elif name in _D3_BLOCKS:
        failures = _verify_d3_identity(_D3_BLOCKS[name], lo, hi)
    else:
        raise InvalidParameter(f"unknown identity {name!r} (choose from {IDENTITY_NAMES})")

    return IdentityReport(failures=failures)


def _verify_lemma5(lo: int, hi: int) -> list:
    failures: list = []
    cf = beta_sequence(3, 6 * hi + 2).monic
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


def _verify_d3_identity(block, lo: int, hi: int) -> list:
    failures: list = []
    seq = beta_sequence(3, 6 * hi + 6)
    for k in range(max(lo, 0), hi + 1):
        lhs, rhs = block(seq.beta, k)
        if lhs != rhs:
            failures.append({"k": k, "lhs": str(lhs), "rhs": str(rhs)})
    return failures


# ---------------------------------------------------------------------------
# d >= 4: explicit well-approximability witnesses
# ---------------------------------------------------------------------------


class WellApproxReport(_Record):
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
    for k in range(0, k_max + 1):
        num, den = partial_product(d, k)
        measured = rate_of_approximation(f, num, den)
        predicted = well_approx_rate(d, k)
        if measured != predicted:
            raise RateViolation(
                f"r_{k} against f_{d}: measured rate {measured}, predicted {predicted}"
            )
        if rates and measured <= rates[-1]:
            raise RateViolation(f"rates not strictly increasing at k={k}")
        rates.append(measured)

    quotients = expand_family(d, "G", 40)[0].partial_quotients
    first = next((i for i in range(1, len(quotients)) if quotients[i].degree() >= d), None)
    if first is None:
        raise RateViolation(
            f"no partial quotient of degree >= {d} within depth 40"
        )
    return WellApproxReport(rates=rates, first_large_quotient_index=first,
                            first_large_quotient_degree=quotients[first].degree())

