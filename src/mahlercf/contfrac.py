"""Continued fractions of Laurent series by the Euclidean algorithm.

This module is the package's independent oracle: it knows nothing about the
structure theory of the generated families and derives every partial quotient
directly from series coefficients.

Exactness contract.  For a series known down to ``floor``, a computed
convergent p_i/q_i is certified to be a convergent of the *true* series
whenever 2*deg(q_i) <= -floor:

    the truncation U and the true series u differ by a tail of degree
    <= floor - 1, so ||u - p_i/q_i|| <= max(-deg q_i - deg q_{i+1}, floor-1)
    < -2 deg q_i, which characterizes convergents; symmetrically every true
    convergent with 2*deg q <= -floor is a convergent of U, so the two
    quotient sequences agree on the whole certified prefix.

Quotients past the certified prefix are never emitted: the expander raises
InsufficientPrecision and the caller regenerates the series with a deeper
floor.

Remainder exactness.  With N = x^D U (D = -floor), the Euclid remainder
r_i = ±(q_i N - p_i x^D) equals x^D (q_i u - p_i) at degrees >= deg q_i and
carries the truncation of N below.  A certified quotient a_{i+1} reads r_i
only down to deg r_i - deg a_{i+1} = D - deg q_{i+1} - deg a_{i+1} >= deg q_i,
so the division that makes r_i drops its terms of degree < deg q_i before
its content pass; deg a_i = deg r_{i-2} - deg r_{i-1} gives deg q_i first.
A cut that leaves nothing ends the chain where the uncut run ends it: there
r_i is 0, or deg r_i < deg q_i and the next quotient fails certification.

Certification from the residual recurrence.  The residuals e_i = q_i u - p_i
follow the chain's recurrence e_{i+1} = a_{i+1} e_i + e_{i-1} from e_{-1} = -1,
e_0 = u - a_0, and are exact down to floor + deg q_i, as q_i u is.  As
e_i = q_i (u - p_i/q_i), the rate -deg(u - p_i/q_i) - 2 deg q_i of convergent i
is -deg e_i - deg q_i, read off the top term of e_i.  ``convergent_soundness``
carries x^D e_i (D = -floor), the remainders above, cut to their exact terms
by one floored multiply-add per step; an e_i with no exact term means that
u - p_i/q_i vanishes above the floor, so the rate is not pinned down.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from ._record import _Record
from .errors import (
    IdentityFailure,
    InsufficientPrecision,
    InvalidParameter,
    RateViolation,
)
from .laurent import TruncatedLaurentSeries, generate
from .polys import RatPoly, _mul_add, poly_divmod


class Convergent(_Record):
    """One convergent p/q, sign-normalized so that q's leading coefficient is
    positive; ``rate`` is the degree of the next partial quotient when that
    quotient is known, else None."""

    index: int
    p: RatPoly
    q: RatPoly
    rate: int | None


class CFExpansion:
    """Partial quotients a_0..a_M and their convergent chains.

    ``raw_q`` (built at construction) and ``raw_p`` (built when first read)
    follow the plain recurrence

        p_{n+1} = a_{n+1} p_n + p_{n-1},   q_{n+1} = a_{n+1} q_n + q_{n-1}

    with seeds p_{-1}=1, q_{-1}=0, p_0=a_0, q_0=1 (no rescaling; the monic
    quantities need the raw leading coefficients).  The quotients and both
    chains are tuples, so a chain cannot be edited after it is built.
    ``convergents`` is the sign-normalized public view, also built when
    first read.

    The monic quantities are read off the raw chain.  With rho_n the leading
    coefficient of the raw q_n (rho_{-1} = 0, ``leading_coeff``):

        qhat_n    = q_n / rho_n                    (``monic_denominator``)
        ahat_{n+1} = a_{n+1} rho_n / rho_{n+1}      (``monic_quotient``)
        beta_{n+1} = rho_{n-1} / rho_{n+1}           (``beta``)

    and the monic recurrence qhat_{n+1} = ahat_{n+1} qhat_n + beta_{n+1}
    qhat_{n-1} holds exactly, with the seed conventions qhat_{-1} = 0,
    qhat_0 = 1 and hence beta_1 = 0: it is the raw recurrence that built
    the chain, divided by rho_{n+1}.  As deg a_{n+1} >= 1, rho_{n+1} =
    lc(a_{n+1}) rho_n, so ahat_{n+1} and qhat_n are ``monic()`` of the stored
    a_{n+1} and q_n.  Each value is computed when read; nothing is stored and
    nothing re-verified.
    """

    def __init__(self, partial_quotients: list[RatPoly]):
        if not partial_quotients:
            raise InvalidParameter("a continued fraction needs at least a_0")
        for i, a in enumerate(partial_quotients):
            if i >= 1 and (a.is_zero() or a.degree() < 1):
                raise InvalidParameter(
                    f"partial quotient a_{i} must have degree >= 1, got {a}"
                )
        self.partial_quotients = tuple(partial_quotients)
        self.raw_q = self._chain(RatPoly.zero(), RatPoly.one())
        # Degree bookkeeping: deg q_{n+1} = sum of deg a_1..a_{n+1}.  Euclid
        # certifies quotients against this sum, so it is checked on the chain.
        total = 0
        for i in range(1, len(partial_quotients)):
            total += partial_quotients[i].degree()
            if self.raw_q[i].degree() != total:
                raise IdentityFailure(
                    f"deg q_{i} = {self.raw_q[i].degree()}, but deg a_1..a_{i} sum to {total}"
                )

    def _chain(self, prev: RatPoly, cur: RatPoly) -> tuple[RatPoly, ...]:
        """The chain x_0..x_M of x_{n+1} = a_{n+1} x_n + x_{n-1} from the
        seeds x_{-1} = prev, x_0 = cur."""
        chain = [cur]
        for a in self.partial_quotients[1:]:
            cur, prev = _mul_add(a, cur, prev), cur
            chain.append(cur)
        return tuple(chain)

    @cached_property
    def raw_p(self) -> tuple[RatPoly, ...]:
        return self._chain(RatPoly.one(), self.partial_quotients[0])

    @cached_property
    def convergents(self) -> list[Convergent]:
        out = []
        for i, (p, q) in enumerate(zip(self.raw_p, self.raw_q)):
            if q.leading_coefficient() < 0:
                p, q = -p, -q
            rate = None
            if i + 1 < len(self.partial_quotients):
                rate = self.partial_quotients[i + 1].degree()
            out.append(Convergent(index=i, p=p, q=q, rate=rate))
        return out

    @property
    def last_index(self) -> int:
        return len(self.partial_quotients) - 1

    def leading_coeff(self, n: int) -> Fraction:
        """rho_n = leading coefficient of the raw q_n; rho_{-1} = 0."""
        if n == -1:
            return Fraction(0)
        return self.raw_q[n].leading_coefficient()

    def beta(self, n: int) -> Fraction:
        if not 1 <= n <= self.last_index:
            raise InvalidParameter(f"beta_{n} not available (have 1..{self.last_index})")
        return self.leading_coeff(n - 2) / self.leading_coeff(n)

    def monic_quotient(self, n: int) -> RatPoly:
        if not 1 <= n <= self.last_index:
            raise InvalidParameter(f"monic quotient {n} not available")
        return self.partial_quotients[n].monic()

    def monic_denominator(self, n: int) -> RatPoly:
        if not -1 <= n <= self.last_index:
            raise InvalidParameter(f"monic denominator {n} not available")
        if n == -1:
            return RatPoly.zero()
        return self.raw_q[n].monic()


def _check_count(n: int) -> None:
    if not isinstance(n, int) or n < 0:
        raise InvalidParameter(f"quotient count must be an integer >= 0, got {n!r}")


def _euclid_chain(num: RatPoly, depth: int, n: int) -> list[RatPoly]:
    """Euclid on num / x^depth.  Emits up to n + 1 quotients, stopping before
    any quotient whose denominator degree g_i would violate 2*g_i <= depth.
    g_i is the running sum of the quotient degrees (CFExpansion checks that
    sum on the denominators it builds).  Each division returns its remainder
    cut to the exact terms, those of degree >= g_i (module docstring)."""
    den = RatPoly.monomial(depth)
    a0, rem = poly_divmod(num, den)
    quotients = [a0]
    x_cur, y_cur = den, rem
    deg_q = 0
    while len(quotients) <= n and not y_cur.is_zero():
        deg_q += x_cur.degree() - y_cur.degree()
        if 2 * deg_q > depth:
            break
        a, rem = poly_divmod(x_cur, y_cur, deg_q)
        quotients.append(a)
        x_cur, y_cur = y_cur, rem
    return quotients


def cf_expand(u: TruncatedLaurentSeries, n: int) -> CFExpansion:
    """Expand u as a continued fraction with partial quotients a_0..a_n.

    Only quotients certified by 2*deg(q_i) <= -floor are emitted;
    InsufficientPrecision is raised if a_n is not reachable.
    """
    _check_count(n)
    quotients = _euclid_chain(u.lifted(), -u.floor, n)
    if len(quotients) <= n:
        # Either a quotient failed certification or the truncation's Euclid
        # ran dry; in both cases the true series is not pinned down: a tail
        # below the floor could alter or extend the expansion.
        raise InsufficientPrecision(
            f"only {len(quotients) - 1} partial quotients certified at floor {u.floor}; "
            f"requested {n} - regenerate with a deeper floor"
        )
    return CFExpansion(quotients)


def monic_normalize(cf: CFExpansion) -> CFExpansion:
    """cf itself, once it is known to have a_1, which the monic quantities
    need.  It does no polynomial arithmetic: the chain they read was built,
    and its degrees checked, once in CFExpansion."""
    if cf.last_index < 1:
        raise InvalidParameter("monic normalization needs at least two convergents")
    return cf


def convergent_soundness(u: TruncatedLaurentSeries, cf: CFExpansion) -> list[int]:
    """Measure the rate of approximation of every convergent against u and
    check that it equals the degree of the next partial quotient
    (RateViolation otherwise).  Returns the list of measured rates, each read
    off the residual x^D (q_i u - p_i), D = -u.floor (module docstring)."""
    prev = -RatPoly.monomial(-u.floor)
    cur = _mul_add(cf.partial_quotients[0], prev, u.lifted())
    rates: list[int] = []
    for i, a in enumerate(cf.partial_quotients[1:]):
        if cur.is_zero():
            raise InsufficientPrecision(
                f"u - p/q vanishes above the floor {u.floor}; regenerate u deeper"
            )
        measured = -u.floor - cur.degree() - cf.raw_q[i].degree()
        if measured != a.degree():
            raise RateViolation(
                f"convergent {i}: measured rate {measured} != deg a_{i + 1} = {a.degree()}"
            )
        rates.append(measured)
        prev, cur = cur, _mul_add(a, cur, prev, cf.raw_q[i + 1].degree())
    return rates


DEPTH_CAP_DEFAULT = 2000


def default_floor(d: int, n: int) -> int:
    """Default generation floor for an n-quotient expansion, twice the depth
    certification reads: denominator degrees grow by about d per two
    quotients and certification needs twice the final degree, so n*d + 16
    with guard margin, the depth ``expand_family`` tries first.  This
    budget, 2*n*d + 16, is its next attempt and the starting depth that its
    depth-cap check (exit 3) reads."""
    return -(2 * n * d + 16)


def family_series(d: int, kind: str, floor: int) -> TruncatedLaurentSeries:
    """The family series that expand_family expands, generated down to floor."""
    return generate(d, kind, floor)


def expand_family(
    d: int,
    kind: str,
    n: int,
    floor: int | None = None,
) -> tuple[CFExpansion, TruncatedLaurentSeries]:
    """Expand one of the built-in families to n quotients, doubling the
    generation depth on InsufficientPrecision up to DEPTH_CAP_DEFAULT, and
    trying the cap itself when the next doubling would pass it, so that
    every n the cap depth certifies expands.  Without a floor, the first
    attempt is at the certificate depth n*d + 16 and the next at the default
    floor's depth (``default_floor``)."""
    depth = -(floor if floor is not None else default_floor(d, n))
    if depth <= 0:
        raise InvalidParameter(f"floor must be negative, got {-depth}")
    attempt = n * d + 16 if floor is None and depth <= DEPTH_CAP_DEFAULT else depth
    last_error: InsufficientPrecision | None = None
    while attempt <= DEPTH_CAP_DEFAULT:
        series = family_series(d, kind, -attempt)
        try:
            return cf_expand(series, n), series
        except InsufficientPrecision as exc:
            last_error = exc
            following = depth if attempt < depth else 2 * attempt
            attempt = DEPTH_CAP_DEFAULT if attempt < DEPTH_CAP_DEFAULT < following else following
    if last_error is None:
        raise InsufficientPrecision(
            f"starting depth {depth} for {kind}_{d} with n={n} already exceeds "
            f"the depth cap {DEPTH_CAP_DEFAULT}"
        )
    raise InsufficientPrecision(
        f"depth cap {DEPTH_CAP_DEFAULT} reached for {kind}_{d} with n={n}: {last_error}"
    )
