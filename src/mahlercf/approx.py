"""Certified numeric evaluation of the product series at integer points.

Everything here is exact.  Values and error bounds are `Fraction`s, and every
inequality between real quantities is decided by integer cross-multiplication.
The interval walk of ``real_cf_prefix``, the certified digit count and the
decimal rendering run on integer numerators and denominators.  Floating
point never enters; decimal strings are rendered from exact rationals and
only for human consumption.

The approximants are the partial products
``r_k(a) = prod_{t<=k} (1 - a^{-d^t})`` with the tail bound
``|f_d(a) - r_k(a)| <= 2 / a^{d^{k+1}}`` (the neglected factors differ from 1
by a geometric-series tail dominated by twice its first term).  They give the
certified values, the certified integer continued-fraction prefixes read from
those values, and the irrationality-exponent witnesses for d >= 4.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import _Record
from .errors import IdentityFailure, InvalidParameter

# ---------------------------------------------------------------------------
# certified values
# ---------------------------------------------------------------------------


def _decimal_render(value: Fraction, digits: int) -> str:
    """Render `digits` >= 1 decimal places of `value` exactly, truncated
    toward zero, with a trailing ellipsis marking truncation."""
    sign = "-" if value < 0 else ""
    scale = 10**digits
    int_part, frac_part = divmod(abs(value.numerator) * scale // value.denominator, scale)
    return f"{sign}{int_part}.{frac_part:0{digits}d}…"


DECIMAL_DIGITS_CAP = 30  # the most places decimal() renders


class CertifiedValue(_Record):
    """An exact rational `value` with a guaranteed `error_bound`:
    the targeted real number lies in [value - error_bound, value + error_bound].
    """

    value: Fraction
    error_bound: Fraction

    def __init__(self, value: Fraction, error_bound: Fraction) -> None:
        if error_bound < 0:
            raise InvalidParameter("error_bound must be non-negative")
        super().__init__(value, error_bound)

    def interval(self) -> tuple[Fraction, Fraction]:
        return (self.value - self.error_bound, self.value + self.error_bound)

    def certified_digits(self) -> int:
        """Number of decimal places, up to DECIMAL_DIGITS_CAP, that are
        pinned down by the error bound: the largest n with
        error_bound <= 10^-n / 2."""
        num, den = self.error_bound.numerator, self.error_bound.denominator
        digits = 0
        while digits < DECIMAL_DIGITS_CAP and 20 * num * 10**digits <= den:
            digits += 1
        return digits

    def decimal(self) -> str:
        return _decimal_render(self.value, max(1, self.certified_digits()))


def partial_product_value(a: int, d: int, k: int) -> Fraction:
    """The exact partial product prod_{t=0..k} (1 - a^{-d^t})."""
    if a < 2 or d < 2 or k < 0:
        raise InvalidParameter("need a >= 2, d >= 2, k >= 0")
    # prod (1 - a^{-d^t}) = prod (a^{d^t} - 1) / a^{d^0 + ... + d^k}
    num = 1
    for t in range(k + 1):
        num *= a ** (d**t) - 1
    return Fraction(num, a ** ((d ** (k + 1) - 1) // (d - 1)))


# The most bits the tail denominator a^{d^{k+1}} (times a^{d-1} for g_d) may
# have, counted as its exponent times ceil(log2 a): at most about 2.4 s at the
# bound on a 2-core Xeon (Python 3.11.7), and fewer than 1.3 * 10^6 bits do
# for every eps down to 1e-100000 at d <= 3.
TAIL_BITS_BOUND = 2**23


def eval_mahler(a: int, d: int, eps: Fraction, which: str = "F") -> CertifiedValue:
    """Evaluate f_d(a) (``which="F"``) or g_d(a) = a^{1-d} f_d(a) (``"G"``)
    to guaranteed absolute error at most `eps`."""
    if a < 2 or d < 2:
        raise InvalidParameter("need a >= 2 and d >= 2")
    eps = Fraction(eps)
    if eps <= 0:
        raise InvalidParameter("eps must be positive")
    if which not in ("F", "G"):
        raise InvalidParameter("which must be 'F' or 'G'")
    # the least k whose tail bound 2 / a^{d^{k+1}} (module docstring), times
    # a^{1-d} for g_d, is <= eps; each denominator is sized before it is built
    extra = d - 1 if which == "G" else 0
    k = 0
    while True:
        exponent = d ** (k + 1) + extra
        if exponent * (a - 1).bit_length() > TAIL_BITS_BOUND:
            raise InvalidParameter(
                f"the tail denominator {a}^{exponent} would pass {TAIL_BITS_BOUND} bits"
            )
        tail = a**exponent
        if 2 * eps.denominator <= eps.numerator * tail:
            break
        k += 1
    value = partial_product_value(a, d, k) * Fraction(1, a**extra)
    return CertifiedValue(value=value, error_bound=Fraction(2, tail))


# ---------------------------------------------------------------------------
# real continued fractions from certified intervals
# ---------------------------------------------------------------------------


def real_cf_prefix(value: CertifiedValue, max_terms: int) -> list[int]:
    """Integer continued-fraction prefix certified by the interval
    [value - bound, value + bound]: emits partial quotients only while both
    endpoints agree, stopping at the first disagreement (short output is the
    degradation mode, never a wrong quotient).  The endpoints are walked as
    unreduced integer pairs; a point interval takes the same path."""
    if max_terms < 0:
        raise InvalidParameter("max_terms must be non-negative")
    low, high = value.interval()
    ln, ld, hn, hd = low.numerator, low.denominator, high.numerator, high.denominator
    out: list[int] = []
    while len(out) < max_terms:
        a = ln // ld
        if a != hn // hd:
            break
        out.append(a)
        ln -= a * ld
        hn -= a * hd
        if ln == 0:
            # lower endpoint hit an integer: the next quotient is unbounded
            break
        ln, ld, hn, hd = hd, hn, ld, ln
    return out


# ---------------------------------------------------------------------------
# irrationality measure of f_d(a) for d >= 4
# ---------------------------------------------------------------------------


class ExponentSample(_Record):
    """One partial product r_k(a) = p/denominator viewed as a rational
    approximation of f_d(a), with its certified error and the exponent it
    witnesses: error_upper <= denominator^(-exponent)."""

    k: int
    denominator: int
    error_upper: Fraction
    exponent_64ths: int

    def exponent_decimal(self) -> str:
        thousandths = self.exponent_64ths * 1000 // 64
        return f"{thousandths // 1000}.{thousandths % 1000:03d}"


class IrrationalityReport(_Record):
    samples: tuple[ExponentSample, ...]

    def exponent_at_least(self, tau: Fraction) -> bool:
        """Exact check that the deepest sample certifies exponent >= tau."""
        tau = Fraction(tau)
        sample = self.samples[-1]
        err = sample.error_upper
        # err <= q^(-tau)  <=>  err^tau.den * q^tau.num <= 1
        lhs = err.numerator**tau.denominator * sample.denominator**tau.numerator
        rhs = err.denominator**tau.denominator
        return lhs <= rhs


def _exponent_64ths(error: Fraction, denominator: int, cap_64ths: int) -> int:
    """Largest m with error <= denominator^(-m/64), by binary search with exact
    integer comparisons: error^64 * denominator^m <= 1."""
    num64 = error.numerator**64
    den64 = error.denominator**64
    lo, hi = 0, cap_64ths
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if num64 * denominator**mid <= den64:
            lo = mid
        else:
            hi = mid - 1
    return lo


def irrationality_witness(a: int, d: int, k_max: int) -> IrrationalityReport:
    """Measure the irrationality exponent witnessed by the partial products of
    f_d(a) for d >= 4: each r_k(a) has denominator a^{(d^{k+1}-1)/(d-1)} and
    error at most 2/a^{d^{k+1}}, so the effective exponent approaches d - 1
    from below as k grows.  All comparisons are exact."""
    if d < 4:
        raise InvalidParameter("irrationality witness requires d >= 4")
    if a < 2:
        raise InvalidParameter("need a >= 2")
    if k_max < 0:
        raise InvalidParameter("need k_max >= 0")
    samples = []
    for k in range(k_max + 1):
        power = d ** (k + 1)
        denominator = a ** ((power - 1) // (d - 1))
        error_upper = Fraction(2, a**power)
        exponent = _exponent_64ths(error_upper, denominator, cap_64ths=64 * (d + 1))
        # internal consistency: a deeper partial product stays within the bound
        deeper = partial_product_value(a, d, k + 2)
        shallow = partial_product_value(a, d, k)
        if abs(deeper - shallow) > error_upper:
            raise IdentityFailure(
                f"tail bound violated at a={a}, d={d}, k={k}"
            )
        samples.append(
            ExponentSample(
                k=k,
                denominator=denominator,
                error_upper=error_upper,
                exponent_64ths=exponent,
            )
        )
    return IrrationalityReport(samples=tuple(samples))
