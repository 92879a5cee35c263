"""Exception hierarchy shared across the package.

Every failure mode that callers are expected to handle programmatically
gets its own exception class so that tests and the CLI can dispatch on
type rather than on message text.
"""

from __future__ import annotations


class MahlerCFError(Exception):
    """Base class for all package-specific errors."""


# ---------------------------------------------------------------------------
# polynomial layer
# ---------------------------------------------------------------------------


class DivisionByZeroPoly(MahlerCFError):
    """Raised when the divisor of a polynomial division is the zero polynomial."""


class ZeroPolynomial(MahlerCFError):
    """Raised when an operation needs a nonzero polynomial but received zero
    (e.g. integer normalization of the zero polynomial)."""


class InvalidParameter(MahlerCFError):
    """Raised when a structural parameter is out of range (e.g. d < 2, an
    unknown family kind, a non-negative precision floor, or malformed text
    input)."""


# ---------------------------------------------------------------------------
# truncated-series layer
# ---------------------------------------------------------------------------


class InsufficientPrecision(MahlerCFError):
    """Raised when the precision floor of a truncated series is too shallow
    to certify the requested result (e.g. the next partial quotient of a
    continued fraction, or a rate of approximation)."""


class MismatchAt(MahlerCFError):
    """Raised when two series that should agree coefficientwise differ.

    Carries the largest degree at which they disagree.
    """

    def __init__(self, degree: int):
        self.degree = degree
        super().__init__(f"series disagree at degree {degree}")


# ---------------------------------------------------------------------------
# continued-fraction / structure layer
# ---------------------------------------------------------------------------


class RateViolation(MahlerCFError):
    """Raised when a measured rate of approximation differs from the rate
    predicted for it: the degree of the next partial quotient for a
    convergent, or the closed form for a partial product of f_d (d >= 4)."""


class ClassificationFailure(MahlerCFError):
    """Raised when a convergent denominator matches none of the expected
    structural shapes.

    Carries the index of the offending convergent.
    """

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class ShapeViolation(MahlerCFError):
    """Raised when a partial-quotient sequence departs from the rigid
    degree/shape pattern required for the beta machinery (d in {2, 3}).

    Carries the index of the first offending quotient.
    """

    def __init__(self, index: int, message: str):
        self.index = index
        super().__init__(message)


class IdentityFailure(MahlerCFError):
    """Raised when an algebraic identity check fails at some index and the
    caller asked for a hard failure rather than a report."""


class ZeroDenominator(MahlerCFError):
    """Raised when a closed-form recurrence hits a vanishing denominator and
    cannot continue."""


# ---------------------------------------------------------------------------
# p-adic layer
# ---------------------------------------------------------------------------


class HypothesisFailed(MahlerCFError):
    """Raised when a numeric hypothesis (e.g. that a witness root lifts by
    Newton steps) that a certificate relies on does not hold for the given
    inputs."""


class ScaleNotInvertible(MahlerCFError):
    """Raised when evaluating an integer-normalized polynomial modulo p^k but
    the normalization scale is not a p-adic unit."""


class SearchExhausted(MahlerCFError):
    """Raised when a bounded search (e.g. for an exponent hitting a lifted
    root) ends without success."""


class NotFound(MahlerCFError):
    """Raised when a bounded enumeration finds no object with the requested
    property (distinct from SearchExhausted, which is about scanning for a
    predicted object that must exist)."""
