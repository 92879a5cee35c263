"""Number-theoretic certification that f_d(a) is not badly approximable.

The certificate is a witness tuple (a, d, p, n0, t, residue) satisfying four
conditions, checked here entirely with modular arithmetic:

  c1  p is an odd prime (p >= 5 when d = 3), p does not divide a, and
      p divides a^{d^{n0}} - 1 exactly once;
  c2  the multiplicative order of d modulo p^2 is p times its order modulo
      p (the base is the radix d — 2 or 3 — never the evaluated integer a);
  c3  t is even when d = 3, and the integer-primitive denominator q_t of
      the t-th convergent of g_d vanishes at a^{d^{n0}} modulo p^2;
  c4  q_t'(1) is nonzero modulo p.

Under these, the root lifts to every power p^m (Newton iteration, c4 makes
the derivative a unit) and the powers a^{d^n} revisit the lifted root, so
q_t(a^{d^n}) picks up arbitrarily large p-power factors; the demo routine
exhibits the lift and the revisit explicitly.

c2 is decided as d^{p-1} != 1 mod p^2: for an odd prime p not dividing d the
order of d mod p^2 is either its order mod p or p times it, and it is the
former exactly when d^{p-1} = 1 mod p^2.  No factorization of p - 1 is
needed, so a prime of any size is checked at the cost of one ``pow``.

Every residue that c1 admits is a nontrivial 1-unit 1 + cp.  An integer
polynomial has integer Taylor coefficients at 1, so
q_t(1 + cp) = q_t(1) + cp * q_t'(1) (mod p^2): Hensel's lemma at first
order.  The search and the orbit survey read only q_t(1) mod p^2 and
q_t'(1) mod p.  Under c4, q_t'(1) is a unit, so the congruence fixes c
mod p: the one 1-unit root is 1 + cp with c = -(q_t(1)/p) * q_t'(1)^{-1},
present when p divides q_t(1) and nontrivial when c != 0.  Without c4, q_t
vanishes at every 1-unit or at none.  ``_roots`` solves this once per prime
for the search, ``enumerate_orbit_hits`` and ``orbit_table``; the search and
the table follow 1 + cp under x -> x^d as c under c -> dc mod p (``_orbit``),
since (1 + cp)^d = 1 + dcp (mod p^2).  ``check_conditions``
evaluates q_t at the residue in full, as the independent check of each
witness returned.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import compress
from typing import Iterator

from ._record import _Record
from .errors import (
    HypothesisFailed,
    InvalidParameter,
    NotFound,
    ScaleNotInvertible,
    SearchExhausted,
)
from .contfrac import _check_count, expand_family
from .polys import RatPoly, poly_eval_mod


# ---------------------------------------------------------------------------
# primes and primality
# ---------------------------------------------------------------------------


def prime_range(lo: int, hi: int) -> Iterator[int]:
    """The primes p with lo <= p < hi, in increasing order.

    One sieve of Eratosthenes over [0, hi), read from lo in place, so it
    takes about hi bytes: every program caller bounds hi by
    TABLE_PRIME_BOUND first, except wieferich_scan, which bounds it by
    WIEFERICH_BOUND."""
    lo, hi = max(lo, 2), max(hi, 2)
    sieve = bytearray([1]) * hi
    for p in range(2, math.isqrt(hi - 1) + 1):
        if sieve[p]:
            sieve[p * p::p] = bytes(len(range(p * p, hi, p)))
    return compress(range(lo, hi), memoryview(sieve)[lo:])


_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# No n below this bound is a strong pseudoprime to all of _MR_BASES
# (Sorenson & Webster, Math. Comp. 86 (2017) 985-1003).
_MR_EXACT_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Primality of n: False for n < 2; Miller-Rabin to the prime bases
    2..41, which is exact below 3.3e24; above that the Baillie-PSW test
    (Miller-Rabin to base 2 and a strong Lucas test), which has no known
    counterexample."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < _MR_EXACT_BELOW:
        return all(_strong_probable_prime(n, b) for b in _MR_BASES)
    return _strong_probable_prime(n, 2) and _strong_lucas(n)


def _strong_probable_prime(n: int, base: int) -> bool:
    """The Miller-Rabin test of odd n > base to one base."""
    s = ((n - 1) & (1 - n)).bit_length() - 1
    x = pow(base, (n - 1) >> s, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _jacobi(a: int, n: int) -> int:
    """The Jacobi symbol (a/n) for odd n > 0."""
    a %= n
    sign = 1
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def _half(x: int, n: int) -> int:
    """x / 2 modulo odd n."""
    x %= n
    return (x + n) // 2 if x % 2 else x // 2


def _strong_lucas(n: int) -> bool:
    """The strong Lucas probable-prime test of odd n > 1 with Selfridge's
    parameters: D the first of 5, -7, 9, -11, ... with (D/n) = -1, P = 1 and
    Q = (1 - D)/4 (Baillie & Wagstaff, Math. Comp. 35 (1980))."""
    if math.isqrt(n) ** 2 == n:
        return False  # (D/n) = -1 never holds for a square
    D = 5
    while (j := _jacobi(D, n)) != -1:
        if j == 0 and abs(D) != n:
            return False  # D shares a proper factor with n
        D = -D - 2 if D > 0 else -D + 2
    Q = (1 - D) // 4
    s = ((n + 1) & -(n + 1)).bit_length() - 1
    # U_k, V_k and Q^k mod n for k = (n + 1) / 2^s, from the top bit down.
    U, V, Qk = 0, 2, 1
    for bit in bin((n + 1) >> s)[2:]:
        U, V, Qk = U * V % n, (V * V - 2 * Qk) % n, Qk * Qk % n
        if bit == "1":
            U, V, Qk = _half(U + V, n), _half(D * U + V, n), Qk * Q % n
    if U == 0 or V == 0:
        return True
    for _ in range(s - 1):
        V, Qk = (V * V - 2 * Qk) % n, Qk * Qk % n
        if V == 0:
            return True
    return False


# ---------------------------------------------------------------------------
# the growth condition and the power tower
# ---------------------------------------------------------------------------


# On a 2-core Xeon (Python 3.11.7) a scan to this bound takes about 3 s at a
# peak RSS of about 31 MB.
WIEFERICH_BOUND = 10**7


def wieferich_scan(a: int, bound: int) -> list[int]:
    """All odd primes p <= bound, not dividing a, with a^{p-1} = 1 mod p^2
    (the rare primes for which the growth condition fails at base a).

    The sieve of prime_range takes about ``bound`` bytes, so bound is at
    most WIEFERICH_BOUND."""
    if bound < 3:
        raise InvalidParameter(f"bound must be >= 3, got {bound}")
    if bound > WIEFERICH_BOUND:
        raise InvalidParameter(f"bound must not exceed {WIEFERICH_BOUND}, got {bound}")
    hits = []
    for p in prime_range(3, bound + 1):
        if a % p == 0:
            continue
        if pow(a, p - 1, p * p) == 1:
            hits.append(p)
    return hits


def power_tower_residue(a: int, d: int, n0: int, modulus: int) -> int:
    """a^{d^{n0}} mod modulus by n0 successive d-th powerings (never forms
    the giant integer)."""
    if n0 < 0:
        raise InvalidParameter(f"n0 must be >= 0, got {n0}")
    x = a % modulus
    for _ in range(n0):
        x = pow(x, d, modulus)
    return x


# ---------------------------------------------------------------------------
# convergent denominators of g_d in integer-primitive form
# ---------------------------------------------------------------------------

_denominator_cache: dict[int, list[RatPoly]] = {}


def convergent_denominators(d: int, t_max: int) -> list[RatPoly]:
    """The denominators q_0..q_{t_max} of the convergents of g_d, each made
    monic: an integer-primitive part and the scale 1/lc of that part.  Every
    q_t is normalized once per process and cached per d.  Only d = 2, 3
    carry certificates, so any other d is refused before g_d is expanded."""
    if d not in (2, 3):
        raise InvalidParameter(f"certificates exist for d in {{2, 3}}, got {d}")
    _check_count(t_max)  # before the cache, whose slice a negative t_max would cut
    cached = _denominator_cache.get(d)
    if cached is None or len(cached) <= t_max:
        cf, _ = expand_family(d, "G", t_max)
        cached = [q.monic() for q in cf.raw_q[: t_max + 1]]
        _denominator_cache[d] = cached
    return cached[: t_max + 1]


def _at_1(qt: RatPoly) -> tuple[int, int, int, int]:
    """(q_t(1), q_t'(1), num, den) with num/den the scale of q_t: all that
    the root map reads of q_t, as integers that do not depend on p."""
    coeffs, scale = qt.int_coeffs(), qt.scale
    slope = sum(deg * c for deg, c in coeffs.items())
    return sum(coeffs.values()), slope, scale.numerator, scale.denominator


def _roots(
    at_1: list[tuple[int, int, int, int]], p: int, d: int, t_bound: int
) -> tuple[list[tuple[int, int]], list[int], int, int]:
    """The root map of one prime: (hits, everywhere, usable, scale_skips).

    Only t <= t_bound whose q_t has a unit scale at p are usable (even t only
    when d != 2); ``at_1[t]`` is ``_at_1(q_t)``.  hits are the
    (t, 1 + cp) with q_t'(1) a unit mod p, p | q_t(1) and c != 0, ordered by
    t; everywhere are the t with p | q_t'(1) whose q_t vanishes at every
    1-unit; scale_skips counts the t skipped for their scale."""
    p2 = p * p
    hits, everywhere = [], []
    usable = scale_skips = 0
    step = 1 if d == 2 else 2
    for t in range(step, t_bound + 1, step):
        value, slope, num, den = at_1[t]
        if num % p == 0 or den % p == 0:
            scale_skips += 1
            continue
        usable += 1
        if slope % p == 0:
            if value % p2 == 0:
                everywhere.append(t)
        elif value % p == 0:
            c = -(value // p) * pow(slope, -1, p) % p
            if c:
                hits.append((t, 1 + c * p))
    return hits, everywhere, usable, scale_skips


def _orbit(c: int, d: int, p: int) -> Iterator[int]:
    """c, dc, d^2 c, ... mod p once round the cycle: the 1-units 1 + cp that
    x -> x^d visits mod p^2 (see the module docstring)."""
    x = c
    while True:
        yield x
        if (x := x * d % p) == c:
            return


# ---------------------------------------------------------------------------
# the four-condition certificate
# ---------------------------------------------------------------------------


_WITNESS_INTS = ("a", "d", "p", "n0", "t", "residue")


class BadApproxWitness(_Record):
    """A witness tuple with the verdicts c1..c4 of its four conditions; a
    full certificate that f_d(a) is not badly approximable when ``passed``."""

    a: int
    d: int
    p: int
    n0: int
    t: int
    residue: int  # a^{d^{n0}} mod p^2
    conditions: dict[str, bool]
    qt: RatPoly

    @property
    def passed(self) -> bool:
        return all(self.conditions.values())

    @property
    def qt_value(self) -> int:
        """q_t(residue) mod p^2."""
        return poly_eval_mod(self.qt.int_coeffs(), self.residue, self.p * self.p)

    @property
    def qt_derivative_at_1(self) -> int:
        """q_t'(1) mod p."""
        return _at_1(self.qt)[1] % self.p

    def to_json_dict(self) -> dict:
        coeffs = self.qt.int_coeffs()
        top = max(coeffs) if coeffs else 0
        ascending = ",".join(str(coeffs.get(k, 0)) for k in range(top + 1))
        return {
            "a": self.a,
            "d": self.d,
            "p": self.p,
            "n0": self.n0,
            "t": self.t,
            "residue": self.residue,
            "conditions": dict(self.conditions),
            "qt": ascending,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "BadApproxWitness":
        """Parse the JSON form; InvalidParameter unless it is an object with
        integers a, d, p, n0, t, residue, a conditions object of booleans and
        qt, a primitive integer coefficient list with a positive top."""
        if not isinstance(data, dict):
            raise InvalidParameter("witness must be a JSON object")
        missing = [k for k in (*_WITNESS_INTS, "conditions", "qt") if k not in data]
        if missing:
            raise InvalidParameter(f"witness lacks the fields {missing}")
        not_ints = [k for k in _WITNESS_INTS if type(data[k]) is not int]
        if not_ints:
            raise InvalidParameter(f"witness fields {not_ints} must be integers")
        if not isinstance(data["conditions"], dict) or not isinstance(data["qt"], str):
            raise InvalidParameter("witness conditions must be an object and qt a string")
        not_bools = [k for k, v in data["conditions"].items() if type(v) is not bool]
        if not_bools:
            raise InvalidParameter(f"witness conditions {not_bools} must be booleans")
        qt_poly = RatPoly.from_text(data["qt"])
        if qt_poly.scale != 1:  # zero, or not the primitive integer form
            raise InvalidParameter("witness qt must be a primitive integer coefficient list")
        return cls(
            **{k: data[k] for k in _WITNESS_INTS},
            conditions=dict(data["conditions"]),
            qt=qt_poly,
        )


# check_conditions walks n0 powerings, so n0 is bounded, and so is the
# search's n0 bound, so that every witness found can be replayed.
N0_BOUND = 10**6
# Each powering is modulo p^2, so p is bounded too: on a 2-core Xeon (Python
# 3.11.7), a check at n0 = N0_BOUND takes about 3.5 s end to end at this bound.
P_BITS_BOUND = 256


def check_conditions(
    a: int, d: int, p: int, n0: int, t: int, qt: RatPoly
) -> BadApproxWitness:
    """Evaluate the four witness conditions for the given parameters.

    ``qt`` must be the monic denominator q_t of the t-th convergent of g_d,
    as ``convergent_denominators`` gives it: a primitive integer part with
    scale 1/lc; a scale sharing a factor with p raises ScaleNotInvertible
    (the polynomial cannot be reduced mod p)."""
    if d not in (2, 3):
        raise InvalidParameter(f"certificates exist for d in {{2, 3}}, got {d}")
    if n0 < 1 or t < 1:
        raise InvalidParameter("need n0 >= 1 and t >= 1")
    if n0 > N0_BOUND:
        raise InvalidParameter(f"n0 must not exceed {N0_BOUND}, got {n0}")
    if p < 1:
        raise InvalidParameter(f"need p >= 1, got {p}")
    if p.bit_length() > P_BITS_BOUND:
        raise InvalidParameter(f"p must not exceed {P_BITS_BOUND} bits, got {p.bit_length()}")
    _, slope, num, den = _at_1(qt)
    if num % p == 0 or den % p == 0:
        raise ScaleNotInvertible(
            f"normalization scale {qt.scale} of q_{t} is not a unit at p={p}"
        )
    p2 = p * p

    prime_ok = is_prime(p) and (p >= 5 if d == 3 else p % 2 == 1)
    coprime_ok = a % p != 0 if prime_ok else False
    residue = power_tower_residue(a, d, n0, p2)
    c1 = prime_ok and coprime_ok and residue % p == 1 and residue != 1
    c2 = prime_ok and pow(d, p - 1, p2) != 1
    parity_ok = (t % 2 == 0) if d == 3 else True
    c3 = parity_ok and poly_eval_mod(qt.int_coeffs(), residue, p2) == 0
    c4 = slope % p != 0
    return BadApproxWitness(
        a=a, d=d, p=p, n0=n0, t=t, residue=residue,
        conditions={"c1": c1, "c2": c2, "c3": c3, "c4": c4}, qt=qt,
    )


def revalidate_witness(w: BadApproxWitness) -> BadApproxWitness:
    """Re-run every condition from scratch, including recomputing q_t from
    the continued-fraction oracle, and compare q_t (scale included: monic
    or primitive), the residue and the verdicts with the stored ones."""
    qt_fresh = convergent_denominators(w.d, w.t)[w.t]
    if w.qt not in (qt_fresh, qt_fresh.primitive):
        raise InvalidParameter(
            f"stored q_{w.t} does not match the freshly computed denominator"
        )
    check = check_conditions(w.a, w.d, w.p, w.n0, w.t, qt_fresh)
    if not check.passed:
        raise InvalidParameter(f"witness fails revalidation: {check.conditions}")
    if check.residue != w.residue:
        raise InvalidParameter(
            f"stored residue {w.residue} != recomputed {check.residue}"
        )
    if check.conditions != w.conditions:
        raise InvalidParameter(
            f"stored conditions {w.conditions} != recomputed {check.conditions}"
        )
    return check


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------


# The table walks only the orbits it prints, or all p - 1 units with
# include_missing. On a 2-core Xeon (Python 3.11.7), `table --d 2 --p-max 10000`
# takes about 0.2 s, and a search to p_bound 10000 at most about 0.7 s.
TABLE_PRIME_BOUND = 10_000


# The counters of a search, in the order the NotFound text lists them.
_SEARCH_COUNTERS = (
    "primes_considered", "primes_rejected_growth", "primes_rejected_divides_a",
    "admissible_pairs", "evaluations", "scale_skips", "roots_without_c4",
)


def _search_one_prime(
    a: int, d: int, p: int, n0_bound: int, t_bound: int,
    denominators: list[RatPoly], at_1: list[tuple[int, int, int, int]],
    diag: dict[str, int],
) -> BadApproxWitness | None:
    """Scan (n0, t) lexicographically for one prime; None if nothing passes.

    a^{d^n} = 1 (mod p) from the least n with ord_p(a) | d^n on, an n below
    p.bit_length() if any; the residue is then 1 + cp, c walking ``_orbit``,
    and each c is looked up in the root map of ``_roots``: the least t it is
    the root of.  The t before it whose q_t vanishes everywhere count as
    roots without c4."""
    p2 = p * p
    hits, everywhere, usable, scale_skips = _roots(at_1, p, d, t_bound)
    diag["scale_skips"] += scale_skips
    first_t = {root // p: t for t, root in reversed(hits)}  # the least t per c

    n1, residue = 1, pow(a, d, p2)
    while residue % p != 1 and n1 < min(n0_bound, p.bit_length()):
        n1, residue = n1 + 1, pow(residue, d, p2)
    if residue % p != 1 or residue == 1:
        return None  # no n0 is admissible; c = 0 is fixed under c -> dc
    orbit = zip(range(n1, n0_bound + 1), _orbit(residue // p, d, p))
    n0, c = next(((n0, c) for n0, c in orbit if c in first_t), (n0_bound, None))
    t = first_t.get(c, t_bound + 1)  # past every t when no c is a root
    pairs = n0 - n1 + 1  # every n0 from n1 on is admissible
    diag["admissible_pairs"] += pairs
    diag["evaluations"] += usable * pairs
    diag["roots_without_c4"] += len(everywhere) * (pairs - 1) + bisect_left(everywhere, t)
    if t > t_bound:
        return None
    # c1, c2, parity and c4 hold here; check_conditions re-derives c3 in full
    witness = check_conditions(a, d, p, n0, t, denominators[t])
    if not witness.passed:
        raise InvalidParameter(f"conditions not all satisfied: {witness.conditions}")
    return witness


def witness_search(
    a: int,
    d: int,
    p_bound: int,
    n0_bound: int,
    t_bound: int,
) -> BadApproxWitness:
    """Find the lexicographically-first witness (ordered by p, then n0, then
    t) within the given bounds; NotFound carries the scan diagnostics."""
    if a < 2 or d not in (2, 3):
        raise InvalidParameter(f"need a >= 2 and d in {{2, 3}}, got a={a}, d={d}")
    if p_bound < 3 or n0_bound < 1 or t_bound < 1:
        raise InvalidParameter("all search bounds must be positive (p_bound >= 3)")
    if n0_bound > N0_BOUND:
        raise InvalidParameter(f"n0 bound must not exceed {N0_BOUND}, got {n0_bound}")
    if p_bound > TABLE_PRIME_BOUND:
        raise InvalidParameter(f"p bound must not exceed {TABLE_PRIME_BOUND}, got {p_bound}")
    denominators = convergent_denominators(d, t_bound)
    at_1 = [_at_1(qt) for qt in denominators]
    diag = dict.fromkeys(_SEARCH_COUNTERS, 0)

    for p in prime_range(3 if d == 2 else 5, p_bound + 1):
        diag["primes_considered"] += 1
        if a % p == 0:
            diag["primes_rejected_divides_a"] += 1
            continue
        if pow(d, p - 1, p * p) == 1:  # condition c2 fails
            diag["primes_rejected_growth"] += 1
            continue
        witness = _search_one_prime(a, d, p, n0_bound, t_bound, denominators, at_1, diag)
        if witness is not None:
            return witness
    raise NotFound(
        f"no witness for a={a}, d={d} within p<={p_bound}, n0<={n0_bound}, "
        f"t<={t_bound}; diagnostics: {diag}"
    )


# ---------------------------------------------------------------------------
# Hensel lifting demo: divisibility by arbitrary p-powers
# ---------------------------------------------------------------------------


class HenselDemo(_Record):
    """Evidence that p^m divides q_t(a^{d^n}) for an explicitly found n."""

    m: int
    n: int
    lifted_root: int
    exponent_residue: int  # a^{d^n} mod p^m
    evaluation: int  # q_t(a^{d^n}) mod p^m (must be 0)


# The exponent walk takes at most this many steps whatever the cap, so that
# the default cap 4 * p^(m-1), which grows without bound in p and m, cannot
# keep a call running indefinitely.
HENSEL_STEP_LIMIT = 10**6
# Each walk step is a power modulo p^m, so its cost grows with p^m; below
# this size a walk of HENSEL_STEP_LIMIT cube steps takes about 2 s on a
# 2-core Xeon (Python 3.11), and a larger p^m is refused before the lift.
HENSEL_MODULUS_BITS = 192


def _newton_lift(w: BadApproxWitness, m: int) -> int:
    """The root of q_t mod p^m above the witness residue mod p^2, by Newton
    steps root mod p^k -> root mod p^{min(2k, m)}; condition c4 makes q_t'
    a unit at the root, so the lift is unique."""
    p = w.p
    coeffs = w.qt.int_coeffs()
    deriv = {deg - 1: deg * c for deg, c in coeffs.items() if deg}
    k = 2
    root = w.residue % (p * p)
    while k < m:
        k = min(2 * k, m)
        modulus = p**k
        value = poly_eval_mod(coeffs, root, modulus)
        dval = poly_eval_mod(deriv, root, modulus)
        if dval % p == 0:
            raise HypothesisFailed(f"q_{w.t}' vanishes at the root mod {p}: no Newton lift")
        root = (root - value * pow(dval, -1, modulus)) % modulus
    if poly_eval_mod(coeffs, root, p**m) != 0:
        raise HypothesisFailed(f"the Newton lift reached no root of q_{w.t} mod {p}^{m}")
    return root


def hensel_divisibility_demo(
    w: BadApproxWitness, m: int, cap: int | None = None
) -> HenselDemo:
    """Lift the witness root from mod p^2 to mod p^m (``_newton_lift``), then
    search n in [n0, n0 + cap] with a^{d^n} = lifted root (mod p^m) and
    confirm q_t vanishes there mod p^m.
    A cap above HENSEL_STEP_LIMIT is cut to it; p^m above
    HENSEL_MODULUS_BITS bits is invalid.
    """
    if m < 2:
        raise InvalidParameter(f"need m >= 2, got {m}")
    if cap is not None and cap < 0:
        raise InvalidParameter(f"need cap >= 0, got {cap}")
    p = w.p
    # p >= 2, so m > HENSEL_MODULUS_BITS already rules p^m out unbuilt
    if m > HENSEL_MODULUS_BITS or (p**m).bit_length() > HENSEL_MODULUS_BITS:
        raise InvalidParameter(f"modulus {p}^{m} exceeds {HENSEL_MODULUS_BITS} bits")
    if cap is None:
        cap = 4 * p ** (m - 1)
    pm = p**m
    root = _newton_lift(w, m)
    coeffs = w.qt.int_coeffs()

    steps = min(cap, HENSEL_STEP_LIMIT)
    x = power_tower_residue(w.a, w.d, w.n0, pm)
    for n in range(w.n0, w.n0 + steps + 1):
        if x == root:
            evaluation = poly_eval_mod(coeffs, x, pm)
            if evaluation != 0:
                raise HypothesisFailed(f"q_{w.t}({x}) = {evaluation} mod {p}^{m}, not 0")
            return HenselDemo(
                m=m, n=n, lifted_root=root, exponent_residue=x, evaluation=evaluation
            )
        x = pow(x, w.d, pm)
    if steps < cap:
        raise SearchExhausted(
            f"no exponent within the step limit {HENSEL_STEP_LIMIT} (cap {cap}) "
            f"reaches the lifted root mod {p}^{m}"
        )
    raise SearchExhausted(
        f"no exponent within cap {cap} reaches the lifted root mod {p}^{m}"
    )


# ---------------------------------------------------------------------------
# survey table: first witnesses per squaring-orbit of the 1-units (d = 2)
# ---------------------------------------------------------------------------


class OrbitRow(_Record):
    """One orbit of the nontrivial 1-units mod p^2 under x -> x^2, kept as its
    least member ``start``.

    ``t`` and ``residue`` give the first convergent denominator with a root
    in the orbit (t = None when none exists within the scanned bound);
    ``orbit`` and ``a_classes`` are worked out when read."""

    p: int
    t: int | None
    residue: int | None
    start: int

    @property
    def orbit(self) -> tuple[int, ...]:
        """The members 1 + cp, with c on the ``_orbit`` of ``start``."""
        return tuple(sorted(1 + c * self.p for c in _orbit(self.start // self.p, 2, self.p)))

    @property
    def a_classes(self) -> tuple[int, ...]:
        """The +/- compressed residues a mod p^2 in this orbit (a and -a reach
        the same squaring orbit)."""
        return self.classes_of(self.orbit)

    def classes_of(self, orbit: tuple[int, ...]) -> tuple[int, ...]:
        """``a_classes`` from the ``orbit`` already read, without a second walk."""
        square = self.p**2
        return tuple(sorted(min(e, square - e) for e in orbit))


def _check_orbit_prime(p: int) -> None:
    if not is_prime(p) or p == 2:
        raise InvalidParameter(f"orbit hits need a valid prime for d=2, got {p}")


def orbit_table(primes: list[int], t_bound: int, include_missing: bool = False) -> list[OrbitRow]:
    """For each prime, the squaring orbits of the 1-units 1+cp (c != 0) mod p^2
    that hold a hit of ``enumerate_orbit_hits``, each with the first one: the
    least t with a root in the orbit, and that root; with include_missing, the
    other orbits too.  A prime above TABLE_PRIME_BOUND is refused before any walk."""
    primes = [int(p) for p in primes]
    for p in primes:
        if p > TABLE_PRIME_BOUND:
            raise InvalidParameter(f"table primes must not exceed {TABLE_PRIME_BOUND}, got {p}")
        _check_orbit_prime(p)
    at_1 = [_at_1(qt) for qt in convergent_denominators(2, t_bound)]
    rows: list[OrbitRow] = []
    rows_of: dict[int, list[OrbitRow]] = {}  # a prime listed twice is walked once
    for p in primes:
        if p not in rows_of:
            rows_of[p] = _orbit_rows(at_1, p, t_bound, include_missing)
        rows.extend(rows_of[p])
    rows.sort(key=lambda r: (r.p, r.t is None, r.t))  # a repeated prime's copies interleave
    return rows


def _orbit_rows(
    at_1: list[tuple[int, int, int, int]], p: int, t_bound: int, include_missing: bool
) -> list[OrbitRow]:
    """One prime's rows in table order: the orbits with a root by their least
    t, then, with include_missing, the others by their least members."""
    seen = [False] * p  # seen[c]: the orbit of c has its row
    rows = []
    for t, root in _roots(at_1, p, 2, t_bound)[0]:
        if not seen[root // p]:
            orbit = list(_orbit(root // p, 2, p))
            for c in orbit:
                seen[c] = True
            rows.append(OrbitRow(p=p, t=t, residue=root, start=1 + min(orbit) * p))
    if include_missing:
        for start in range(1, p):
            if not seen[start]:  # the least member of an orbit without a root
                for c in _orbit(start, 2, p):
                    seen[c] = True
                rows.append(OrbitRow(p=p, t=None, residue=None, start=1 + start * p))
    return rows


def enumerate_orbit_hits(p: int, t_bound: int) -> list[tuple[int, int]]:
    """Every certified (t, residue) pair of g_2 for a prime, ordered by t: t <=
    t_bound with q_t'(1) a unit mod p and residue the nontrivial 1-unit root
    of q_t mod p^2, which c4 makes unique (see the module docstring).

    ``orbit_table`` keeps the first of these per orbit; this lists them all,
    so any externally quoted pair can be checked for membership even when an
    earlier t serves the same orbit."""
    p = int(p)
    _check_orbit_prime(p)
    return _roots([_at_1(qt) for qt in convergent_denominators(2, t_bound)], p, 2, t_bound)[0]
