"""Primes, witness conditions, searches, orbit table, lifting."""

import collections
import json
import math
import time
from bisect import bisect_left
from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.ntheory import n_order
from sympy.ntheory.primetest import is_strong_lucas_prp

from mahlercf import padic
from mahlercf.cli import main
from mahlercf.contfrac import expand_family, monic_normalize
from mahlercf.errors import (
    HypothesisFailed,
    InvalidParameter,
    NotFound,
    ScaleNotInvertible,
    SearchExhausted,
)
from mahlercf.padic import (
    BadApproxWitness,
    check_conditions,
    convergent_denominators,
    enumerate_orbit_hits,
    hensel_divisibility_demo,
    is_prime,
    orbit_table,
    power_tower_residue,
    prime_range,
    revalidate_witness,
    wieferich_scan,
    witness_search,
)
from mahlercf.polys import RatPoly, poly_eval_mod, poly_normalize_integer


def derivative_map(coeffs: dict[int, int]) -> dict[int, int]:
    """The integer coefficients of the derivative of an integer polynomial."""
    return {deg - 1: deg * c for deg, c in coeffs.items() if deg}


# first certified (t, residue) per squaring-orbit, verified by standalone
# big-integer evaluation of q_t at the residue
FROZEN_TABLE_SMALL = {
    3: [(9, 7)],
    5: [(11, 11)],
    7: [(41, 15), (59, 43)],
}


class TestPrimes:
    """The sieve and the primality test, each against sympy as the
    reference."""

    LIMIT = 200_000

    def test_sieve_matches_sympy_on_windows(self):
        reference = list(sympy.primerange(0, self.LIMIT + 1))
        assert list(prime_range(0, self.LIMIT + 1)) == reference
        for lo in range(0, self.LIMIT, 4999):
            for width in (0, 1, 2, 98, 1001, 30011):
                hi = min(lo + width, self.LIMIT)
                expected = reference[bisect_left(reference, lo):bisect_left(reference, hi)]
                assert list(prime_range(lo, hi)) == expected

    @pytest.mark.parametrize("lo, hi, count", [(0, 10**4, 1229), (0, 4 * 10**6 + 1, 283_146)])
    def test_sieve_counts(self, lo, hi, count):
        # the second range is the one the Wieferich criterion sieves
        assert sum(1 for _ in prime_range(lo, hi)) == count

    def test_is_prime_matches_sympy_below_1e5(self):
        assert [n for n in range(-5, 100_000) if is_prime(n)] == list(
            sympy.primerange(0, 100_000)
        )

    @settings(max_examples=400)
    @given(st.integers(0, 2**128))
    def test_is_prime_matches_sympy_to_2_128(self, n):
        assert is_prime(n) == sympy.isprime(n)
        p = sympy.nextprime(n)
        assert is_prime(p)
        assert not is_prime(p * sympy.nextprime(p))

    def test_pseudoprimes_are_composite(self):
        carmichael = [561, 1105, 1729, 2465, 2821, 6601, 8911, 41041, 825265,
                      321197185, 5394826801, 232250619601, 9746347772161]
        # Chernick's (6k+1)(12k+1)(18k+1), all three prime, is a Carmichael
        # number; this one lies above the Miller-Rabin bound, where the
        # Baillie-PSW test decides.
        k = next(k for k in range(10**9, 10**9 + 10**6)
                 if all(sympy.isprime(c * k + 1) for c in (6, 12, 18)))
        chernick = (6 * k + 1) * (12 * k + 1) * (18 * k + 1)
        assert chernick > padic._MR_EXACT_BELOW
        strong_to_2_23 = 3825123056546413051
        strong_to_2_37 = 318665857834031151167461
        for n in (*carmichael, chernick, strong_to_2_23, strong_to_2_37):
            assert not sympy.isprime(n)
            assert not is_prime(n), n

    def test_large_primes_above_the_miller_rabin_bound(self):
        for k in (89, 107, 127, 521, 607):  # Mersenne primes
            assert is_prime(2**k - 1)
        assert not is_prime((2**89 - 1) * (2**107 - 1))
        assert not is_prime((2**89 - 1) ** 2)

    def test_strong_lucas_matches_sympy(self):
        mismatches = [n for n in range(3, 100_000, 2)
                      if padic._strong_lucas(n) != is_strong_lucas_prp(n)]
        assert mismatches == []


class TestOrders:
    """Condition c2, the growth of the order of d from mod p to mod p^2, at
    primes where it is known to hold or to fail."""

    @staticmethod
    def c2(d, p):
        q2 = convergent_denominators(d, 2)[2]
        return check_conditions(2, d, p, 1, 2, q2).conditions["c2"]

    def test_gamma_growth_typical(self):
        assert self.c2(2, 3)
        assert self.c2(2, 5)
        assert self.c2(3, 5)

    def test_gamma_growth_fails_at_wieferich(self):
        assert not self.c2(2, 1093)
        assert not self.c2(2, 3511)
        assert not self.c2(3, 11)

    def test_wieferich_scan_small_windows(self):
        assert wieferich_scan(2, 1000) == []
        assert wieferich_scan(2, 4000) == [1093, 3511]
        assert wieferich_scan(3, 100) == [11]


class TestDivisibility:
    def test_power_tower_residue(self):
        assert power_tower_residue(2, 3, 2, 49) == 512 % 49 == 22
        assert power_tower_residue(2, 2, 1, 9) == 4

    def test_exact_divisibility_tower(self):
        # Condition c1 is p || a^{d^{n0}} - 1, decided at modulus p^2.
        def c1(a, d, n0, p):
            qt = convergent_denominators(d, 2)[2]
            return check_conditions(a, d, p, n0, 2, qt).conditions["c1"]

        # 2^{3^1} - 1 = 7 is exactly divisible by 7
        assert c1(2, 3, 1, 7)
        # 2^{2^2} - 1 = 15 is not divisible by 7
        assert not c1(2, 2, 2, 7)
        # 50^2 - 1 = 2499 = 3 * 7^2 * 17 is divisible by 7 twice
        assert not c1(50, 2, 1, 7)


class TestConditions:
    def test_pinned_d2_row(self):
        q9 = convergent_denominators(2, 9)[9]
        check = check_conditions(2, 2, 3, 2, 9, q9)
        assert check.passed
        assert check.residue == 7
        assert check.conditions == {"c1": True, "c2": True, "c3": True, "c4": True}

    def test_pinned_d3_tuple(self):
        q8 = convergent_denominators(3, 8)[8]
        check = check_conditions(2, 3, 7, 2, 8, q8)
        assert check.passed
        assert check.residue == 22
        assert check.qt_derivative_at_1 % 7 == 2

    def test_p_dividing_a_fails(self):
        q9 = convergent_denominators(2, 9)[9]
        check = check_conditions(15, 2, 3, 2, 9, q9)
        assert not check.passed
        assert not check.conditions["c1"]

    def test_d3_requires_odd_t_rejected(self):
        q7 = convergent_denominators(3, 7)[7]
        check = check_conditions(2, 3, 7, 2, 7, q7)
        assert not check.conditions["c3"]

    def test_d3_small_primes_rejected(self):
        q8 = convergent_denominators(3, 8)[8]
        check = check_conditions(2, 3, 3, 1, 8, q8)
        assert not check.passed

    def test_c2_agrees_with_gamma_growth(self):
        # c2 is decided as d^(p-1) != 1 mod p^2, without computing an order;
        # sympy's orders say whether the order of d grows p-fold mod p^2
        for d in (2, 3):
            q2 = convergent_denominators(d, 2)[2]
            for p in prime_range(5, 20_000):
                c2 = check_conditions(2, d, p, 1, 2, q2).conditions["c2"]
                assert c2 == (n_order(d, p * p) == p * n_order(d, p)), (d, p)

    def test_derivative_at_1_matches_the_derivative_polynomial(self):
        for d in (2, 3):
            for t, qt in enumerate(convergent_denominators(d, 60)):
                value, slope, num, den = padic._at_1(qt)
                assert Fraction(num, den) == qt.scale
                for p in (3, 5, 7, 11, 13, 43):
                    expected = poly_eval_mod(derivative_map(qt.int_coeffs()), 1, p)
                    assert (value % p, slope % p) == (poly_eval_mod(qt.int_coeffs(), 1, p), expected)

    @pytest.mark.parametrize("d", [2, 3])
    def test_denominators_match_the_monic_view(self, d):
        cf, _ = expand_family(d, "G", 60)
        monic = monic_normalize(cf)
        for t, qt in enumerate(convergent_denominators(d, 60)):
            expected = poly_normalize_integer(monic.monic_denominator(t))
            assert (qt.primitive, qt.scale) == (expected.primitive, expected.scale), t

    def test_scale_sharing_p_is_skipped(self):
        from fractions import Fraction

        fake = RatPoly({0: 1, 1: 1}) * Fraction(1, 5)
        with pytest.raises(ScaleNotInvertible):
            check_conditions(2, 2, 5, 1, 1, fake)


class TestWitnessSearch:
    def test_bounded_search_reproduces_d3_tuple(self):
        w = witness_search(2, 3, 7, 6, 10)
        assert (w.p, w.n0, w.t, w.residue) == (7, 2, 8, 22)

    def test_lexicographic_first_d3_under_wider_bounds(self):
        # with a larger t bound, n0=1 admits an earlier (p, n0, t) witness
        w = witness_search(2, 3, 7, 6, 30)
        assert (w.p, w.n0, w.t, w.residue) == (7, 1, 24, 8)

    def test_lexicographic_first_d2(self):
        w = witness_search(2, 2, 11, 8, 20)
        assert (w.p, w.n0, w.t, w.residue) == (3, 1, 18, 4)

    def test_lexicographic_first_a15(self):
        # the orbit {8, 15, 29} mod 49 carries two roots within t <= 50:
        # t=41 at residue 15 (n0=3) and t=49 at residue 29 (n0=1); the
        # (p, n0, t) order picks the latter
        w = witness_search(15, 2, 11, 8, 50)
        assert (w.p, w.n0, w.t, w.residue) == (7, 1, 49, 29)

    def test_search_not_found_carries_diagnostics(self):
        with pytest.raises(NotFound) as err:
            witness_search(3, 2, 5, 2, 3)
        assert "primes_considered" in str(err.value)

    def test_growth_filter_rejects_the_wieferich_prime(self):
        # 1093 is the only prime below 1100 with 2^(p-1) = 1 mod p^2
        with pytest.raises(NotFound, match="'primes_rejected_growth': 1,"):
            witness_search(2, 2, 1100, 1, 1)

    def test_invalid_d_rejected(self):
        with pytest.raises(InvalidParameter):
            witness_search(2, 5, 10, 5, 10)

    # (a, d, p_bound, n0_bound, t_bound) -> the witness's (p, n0, t, residue),
    # or the search counters in order when NotFound is raised; both
    # recorded from the coefficient-by-coefficient root scan that preceded
    # the closed form
    PINNED_SEARCHES = {
        (7, 3, 400, 8, 200): ("diag", 76, 1, 1, 21, 2036, 52, 0),
        (3, 2, 5, 2, 3): ("diag", 2, 0, 1, 1, 3, 0, 0),
        (2, 2, 1100, 1, 1): ("diag", 183, 1, 0, 1, 1, 0, 0),
        (3, 3, 60, 4, 40): ("diag", 15, 1, 0, 4, 76, 4, 0),
        (13, 3, 150, 6, 150): ("diag", 33, 1, 1, 6, 450, 32, 0),
        (55, 2, 13, 2, 70): ("diag", 5, 0, 2, 2, 140, 19, 2),
        (190, 2, 13, 2, 70): ("diag", 5, 0, 1, 3, 207, 19, 2),
        (5, 2, 100, 3, 30): ("witness", 3, 1, 9, 7),
        (10, 2, 50, 6, 100): ("witness", 11, 2, 86, 78),
        (6, 3, 200, 5, 120): ("witness", 5, 1, 38, 16),
        (4, 2, 30, 2, 10): ("witness", 3, 1, 9, 7),
        (9, 2, 200, 4, 60): ("witness", 5, 1, 22, 6),
        (11, 3, 100, 3, 80): ("witness", 5, 2, 38, 16),
        (12, 2, 120, 2, 200): ("witness", 5, 2, 11, 11),
    }

    @pytest.mark.parametrize("bounds", sorted(PINNED_SEARCHES), ids=str)
    def test_pinned_witness_or_diagnostics(self, bounds):
        kind, *expected = self.PINNED_SEARCHES[bounds]
        if kind == "witness":
            w = witness_search(*bounds)
            assert [w.p, w.n0, w.t, w.residue] == expected
        else:
            with pytest.raises(NotFound) as err:
                witness_search(*bounds)
            summary = dict(zip(padic._SEARCH_COUNTERS, expected, strict=True))
            assert str(err.value).endswith(f"diagnostics: {summary}")

    def test_a_search_that_walks_every_orbit_in_full_is_quick(self):
        # a = 1 mod every odd prime below the bound but not mod its square,
        # so each prime walks its whole orbit of c -> 2c; about 0.6 s of CPU
        # on a 2-core Xeon (Python 3.11.7)
        a = 1 + math.prod(prime_range(3, padic.TABLE_PRIME_BOUND))
        start = time.process_time()
        with pytest.raises(NotFound, match="'primes_considered': 1228,"):
            witness_search(a, 2, padic.TABLE_PRIME_BOUND, padic.N0_BOUND, 1)
        assert time.process_time() - start < 2

    def test_p_bound_past_the_table_bound_is_refused_before_any_walk(self, monkeypatch):
        monkeypatch.setattr(padic, "_search_one_prime", None)  # a walk would raise TypeError
        with pytest.raises(InvalidParameter, match="p bound must not exceed 10000, got 10001"):
            witness_search(2, 2, 10_001, 1, 1)


def walk_search(a, d, p_bound, n0_bound, t_bound):
    """The search as it was before it followed the orbit: every n0 up to the
    bound powered out in turn, and each admissible residue looked up in the
    root map.  Returns the witness tuple, or the NotFound text."""
    denominators = convergent_denominators(d, t_bound)
    at_1 = [padic._at_1(qt) for qt in denominators]
    diag = dict.fromkeys(padic._SEARCH_COUNTERS, 0)
    for p in prime_range(3 if d == 2 else 5, p_bound + 1):
        diag["primes_considered"] += 1
        if a % p == 0:
            diag["primes_rejected_divides_a"] += 1
            continue
        p2 = p * p
        if pow(d, p - 1, p2) == 1:
            diag["primes_rejected_growth"] += 1
            continue
        hits, everywhere, usable, scale_skips = padic._roots(at_1, p, d, t_bound)
        diag["scale_skips"] += scale_skips
        first_t = {root: t for t, root in reversed(hits)}
        residue = a % p2
        for n0 in range(1, n0_bound + 1):
            residue = pow(residue, d, p2)
            if residue % p != 1 or residue == 1:
                continue
            diag["admissible_pairs"] += 1
            diag["evaluations"] += usable
            t = first_t.get(residue)
            if t is None:
                diag["roots_without_c4"] += len(everywhere)
                continue
            diag["roots_without_c4"] += bisect_left(everywhere, t)
            return (a, d, p, n0, t, residue)
    return (f"no witness for a={a}, d={d} within p<={p_bound}, n0<={n0_bound}, "
            f"t<={t_bound}; diagnostics: {diag}")


class TestSearchOracle:
    """witness_search, which follows each prime's orbit of c -> dc, against
    the n0-by-n0 walk it replaced."""

    @settings(max_examples=150)
    @given(
        a=st.one_of(st.integers(2, 400),
                    # a = 1 mod 3, 5, 7, 11 and 13, so the orbits start at n0 = 1
                    st.integers(1, 400).map(lambda k: 1 + 15015 * k)),
        d=st.sampled_from([2, 3]),
        p_bound=st.integers(3, 300),
        n0_bound=st.integers(1, 300),
        t_bound=st.integers(1, 60),
    )
    def test_same_witness_or_same_diagnostics(self, a, d, p_bound, n0_bound, t_bound):
        expected = walk_search(a, d, p_bound, n0_bound, t_bound)
        try:
            w = witness_search(a, d, p_bound, n0_bound, t_bound)
        except NotFound as exc:
            assert str(exc) == expected
        else:
            assert (w.a, w.d, w.p, w.n0, w.t, w.residue) == expected
            assert w.passed

    @pytest.mark.parametrize("d", [2, 3])
    def test_every_orbit_below_200_is_the_old_walk(self, d):
        # the loop OrbitRow.orbit ran before it read padic._orbit; at d = 3
        # the witness search walks padic._orbit itself
        for p in prime_range(3 if d == 2 else 5, 200):
            if d == 2:
                rows = orbit_table([p], 1, include_missing=True)
                orbits = {row.start // p: row.orbit for row in rows}
            else:
                orbits = {}
                for c in range(1, p):
                    if all(1 + c * p not in orbit for orbit in orbits.values()):
                        orbits[c] = tuple(sorted(1 + x * p for x in padic._orbit(c, 3, p)))
            members = set()
            for first, orbit in orbits.items():
                walked, c = [1 + first * p], first * d % p
                while c != first:
                    walked.append(1 + c * p)
                    c = c * d % p
                assert orbit == tuple(sorted(walked)), (p, first)
                members.update(walked)
            assert members == set(range(1 + p, p * p, p)), p


class TestWitnessObjects:
    def test_json_round_trip(self):
        w = witness_search(2, 3, 7, 6, 10)
        data = w.to_json_dict()
        assert set(data) == {"a", "d", "p", "n0", "t", "residue", "conditions", "qt"}
        assert data["qt"].count(",") == 12  # dense ascending integer list, degree 12
        again = BadApproxWitness.from_json_dict(json.loads(json.dumps(data)))
        # the JSON schema carries the primitive integer coefficients only, so
        # the normalization scale is not restored; everything else must match
        assert (again.a, again.d, again.p, again.n0, again.t, again.residue) == (
            w.a,
            w.d,
            w.p,
            w.n0,
            w.t,
            w.residue,
        )
        assert again.conditions == w.conditions
        assert again.qt.primitive == w.qt.primitive
        # a reloaded witness still revalidates from scratch
        assert revalidate_witness(again).passed

    def test_revalidation_from_scratch(self):
        w = witness_search(2, 2, 11, 8, 20)
        check = revalidate_witness(w)
        assert check.passed
        assert check.residue == w.residue

    def test_tampered_residue_rejected_on_revalidation(self):
        w = witness_search(2, 2, 11, 8, 20)
        data = w.to_json_dict()
        data["residue"] = (data["residue"] + 1) % (data["p"] ** 2)
        tampered = BadApproxWitness.from_json_dict(data)
        with pytest.raises(InvalidParameter, match="stored residue"):
            revalidate_witness(tampered)

    def test_tampered_polynomial_rejected_on_revalidation(self):
        w = witness_search(2, 2, 11, 8, 20)
        data = w.to_json_dict()
        head, _, tail = data["qt"].partition(",")
        data["qt"] = f"{int(head) + 1},{tail}"
        tampered = BadApproxWitness.from_json_dict(data)
        with pytest.raises(InvalidParameter, match="does not match"):
            revalidate_witness(tampered)

    def test_rescaled_polynomial_rejected_on_revalidation(self):
        # the stored q_t is compared scale included; the search's monic q_t
        # (scale 1/2 here) and the primitive one a saved file holds both pass
        w = witness_search(2, 3, 7, 2, 30)
        assert w.qt.scale == Fraction(1, 2)
        fields = w._values()[:-1]
        assert revalidate_witness(BadApproxWitness(*fields, w.qt.primitive)).passed
        for scale in (2, -1, Fraction(1, 3)):
            qt = w.qt.primitive * scale
            with pytest.raises(InvalidParameter, match="does not match"):
                revalidate_witness(BadApproxWitness(*fields, qt))

    def test_tampered_conditions_rejected_on_revalidation(self):
        w = witness_search(2, 2, 11, 8, 20)
        for conditions in ({"c1": False, "c2": False}, {}):
            data = {**w.to_json_dict(), "conditions": conditions}
            tampered = BadApproxWitness.from_json_dict(data)
            with pytest.raises(InvalidParameter, match="stored conditions"):
                revalidate_witness(tampered)

    def test_check_conditions_returns_the_witness(self):
        q9 = convergent_denominators(2, 9)[9]
        w = check_conditions(2, 2, 3, 2, 9, q9)
        assert isinstance(w, BadApproxWitness)
        assert (w.a, w.d, w.p, w.n0, w.t, w.residue) == (2, 2, 3, 2, 9, 7)
        assert w.qt is q9
        assert w.qt_value == poly_eval_mod(q9.int_coeffs(), 7, 9) == 0
        assert w.qt_derivative_at_1 == padic._at_1(q9)[1] % 3 != 0
        # the search and revalidation return the same record
        assert revalidate_witness(w) == w
        assert witness_search(2, 2, 3, 2, 9) == w

    def test_failing_search_hit_is_refused(self, monkeypatch):
        # a root-map hit that the full check rejects is never returned
        monkeypatch.setattr(padic, "poly_eval_mod", lambda *args: 1)
        with pytest.raises(InvalidParameter, match="conditions not all satisfied"):
            witness_search(2, 2, 3, 2, 9)


class TestHensel:
    def test_lift_at_m2_returns_seed_exponent(self):
        w = witness_search(2, 3, 7, 6, 10)
        demo = hensel_divisibility_demo(w, 2)
        assert demo.n == 2
        assert poly_eval_mod(w.qt.int_coeffs(), demo.exponent_residue, 49) == 0

    def test_lift_d2_mod_27(self):
        w = witness_search(2, 2, 11, 8, 20)
        demo = hensel_divisibility_demo(w, 3)
        assert demo.n == 1
        assert demo.lifted_root == 4
        assert demo.exponent_residue == pow(2, 2**demo.n, 27)
        assert poly_eval_mod(w.qt.int_coeffs(), demo.exponent_residue, 27) == 0

    def test_lift_deeper_modulus(self):
        w = witness_search(2, 3, 7, 6, 10)
        demo = hensel_divisibility_demo(w, 3)
        assert demo.exponent_residue == demo.lifted_root
        assert poly_eval_mod(w.qt.int_coeffs(), demo.exponent_residue, 343) == 0

    @staticmethod
    def fake_witness(qt_text: str) -> BadApproxWitness:
        return BadApproxWitness(
            a=2, d=2, p=7, n0=1, t=1, residue=8, conditions={},
            qt=poly_normalize_integer(RatPoly.from_text(qt_text)),
        )

    def test_lift_without_a_root_raises(self):
        # x^2 + 1 has no root mod 7, so no Newton step can reach one
        with pytest.raises(HypothesisFailed, match="Newton lift reached no root"):
            hensel_divisibility_demo(self.fake_witness("1, 0, 1"), 3)

    def test_lift_with_vanishing_derivative_raises(self):
        # (x - 1)^2 has derivative 2*(8 - 1) = 0 mod 7 at the residue 8
        with pytest.raises(HypothesisFailed, match="no Newton lift"):
            hensel_divisibility_demo(self.fake_witness("1, -2, 1"), 3)

    @staticmethod
    def digit_by_digit_lift(w: BadApproxWitness, m: int) -> int:
        # one p-adic digit per step: the unique c with q_t(root + c p^k) = 0
        # mod p^(k+1)
        coeffs, p = w.qt.int_coeffs(), w.p
        root = w.residue % p**2
        for k in range(2, m):
            digits = [c for c in range(p)
                      if poly_eval_mod(coeffs, root + c * p**k, p ** (k + 1)) == 0]
            assert len(digits) == 1, (k, digits)
            root += digits[0] * p**k
        return root

    @pytest.mark.parametrize("search", [(2, 3, 7, 6, 10), (2, 2, 11, 8, 20)])
    def test_newton_lift_matches_digit_by_digit_lift(self, search):
        w = witness_search(*search)
        for m in range(2, 13):
            assert padic._newton_lift(w, m) == self.digit_by_digit_lift(w, m), m
        assert hensel_divisibility_demo(w, 3).lifted_root == self.digit_by_digit_lift(w, 3)

    def test_walk_is_cut_at_the_step_limit(self, monkeypatch):
        # at m = 3 this witness reaches its lifted root after 24 steps
        w = witness_search(2, 3, 7, 6, 10)
        monkeypatch.setattr(padic, "HENSEL_STEP_LIMIT", 24)
        assert hensel_divisibility_demo(w, 3).n == w.n0 + 24
        monkeypatch.setattr(padic, "HENSEL_STEP_LIMIT", 23)
        with pytest.raises(SearchExhausted, match=r"^no exponent within cap 23 "):
            hensel_divisibility_demo(w, 3, cap=23)
        with pytest.raises(SearchExhausted, match=r"step limit 23 \(cap 196\)"):
            hensel_divisibility_demo(w, 3)

    def test_evaluation_check_raises(self, monkeypatch):
        w = witness_search(2, 3, 7, 6, 10)
        real = padic.poly_eval_mod
        calls = []

        def second_call_misses(q, r, m):
            # at m = 2 the lift check is the first evaluation, the demo's own
            # evaluation at the found exponent the second
            calls.append(r)
            return real(q, r, m) + (len(calls) == 2)

        monkeypatch.setattr(padic, "poly_eval_mod", second_call_misses)
        with pytest.raises(HypothesisFailed, match="not 0"):
            hensel_divisibility_demo(w, 2)


class TestOrbitTable:
    def test_small_primes_match_frozen_rows(self):
        rows = orbit_table([3, 5, 7], 200)
        got = {}
        for row in rows:
            got.setdefault(row.p, []).append((row.t, row.residue))
        assert got == FROZEN_TABLE_SMALL

    def test_enumerate_hits_lists_every_certified_pair(self):
        hits = enumerate_orbit_hits(7, 200)
        # the first-per-orbit rows are the earliest hits for their residues
        assert (41, 15) in hits
        assert (59, 43) in hits
        # later t serving the same orbit are certified pairs too
        assert (91, 43) in hits
        assert (187, 43) in hits
        # t=63 has 1-unit roots but q_63'(1) == 0 mod 7, so it must be absent
        assert not any(t == 63 for t, _ in hits)
        assert min(t for t, r in hits if r in {22, 36, 43}) == 59

    def test_p3_orbit_and_classes(self):
        row = orbit_table([3], 50)[0]
        assert row.orbit == (4, 7)
        assert row.classes_of(row.orbit) == (2, 4)

    def test_csv_shape(self, capsys):
        # the CLI lays out the table's CSV
        assert main(["table", "--primes", "3,5", "--t-bound", "50", "--output", "csv",
                     "--no-timestamp"]) == 0
        lines = capsys.readouterr().out.splitlines(keepends=True)
        assert all(line.endswith("\n") and line.count("\n") == 1 for line in lines)
        lines = [line.rstrip("\n") for line in lines]
        assert lines[0] == "p,t,residue,a_classes"
        assert lines[1] == "3,9,7,+-2 +-4"

    def test_a_prime_listed_twice_is_walked_once(self, monkeypatch):
        walked = []
        orbit_rows = padic._orbit_rows

        def recording(at_1, p, *rest):
            walked.append(p)
            return orbit_rows(at_1, p, *rest)

        monkeypatch.setattr(padic, "_orbit_rows", recording)
        rows = orbit_table([7, 5, 7], 60, include_missing=True)
        assert walked == [7, 5]
        once = {p: orbit_table([p], 60, include_missing=True) for p in (5, 7)}
        listed = [*once[7], *once[5], *once[7]]
        assert rows == sorted(listed, key=lambda r: (r.p, r.t if r.t is not None else 10**9))

    @pytest.mark.parametrize("include_missing", [False, True])
    def test_walks_only_the_orbits_it_returns(self, monkeypatch, include_missing):
        steps = collections.Counter()
        orbit = padic._orbit

        def counting(c, d, p):
            for x in orbit(c, d, p):
                steps[p, x] += 1
                yield x

        primes = list(prime_range(3, 2000))
        monkeypatch.setattr(padic, "_orbit", counting)
        rows = orbit_table(primes, 200, include_missing=include_missing)
        monkeypatch.setattr(padic, "_orbit", orbit)
        members = collections.Counter((r.p, m // r.p) for r in rows for m in r.orbit)
        assert steps == members
        if include_missing:
            assert steps == {(p, c): 1 for p in primes for c in range(1, p)}

    def test_include_missing_marks_row(self):
        rows = orbit_table([3], 5, include_missing=True)
        assert any(row.t is None for row in rows)

    def test_invalid_prime_rejected(self):
        with pytest.raises(InvalidParameter):
            orbit_table([3, 9], 10)

    def test_prime_above_the_bound_is_refused_before_any_walk(self, monkeypatch):
        monkeypatch.setattr(padic, "_orbit_rows", None)  # a walk would raise TypeError
        assert padic.TABLE_PRIME_BOUND == 10_000
        with pytest.raises(InvalidParameter, match="must not exceed 10000, got 10007"):
            orbit_table([3, 10007], 10)


class TestOrbitTableOracle:
    """orbit_table against the direct route: each orbit of x -> x^2 on the
    nontrivial 1-units, scanned t by t with poly_eval_mod."""

    @staticmethod
    def scan_orbits(primes, t_bound, include_missing):
        denominators = convergent_denominators(2, t_bound)
        rows = []
        for p in primes:
            p2 = p * p
            usable = [
                (t, qt.int_coeffs()) for t, qt in enumerate(denominators)
                if t >= 1
                and qt.scale.numerator % p and qt.scale.denominator % p
                and poly_eval_mod(derivative_map(qt.int_coeffs()), 1, p)
            ]
            seen = set()
            for start in range(1 + p, p2, p):
                orbit = []
                x = start
                while x not in seen:
                    seen.add(x)
                    orbit.append(x)
                    x = pow(x, 2, p2)
                if not orbit:
                    continue
                hit = (None, None)
                for t, coeffs in usable:
                    roots = [e for e in orbit if poly_eval_mod(coeffs, e, p2) == 0]
                    if roots:
                        hit = (t, min(roots))
                        break
                if hit[0] is not None or include_missing:
                    classes = tuple(sorted(min(e, p2 - e) for e in orbit))
                    rows.append((p, *hit, tuple(sorted(orbit)), classes))
        rows.sort(key=lambda r: (r[0], r[1] if r[1] is not None else 10**9))
        return rows

    @pytest.mark.parametrize("include_missing", [False, True])
    @pytest.mark.parametrize("primes, t_bound", [
        (list(prime_range(3, 44)), 120),
        ([113], 200),
    ])
    def test_rows_match_a_per_orbit_scan(self, primes, t_bound, include_missing):
        rows = orbit_table(primes, t_bound, include_missing=include_missing)
        got = [(r.p, r.t, r.residue, r.orbit, r.classes_of(r.orbit)) for r in rows]
        assert got == self.scan_orbits(primes, t_bound, include_missing)


class TestOrbitHitsOracle:
    """The root map ``_roots``, which solves the first-order congruence,
    against the scan it replaced: every usable q_t evaluated at every
    nontrivial 1-unit, one dot product with a table of the residue's powers
    each.  enumerate_orbit_hits lists the d = 2 map; the witness search reads
    the d = 3 one."""

    @staticmethod
    def scan_hits(p, t_bound, d):
        p2 = p * p
        usable = [
            (t, qt.int_coeffs()) for t, qt in enumerate(convergent_denominators(d, t_bound))
            if t >= 1 and (d == 2 or t % 2 == 0)
            and qt.scale.numerator % p and qt.scale.denominator % p
            and poly_eval_mod(derivative_map(qt.int_coeffs()), 1, p)
        ]
        top = max((max(coeffs) for _, coeffs in usable), default=0)
        hits = []
        for e in range(1 + p, p2, p):
            powers = [1] * (top + 1)
            for k in range(1, top + 1):
                powers[k] = powers[k - 1] * e % p2
            hits += [(t, e) for t, coeffs in usable
                     if sum(c * powers[deg] for deg, c in coeffs.items()) % p2 == 0]
        return sorted(hits)

    @pytest.mark.parametrize("d, primes", [
        (2, [*prime_range(3, 50), 67, 101]),
        (3, [*prime_range(5, 50), 71, 97]),
    ])
    def test_hits_match_the_dot_product_scan(self, d, primes):
        at_1 = [padic._at_1(qt) for qt in convergent_denominators(d, 200)]
        found = 0
        for p in primes:
            hits = padic._roots(at_1, p, d, 200)[0]
            assert hits == self.scan_hits(p, 200, d), p
            if d == 2:
                assert enumerate_orbit_hits(p, 200) == hits
            found += len(hits)
        assert found > 20

    def test_first_order_taylor_rule(self):
        # q(1 + cp) = q(1) + cp q'(1) mod p^2 for an integer polynomial q
        for d in (2, 3):
            for t, qt in enumerate(convergent_denominators(d, 60)):
                coeffs = qt.int_coeffs()
                value, slope = sum(coeffs.values()), sum(derivative_map(coeffs).values())
                for p in (3, 5, 7, 11, 13):
                    for c in range(p):
                        e = 1 + c * p
                        expected = (value + c * p * slope) % (p * p)
                        assert poly_eval_mod(coeffs, e, p * p) == expected, (d, t, p, c)
