"""Certified evaluation, real continued fractions, irrationality witnesses."""

import json
from fractions import Fraction

import pytest

import mahlercf.approx as approx
from mahlercf.approx import (
    DECIMAL_DIGITS_CAP,
    CertifiedValue,
    eval_mahler,
    irrationality_witness,
    partial_product_value,
    real_cf_prefix,
)
from mahlercf.cli import main
from mahlercf.errors import InvalidParameter


class TestCertifiedValue:
    def test_interval_is_symmetric_around_value(self):
        cv = CertifiedValue(value=Fraction(1, 3), error_bound=Fraction(1, 100))
        low, high = cv.interval()
        assert low == Fraction(1, 3) - Fraction(1, 100)
        assert high == Fraction(1, 3) + Fraction(1, 100)

    def test_json_shape(self, capsys):
        # the CLI lays out the value's JSON from the record fields
        assert main(["eval", "--a", "2", "--d", "2", "--eps", "1e-6", "--output", "json",
                     "--no-timestamp"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert set(data) == {"value", "error_bound", "decimal", "target"}
        assert data["value"] == "752014125/2147483648"
        assert data["error_bound"] == "1/2147483648"
        assert data["decimal"].endswith("…")
        assert data["target"] == "f_2(2)"

    def test_decimal_prefix(self):
        # error bound 2^-31 <= 10^-9 / 2 pins nine places
        cv = eval_mahler(2, 2, Fraction(1, 10**6))
        assert cv.certified_digits() == 9
        assert cv.decimal() == "0.350183865…"

    def test_decimal_cap(self):
        exact = CertifiedValue(value=Fraction(-1, 3), error_bound=Fraction(0))
        assert exact.certified_digits() == DECIMAL_DIGITS_CAP == 30
        assert exact.decimal() == "-0." + "3" * 30 + "…"
        wide = CertifiedValue(value=Fraction(7, 3), error_bound=Fraction(1))
        assert wide.certified_digits() == 0
        assert wide.decimal() == "2.3…"


class TestEvalMahler:
    def test_f2_at_2_exact_value(self):
        cv = eval_mahler(2, 2, Fraction(1, 10**6))
        assert cv.value == Fraction(752014125, 2**31)
        assert cv.error_bound == Fraction(1, 2**31)

    def test_partial_product_value(self):
        assert partial_product_value(2, 2, 3) == Fraction(11475, 2**15)

    def test_minimal_depth_bound(self):
        # for a=2, d=4 the first tail bound below 1e-10 is 2/2^(4^3)
        cv = eval_mahler(2, 4, Fraction(1, 10**10))
        assert cv.error_bound == Fraction(2, 2**64)

    def test_tail_bound_honest(self):
        # the certified interval at a looser precision contains the value
        # computed at a much tighter one
        rough = eval_mahler(2, 2, Fraction(1, 10**3))
        fine = eval_mahler(2, 2, Fraction(1, 10**30))
        low, high = rough.interval()
        assert low <= fine.value <= high
        assert fine.error_bound < rough.error_bound

    def test_g_variant_scales_by_power_of_a(self):
        f = eval_mahler(2, 3, Fraction(1, 10**6), which="F")
        g = eval_mahler(2, 3, Fraction(1, 10**6), which="G")
        assert g.value == f.value / 2 ** (3 - 1)
        assert g.error_bound == f.error_bound / 2 ** (3 - 1)

    def test_cli_labels_the_value_by_its_function(self, capsys):
        # the label is layout: the CLI builds it from --which, --d and --a
        assert main(["eval", "--a", "2", "--d", "3", "--which", "G", "--eps", "1e-6"]) == 0
        assert capsys.readouterr().out.startswith("g_3(2) = ")

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameter):
            eval_mahler(1, 2, Fraction(1, 100))
        with pytest.raises(InvalidParameter):
            eval_mahler(2, 1, Fraction(1, 100))
        with pytest.raises(InvalidParameter):
            eval_mahler(2, 2, Fraction(0))
        with pytest.raises(InvalidParameter):
            eval_mahler(2, 2, Fraction(1, 100), which="Z")

    def test_the_bit_bound_reads_the_chosen_tail(self, monkeypatch):
        # eps = 1e-6 at a = d = 2 stops at the tail denominator 2^32: 32 bits
        eps = Fraction(1, 10**6)
        monkeypatch.setattr(approx, "TAIL_BITS_BOUND", 32)
        assert eval_mahler(2, 2, eps).error_bound == Fraction(1, 2**31)
        monkeypatch.setattr(approx, "TAIL_BITS_BOUND", 31)
        with pytest.raises(InvalidParameter, match="2\\^32 would pass 31 bits"):
            eval_mahler(2, 2, eps)
        # the tail denominator of g_2 carries the extra factor a^{d-1} = 2
        with pytest.raises(InvalidParameter, match="2\\^33 would pass 31 bits"):
            eval_mahler(2, 2, eps / 4, which="G")

    @pytest.mark.parametrize("a, d, which", [(2, 2, "F"), (3, 3, "G"), (10, 3, "F")])
    def test_eps_down_to_1e_100000_is_within_the_bit_bound_at_d_up_to_3(self, a, d, which):
        eps = Fraction(1, 10**100000)
        assert eval_mahler(a, d, eps, which).error_bound <= eps


class TestRealCFPrefix:
    def test_f2_at_2_prefix(self):
        cv = eval_mahler(2, 2, Fraction(1, 10**24))
        assert real_cf_prefix(cv, 10) == [0, 2, 1, 5, 1, 12, 1, 2, 1, 19]

    def test_exact_rational_terminates_canonically(self):
        cv = CertifiedValue(value=Fraction(7, 3), error_bound=Fraction(0))
        assert real_cf_prefix(cv, 10) == [2, 3]

    def test_wide_interval_stops_early(self):
        wide = CertifiedValue(
            value=Fraction(752014125, 2**31),
            error_bound=Fraction(1, 100),
        )
        prefix = real_cf_prefix(wide, 10)
        assert len(prefix) < 10
        assert prefix == [0, 2, 1]


class TestIrrationalityWitness:
    def test_d4_exponent_exactly_three(self):
        rep = irrationality_witness(2, 4, 3)
        assert [s.exponent_64ths for s in rep.samples] == [192, 192, 192, 192]
        assert rep.samples[0].exponent_decimal() == "3.000"
        assert rep.exponent_at_least(Fraction(3))
        assert not rep.exponent_at_least(Fraction(25, 8))

    def test_d5_exponent_decreases_to_four(self):
        rep = irrationality_witness(3, 5, 3)
        assert [s.exponent_64ths for s in rep.samples] == [279, 259, 256, 256]
        assert [s.exponent_decimal() for s in rep.samples[:2]] == ["4.359", "4.046"]
        assert rep.exponent_at_least(Fraction(7, 2))

    def test_error_upper_matches_tail_bound(self):
        rep = irrationality_witness(2, 4, 2)
        for s in rep.samples:
            assert s.error_upper <= Fraction(2, 2 ** (4 ** (s.k + 1)))

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidParameter):
            irrationality_witness(2, 3, 3)
        with pytest.raises(InvalidParameter):
            irrationality_witness(1, 4, 3)

