"""Command-line interface: subcommands, output formats, exit codes."""

import contextlib
import gc
import hashlib
import io
import json
import re
import shutil
import subprocess
import sys
import time
from decimal import Decimal
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from mahlercf import cli, structure
from mahlercf.approx import TAIL_BITS_BOUND
from mahlercf.cli import main
from mahlercf.padic import N0_BOUND, P_BITS_BOUND, TABLE_PRIME_BOUND
from mahlercf.contfrac import CFExpansion, expand_family
from mahlercf.errors import ClassificationFailure, MismatchAt


def run_cli(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse error paths exit instead of returning
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCF:
    def test_text_output_lists_quotients_and_betas(self, capsys):
        code, out, _ = run_cli(capsys, ["cf", "--d", "2", "--kind", "G", "--n", "3"])
        assert code == 0
        assert "a_0 = 0" in out
        assert "a_1 = x + 1" in out
        assert "qhat_2 = x^2 + 1   beta_2 = 2" in out

    def test_json_output_schema(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["cf", "--d", "3", "--kind", "G", "--n", "4", "--output", "json",
             "--no-timestamp"],
        )
        assert code == 0
        data = json.loads(out)
        assert set(data) == {"a", "convergents", "betas"}
        assert len(data["convergents"]) == 5  # indices 0..4
        assert data["betas"] == ["2", "-1/2", "-1/2"]  # beta_2..beta_4

    def test_shape_violation_exits_2(self, capsys):
        code, _, err = run_cli(capsys, ["cf", "--d", "4", "--kind", "G", "--n", "10"])
        assert code == 2
        assert "shape violated at index 6" in err

    def test_start_beyond_the_depth_cap_names_depth_and_cap(self, capsys):
        # the default floor for n = 600 is -2416, past the 2000 cap
        code, out, err = run_cli(capsys, ["cf", "--d", "2", "--n", "600"])
        assert (code, out) == (3, "")
        assert err == (
            "precision exhausted: starting depth 2416 for G_2 with n=600 already "
            "exceeds the depth cap 2000\n"
        )

    @pytest.mark.parametrize("argv, start, family, n", [
        (["cf", "--d", "2", "--n", "497"], 2004, "G_2", 497),
        (["cf", "--d", "3", "--n", "331"], 2002, "G_3", 331),
        (["witness", "--a", "2", "--d", "2", "--t-bound", "497"], 2004, "G_2", 497),
    ])
    def test_first_count_past_the_reach_exits_3(self, capsys, argv, start, family, n):
        # the cap check reads the default floor's depth 2*n*d + 16, not the
        # certificate depth n*d + 16 that an expansion tries first
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (3, "")
        assert err == (
            f"precision exhausted: starting depth {start} for {family} with n={n} already "
            "exceeds the depth cap 2000\n"
        )

    def test_depth_past_the_hard_cap_exits_4(self, capsys):
        code, out, err = run_cli(capsys, ["cf", "--d", "2", "--n", "2001"])
        assert (code, out) == (4, "")
        assert err == "invalid input: depth 2001 exceeds hard cap 2000\n"

    def test_one_quotient_of_g_exits_4(self, capsys):
        # the betas of --kind G need a_1 and a_2; the other kinds print one quotient
        code, out, err = run_cli(capsys, ["cf", "--d", "2", "--n", "1"])
        assert (code, out) == (4, "")
        assert err == "invalid input: need at least two quotients, got n=1\n"
        code, out, err = run_cli(capsys, ["cf", "--d", "2", "--n", "1", "--kind", "F"])
        assert (code, err) == (0, "")
        assert out.startswith("continued fraction of f_2, 1 quotients")

    def test_rejects_d_below_2(self, capsys):
        code, _, err = run_cli(capsys, ["cf", "--d", "1", "--kind", "G", "--n", "3"])
        assert code == 4

    def test_floor_with_kind_g_is_ignored_with_a_note(self, capsys):
        argv = ["cf", "--d", "2", "--kind", "G", "--n", "5"]
        code, out, err = run_cli(capsys, argv)
        floored_code, floored_out, floored_err = run_cli(capsys, argv + ["--floor", "-8"])
        assert (floored_code, floored_out) == (code, out) and code == 0
        assert err == ""
        assert floored_err == (
            "note: --floor is ignored for --kind G, which expands from the default floor\n"
        )

    def test_deep_floor_certifies_at_local_cost(self, capsys):
        # each convergent is divided down to its own floor, not to -2000
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, ["cf", "--d", "2", "--n", "30", "--kind", "F",
                                        "--floor", "-2000"])
        assert code == 0
        assert out.startswith("continued fraction of f_2, 30 quotients")
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("argv, sha256", [
        (["cf", "--d", "2", "--kind", "H", "--n", "900", "--floor", "-1816"],
         "e6e38b292991f0c6d76a3df5131adc546471c10822ae282f10e5c978933b20ba"),
        (["cf", "--d", "2", "--kind", "U", "--n", "400"],
         "3b8bc20e1a16cf321cc3d78f63744b39bd85ec28e757aed51e658162e099f2cd"),
    ], ids=["H-900", "U-400"])
    def test_deep_certification_corners(self, capsys, argv, sha256):
        # the hashes were recorded from the soundness check that divided each
        # convergent, which took 77 s and 8.8 s end to end on these argv
        # (2-core Xeon, Python 3.11.7); the residual check takes about 1 s
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, argv)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_coefficients_past_the_int_to_str_digit_limit_print_exactly(self, child_env):
        # the convergents of u_2 at n = 403 have coefficients past the
        # interpreter's 4300-digit limit for int <-> str; every coefficient
        # printed must read back as the library's coefficient in lowest terms
        def exact_int(text):
            return int(text) if len(text) < 4300 else int(Decimal(text))

        proc = subprocess.Popen(
            [sys.executable, "-m", "mahlercf.cli", "cf", "--d", "2", "--kind", "U", "--n", "403",
             "--output", "json", "--no-timestamp"],
            stdout=subprocess.PIPE, text=True, env=child_env,
        )
        cf, _ = expand_family(2, "U", 403)
        polys = [*cf.partial_quotients, *(poly for c in cf.convergents for poly in (c.p, c.q))]
        expected = ([(deg, c.numerator, c.denominator) for deg, c in sorted(poly.coeffs.items())]
                    for poly in polys)
        term = re.compile(r' *"(\d+)": "(-?\d+)(?:/(\d+))?",?\n')
        printed, widest = None, 0
        try:
            for line in proc.stdout:
                if line.lstrip().startswith('"coeffs"'):
                    if printed is not None:
                        assert printed == next(expected)
                    printed = []
                elif match := term.fullmatch(line):
                    deg, num, den = match.groups()
                    printed.append((int(deg), exact_int(num), exact_int(den or "1")))
                    widest = max(widest, len(num), len(den or ""))
        finally:
            proc.stdout.close()
            code = proc.wait(timeout=120)
        assert code == 0
        assert printed == next(expected)
        assert next(expected, None) is None
        assert widest > 4300


class TestVerify:
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--identity", "lemma5", "--d", "3", "--k", "0..10"],
            ["verify", "--identity", "prop2", "--d", "3", "--k", "0..8"],
            ["verify", "--identity", "prop_sum3", "--d", "3", "--k", "0..8"],
            ["verify", "--identity", "prop_bk", "--d", "3", "--k", "0..8"],
            ["verify", "--identity", "theorem1", "--m", "0..20"],
            ["verify", "--identity", "funceq", "--d", "5", "--floor", "64"],
        ],
    )
    def test_identities_pass(self, capsys, argv):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0
        assert ": pass" in out

    def test_funceq_floor_past_the_bound_exits_4_quickly(self, capsys):
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["verify", "--identity", "funceq", "--floor", "1000000"])
        assert (code, out) == (4, "")
        assert "-100000" in err
        assert time.perf_counter() - start < 2

    def test_funceq_floor_within_the_bound_still_verifies(self, capsys):
        code, out, _ = run_cli(capsys, ["verify", "--identity", "funceq", "--floor", "8000"])
        assert code == 0
        assert out == "identity funceq (d=2, range (0, 8000)): pass\n"

    def test_bzz_json_report(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["verify", "--identity", "bzz", "--n", "60", "--output", "json",
             "--no-timestamp"],
        )
        assert code == 0
        assert json.loads(out) == {
            "identity": "bzz",
            "d": 2,
            "range": [2, 60],
            "status": "pass",
            "failures": [],
        }

    def test_bzz_rejects_other_d(self, capsys):
        code, _, err = run_cli(capsys, ["verify", "--identity", "bzz", "--d", "3"])
        assert code == 4
        assert "d=2" in err

    def test_unknown_identity_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["verify", "--identity", "nope"])
        assert code == 4

    @pytest.mark.parametrize("k, message", [
        ("5..2", "empty range '5..2'"),
        ("1-5", "expected A..B, got '1-5'"),
    ])
    def test_malformed_k_range_is_usage_error(self, capsys, k, message):
        code, out, err = run_cli(capsys, ["verify", "--identity", "prop2", "--k", k])
        assert (code, out) == (4, "")
        assert f"argument --k: {message}" in err

    def test_library_error_no_other_clause_catches_exits_1(self, capsys, monkeypatch):
        def failing(d, m_max):
            raise ClassificationFailure(3, "q_3 matches no shape")

        monkeypatch.setattr(structure, "classify_all", failing)
        code, out, err = run_cli(capsys, ["verify", "--identity", "theorem1"])
        assert (code, out, err) == (1, "", "error: q_3 matches no shape\n")

    def test_failed_funceq_reports_the_mismatch_degree(self, capsys, monkeypatch):
        def mismatch(d, floor):
            raise MismatchAt(-5)

        monkeypatch.setattr(structure, "verify_functional_equations", mismatch)
        code, out, err = run_cli(capsys, ["verify", "--identity", "funceq", "--output", "json",
                                          "--no-timestamp"])
        assert (code, err) == (1, "")
        assert json.loads(out) == {"identity": "funceq", "d": 2, "range": [0, 200],
                                   "status": "fail", "failures": [{"degree": -5}]}

    def test_failed_identity_exits_1_listing_each_failure(self, capsys, monkeypatch):
        beta = CFExpansion.beta
        monkeypatch.setattr(
            CFExpansion, "beta", lambda self, n: beta(self, n) + (1 if n == 14 else 0)
        )
        code, out, err = run_cli(capsys, ["verify", "--identity", "prop2", "--k", "0..4"])
        assert (code, err) == (1, "")
        assert out == (
            "identity prop2 (d=3, range (0, 4)): fail\n"
            "  failure: {'k': 2, 'lhs': '-13/7', 'rhs': '-2'}\n"
        )


class TestWitness:
    def test_default_bounds_find_first_witness(self, capsys):
        code, out, _ = run_cli(capsys, ["witness", "--a", "2", "--d", "3"])
        assert code == 0
        assert "p=7, n0=1, t=24, residue=8" in out

    def test_bounded_search_matches_fixture(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["witness", "--a", "2", "--d", "3", "--p-bound", "7",
             "--n0-bound", "6", "--t-bound", "10"],
        )
        assert code == 0
        assert "p=7, n0=2, t=8, residue=22" in out
        assert "'c4': True" in out

    def test_neither_a_and_d_nor_replay_exits_4(self, capsys):
        code, out, err = run_cli(capsys, ["witness"])
        assert (code, out) == (4, "")
        assert err == "invalid input: witness requires --a and --d (or --replay FILE)\n"

    def test_exhausted_bounds_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["witness", "--a", "2", "--d", "2", "--p-bound", "3",
             "--n0-bound", "1", "--t-bound", "4"],
        )
        assert code == 1
        assert "no witness found" in out

    def test_invalid_bounds_exit_4(self, capsys):
        code, _, err = run_cli(
            capsys, ["witness", "--a", "2", "--d", "2", "--p-bound", "2"]
        )
        assert code == 4
        assert "p_bound" in err

    def test_save_and_replay_round_trip(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        code, out, _ = run_cli(
            capsys,
            ["witness", "--a", "2", "--d", "3", "--save", str(path),
             "--no-timestamp"],
        )
        assert code == 0
        assert f"--replay {path}" in out
        stored = json.loads(path.read_text())
        assert set(stored) == {"a", "d", "p", "n0", "t", "residue", "conditions", "qt"}

        code, out, _ = run_cli(capsys, ["witness", "--replay", str(path)])
        assert code == 0
        assert "valid" in out

    def test_tampered_replay_exit_4(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        run_cli(
            capsys,
            ["witness", "--a", "2", "--d", "3", "--save", str(path),
             "--no-timestamp"],
        )
        stored = json.loads(path.read_text())
        stored["residue"] += 1
        path.write_text(json.dumps(stored))
        code, _, err = run_cli(capsys, ["witness", "--replay", str(path)])
        assert code == 4
        assert "stored residue" in err

        malformed = [
            [stored],
            {"a": 2},
            dict(stored, a="2"),
            dict(stored, t=8.5),
            dict(stored, conditions=[]),
            dict(stored, qt=[1, 2]),
            dict(stored, qt="0"),
        ]
        for payload in malformed:
            path.write_text(json.dumps(payload))
            code, _, err = run_cli(capsys, ["witness", "--replay", str(path)])
            assert code == 4, payload
            assert err.startswith("invalid input: witness"), err

        path.write_text(json.dumps(dict(stored, p=0)))
        code, _, err = run_cli(capsys, ["witness", "--replay", str(path)])
        assert code == 4
        assert err == "invalid input: need p >= 1, got 0\n"

    @pytest.mark.parametrize(
        "rescale",
        [lambda c: 2 * c, lambda c: -c, lambda c: Fraction(c, 3)],
        ids=["doubled", "negated", "thirds"],
    )
    def test_replay_with_a_rescaled_qt_exit_4(self, capsys, tmp_path, rescale):
        # qt holds the primitive integer coefficients of q_t, its scale included
        path = tmp_path / "witness.json"
        run_cli(capsys, ["witness", "--a", "2", "--d", "3", "--save", str(path),
                         "--no-timestamp"])
        stored = json.loads(path.read_text())
        stored["qt"] = ",".join(str(rescale(int(c))) for c in stored["qt"].split(","))
        path.write_text(json.dumps(stored))
        code, out, err = run_cli(capsys, ["witness", "--replay", str(path)])
        assert code == 4
        assert out == ""
        assert err.startswith("invalid input: witness qt"), err

    @pytest.mark.parametrize(
        "conditions",
        [
            {"c1": False, "c2": False},
            {},
            # verdicts that are not JSON booleans are refused, not coerced
            {"c1": "false", "c2": True, "c3": True, "c4": True},
            {"c1": 1, "c2": 1, "c3": 1, "c4": 1},
        ],
        ids=str,
    )
    def test_replay_with_wrong_conditions_exit_4(self, capsys, tmp_path, conditions):
        path = tmp_path / "witness.json"
        run_cli(capsys, ["witness", "--a", "2", "--d", "3", "--save", str(path)])
        stored = json.loads(path.read_text())
        path.write_text(json.dumps(dict(stored, conditions=conditions)))
        code, out, err = run_cli(capsys, ["witness", "--replay", str(path)])
        assert (code, out) == (4, "")
        not_bools = [key for key, verdict in conditions.items() if type(verdict) is not bool]
        if not_bools:
            assert err == f"invalid input: witness conditions {not_bools} must be booleans\n"
        else:
            assert err == (
                f"invalid input: stored conditions {conditions} != recomputed "
                "{'c1': True, 'c2': True, 'c3': True, 'c4': True}\n"
            )

    def test_replay_of_a_witness_moved_to_another_a_exits_4(self, capsys, tmp_path):
        # every stored field parses, but the conditions do not hold for a = 3
        path = tmp_path / "witness.json"
        code, _, _ = run_cli(capsys, ["witness", "--a", "2", "--d", "2", "--save", str(path)])
        assert code == 0
        stored = json.loads(path.read_text())
        path.write_text(json.dumps(dict(stored, a=3)))
        code, out, err = run_cli(capsys, ["witness", "--replay", str(path)])
        assert (code, out) == (4, "")
        assert err == ("invalid input: witness fails revalidation: "
                       "{'c1': False, 'c2': True, 'c3': False, 'c4': True}\n")

    def test_threads_flag_matches_serial(self, capsys, monkeypatch):
        argv = ["witness", "--a", "2", "--d", "2", "--p-bound", "11", "--n0-bound", "8",
                "--t-bound", "20"]
        serial = run_cli(capsys, argv)
        assert serial[0] == 0
        assert run_cli(capsys, argv + ["--threads", "2"]) == serial
        monkeypatch.setenv("MAHLERCF_THREADS", "2")
        assert run_cli(capsys, argv) == serial

    def test_replay_with_a_d_outside_2_3_exits_4_before_expansion(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        run_cli(capsys, ["witness", "--a", "2", "--d", "3", "--save", str(path)])
        stored = json.loads(path.read_text())
        path.write_text(json.dumps(dict(stored, d=4, t=200)))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["witness", "--replay", str(path)])
        assert time.perf_counter() - start < 2
        assert (code, out) == (4, "")
        assert err == "invalid input: certificates exist for d in {2, 3}, got 4\n"

    def test_n0_bound_past_the_limit_exits_4(self, capsys):
        code, out, err = run_cli(
            capsys, ["witness", "--a", "2", "--d", "2", "--n0-bound", str(N0_BOUND + 1)]
        )
        assert (code, out) == (4, "")
        assert err == f"invalid input: n0 bound must not exceed {N0_BOUND}, got {N0_BOUND + 1}\n"
        # the bound itself is a valid search bound
        code, out, _ = run_cli(
            capsys, ["witness", "--a", "2", "--d", "2", "--p-bound", "3",
                     "--n0-bound", str(N0_BOUND), "--t-bound", "18"]
        )
        assert code == 0
        assert "p=3, n0=1, t=18" in out

    def test_search_to_both_bounds_exits_1_quickly(self, capsys):
        # about 1228 primes, each walking at most one orbit of c -> 2c mod p;
        # the end-to-end run takes 0.09 s on a 2-core Xeon (Python 3.11.7)
        start = time.process_time()
        code, out, _ = run_cli(capsys, ["witness", "--a", "2", "--d", "2",
                                        "--p-bound", str(TABLE_PRIME_BOUND),
                                        "--n0-bound", str(N0_BOUND), "--t-bound", "1"])
        assert time.process_time() - start < 0.3
        assert code == 1
        assert "'primes_considered': 1228," in out

    def test_p_bound_past_the_limit_exits_4(self, capsys):
        code, out, err = run_cli(capsys, ["witness", "--a", "2", "--d", "2",
                                          "--p-bound", str(TABLE_PRIME_BOUND + 1)])
        assert (code, out) == (4, "")
        assert err == (f"invalid input: p bound must not exceed {TABLE_PRIME_BOUND}, "
                       f"got {TABLE_PRIME_BOUND + 1}\n")

    @pytest.mark.parametrize("flag", ["--p-bound", "--n0-bound", "--t-bound"])
    def test_nonpositive_bounds_exit_4_with_the_library_message(self, capsys, flag):
        code, out, err = run_cli(capsys, ["witness", "--a", "2", "--d", "2", flag, "0"])
        assert (code, out) == (4, "")
        assert err == "invalid input: all search bounds must be positive (p_bound >= 3)\n"

    def test_replay_with_n0_past_the_bound_exits_4(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        run_cli(capsys, ["witness", "--a", "2", "--d", "3", "--save", str(path)])
        stored = json.loads(path.read_text())
        path.write_text(json.dumps(dict(stored, n0=10**9)))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["witness", "--replay", str(path)])
        assert time.perf_counter() - start < 2
        assert (code, out) == (4, "")
        assert err == f"invalid input: n0 must not exceed {N0_BOUND}, got {10**9}\n"

    def test_replay_with_p_past_the_bit_bound_exits_4(self, capsys, tmp_path):
        path = tmp_path / "witness.json"
        run_cli(capsys, ["witness", "--a", "2", "--d", "3", "--save", str(path)])
        stored = json.loads(path.read_text())
        path.write_text(json.dumps(dict(stored, p=10**4000 + 1)))
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["witness", "--replay", str(path)])
        assert time.perf_counter() - start < 2
        assert (code, out) == (4, "")
        assert err == f"invalid input: p must not exceed {P_BITS_BOUND} bits, got 13288\n"

    def test_missing_replay_file_exit_4(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, ["witness", "--replay", str(tmp_path / "absent.json")]
        )
        assert code == 4
        assert "i/o error" in err

    @pytest.mark.parametrize(
        "content",
        [
            b"[" * 100_000 + b"]" * 100_000,
            b'{"a": ' * 50_000 + b"1" + b"}" * 50_000,
            b"\xff\xfe{",
            b'{"p": ' + b"1" * 5001 + b"}",
        ],
        ids=["nested-arrays", "nested-objects", "not-utf8", "p-past-the-digit-limit"],
    )
    def test_unreadable_replay_file_exits_4(self, capsys, tmp_path, content):
        # too deep for the parser, not UTF-8, or an integer past the
        # interpreter's 4300-digit limit: bad input, not a traceback
        path = tmp_path / "witness.json"
        path.write_bytes(content)
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["witness", "--replay", str(path)])
        assert time.perf_counter() - start < 2
        assert (code, out) == (4, "")
        assert err.startswith(f"invalid input: unreadable witness file {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("qt, message", [
        ("", "empty polynomial text"),
        ("1, x", "bad polynomial text '1, x': Invalid literal for Fraction: 'x'"),
        ("1/0", "bad polynomial text '1/0': Fraction(1, 0)"),
        ("1,,2", "bad polynomial text '1,,2': Invalid literal for Fraction: ''"),
    ], ids=["empty", "not-a-number", "zero-denominator", "empty-entry"])
    def test_unparsable_replay_qt_exits_4(self, capsys, tmp_path, qt, message):
        path = tmp_path / "witness.json"
        conditions = {"c1": True, "c2": True, "c3": True, "c4": True}
        path.write_text(json.dumps({"a": 2, "d": 3, "p": 7, "n0": 1, "t": 24, "residue": 8,
                                    "conditions": conditions, "qt": qt}))
        code, out, err = run_cli(capsys, ["witness", "--replay", str(path)])
        assert (code, out, err) == (4, "", f"invalid input: {message}\n")


class TestTable:
    def test_csv_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["table", "--d", "2", "--primes", "3,5", "--output", "csv",
             "--no-timestamp"],
        )
        assert code == 0
        assert out == (
            "p,t,residue,a_classes\n"
            "3,9,7,+-2 +-4\n"
            "5,11,11,+-4 +-6 +-9 +-11\n"
        )

    @pytest.mark.parametrize("output, sha256", [
        ("text", "37b244d8d66755d61d3469569e2efcadbcb4741ee2be17dd293e61578a67fe5c"),
        ("csv", "e2ac59db418887b1beec6e73b607d4f1325b9c724e57b7019264b5488f7c4c6f"),
        ("json", "dfdfd57feaedac728281665c7faca0b48813a12cf9eefd3acd8f86054d9ad3df"),
    ], ids=["text", "csv", "json"])
    def test_table_at_the_prime_bound_keeps_its_bytes(self, capsys, output, sha256):
        # every prime up to TABLE_PRIME_BOUND, in each layout, byte for byte
        code, out, err = run_cli(capsys, ["table", "--d", "2", "--p-max", "10000",
                                          "--no-timestamp", "--output", output])
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == sha256

    def test_a_repeated_prime_interleaves_its_copies(self, capsys):
        # the rows go by p, then by t, so each row of a prime listed twice is
        # printed twice in a row
        code, out, _ = run_cli(capsys, ["table", "--primes", "7,5,7", "--t-bound", "60",
                                        "--output", "csv", "--no-timestamp"])
        assert (code, out) == (0, "p,t,residue,a_classes\n5,11,11,+-4 +-6 +-9 +-11\n"
                                  "7,41,15,+-8 +-15 +-20\n7,41,15,+-8 +-15 +-20\n"
                                  "7,59,43,+-6 +-13 +-22\n7,59,43,+-6 +-13 +-22\n")

    def test_json_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["table", "--d", "2", "--p-max", "7", "--output", "json",
             "--no-timestamp"],
        )
        assert code == 0
        data = json.loads(out)
        assert data["d"] == 2
        rows = {(r["p"], r["t"], r["residue"]) for r in data["rows"]}
        assert (3, 9, 7) in rows
        assert (5, 11, 11) in rows
        assert (7, 41, 15) in rows

    def test_json_walks_each_orbit_once(self, capsys, monkeypatch):
        # a row's "orbit" and "a_classes" come from one walk of its orbit
        from mahlercf.padic import OrbitRow

        walks = []
        orbit = OrbitRow.orbit.fget
        monkeypatch.setattr(OrbitRow, "orbit", property(lambda row: walks.append(row) or orbit(row)))
        code, out, _ = run_cli(capsys, ["table", "--d", "2", "--p-max", "37", "--include-missing",
                                        "--output", "json", "--no-timestamp"])
        assert code == 0
        rows, walked = json.loads(out)["rows"], list(walks)
        assert len(walked) == len(rows) > 10
        classes = [list(row.classes_of(orbit(row))) for row in walked]
        assert [r["a_classes"] for r in rows] == classes

    @pytest.mark.parametrize("output, header", [("text", 0), ("csv", 1)])
    def test_text_and_csv_walk_each_orbit_once(self, capsys, monkeypatch, output, header):
        from mahlercf.padic import OrbitRow

        walks = []
        orbit = OrbitRow.orbit.fget
        monkeypatch.setattr(OrbitRow, "orbit", property(lambda row: walks.append(row) or orbit(row)))
        code, out, _ = run_cli(capsys, ["table", "--d", "2", "--p-max", "37", "--include-missing",
                                        "--output", output, "--no-timestamp"])
        assert code == 0
        assert len(walks) == len(out.splitlines()) - header > 10

    def test_rejects_other_d(self, capsys):
        code, _, err = run_cli(capsys, ["table", "--d", "3", "--primes", "5"])
        assert code == 4
        assert "d = 2" in err

    def test_non_integer_prime_is_usage_error(self, capsys):
        code, out, err = run_cli(capsys, ["table", "--primes", "3,x"])
        assert (code, out) == (4, "")
        assert "argument --primes: expected comma-separated integers, got '3,x'" in err

    def test_primes_above_the_bound_are_refused(self, capsys):
        assert TABLE_PRIME_BOUND == 10_000
        code, _, err = run_cli(capsys, ["table", "--d", "2", "--p-max", "10001"])
        assert code == 4
        assert "must not exceed 10000, got 10001" in err
        code, _, err = run_cli(capsys, ["table", "--d", "2", "--primes", "3,10007"])
        assert code == 4
        assert "got 10007" in err
        # the largest prime below the bound is allowed
        code, _, _ = run_cli(capsys, ["table", "--d", "2", "--primes", "9973", "--t-bound", "1"])
        assert code == 0

    def test_more_primes_than_below_the_bound_are_refused(self, capsys):
        # 1229 primes lie below 10000
        argv = ["table", "--d", "2", "--t-bound", "1", "--primes"]
        code, _, _ = run_cli(capsys, [*argv, ",".join(["3"] * 1229)])
        assert code == 0
        code, _, err = run_cli(capsys, [*argv, ",".join(["3"] * 1230)])
        assert code == 4
        assert "1230 entries; at most 1229" in err


class TestEval:
    def test_json_golden(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["eval", "--a", "2", "--d", "2", "--eps", "1e-6", "--output",
             "json", "--no-timestamp"],
        )
        assert code == 0
        assert json.loads(out) == {
            "value": "752014125/2147483648",
            "error_bound": "1/2147483648",
            "decimal": "0.350183865…",
            "target": "f_2(2)",
        }

    def test_text_with_cf_prefix(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["eval", "--a", "2", "--d", "2", "--eps", "1e-12", "--cf-terms", "6"],
        )
        assert code == 0
        assert "f_2(2) = 0.350183865" in out
        assert "[0, 2, 1, 5, 1, 12]" in out

    def test_zero_eps_exit_4(self, capsys):
        code, _, _ = run_cli(capsys, ["eval", "--a", "2", "--d", "2", "--eps", "0"])
        assert code == 4

    @pytest.mark.parametrize("eps", ["1e-1000000", "1e1000000"])
    def test_eps_exponent_past_the_bound_exits_4_quickly(self, capsys, eps):
        # Fraction would build 10**1000000 before any later check ran
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["eval", "--a", "2", "--d", "2", "--eps", eps])
        assert code == 4
        assert out == ""
        assert "100000" in err
        assert time.perf_counter() - start < 2

    @pytest.mark.parametrize("argv", [["--d", "10000000"], ["--d", "100000000"],
                                      ["--d", "5000000", "--which", "G"]], ids=str)
    def test_tail_past_the_bit_bound_exits_4_quickly(self, capsys, argv):
        # the tail denominator is sized from bit lengths before any power is built
        start = time.perf_counter()
        code, out, err = run_cli(capsys, ["eval", "--a", "3", *argv, "--eps", "1e-5"])
        assert code == 4
        assert out == ""
        assert f"would pass {TAIL_BITS_BOUND} bits" in err
        assert time.perf_counter() - start < 2

    def test_the_largest_prefix_request_ends_quickly(self, capsys):
        # whatever its outcome, the value is rendered before the prefix walk
        start = time.perf_counter()
        with contextlib.suppress(Exception):
            run_cli(capsys, ["eval", "--a", "2", "--d", "2", "--eps", "1e-100000",
                             "--cf-terms", "1000000", "--no-timestamp"])
        assert time.perf_counter() - start < 5

    @pytest.mark.parametrize("eps", ["1e-30", "1e-5000"])
    @pytest.mark.parametrize("output", ["text", "json"])
    def test_negative_cf_terms_exit_4_with_nothing_printed(self, capsys, eps, output):
        code, out, err = run_cli(capsys, ["eval", "--a", "2", "--d", "2", "--eps", eps,
                                          "--cf-terms", "-1", "--output", output])
        assert (code, out) == (4, "")
        assert err == "invalid input: max_terms must be non-negative\n"

    @pytest.mark.parametrize("output", ["text", "json"])
    def test_negative_cf_terms_exit_4_before_evaluating(self, capsys, monkeypatch, output):
        import mahlercf.approx

        calls = []
        monkeypatch.setattr(mahlercf.approx, "eval_mahler", lambda *args: calls.append(args))
        code, out, err = run_cli(capsys, ["eval", "--a", "2", "--d", "2", "--eps", "1e-100000",
                                          "--cf-terms", "-1", "--output", output])
        assert (code, out, calls) == (4, "", [])
        assert err == "invalid input: max_terms must be non-negative\n"

    @pytest.mark.parametrize("eps", ["1e-30", "1/3"])
    def test_eps_within_the_bound_still_evaluates(self, capsys, eps):
        code, out, _ = run_cli(capsys, ["eval", "--a", "2", "--d", "2", "--eps", eps])
        assert code == 0
        assert out.startswith("f_2(2) = 0.3")


class TestDemoHensel:
    def test_successful_demo(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["demo-hensel", "--a", "2", "--d", "3", "--p", "7", "--n0", "2",
             "--t", "8", "--m", "2"],
        )
        assert code == 0
        assert "n = 2: 2^3^2 = 22 mod 7^2" in out
        assert "evaluates to 0" in out

    def test_unbounded_default_cap_stops_at_the_step_limit(self, capsys):
        # the default cap 4 * 3^39 would allow about 1.6e19 steps
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys,
            ["demo-hensel", "--a", "2", "--d", "2", "--p", "3", "--n0", "1",
             "--t", "18", "--m", "40"],
        )
        assert time.perf_counter() - start < 30
        assert code == 1
        assert "no exponent found: no exponent within the step limit 1000000" in out
        assert err == ""

    def test_modulus_past_the_bit_bound_exits_4(self, capsys):
        # 7^1000 has 2808 bits; a walk modulo it would take minutes
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys,
            ["demo-hensel", "--a", "2", "--d", "3", "--p", "7", "--n0", "2",
             "--t", "8", "--m", "1000"],
        )
        assert time.perf_counter() - start < 2
        assert (code, out) == (4, "")
        assert err == "invalid input: modulus 7^1000 exceeds 192 bits\n"

    def test_large_prime_is_decided_without_factoring(self, capsys):
        # p - 1 is 2 times a composite with no prime factor below 10^6, so
        # deciding c2 by multiplicative orders would have to factor it
        start = time.perf_counter()
        code, out, _ = run_cli(
            capsys,
            ["demo-hensel", "--a", "2", "--d", "2", "--p",
             "38721892173134201761656765194026019", "--n0", "1", "--t", "18"],
        )
        assert time.perf_counter() - start < 5
        assert code == 1
        assert "conditions fail" in out

    def test_d_outside_2_3_exits_4_before_expansion(self, capsys):
        # g_4 breaks the quotient shape, so expanding it to t = 200 would
        # exhaust the depth cap (exit 3) before d was looked at
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys,
            ["demo-hensel", "--a", "2", "--d", "4", "--p", "7", "--n0", "2", "--t", "200"],
        )
        assert time.perf_counter() - start < 2
        assert (code, out) == (4, "")
        assert err == "invalid input: certificates exist for d in {2, 3}, got 4\n"

    def test_n0_past_the_bound_exits_4_quickly(self, capsys):
        # each check walks n0 powerings, so n0 = 10^9 would run for minutes
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys,
            ["demo-hensel", "--a", "2", "--d", "3", "--p", "7", "--n0", str(10**9), "--t", "8"],
        )
        assert time.perf_counter() - start < 2
        assert (code, out) == (4, "")
        assert err == f"invalid input: n0 must not exceed {N0_BOUND}, got {10**9}\n"

    @pytest.mark.parametrize("p", [2**P_BITS_BOUND + 1, 10**4000 + 1])
    def test_p_past_the_bit_bound_exits_4_quickly(self, capsys, p):
        # each check walks n0 powerings mod p^2; at 10^4000 + 1 the walk of
        # n0 = 20000 steps alone ran for over a minute
        start = time.perf_counter()
        code, out, err = run_cli(
            capsys,
            ["demo-hensel", "--a", "2", "--d", "3", "--p", str(p), "--n0", "20000", "--t", "8"],
        )
        assert time.perf_counter() - start < 2
        assert (code, out) == (4, "")
        assert err == (f"invalid input: p must not exceed {P_BITS_BOUND} bits, "
                       f"got {p.bit_length()}\n")

    def test_failing_conditions_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["demo-hensel", "--a", "2", "--d", "2", "--p", "7", "--n0", "1",
             "--t", "18", "--m", "2"],
        )
        assert code == 1
        assert "conditions fail" in out

    def test_m_below_2_exits_4(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["demo-hensel", "--a", "2", "--d", "3", "--p", "7", "--n0", "2",
             "--t", "8", "--m", "1"],
        )
        assert (code, out) == (4, "")
        assert err == "invalid input: need m >= 2, got 1\n"

    def test_negative_cap_exits_4(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["demo-hensel", "--a", "2", "--d", "3", "--p", "7", "--n0", "2",
             "--t", "8", "--cap", "-5"],
        )
        assert (code, out) == (4, "")
        assert err == "invalid input: need cap >= 0, got -5\n"

    def test_p_zero_exits_4(self, capsys):
        code, out, err = run_cli(
            capsys,
            ["demo-hensel", "--a", "2", "--d", "2", "--p", "0", "--n0", "1", "--t", "2"],
        )
        assert (code, out) == (4, "")
        assert err == "invalid input: need p >= 1, got 0\n"


class TestOutputDeterminism:
    def test_no_timestamp_is_reproducible(self, capsys):
        argv = ["eval", "--a", "2", "--d", "2", "--eps", "1e-6", "--output",
                "json", "--no-timestamp"]
        _, first, _ = run_cli(capsys, argv)
        _, second, _ = run_cli(capsys, argv)
        assert first == second
        assert "generated_at" not in first

    def test_timestamp_present_by_default(self, capsys):
        code, out, _ = run_cli(
            capsys, ["eval", "--a", "2", "--d", "2", "--eps", "1e-6",
                     "--output", "json"]
        )
        assert code == 0
        assert "generated_at" in json.loads(out)

    @pytest.mark.parametrize("argv", [
        ["table", "--d", "2", "--p-max", "600", "--include-missing"],
    ])
    def test_json_is_written_in_batches_as_one_dumps(self, capsys, monkeypatch, argv):
        # the payloads span more than one batch of encoder chunks; cf JSON,
        # written from the chains, is tested in test_cf_json_oracle.py
        import mahlercf.cli as cli

        payloads = []
        emit = cli._emit_json

        def record(fields, args):
            # table rows are streamed as the texts of their items
            texts = list(fields["rows"])
            payloads.append({**fields, "rows": [json.loads(text) for text in texts]})
            emit({**fields, "rows": iter(texts)}, args)

        monkeypatch.setattr(cli, "_emit_json", record)
        code, out, _ = run_cli(capsys, [*argv, "--output", "json", "--no-timestamp"])
        assert code == 0
        [payload] = payloads
        assert sum(1 for _ in json.JSONEncoder(indent=2).iterencode(payload)) > 1 << 16
        assert out == json.dumps(payload, indent=2) + "\n"


class TestStreamedRows:
    @pytest.mark.parametrize("rows", [[], [{"p": 3, "orbit": [], "a_classes": [2, 4]}],
                                      [{"p": 3, "t": None}, {"p": 5, "orbit": [1, [2, {}]]}]])
    @pytest.mark.parametrize("no_timestamp", [True, False])
    def test_bytes_equal_one_dumps(self, capsys, monkeypatch, rows, no_timestamp):
        import argparse

        import mahlercf.cli as cli

        monkeypatch.setattr(cli, "_timestamp", lambda: "2000-01-01T00:00:00Z")
        args = argparse.Namespace(no_timestamp=no_timestamp)
        # an iterator field is streamed wherever it stands among the fields
        texts = (json.dumps(row, indent=2).replace("\n", "\n    ") for row in rows)
        cli._emit_json({"d": 2, "rows": texts, "t_bound": {"t": [7]}}, args)
        payload = {"d": 2, "rows": rows, "t_bound": {"t": [7]}}
        if not no_timestamp:
            payload["generated_at"] = "2000-01-01T00:00:00Z"
        assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


class TestTopLevelUsage:
    def test_no_arguments_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, [])
        assert code == 4

    def test_unknown_subcommand_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, ["frobnicate"])
        assert code == 4

    def test_each_cap_corner_exits_with_its_documented_code(self, capsys, cap_table):
        # CPU budgets of at least 3x the measured time: 0.45 s for the
        # step-limit walk, at most 22 ms for each other corner
        for row in cap_table:
            budget = 2.0 if row["constant"] == "HENSEL_STEP_LIMIT" else 1.0
            start = time.process_time()
            code, _, _ = run_cli(capsys, row["corner"])
            assert time.process_time() - start < budget, row["constant"]
            assert code == row["exit"], row["constant"]


class TestProcessEntry:
    """``run`` is the process entry: it freezes the start-up heap, then exits
    with ``main``'s code.  ``main`` never freezes, since tests and scripts
    call it in a long-lived process."""

    @pytest.mark.parametrize("code", [0, 3])
    def test_run_freezes_then_exits_with_the_code_of_main(self, code, monkeypatch):
        calls = []
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or code)
        with pytest.raises(SystemExit) as exit_:
            cli.run()
        assert calls == ["freeze", "main"]
        assert exit_.value.code == code

    def test_main_freezes_nothing(self, capsys):
        before = gc.get_freeze_count()
        code, _, _ = run_cli(capsys, ["cf", "--d", "2", "--n", "5", "--no-timestamp"])
        assert code == 0
        assert gc.get_freeze_count() == before

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
    def test_the_console_script_runs_the_process_entry(self):
        import tomllib

        with open(Path(__file__).resolve().parents[1] / "pyproject.toml", "rb") as file:
            scripts = tomllib.load(file)["project"]["scripts"]
        assert scripts == {"mahlercf": "mahlercf.cli:run"}


def _num(lo, hi):
    return st.integers(min_value=lo, max_value=hi).map(str)


def _span(lo, hi):
    """A range A..B with lo <= A <= B <= hi."""
    return st.integers(min_value=lo, max_value=hi).flatmap(
        lambda a: st.integers(min_value=a, max_value=hi).map(f"{a}..{{}}".format))


@st.composite
def _argv(draw, command, required, optional):
    """``command`` with every required flag and a drawn subset of the optional
    ones; an optional flag with strategy None takes no value."""
    argv = [command]
    for flag, values in required:
        argv += [flag, draw(values)]
    for flag, values in optional:
        if draw(st.booleans()):
            argv += [flag] if values is None else [flag, draw(values)]
    return argv


_OUTPUT = ("--output", st.sampled_from(["text", "json"]))
_NO_TIMESTAMP = ("--no-timestamp", None)

# Small bounded values for every flag of the six subcommands.  Each range
# reaches a little past the valid one (d = 1, n = 0, a composite prime, ...)
# so that malformed input is drawn too, but mostly the commands run.
FUZZ_ARGV = {
    "cf": _argv("cf", [("--d", _num(1, 6)), ("--n", _num(0, 16))],
                [("--kind", st.sampled_from("FGHU")), ("--floor", _num(-120, 0)),
                 _OUTPUT, _NO_TIMESTAMP]),
    # The default ranges and bounds are sized for a full run (the tests
    # above run them), so the fuzz always passes small ones.
    "verify": _argv("verify", [("--identity", st.sampled_from(
                        ["funceq", "lemma5", "prop2", "prop_sum3", "prop_bk", "theorem1",
                         "bzz", "nonsense"])), ("--k", _span(0, 3)), ("--m", _span(0, 10)),
                        ("--n", _num(1, 24)), ("--floor", _num(-60, 0))],
                    [("--d", _num(1, 5)), _OUTPUT, _NO_TIMESTAMP]),
    "witness": _argv("witness", [("--a", _num(0, 12)), ("--d", _num(1, 4)),
                                 ("--t-bound", _num(0, 24))],
                     [("--p-bound", _num(2, 15)), ("--n0-bound", _num(0, 5)),
                      ("--threads", _num(0, 3)), ("--replay", st.just("no-such-witness.json")),
                      _OUTPUT, _NO_TIMESTAMP]),
    "table": _argv("table", [("--t-bound", _num(0, 24))],
                   [("--d", _num(1, 3)),
                    ("--primes", st.lists(st.sampled_from("1 3 5 7 9 11 13".split()),
                                          max_size=3).map(",".join)),
                    ("--p-max", _num(2, 17)),
                    ("--include-missing", None),
                    ("--output", st.sampled_from(["text", "json", "csv"])), _NO_TIMESTAMP]),
    "eval": _argv("eval", [("--a", _num(1, 12)), ("--d", _num(1, 5))],
                  [("--which", st.sampled_from("FG")),
                   ("--eps", st.one_of(_num(0, 80).map("1e-{}".format),
                                       st.sampled_from(["1/3", "2", "0", "-1", "x"]))),
                   ("--cf-terms", _num(-1, 10)), _OUTPUT, _NO_TIMESTAMP]),
    "demo-hensel": _argv("demo-hensel",
                         [("--a", _num(1, 12)), ("--d", _num(1, 4)), ("--p", _num(0, 13)),
                          ("--n0", _num(0, 4)), ("--t", _num(0, 12))],
                         [("--m", _num(1, 5)), ("--cap", _num(-1, 30)), _OUTPUT, _NO_TIMESTAMP]),
}


# Any JSON value, as json.loads gives it back.
_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated(draw, original: bytes) -> bytes:
    """original with one to four bytes replaced, inserted or deleted, drawn
    mostly from the bytes that JSON syntax and numbers are made of."""
    data = bytearray(original)
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(data) - 1))
        byte = draw(st.sampled_from(b'0123456789-.eE"[]{},: ') | st.integers(0, 255))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "replace":
            data[at] = byte
        elif edit == "insert":
            data.insert(at, byte)
        else:
            del data[at]
    return bytes(data)


def _exit(argv) -> tuple[int, str]:
    """main's exit code and stderr; any exception but SystemExit (argparse's
    usage errors) propagates and fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


class TestFuzz:
    @pytest.mark.parametrize("command", sorted(FUZZ_ARGV))
    def test_every_argv_exits_with_a_documented_code(self, command):
        @given(FUZZ_ARGV[command])
        def check(argv):
            code, _ = _exit(argv)
            assert code in (0, 1, 2, 3, 4), (argv, code)

        check()

    def test_every_replay_file_exits_with_a_documented_code(self, tmp_path):
        saved = tmp_path / "saved.json"
        assert _exit(["witness", "--a", "2", "--d", "2", "--save", str(saved)]) == (0, "")
        original = saved.read_bytes()
        stored = json.loads(original)
        wrong_shapes = _JSON_VALUES | st.tuples(st.sampled_from(sorted(stored)), _JSON_VALUES).map(
            lambda field: dict(stored, **{field[0]: field[1]}))
        path = tmp_path / "witness.json"

        @given(_mutated(original) | wrong_shapes.map(lambda value: json.dumps(value).encode()))
        def check(content):
            path.write_bytes(content)
            code, err = _exit(["witness", "--replay", str(path)])
            assert code in (0, 1, 2, 3, 4), (content, code)
            assert "Traceback" not in err

        assert _exit(["witness", "--replay", str(saved)]) == (0, "")
        check()


class TestImportPath:
    @staticmethod
    def _python(env: dict, *args: str) -> subprocess.CompletedProcess:
        # a fresh interpreter that imports the package from this source tree
        proc = subprocess.run(
            [sys.executable, *args], capture_output=True, text=True, env=env, timeout=60
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    @pytest.mark.parametrize("module", ["mahlercf.cli", "mahlercf"])
    def test_import_leaves_sympy_unloaded(self, module, child_env):
        proc = self._python(
            child_env,
            "-c",
            f"import sys, {module}; print(sorted(m for m in sys.modules if m.split('.')[0] == 'sympy'))",
        )
        assert proc.stdout == "[]\n"

    def test_the_module_entry_freezes_the_start_up_heap(self, child_env):
        # python -m mahlercf.cli runs the module as __main__, as runpy does
        # here; an atexit probe reads the freeze count after the request
        probe = (
            "import atexit, gc, runpy, sys\n"
            "before = gc.get_freeze_count()\n"
            "atexit.register(lambda: print(before, gc.get_freeze_count() > 0, file=sys.stderr))\n"
            "sys.argv = ['mahlercf', 'cf', '--d', '2', '--n', '5', '--no-timestamp']\n"
            "runpy.run_module('mahlercf.cli', run_name='__main__')\n"
        )
        proc = self._python(child_env, "-c", probe)
        assert proc.stdout.startswith("continued fraction of g_2, 5 quotients\n")
        assert proc.stderr == "0 True\n"

    def _imported(self, env: dict, *args: str) -> set[str]:
        # every module a fresh interpreter imports, as -X importtime lists them
        proc = self._python(env, "-X", "importtime", *args)
        return {
            line.rpartition("|")[2].strip()
            for line in proc.stderr.splitlines()
            if line.startswith("import time:")
        }

    @pytest.mark.parametrize(
        ("args", "loaded"),
        [(("-c", "import mahlercf.cli"), "mahlercf.cli"),
         (("-m", "mahlercf.cli", "cf", "--d", "2", "--n", "5", "--no-timestamp"),
          "mahlercf.contfrac")],
        ids=["import", "cf-no-timestamp"],
    )
    def test_cold_start_loads_no_dataclasses_inspect_or_datetime(self, args, loaded, child_env):
        # judged against a bare interpreter, so that a module that site
        # imports (through a .pth file, say) does not count against the package
        added = self._imported(child_env, *args) - self._imported(child_env, "-c", "pass")
        assert loaded in added
        assert added & {"dataclasses", "inspect", "datetime"} == set()

    @pytest.mark.parametrize(
        ("args", "loaded", "unloaded"),
        [(("-c", "import mahlercf.cli"), "mahlercf.cli",
          {*(f"mahlercf.{name}" for name in
             ("polys", "laurent", "contfrac", "structure", "padic", "approx")),
           "json", "fractions", "decimal", "__future__"}),
         (("-m", "mahlercf.cli", "cf", "--d", "2", "--n", "5"), "mahlercf.contfrac",
          {"json", "mahlercf.padic", "mahlercf.approx"}),
         (("-m", "mahlercf.cli", "eval", "--a", "2", "--d", "2"), "mahlercf.approx",
          {"json", "mahlercf.padic", "mahlercf.structure"})],
        ids=["import", "cf-text", "eval-text"],
    )
    def test_cold_start_loads_only_what_the_request_runs(self, args, loaded, unloaded,
                                                         child_env):
        # the parser loads no arithmetic, and a text request neither json nor
        # the layers it does not run
        added = self._imported(child_env, *args) - self._imported(child_env, "-c", "pass")
        assert loaded in added
        assert added & unloaded == set()


class TestClosedStdout:
    """A reader that closes stdout before the output ends is an i/o failure:
    exit 4 with one stderr line and no traceback (docs/interface.md)."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--d", "2", "--p-max", "2000", "--include-missing"],
            ["table", "--d", "2", "--p-max", "2000", "--include-missing", "--output", "json"],
            ["table", "--d", "2", "--p-max", "2000", "--include-missing", "--output", "csv"],
            ["cf", "--d", "2", "--n", "200", "--output", "json"],
        ],
        ids=["table-text", "table-json", "table-csv", "cf-json"],
    )
    def test_reader_closing_after_one_line_exits_4(self, argv, child_env):
        # each output is several times the size of a pipe buffer, so the
        # writer is still writing when the reader goes
        proc = subprocess.Popen(
            [sys.executable, "-m", "mahlercf.cli", *argv, "--no-timestamp"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=child_env,
        )
        try:
            assert proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read().decode()
        finally:
            proc.stderr.close()
            code = proc.wait(timeout=60)
        assert code == 4
        assert err == "i/o error: [Errno 32] Broken pipe\n"  # so no traceback


@pytest.mark.skipif(shutil.which("mahlercf") is None, reason="script not installed")
class TestConsoleScript:
    def test_table_csv(self):
        proc = subprocess.run(
            ["mahlercf", "table", "--d", "2", "--primes", "3", "--output",
             "csv", "--no-timestamp"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout == "p,t,residue,a_classes\n3,9,7,+-2 +-4\n"

    def test_shape_violation_return_code(self):
        proc = subprocess.run(
            ["mahlercf", "cf", "--d", "4", "--kind", "G", "--n", "10"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 2
