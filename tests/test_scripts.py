"""Smoke tests: every script under scripts/ runs to exit 0 on a small input;
the table script prints the CLI's table and refuses a prime past its bound;
the survey scripts end a library error as a usage error."""

import subprocess
import sys
from pathlib import Path

import pytest

from mahlercf.cli import main

ROOT = Path(__file__).resolve().parents[1]

# (script, argv) -> test id; the first run of each script keeps its bare name
SCRIPT_ARGV = {
    ("beta_survey.py", ("--d", "3", "--n", "20")): "beta_survey.py",
    ("quotient_growth.py", ()): "quotient_growth.py",
    ("reproduce_table.py", ("--p-max", "13", "--t-bound", "40", "--all-hits")):
        "reproduce_table.py",
    ("reproduce_table.py", ("--p-max", "13", "--t-bound", "40", "--csv")):
        "reproduce_table.py-csv",
    ("check_references.py", ("--help",)): "check_references.py",
}
RUNS = sorted(SCRIPT_ARGV)


def run_script(env: dict, script: str, argv: tuple[str, ...]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *argv],
        capture_output=True, text=True, env={**env, "PYTHONDONTWRITEBYTECODE": "1"}, timeout=120,
    )


@pytest.mark.parametrize("script, argv", RUNS, ids=[SCRIPT_ARGV[run] for run in RUNS])
def test_script_runs(script, argv, child_env):
    proc = run_script(child_env, script, argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


@pytest.mark.parametrize("flags, output", [((), "text"), (("--csv",), "csv")], ids=["text", "csv"])
def test_table_script_prints_the_cli_table(flags, output, child_env, capsys):
    proc = run_script(child_env, "reproduce_table.py", ("--p-max", "13", "--t-bound", "40", *flags))
    assert main(["table", "--p-max", "13", "--t-bound", "40", "--output", output,
                 "--include-missing", "--no-timestamp"]) == 0
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, capsys.readouterr().out, "")


def test_table_script_refuses_a_prime_above_the_bound(child_env):
    # the table refuses the prime before the O(p) walk over its orbits, as
    # bad input: exit 4 and one stderr line
    proc = run_script(child_env, "reproduce_table.py", ("--primes", "10007"))
    assert (proc.returncode, proc.stdout) == (4, "")
    assert proc.stderr == "invalid input: table primes must not exceed 10000, got 10007\n"


LIBRARY_ERRORS = [
    ("beta_survey.py", ("--n", "1"), "need at least two quotients, got n=1"),
    ("beta_survey.py", ("--n", "600"),
     "starting depth 2416 for G_2 with n=600 already exceeds the depth cap 2000"),
    ("beta_survey.py", ("--d", "3", "--n", "400"),
     "starting depth 2416 for G_3 with n=400 already exceeds the depth cap 2000"),
    ("quotient_growth.py", ("--k-max", "0"), "need k_max >= 1, got 0"),
    ("quotient_growth.py", ("--a", "1"), "need a >= 2"),
]


@pytest.mark.parametrize("script, argv, message", LIBRARY_ERRORS,
                         ids=[" ".join((script, *argv)) for script, argv, _ in LIBRARY_ERRORS])
def test_script_refuses_library_errors_as_usage_errors(script, argv, message, child_env):
    # a library error ends like a bad flag: exit 2, the usage line, no traceback
    proc = run_script(child_env, script, argv)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.startswith("usage: ")
    assert proc.stderr.endswith(f"error: {message}\n")
    assert "Traceback" not in proc.stderr
