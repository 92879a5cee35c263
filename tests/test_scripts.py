"""Smoke tests: every script under scripts/ runs to exit 0 on a small input;
the table script prints the CLI's table and refuses a prime past its bound."""

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
