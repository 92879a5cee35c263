"""Smoke test: every script under scripts/ runs to exit 0 on a small input."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mahlercf

ROOT = Path(__file__).resolve().parents[1]

SCRIPT_ARGV = {
    "beta_survey.py": ["--d", "3", "--n", "20"],
    "quotient_growth.py": [],
    "reproduce_table.py": ["--p-max", "13", "--t-bound", "40", "--all-hits"],
    "check_references.py": ["--help"],
}


@pytest.mark.parametrize("script", sorted(SCRIPT_ARGV))
def test_script_runs(script):
    src = str(Path(mahlercf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script), *SCRIPT_ARGV[script]],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout
