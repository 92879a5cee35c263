"""Correctness checks for benchmark requests.

Where a reference independent of the code under test exists, the output is
checked against it first:

* ``cf --kind G --d 2``: every partial quotient has degree 1 and the betas
  follow the closed d=2 recurrence, re-implemented here;
* ``witness --replay``: the saved witness revalidates.

Every request is then compared byte for byte (by SHA-256) with the
``--no-timestamp`` stdout and the exit code recorded at the seed commit in
``references.json``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from workloads import Request

TRACEBACK = b"Traceback (most recent call last)"
# The seed commit's known defect: eval of a value past 4300 digits dies here.
DIGIT_LIMIT = b"ValueError: Exceeds the limit (4300 digits) for integer string conversion"


def closed_betas(n: int) -> dict[int, Fraction]:
    """beta_2..beta_n of g_2 from the closed recurrence: beta_2 = 2,
    beta_3 = -1, beta_4 = 1, and for k >= 2
    beta_{2k+1} = -beta_{k+1} / beta_{2k},  beta_{2k+2} = 1 + (-1)^k - beta_{2k+1}."""
    beta = {2: Fraction(2), 3: Fraction(-1), 4: Fraction(1)}
    for k in range(2, n // 2 + 1):
        beta[2 * k + 1] = -beta[k + 1] / beta[2 * k]
        beta[2 * k + 2] = 1 + (-1) ** k - beta[2 * k + 1]
    return {i: beta[i] for i in range(2, n + 1)}


def _text_degree_one(poly: str) -> bool:
    # Rendered highest degree first: "x + 1", "-2*x - 1/2", never "x^k".
    return "x" in poly and "x^" not in poly


def _check_g2_text(n: int, text: str) -> str | None:
    lines = text.splitlines()
    quotients = [line for line in lines if line.startswith("a_") and not line.startswith("a_0 ")]
    betas = {}
    for line in lines:
        if line.startswith("qhat_") and "beta_" in line:
            name, value = line.split("beta_", 1)[1].split(" = ")
            betas[int(name)] = Fraction(value)
    if len(quotients) != n:
        return f"{len(quotients)} partial quotients, expected {n}"
    for line in quotients:
        poly, _, rate = line.split(" = ", 1)[1].partition("   [rate of convergent ")
        if not _text_degree_one(poly) or (rate and not rate.endswith(": 1]")):
            return f"quotient of degree other than 1: {line[:80]}"
    if betas != closed_betas(n):
        return "betas differ from the closed d=2 recurrence"
    return None


def _check_g2_json(n: int, text: str) -> str | None:
    data = json.loads(text)
    quotients = data["a"][1:]
    if len(quotients) != n:
        return f"{len(quotients)} partial quotients, expected {n}"
    if any(max(int(k) for k in a["coeffs"]) != 1 for a in quotients):
        return "quotient of degree other than 1"
    if any(c["rate"] != 1 for c in data["convergents"][:-1]):
        return "convergent with rate other than 1"
    betas = {i: Fraction(b) for i, b in enumerate(data["betas"], start=2)}
    if betas != closed_betas(n):
        return "betas differ from the closed d=2 recurrence"
    return None


def _flag(argv: tuple[str, ...], name: str, default: str | None = None) -> str | None:
    return argv[argv.index(name) + 1] if name in argv else default


def independent_check(request: Request, stdout: bytes) -> str | None:
    """The check that does not rely on the recorded outputs, if one applies."""
    argv = request.argv
    if argv[0] == "cf" and _flag(argv, "--d") == "2" and _flag(argv, "--kind", "G") == "G":
        n = int(_flag(argv, "--n"))
        check = _check_g2_json if _flag(argv, "--output") == "json" else _check_g2_text
        try:
            return check(n, stdout.decode())
        except (ValueError, KeyError, IndexError, TypeError, ZeroDivisionError) as exc:
            return f"unparseable cf output: {exc!r}"[:200]
    if argv[:2] == ("witness", "--replay") and not stdout.rstrip().endswith(b": valid"):
        return "saved witness does not revalidate"
    return None


def failure(
    request: Request, exit_code: int, stdout: bytes, stderr: bytes, reference: dict | None
) -> str | None:
    """Why the request failed, or None: a request fails on a kill, a
    traceback, a wrong exit code or a wrong stdout."""
    if exit_code < 0:
        return f"killed by signal {-exit_code}"
    if TRACEBACK in stderr:
        last = stderr.decode(errors="replace").strip().splitlines()[-1]
        return f"traceback: {last[:120]}"
    if reference is None:
        return "no reference output recorded"
    if exit_code != reference["exit"]:
        return f"exit {exit_code}, expected {reference['exit']}"
    independent = independent_check(request, stdout)
    if independent:
        return independent
    if hashlib.sha256(stdout).hexdigest() != reference["sha256"]:
        return "stdout differs from the reference"
    return None


def seed_defect(reference: dict | None, exit_code: int, stderr: bytes) -> bool:
    """True when a failed request failed the way the seed commit fails it:
    a request marked ``seed_fails`` that exits 1 with the digit-limit
    ValueError traceback.  Any other failure of such a request is new."""
    return (reference is not None and reference["seed_fails"] and exit_code == 1
            and TRACEBACK in stderr and DIGIT_LIMIT in stderr)
