"""Shared fixtures: session-cached expansions so the suite stays fast, and
the environment of a child interpreter."""

import os
from pathlib import Path

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    max_examples=50,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def g2_expansion():
    from mahlercf.contfrac import expand_family

    return expand_family(2, "G", 40)


@pytest.fixture(scope="session")
def g3_expansion():
    from mahlercf.contfrac import expand_family

    return expand_family(3, "G", 40)


@pytest.fixture(scope="session")
def betas_d2():
    from mahlercf.structure import beta_sequence

    return beta_sequence(2, 40)


@pytest.fixture(scope="session")
def betas_d3():
    from mahlercf.structure import beta_sequence

    return beta_sequence(3, 40)


@pytest.fixture(scope="session")
def child_env():
    """The environment of a child interpreter that imports mahlercf from this
    source tree.  Only the tests whose subject is the process start one
    (tests/test_source.py names them)."""
    import mahlercf

    src = str(Path(mahlercf.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.fixture(scope="session")
def cap_table():
    """The run-time caps of docs/interface.md, one dict per table row:
    constant, module, value, exit and corner (the argv as a list)."""
    interface = Path(__file__).resolve().parents[1] / "docs" / "interface.md"
    lines = interface.read_text(encoding="utf-8").splitlines()
    start = lines.index("| constant | module | value | exit | corner |") + 2
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        constant, module, value, code, corner = (
            cell.strip().strip("`") for cell in line.strip("|").split("|"))
        rows.append({"constant": constant, "module": module, "value": int(value),
                     "exit": int(code), "corner": corner.split()})
    return rows
