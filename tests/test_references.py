"""Every request of the three benchmark menus (perfbench/workloads.py)
reproduces its recorded output.  Each runs in this process through
``mahlercf.cli.main`` with ``--no-timestamp``, and the benchmark's own
``checks.failure`` judges its exit code and the SHA-256 of its stdout against
perfbench/references.json.  A request marked ``seed_fails`` may instead fail
the way the seed commit fails it (``checks.seed_defect``).

scripts/check_references.py makes the same check with every request in a
fresh interpreter."""

import contextlib
import io
import json
import sys
import traceback
from pathlib import Path

import pytest

from mahlercf.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
from workloads import WORKLOADS, menu  # noqa: E402

REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())
# One request per key: a --threads request shares the key of its serial twin.
REQUESTS = list({r.key: r for w in WORKLOADS for r in menu(w)}.values())
# The --save request that writes each file a replay reads.
SAVES = {r.argv[r.argv.index("--save") + 1]: r for r in REQUESTS if "--save" in r.argv}


def run(argv: tuple[str, ...]) -> tuple[int, bytes, bytes]:
    """(exit code, stdout, stderr) of ``mahlercf <argv> --no-timestamp`` as
    the interpreter would give them: SystemExit gives the code, and any other
    exception exits 1 with its traceback on stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main([*argv, "--no-timestamp"])
        except SystemExit as exc:
            code = exc.code
        except Exception:
            code = 1
            err.write(traceback.format_exc())
    return code, out.getvalue().encode("utf-8"), err.getvalue().encode("utf-8")


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("menus")


def test_the_requests_are_the_three_menus():
    assert {r.key for r in REQUESTS} == {r.key for w in WORKLOADS for r in menu(w)}
    assert len(REQUESTS) == 544
    assert sum(REFERENCES[r.key]["seed_fails"] for r in REQUESTS) == 72


@pytest.mark.parametrize("request_", REQUESTS, ids=[r.key for r in REQUESTS])
def test_request_matches_its_reference(request_, workdir, monkeypatch):
    monkeypatch.chdir(workdir)
    if "--replay" in request_.argv:
        assert run(SAVES[request_.argv[-1]].argv)[0] == 0
    code, out, err = run(request_.argv)
    reference = REFERENCES[request_.key]
    problem = checks.failure(request_, code, out, err, reference)
    assert problem is None or checks.seed_defect(reference, code, err), problem
