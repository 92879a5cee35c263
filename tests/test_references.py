"""Every `verify` request, every `cf ... --output json` request, every
`table` request and every `witness ... --output json` search request of the
benchmark menus reproduces its recorded output: the exit code and the SHA-256
of the ``--no-timestamp`` stdout in perfbench/references.json, judged by the
benchmark's own ``checks.failure``.

scripts/check_references.py checks all the menu requests; this is the part
of that check that runs the structure layer's identity checks, the writer of
the cf JSON document and the g_d expansions behind the p-adic searches."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mahlercf

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))

import checks  # noqa: E402
from workloads import WORKLOADS, menu  # noqa: E402

REFERENCES = json.loads((ROOT / "perfbench" / "references.json").read_text())
VERIFY_REQUESTS = [r for w in WORKLOADS for r in menu(w) if r.subcommand == "verify"]
CF_JSON_REQUESTS = [r for w in WORKLOADS for r in menu(w)
                    if r.subcommand == "cf" and r.argv[-2:] == ("--output", "json")]
TABLE_REQUESTS = [r for w in WORKLOADS for r in menu(w) if r.subcommand == "table"]
WITNESS_JSON_REQUESTS = [r for w in WORKLOADS for r in menu(w)
                         if r.subcommand == "witness" and r.argv[-2:] == ("--output", "json")]


def test_the_menus_hold_every_verify_request():
    # 30 in cf-expand (bzz, theorem1 and the four d = 3 identities) and the
    # 4 funceq requests of cf-certify
    assert len(VERIFY_REQUESTS) == 34
    assert {r.argv[2] for r in VERIFY_REQUESTS} == {
        "bzz", "theorem1", "lemma5", "prop2", "prop_sum3", "prop_bk", "funceq"
    }


def test_the_menus_hold_every_cf_json_request():
    # 28 G expansions in cf-expand (d = 2, 3 at 14 sizes) and the 8 H and U
    # expansions of cf-certify
    counts = {w: sum(r in CF_JSON_REQUESTS for r in menu(w)) for w in WORKLOADS}
    assert counts == {"cf-expand": 28, "cf-certify": 8, "value-certs": 0}


def test_the_menus_hold_every_table_and_witness_json_request():
    # value-certs only: 12 tables (p-max 47, 53, 59, 61 as text, json and
    # csv) and the 32 searches of the witness stratum (16 values of a at
    # d = 2 and at d = 3); --save requests end with the file name instead
    counts = {w: (sum(r in TABLE_REQUESTS for r in menu(w)),
                  sum(r in WITNESS_JSON_REQUESTS for r in menu(w))) for w in WORKLOADS}
    assert counts == {"cf-expand": (0, 0), "cf-certify": (0, 0), "value-certs": (12, 32)}


@pytest.mark.parametrize("request_", VERIFY_REQUESTS, ids=[r.key for r in VERIFY_REQUESTS])
def test_verify_request_matches_its_reference(request_, tmp_path):
    _matches_its_reference(request_, tmp_path)


@pytest.mark.parametrize("request_", CF_JSON_REQUESTS, ids=[r.key for r in CF_JSON_REQUESTS])
def test_cf_json_request_matches_its_reference(request_, tmp_path):
    _matches_its_reference(request_, tmp_path)


@pytest.mark.parametrize("request_", TABLE_REQUESTS + WITNESS_JSON_REQUESTS,
                         ids=[r.key for r in TABLE_REQUESTS + WITNESS_JSON_REQUESTS])
def test_value_certs_expansion_request_matches_its_reference(request_, tmp_path):
    _matches_its_reference(request_, tmp_path)


def _matches_its_reference(request_, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(Path(mahlercf.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-m", "mahlercf.cli", *request_.argv, "--no-timestamp"],
        capture_output=True, cwd=tmp_path, env=env, timeout=120,
    )
    reference = REFERENCES[request_.key]
    assert not reference["seed_fails"]
    assert checks.failure(request_, proc.returncode, proc.stdout, proc.stderr, reference) is None
