"""Tests of the benchmark's traced launcher, checks and workload menus.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys

import pytest

import checks
import run

sys.path.insert(0, str(run.SRC))

import tracing
from workloads import WORKLOADS, Request, defect_probe, menu, rounds, traced_requests


def cli(argv: list[str], tmp_path, spans=None) -> subprocess.CompletedProcess:
    prefix = [sys.executable, "-m", "mahlercf.cli"]
    if spans is not None:
        prefix = [sys.executable, str(run.HERE / "tracing.py"), str(spans)]
    return subprocess.run(prefix + argv + ["--no-timestamp"], capture_output=True,
                          cwd=tmp_path, env=run.child_env(), timeout=120)


def traced_metrics(argv: list[str], tmp_path) -> tuple[bytes, dict]:
    spans = tmp_path / "spans.json"
    result = cli(argv, tmp_path, spans)
    return result.stdout, tracing.layer_metrics([spans])


@pytest.mark.parametrize("argv", [
    ["cf", "--d", "2", "--n", "60"],
    ["cf", "--d", "3", "--n", "30", "--kind", "U", "--output", "json"],
    ["witness", "--a", "2", "--d", "3", "--p-bound", "13", "--n0-bound", "6", "--t-bound", "80",
     "--threads", "2"],
    ["eval", "--a", "2", "--d", "2", "--eps", "1e-30", "--cf-terms", "10"],
    ["cf", "--d", "4", "--n", "20"],
])
def test_traced_stdout_and_exit_match_untraced(argv, tmp_path):
    plain = cli(argv, tmp_path)
    traced = cli(argv, tmp_path, tmp_path / "spans.json")
    assert traced.stdout == plain.stdout
    assert traced.returncode == plain.returncode
    assert b"Traceback" not in traced.stderr


def test_exact_counts_repeat(tmp_path):
    out1, first = traced_metrics(["cf", "--d", "2", "--n", "200"], tmp_path)
    out2, second = traced_metrics(["cf", "--d", "2", "--n", "200"], tmp_path)
    assert first["polys.divmod.calls"] == 201
    counts = [k for k in first if k.endswith((".calls", ".depth")) or k == "contfrac.quotients"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert out1 == out2


def test_classmethod_and_rebound_names_are_traced(tmp_path):
    # rate_of_approximation is imported into contfrac by name and calls the
    # classmethod TruncatedLaurentSeries.from_fraction once per convergent.
    _, metrics = traced_metrics(["cf", "--d", "2", "--n", "40", "--kind", "H"], tmp_path)
    assert metrics["laurent.rate.calls"] == 40
    assert metrics["laurent.from_fraction.calls"] == 40
    assert metrics["contfrac.soundness.calls"] == 1


def test_operator_aliases_are_traced():
    from mahlercf.polys import RatPoly

    tracer = tracing.Tracer()
    tracer.install()
    x = RatPoly.x()
    _ = 2 * x, x * x, 1 + x, x + x, x - x
    names = [span[0] for span in tracer.spans]
    assert names.count("polys.mul") == 2
    assert names.count("polys.add") == 3  # x - x adds the negation


def test_spans_close_when_precision_retries_unwind(tmp_path):
    # Floor -40 is too shallow for 30 quotients: InsufficientPrecision unwinds
    # through the traced cf_expand span and expand_family retries deeper.
    spans = tmp_path / "spans.json"
    argv = ["cf", "--d", "2", "--n", "30", "--kind", "F", "--floor", "-40"]
    assert cli(argv, tmp_path, spans).returncode == 0
    rows = json.loads(spans.read_text())["spans"]
    assert all(end is not None and end >= start for _, start, end, _, _ in rows)
    for _, start, end, parent, _ in rows:
        if parent is not None:
            assert rows[parent][1] <= start and end <= rows[parent][2]
    metrics = tracing.layer_metrics([spans])
    assert metrics["contfrac.precision_doublings"] >= 1
    assert metrics["contfrac.cf_expand.calls"] > metrics["contfrac.expand_family.calls"]


def test_self_time_subtracts_the_union_of_child_intervals(tmp_path):
    spans = [
        ["cli.main", 0.0, 10.0, None, None],
        ["polys.mul", 1.0, 4.0, 0, None],
        ["polys.mul", 3.0, 5.0, 0, None],  # overlaps the first (a worker thread)
        ["polys.divmod", 6.0, 7.0, 0, None],
        ["polys.add", 6.5, 6.75, 3, None],
    ]
    path = tmp_path / "spans.json"
    path.write_text(json.dumps({"spans": spans}))
    metrics = tracing.layer_metrics([path])
    assert metrics["cli.self_s"] == pytest.approx(10.0 - 4.0 - 1.0)
    assert metrics["polys.mul.self_s"] == pytest.approx(5.0)
    assert metrics["polys.divmod.self_s"] == pytest.approx(0.75)
    assert metrics["polys.self_s"] == pytest.approx(6.0)


def test_closed_betas_match_the_library_recurrence():
    from mahlercf.structure import beta_closed_form

    assert checks.closed_betas(300) == beta_closed_form(300)
    assert checks.closed_betas(7) == {2: 2, 3: -1, 4: 1, 5: 1, 6: 1, 7: -1}


def reference_of(stdout: bytes, exit_code: int = 0, seed_fails: bool = False) -> dict:
    return {"exit": exit_code, "sha256": hashlib.sha256(stdout).hexdigest(),
            "seed_fails": seed_fails}


@pytest.mark.parametrize("output", ["text", "json"])
def test_a_wrong_beta_fails_the_independent_check(output, tmp_path):
    request = Request(("cf", "--d", "2", "--n", "20", "--output", output))
    stdout = cli(list(request.argv), tmp_path).stdout
    assert checks.failure(request, 0, stdout, b"", reference_of(stdout)) is None
    if output == "text":
        broken = stdout.replace(b"beta_7 = -1\n", b"beta_7 = 5\n")
    else:
        data = json.loads(stdout)
        data["betas"][5] = "5"
        broken = json.dumps(data).encode()
    assert broken != stdout
    # The independent check runs before the comparison with the recorded
    # output, so it judges even an output whose reference were wrong.
    assert checks.failure(request, 0, broken, b"", reference_of(broken)) == \
        "betas differ from the closed d=2 recurrence"


def test_a_replay_that_does_not_revalidate_fails(tmp_path):
    save = ["witness", "--a", "2", "--d", "2", "--output", "json", "--save", "w.json"]
    assert cli(save, tmp_path).returncode == 0
    request = Request(("witness", "--replay", "w.json"))
    stdout = cli(list(request.argv), tmp_path).stdout
    assert checks.failure(request, 0, stdout, b"", reference_of(stdout)) is None
    broken = stdout.replace(b": valid", b": invalid")
    assert checks.failure(request, 0, broken, b"", reference_of(broken)) == \
        "saved witness does not revalidate"


def test_only_the_seed_defect_is_excused(tmp_path):
    argv = ["eval", "--a", "2", "--d", "2", "--eps", "1e-4300"]
    result = cli(argv, tmp_path)
    reference = reference_of(b"", exit_code=0, seed_fails=True)
    assert checks.seed_defect(reference, result.returncode, result.stderr)
    assert not checks.seed_defect(reference_of(b""), result.returncode, result.stderr)
    # A seed_fails request that now prints a wrong value is a new failure.
    assert not checks.seed_defect(reference, 0, b"")
    other = b"Traceback (most recent call last):\nZeroDivisionError: division by zero\n"
    assert not checks.seed_defect(reference, 1, other)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_drawable_request_has_a_reference(workload):
    references = json.loads(run.REFERENCES.read_text())
    assert {r.key for r in menu(workload)} <= references.keys()
    batches = rounds(workload, 7)
    drawn = [r.key for _ in range(6) for r in next(batches)]
    assert set(drawn) <= references.keys()
    assert traced_requests(workload, 7) == traced_requests(workload, 7)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_timed_request_fails_at_the_seed(workload):
    references = json.loads(run.REFERENCES.read_text())
    for seed in range(1, 21):
        batches = rounds(workload, seed)
        drawn = {r.key for _ in range(8) for r in next(batches)}
        assert not [key for key in drawn if references[key]["seed_fails"]]
    probe = defect_probe(workload, 3)
    if probe is not None:
        assert references[probe.key]["seed_fails"]
        assert defect_probe(workload, 3) == probe


def test_reference_task_holds_no_mahlercf_code(tmp_path):
    assert "mahlercf" not in " ".join(run.REFERENCE)
    assert run.sample(run.REFERENCE, tmp_path) > 0


def test_benchmark_json_names_every_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == list(tracing.UNITS)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "req_p50_s", "req_tail_s", "requests_per_s", "peak_rss_mb"}
