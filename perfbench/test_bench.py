"""Tests of the benchmark itself: ``python3 -m pytest perfbench`` from the repo root."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
from tracer import summarize  # noqa: E402


def test_smoke_runs_every_workload_through_the_gate():
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent,
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0, out.stdout
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    for name in run.WORKLOADS:
        assert metrics[f"{name}.wall_s"] > 0
        assert metrics[f"{name}.setup.import_panelbreak_s"] > 0
    # Calls made through another module's binding are traced too.
    assert metrics["ingest.estimator.cce_fit.calls"] > 0
    assert metrics["ingest.wald.sup_wald.calls"] > 0
    assert metrics["mc.dgp.generate.calls"] == run.SMOKE["mc"].reps
    assert metrics["ingest.io.rows"] == run.SMOKE["ingest"].n_units * run.SMOKE["ingest"].n_periods


def test_benchmark_json_matches_the_metrics_reported():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(run.PER_LAYER)


def test_self_time_subtracts_child_spans():
    spans = [
        ["a", 0.0, 10.0, -1, 0],
        ["b", 1.0, 4.0, 0, 0],
        ["a", 5.0, 7.0, 0, 0],  # recursion: not counted twice in the inclusive time
    ]
    out = summarize(spans)
    assert out["a"] == {"calls": 2, "s": 10.0, "self_s": 5.0 + 2.0}
    assert out["b"] == {"calls": 1, "s": 3.0, "self_s": 3.0}


@pytest.fixture(scope="module")
def ingest_case(tmp_path_factory):
    import io
    from contextlib import redirect_stdout

    import panelbreak.cli

    case = run.CliCase(run.SMOKE["ingest"], 0, tmp_path_factory.mktemp("ingest"))
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        assert panelbreak.cli.main(case.argv) == 0
    return case, json.loads(buffer.getvalue())


def _check(case, report):
    return case.check(json.dumps(report).encode())


def test_gate_accepts_the_real_report(ingest_case):
    case, report = ingest_case
    assert _check(case, report) == (1, 0, None, None)


def test_gate_rejects_a_wrong_date_or_ssr(ingest_case):
    case, report = ingest_case
    wrong_date = json.loads(json.dumps(report))
    wrong_date["stages"]["breaks"][0]["fit"]["b_hat"]["index"] += 1
    assert _check(case, wrong_date)[1] == 1
    wrong_ssr = json.loads(json.dumps(report))
    profile = wrong_ssr["stages"]["breaks"][0]["fit"]["ssr_profile"]
    profile["ssr"] = [v * (1 + 1e-6) for v in profile["ssr"]]
    assert _check(case, wrong_ssr)[1] == 1
