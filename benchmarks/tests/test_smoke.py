"""Smoke tests of the benchmark at tiny sizes (small grid, n_seq = 64).

Run from the root of the checkout: ``python3 -m pytest -q benchmarks/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def bench(workload, seed=1, trace=0, cwd=ROOT, smoke=True):
    cmd = [sys.executable, str(cwd / "benchmarks" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd + (["--smoke"] if smoke else []), cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def final(proc) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def result_file(workload) -> dict:
    return json.loads((ROOT / ".bench_out" / workload / "result.json").read_text())


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_reports_every_end_to_end_metric(workload):
    out = final(bench(workload))
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in out["metrics"].values())
    info = result_file(workload)
    assert info["seed"] == 1 and info["machine"]["threads"]["OPENBLAS_NUM_THREADS"] == "1"
    assert {"python", "numpy", "nproc", "cpu_model"} <= set(info["machine"])


def test_all_runs_each_workload():
    out = final(bench("all"))
    assert out["correct"]
    assert set(out["metrics"]) == {f"{w['name']}.{m}" for w in SPEC["workloads"]
                                   for m in END_TO_END}


def test_traced_run_reports_every_layer_metric():
    out = final(bench("queries", trace=1))
    assert out["correct"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == PER_LAYER
    for layer in ("series", "spaces", "operators", "criteria", "essnorm", "testfns", "cli"):
        assert any(v["value"] > 0 for k, v in out["metrics"].items()
                   if k.startswith(layer + ".")), layer
    info = result_file("queries")
    assert info["absent_targets"] == [] and info["traced_outputs_identical"]


def test_report_digest_repeats_at_a_seed():
    final(bench("sweep-poly", seed=7))
    first = result_file("sweep-poly")["report_sha256"]
    final(bench("sweep-poly", seed=7))
    assert result_file("sweep-poly")["report_sha256"] == first
    final(bench("sweep-poly", seed=8))
    assert result_file("sweep-poly")["report_sha256"] != first


def test_corrupted_report_is_counted_as_failed(tmp_path):
    final(bench("sweep-poly", seed=3))
    reports = tmp_path / "sweep001"
    shutil.copytree(ROOT / ".bench_out" / "sweep-poly" / "reports" / "sweep001", reports)
    record = {"dir": reports, "code": 0, "stderr": ""}
    assert run.check_sweeps([record])[:2] == (40, 0)

    victim = sorted(reports.glob("cell00007_*_criterion.json"))[0]
    rep = json.loads(victim.read_text())
    rep["verdict"] = "unbounded"
    victim.write_text(json.dumps(rep))
    nan_victim = sorted(reports.glob("cell00009_*_criterion.json"))[0]
    nan_victim.write_text(nan_victim.read_text().replace('"beta": ', '"beta": NaN, "x": ', 1))
    attempted, failed, problems = run.check_sweeps([record])
    assert (attempted, failed) == (40, 2), problems
    assert any("unbounded" in p for p in problems)
    assert any("NaN" in p for p in problems)


def test_checks_flag_each_invariant():
    good = {"verdict": "bounded", "quantities": [
        {"u": "g", "sequence_side": 1.0, "pointwise_side": 2.0, "ratio": 0.5,
         "divergence_evidence": False}]}
    assert checks.check_criterion(good) == []
    far = json.loads(json.dumps(good))
    far["quantities"][0]["ratio"] = 100.0
    assert checks.check_criterion(far)
    far["quantities"][0]["divergence_evidence"] = True
    assert checks.check_criterion(far) == []

    witness = ("vgcphi", 1.0, 1.0, checks.PHI_Z, checks.G_Z)
    assert checks.check_essnorm({"combined": 0.7358, "compact_flag": False}, *witness) == []
    assert checks.check_essnorm({"combined": 0.5, "compact_flag": False}, *witness)
    half = ("vgcphi", 2.0, 2.0, checks.PHI_HALF, checks.G_Z)
    assert checks.check_essnorm({"combined": 0.0, "compact_flag": True}, *half) == []
    assert checks.check_essnorm({"combined": 0.2, "compact_flag": False}, *half)

    claims = {"h_n": {"claims": [{"claim": "h_n'(a) = 0", "status": "verified"}]},
              "g_n": {"claims": [{"claim": "g_n(a) = 0", "status": "verified"}]},
              "g_a": {"claims": [{"claim": "g_a'(a) = 0", "status": "mismatch"}]}}
    assert checks.check_testfn_claims(claims) == []
    claims["g_a"]["claims"][0]["status"] = "verified"
    assert checks.check_testfn_claims(claims)


def test_query_exit_codes(tmp_path):
    from workloads import Query, SHALLOW_SYMBOLS

    q = Query("essnorm-shallow", ["essnorm", "--op", "ugcphi"], 0, "ugcphi", 1.0, 0.5)
    refusal = "essnorm: boundedness of ugcphi (alpha=1, beta=0.5) is not established"
    assert checks.check_query(q, SHALLOW_SYMBOLS[0], 1, refusal, tmp_path) == []
    assert checks.check_query(q, SHALLOW_SYMBOLS[0], 2, "config error", tmp_path)
    assert checks.check_query(q, SHALLOW_SYMBOLS[0], ValueError("boom"), "", tmp_path)
    crit = Query("criterion-shallow", ["criterion"], 0, "ugcphi", 1.0, 0.5)
    assert checks.check_query(crit, SHALLOW_SYMBOLS[0], 1, refusal, tmp_path)


def test_refuses_to_run_without_the_package(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    shutil.copytree(BENCH, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("sweep-poly", cwd=tmp_path, smoke=False)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_tracer_patches_every_alias_and_reports_absent_targets():
    sys.path.insert(0, str(ROOT / "src"))
    from diskvolterra import cli, operators, spaces  # noqa: F401  (cli holds targets)
    from tracing import TARGETS, Tracer

    original = spaces.golden_max
    tracer = Tracer()
    tracer.install()
    try:
        assert operators.golden_max is spaces.golden_max is not original
        assert tracer.absent == []
    finally:
        tracer.uninstall()
    assert operators.golden_max is spaces.golden_max is original

    missing = Tracer()
    missing.install(package="no_such_package")
    assert len(missing.absent) == len(TARGETS)
    metrics = missing.layer_metrics(1.0, 1.0)
    assert set(metrics) == set(PER_LAYER) and not any(metrics.values())
