"""End-to-end smoke runs of the benchmark on a seconds-long sl(3) config."""

import json
import shutil
import subprocess
import sys
import time

import pytest

import run
from conftest import BENCH, REPO

SMOKE = {"algebras": ["sl(3)"],
         "suites": ["construct", "casimir", "identities", "projectors", "ybe"],
         "warm": ["defining", "adjoint_context"]}


@pytest.fixture
def smoke(tmp_path, monkeypatch):
    """A 'smoke' workload whose expected checks come from a traced run."""
    monkeypatch.setattr(run, "ROOT", REPO)
    monkeypatch.setattr(run, "SRC", REPO / "src")
    monkeypatch.setattr(run, "EXPECTED_DIR", tmp_path)
    monkeypatch.setattr(run, "OUT_DIR", tmp_path / "out")
    monkeypatch.setitem(run.WORKLOADS, "smoke", SMOKE)
    (tmp_path / "smoke.json").write_text('{"checks": [], "records": []}')
    first = run.Sampler("smoke", 3, time.perf_counter() + 120).run(True)
    (tmp_path / "smoke.json").write_text(json.dumps(
        {"checks": first["checks"], "records": first["records"]}))
    return first


def test_traced_counts_repeat_exactly(smoke):
    again = run.Sampler("smoke", 3, time.perf_counter() + 120).run(True)
    assert again["ok"], again["errors"]
    counts = {k: v for k, v in again["layers"].items()
              if not k.endswith("_s")}
    assert counts == {k: v for k, v in smoke["layers"].items()
                      if not k.endswith("_s")}
    assert counts["identities.verify.calls"] > 0
    assert counts["projectors.verify.calls"] > 0


def test_gate_rejects_a_weaker_check_list(smoke, tmp_path):
    expected = json.loads((tmp_path / "smoke.json").read_text())
    expected["records"][0]["trials"] += 1
    expected["checks"][-1][3] = "exact_full"
    (tmp_path / "smoke.json").write_text(json.dumps(expected))
    sample = run.Sampler("smoke", 3, time.perf_counter() + 120).run(True)
    assert not sample["ok"]
    assert any("check list differs" in e for e in sample["errors"])
    assert any("verification records" in e for e in sample["errors"])


@pytest.mark.parametrize("trace", [0, 1])
def test_main_prints_every_metric(smoke, trace, capsys):
    code = run.main(["--workload", "smoke", "--seed", "3", "--seconds", "1",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert code == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= (2 if trace else run.MIN_SAMPLES)
    spec = run.load_benchmark_spec()
    names = [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    if not trace:
        assert result["metrics"]["check_pass_ratio"]["value"] == 1.0
    else:
        assert result["metrics"]["trace.overhead_s"]["value"] != 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "verify-sp6",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
