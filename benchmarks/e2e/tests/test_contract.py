"""BENCHMARK.json, the metric registry and a real run name the same
metrics, inside the limits the benchmark contract sets."""

import json
import os
import re
import subprocess
import sys

import pytest

from benchmarks.e2e import metrics
from benchmarks.e2e.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__)))))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def test_benchmark_json_is_the_registry(benchmark_json):
    b = benchmark_json
    assert sorted(b) == ["command", "end_to_end", "paths", "per_layer",
                         "run_seconds", "workloads"]
    assert b["paths"] == ["benchmarks/e2e"]
    assert b["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert [(w["name"], w["why"]) for w in b["workloads"]] == list(
        WORKLOADS.items())
    assert b["end_to_end"] == [
        {"name": d.name, "unit": d.unit, "better": d.better,
         "bound": d.bound} for d in metrics.END_TO_END]
    assert b["per_layer"] == [
        {"name": d.name, "unit": d.unit, "better": d.better}
        for d in metrics.PER_LAYER]


def test_benchmark_json_is_inside_the_contract_limits(benchmark_json):
    b = benchmark_json
    assert 2 <= len(b["workloads"]) <= 8
    assert 1 <= len(b["end_to_end"]) <= 16
    assert 1 <= len(b["per_layer"]) <= 128
    assert isinstance(b["run_seconds"], int) and 1 <= b["run_seconds"] <= 60
    names = [e["name"] for key in ("workloads", "end_to_end", "per_layer")
             for e in b[key]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in b["workloads"])
    for e in b["end_to_end"] + b["per_layer"]:
        assert UNIT.match(e["unit"]) and e["better"] in ("lower", "higher")
    assert all(0 < e["bound"] <= 0.25 for e in b["end_to_end"])
    setup = [e for e in b["end_to_end"] if e["name"] == "setup_s"]
    assert setup == [{"name": "setup_s", "unit": "s", "better": "lower",
                      "bound": max(e["bound"] for e in b["end_to_end"])}]
    assert set(metrics.EXACT) <= set(names)


def test_smoke_run_reports_exactly_the_named_metrics(benchmark_json, tmp_path):
    """``--smoke`` ends within 30 s, with every name of BENCHMARK.json in
    latest.json and no other, nothing failed and nothing missing."""
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "benchmarks/e2e/run.py"),
         "--smoke", "--seed", "3", "--results", str(tmp_path)],
        capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    with open(tmp_path / "latest.json", encoding="utf-8") as fh:
        latest = json.load(fh)
    assert set(latest["fingerprint"]) >= {"nproc", "python", "numpy",
                                          "git_rev", "seed"}
    assert list(latest["workloads"]) == [w["name"] for w in
                                         benchmark_json["workloads"]]
    for workload, passes in latest["workloads"].items():
        for key in ("end_to_end", "per_layer"):
            run = passes[key]
            assert run["failed"] == 0 and run["attempted"] >= 1, workload
            assert list(run["metrics"]) == [e["name"] for e in
                                            benchmark_json[key]]
            for name, entry in run["metrics"].items():
                assert isinstance(entry["value"], (int, float)), name
                assert isinstance(entry["simulated"], bool), name
        assert all(entry["value"] > 0 for entry in
                   passes["end_to_end"]["metrics"].values()), workload
        assert os.path.exists(tmp_path / f"trace_{workload}.json")
    simulated = [name for name, entry in
                 latest["workloads"]["sql_point"]["per_layer"]["metrics"]
                 .items() if entry["simulated"]]
    assert simulated == ["cluster.fanout_s_simulated"]
