"""Smoke test of the benchmark harness at its smallest size.

Run from the repository root::

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
LAYERS = json.loads((ROOT / "perfbench" / "layers.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]


def run_bench(workload: str, trace: int, *extra: str, cwd: Path = ROOT):
    done = subprocess.run(
        [*BENCH["command"], "--workload", workload, "--seed", "3", "--seconds", "1",
         "--trace", str(trace), "--size", "small", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )
    return done


def result_of(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def results():
    return {
        (workload, trace): result_of(run_bench(workload, trace))
        for workload in WORKLOADS
        for trace in (0, 1)
    }


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_emitted_with_its_unit(results, workload, trace, section):
    result = results[(workload, trace)]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in BENCH[section]}
    emitted = {name: entry["unit"] for name, entry in result["metrics"].items()}
    assert emitted == declared
    if section == "end_to_end":
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_layer_mapping_names_defined_metrics_and_workloads():
    layer_metrics = {m["name"] for m in BENCH["per_layer"]}
    known = layer_metrics | {m["name"] for m in BENCH["end_to_end"]}
    for entry in LAYERS["mapping"]:
        assert entry["metric"] in layer_metrics, entry["metric"]
        for workload, metric in entry["moves"] + entry["unchanged"]:
            assert workload in WORKLOADS, (entry["metric"], workload)
            assert metric in known, (entry["metric"], metric)


def test_planted_wrong_answer_raises_error_rate(tmp_path):
    expected = json.loads((ROOT / "perfbench" / "expected.json").read_text())
    expected["refine"]["verdicts"]["branch-combine"] = True  # a genuine negative
    planted = tmp_path / "expected.json"
    planted.write_text(json.dumps(expected))
    result = result_of(run_bench("refine", 0, "--expected", str(planted)))
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run_bench("paper_flows", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout
