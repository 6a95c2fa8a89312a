"""Smoke test of the benchmark itself: every workload at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py

Checks that a run prints every metric BENCHMARK.json names, with its unit,
that no invocation fails, and that the benchmark refuses to run where the
package sources are missing.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
    SPEC = json.load(fh)


def run(workload, trace, root=ROOT):
    argv = [sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
            "--seed", "3", "--seconds", "1", "--trace", str(trace), "--smoke"]
    return subprocess.run(argv, capture_output=True, text=True, cwd=root, timeout=170)


def check_metrics(result, lines, specs):
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in specs}
    for m in specs:
        assert result["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
        printed = [line.split() for line in lines if line.split()[:1] == [m["name"]]]
        assert printed and m["unit"] in printed[0], "%s not printed with its unit" % m["name"]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_end_to_end_metric(workload):
    done = run(workload, 0)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    check_metrics(result, lines[:-1], SPEC["end_to_end"])
    assert all(result["metrics"][m["name"]]["value"] > 0 for m in SPEC["end_to_end"])
    fail_line = next(line.split() for line in lines if line.split()[:1] == ["fail_ratio"])
    assert fail_line[1] == "0/%d" % result["attempted"]


def test_traced_run_prints_every_layer_metric():
    done = run("gap-verify", 1)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    check_metrics(json.loads(lines[-1]), lines[:-1], SPEC["per_layer"])
    assert any("computed" in line.split() for line in lines)
    assert any(line.startswith("tracing overhead") for line in lines)


def test_refuses_to_run_without_package_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = run(SPEC["workloads"][0]["name"], 0, root=str(tmp_path))
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
