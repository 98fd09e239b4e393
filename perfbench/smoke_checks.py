"""The benchmark's own checks: every workload at tiny seeded sizes.

Run with ``python3 -m pytest perfbench/smoke_checks.py -q`` (about a
minute).  The file name keeps it out of the repository's default test
discovery; the output checks are as strict as in a full run.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

import layers

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("synth-suite", "mc-campaigns", "cli-cold", "served-mix")


def _spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def _run(root: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"), *args],
        cwd=root, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_a_correct_result(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "5", "--seconds",
                "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    expected = _spec()["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())
        assert "provenance " in proc.stdout and "named " in proc.stdout


def test_benchmark_json_lists_every_layer_metric():
    per_layer = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
    assert per_layer == layers.PER_LAYER


def test_a_directory_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".work"))
    proc = _run(str(tmp_path), "--workload", "cli-cold", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_excludes_nested_wrapped_calls():
    class Calls:
        @staticmethod
        def outer():
            return Calls.inner() + 1

        @staticmethod
        def inner():
            return 1

    clock = layers.LayerClock()
    clock.wrap(Calls, "outer", "outer")
    clock.wrap(Calls, "inner", "inner")
    assert Calls.outer() == 2
    snapshot = clock.snapshot()
    assert snapshot["calls"] == {"outer": 1, "inner": 1}
    assert snapshot["self_s"]["outer"] == pytest.approx(
        snapshot["total_s"]["outer"] - snapshot["total_s"]["inner"])


def test_importtime_folds_by_top_level_package():
    stderr = ("import time: self [us] | cumulative | imported package\n"
              "import time:      1000 |       1500 | numpy.core\n"
              "import time:       500 |        500 |   numpy\n"
              "import time:      2000 |       2000 | repro.engine\n"
              "import time:       250 |        250 | json\n")
    folded = layers.fold_importtime(stderr)
    assert folded == pytest.approx({"total": 0.00375, "numpy": 0.0015,
                                    "scipy": 0.0, "repro": 0.002})
