"""Smoke test for the benchmark: tiny sizes, every metric name emitted.

Run from the repository root::

    python3 -m pytest perfbench/test_smoke.py -q

Each workload runs once untraced and once traced with ``--smoke``
(a few short runs instead of the full workload).  The test checks the
exit code, the output checks, and that the last stdout line names
exactly the metrics ``BENCHMARK.json`` declares, with their units.  It
also checks that the benchmark fails cleanly in a directory holding only
``BENCHMARK.json`` and the benchmark's own files.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _handle:
    SPEC = json.load(_handle)


def run_bench(cwd: str, workload: str, trace: int, smoke: bool = True):
    command = SPEC["command"] + [
        "--workload",
        workload,
        "--seed",
        "3",
        "--seconds",
        "0",
        "--trace",
        str(trace),
    ]
    if smoke:
        command.append("--smoke")
    return subprocess.run(
        [sys.executable if part == "python3" else part for part in command],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted(workload, trace):
    done = run_bench(ROOT, workload, trace)
    assert done.returncode == 0, done.stderr[-3000:]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [metric["name"] for metric in declared]
    for metric in declared:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], float)
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            os.path.join(ROOT, path),
            tmp_path / path,
            ignore=shutil.ignore_patterns("__pycache__"),
        )
    done = run_bench(str(tmp_path), SPEC["workloads"][0]["name"], 0, smoke=False)
    assert done.returncode != 0
    assert done.stdout.strip() == ""
