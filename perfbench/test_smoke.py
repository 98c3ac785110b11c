"""Smoke test of the benchmark at toy size.

Runs every workload of ``BENCHMARK.json`` in both modes through the real
command line, checks the result line against the declared metrics, and
shows that the output check counts an altered result as a failure.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

from workloads import WORKLOADS  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    BENCH = json.load(_fh)
NAMES = [w["name"] for w in BENCH["workloads"]]


def _run(cwd: str, *args: str) -> subprocess.CompletedProcess[str]:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", NAMES)
def test_prints_every_metric_with_its_unit(workload: str, trace: int) -> None:
    out = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "0.5",
        "--trace", str(trace), "--toy",
    )
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in declared}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_check_counts_an_altered_result(workload: str) -> None:
    bench = WORKLOADS[workload](3, True)
    try:
        bench.setup()
        bench.step(0)
        checked, failed = bench.check()
        assert checked > 0
        assert failed == 0
        altered = bench.samples["first"][0][-1]
        altered.decided_phase[0] += 1
        assert bench.check() == (checked, 1)
    finally:
        bench.close()


def test_refuses_to_run_without_the_program(tmp_path: str) -> None:
    shutil.copytree(HERE, os.path.join(tmp_path, "perfbench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    out = _run(str(tmp_path), "--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0")
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
