"""Fast self-check of the benchmark harness.

Runs every workload at smoke size, untraced and traced, through the same
command line the benchmark uses, and asserts that the result line carries
exactly the metrics BENCHMARK.json declares, each with its unit, and that
the correctness checks passed. Run from the repository root:

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]

sys.path.insert(0, str(ROOT / "perfbench"))
from spans import Tracer  # noqa: E402


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd,
        capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_bench(ROOT, "--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--size", "smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    facts = json.loads(lines[-2])["facts"]
    assert facts["seed"] == 5 and facts["nproc"] >= 1
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    emitted = result["metrics"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in emitted.items()}
    for name, m in emitted.items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
    if trace:
        assert emitted["trace.coverage"]["value"] >= 0.9
    else:
        for m in BENCH["end_to_end"]:
            assert emitted[m["name"]]["value"] > 0, m["name"]


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in BENCH["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", WORKLOADS[0], "--seed", "1",
                     "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_self_time_subtracts_child_spans():
    tr = Tracer()
    outer = tr.begin(tr.sid("training.train"))
    inner = tr.begin(tr.sid("autodiff.op.add"))
    tr.end(inner)
    tr.end(outer)
    tr.t0[outer], tr.t1[outer] = 0.0, 0.010
    tr.t0[inner], tr.t1[inner] = 0.002, 0.005
    m = tr.summary(wall_s=0.010)
    assert m["autodiff.op_ms.add"][0] == pytest.approx(3.0)
    assert m["autodiff.op_calls.add"][0] == 1
    assert m["training.self_ms"][0] == pytest.approx(7.0)
    assert m["autodiff.self_ms"][0] == pytest.approx(3.0)
    assert m["trace.coverage"][0] == pytest.approx(1.0)
    spans = tr.spans()
    assert list(spans["parent"]) == [-1, 0]
    assert np.all(spans["t1"] >= spans["t0"])
