"""Smoke test of the benchmark: every workload, both modes, a few ops each.

    python3 -m pytest perfbench/test_perfbench.py
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_run_attributes_work_to_layers():
    proc = bench("--workload", "byte-wide", "--seed", "3", "--trace", "1", "--smoke")
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    assert metrics["macwilliams.byte_transform.pairs"]["value"] > 0
    assert metrics["macwilliams.complete_transform.cells"]["value"] == 0
    assert metrics["rings.make_ring.calls"]["value"] == 4
    meta = json.loads(proc.stdout.strip().splitlines()[-2])["meta"]
    assert meta["descriptors"]["outcomes_match"] is True


def test_same_seed_same_inputs():
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS as defined

    for workload in defined.values():
        first = [op["argv"] for _, op in zip(range(50), workload.ops(5))]
        again = [op["argv"] for _, op in zip(range(50), workload.ops(5))]
        other = [op["argv"] for _, op in zip(range(50), workload.ops(6))]
        assert first == again and first != other


def test_fails_without_the_program():
    bare = HERE / "out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
