"""Tiny-scale smoke runs of every workload, and the failure contract.

These start the real pipeline and servers, so they take a minute or
two: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(cwd: Path, workload: str, trace: int = 0) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "13",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_prints_every_metric_and_passes_its_oracles(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    record = json.loads(lines[-2])["record"]
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    names = [m["name"] for m in SPEC["per_layer" if trace else "end_to_end"]]
    assert list(result["metrics"]) == names
    values = {name: m["value"] for name, m in result["metrics"].items()}
    assert record["machine"]["nproc"] >= 1 and record["trace"] == bool(trace)
    if not trace:
        assert all(value > 0 for value in values.values()), values
        return
    other = "sqlite" if workload == "cold-ram" else "ram"
    assert values[f"store.{other}.calls_per_request"] == 0
    assert values["serve.app.handle.calls"] > 0
    assert values["bench.gen.ceiling_rps"] > 0
    if workload == "cold-ram":
        assert values["pipeline.task.covered_frac"] >= 0.8
        assert values["webgen.generate.calls"] > 0
        assert values["perf.cache.put.calls"] > 0
    else:
        assert values["webgen.generate.calls"] == 0
        assert values["perf.cache.put.calls"] == 0
        assert values["perf.cache.hit_ratio"] == 1.0


def _copy(tmp_path: Path, with_src: bool) -> Path:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    ignore = shutil.ignore_patterns("__pycache__", "*.pyc")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=ignore)
    if with_src:
        shutil.copytree(ROOT / "src", tmp_path / "src", ignore=ignore)
    return tmp_path


def test_refuses_to_run_without_the_program(tmp_path):
    proc = _run(_copy(tmp_path, with_src=False), "cold-ram")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_artifact_mismatch_fails_the_run(tmp_path):
    checkout = _copy(tmp_path, with_src=True)
    refs_path = checkout / "perfbench" / "reference_digests.json"
    refs = json.loads(refs_path.read_text())
    refs["tiny"]["table1.txt"] = "0" * 64
    refs_path.write_text(json.dumps(refs))
    proc = _run(checkout, "cold-ram")
    assert proc.returncode == 1, proc.stderr[-4000:]
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    runs = len(json.loads(lines[-2])["record"]["facts"]["walls_s"])
    # One wrong artifact in each repeated pipeline run.
    assert not result["correct"] and result["failed"] == runs
