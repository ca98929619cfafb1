"""Smoke test of the benchmark at tiny shapes, with no timing bounds.

It checks that each workload prints every metric BENCHMARK.json names and
the machine block, and that the tracer survives a function that a later
change removed.

    python3 -m pytest perfbench/test_perfbench_smoke.py
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
MACHINE_KEYS = {"XCN_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "nproc",
                "numpy", "blas", "python", "git_commit", "workload_seed"}

sys.path.insert(0, str(HERE))
from tracer import Tracer  # noqa: E402


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "5", "--seconds", "0.01", "--trace", str(trace), "--smoke"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def parse(out: subprocess.CompletedProcess) -> tuple[dict, dict]:
    assert out.returncode == 0, out.stderr
    detail, result = (json.loads(line) for line in out.stdout.strip().splitlines()[-2:])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert set(detail["machine"]) == MACHINE_KEYS
    assert detail["machine"]["XCN_THREADS"] == detail["machine"]["OPENBLAS_NUM_THREADS"]
    return detail, result


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_untraced_run_reports_every_end_to_end_metric(workload):
    detail, result = parse(run_bench(workload, 0))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["value"] > 0
    assert "positive_rate" in detail["inputs"]


def test_traced_run_reports_every_per_layer_metric():
    detail, result = parse(run_bench("criteo-100k-train", 1))
    assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    assert detail["checks"]["traced_digest_equals_untraced"] == [True]
    for name in detail["absent"]:
        assert result["metrics"][f"{name}.calls"]["value"] == 0
    assert result["metrics"]["data.load_tsv.calls"]["value"] == 1
    assert (ROOT / detail["trace_file"]).is_file()


def test_missing_function_reports_zero_calls():
    class Owner:
        def present(self, x):
            return x + 1

    tracer = Tracer()
    tracer.wrap(Owner, "present", "owner.present")
    tracer.wrap(Owner, "removed", "owner.removed")
    tracer.wrap(None, "dot", "gone.dot", count_only=True)
    tracer.run = 0
    assert Owner().present(1) == 2
    summary = tracer.summary([1])
    assert summary["owner.present"]["calls"] == 1
    assert summary["owner.removed"] == {"present": False, "calls": 0, "calls_per_inst": 0.0,
                                        "self_s": 0.0, "self_us_per_inst": 0.0}
    assert summary["gone.dot"] == {"present": False, "calls": 0, "calls_per_inst": 0.0}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = run_bench("synth-train", 0, cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""
