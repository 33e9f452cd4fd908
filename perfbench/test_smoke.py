"""Smoke test of the benchmark at tiny size.

    python3 -m pytest perfbench
"""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import speed  # noqa: E402
import workloads  # noqa: E402


def _argvs(workload, seed, n=4):
    return [[c.argv for c in op.calls]
            for op in itertools.islice(workloads.ops(workload, seed), n)]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_ops_depend_on_the_seed_only(workload):
    assert _argvs(workload, 3) == _argvs(workload, 3)
    assert _argvs(workload, 3) != _argvs(workload, 4)


@pytest.mark.parametrize("op", [
    workloads.mc_op(workloads.MC_PHIS[1], 9, 200),
    workloads.small_ops()[1],
    *itertools.islice(workloads.ops("study", 5), 2),
], ids=["mc", "deviations", "study-base", "study-random"])
def test_small_ops_pass_their_gates(op):
    res = workloads.run_op(op)
    assert res.ok, res.reason
    assert res.wall_s > 0 and res.output_bytes > 0


def test_base_case_reference_mismatch_fails_the_op(monkeypatch):
    monkeypatch.setitem(workloads.REF_SOLVE, "A", 0.5)
    res = workloads.run_op(next(workloads.ops("study", 1)))
    assert not res.ok and "solve A=" in res.reason


def test_uncaught_exception_is_a_failed_op():
    # sigma=0.01 ends in an AssertionError that the CLI does not catch
    op = workloads.Op((workloads.Call(("solve", "--sigma", "0.01"), lambda t: 0.0),), 0)
    res = workloads.run_op(op)
    assert not res.ok and res.traceback and "AssertionError" in res.reason


def test_gauge_scales_every_op_once():
    gauge = speed.Gauge(every_s=3600.0)      # one reading for all five ops
    for _ in range(5):
        gauge.add()
    gauge.flush()
    gauge.add()
    gauge.flush()
    assert len(gauge.scales) == 6 and len(gauge.readings) == 3
    assert len(set(gauge.scales[:5])) == 1 and all(s > 0 for s in gauge.scales)


def _bench(cwd, trace):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "study", "--seed", "1",
         "--seconds", "0.2", "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180, check=False)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_run_prints_every_metric(trace, section):
    proc = _bench(ROOT, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec[section]} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    summary = json.loads(proc.stdout.splitlines()[-2])
    assert summary["domain_probe"]["attempted"] == 512


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _bench(tmp_path, 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
