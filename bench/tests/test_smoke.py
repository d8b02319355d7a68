"""Smoke tests: the benchmark runs end to end at its smallest size.

    python3 -m pytest bench/tests
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
RUN = os.path.join(BENCH, "run.py")


def _run(cwd: str, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.2", "--trace", str(trace), "--size", "smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", ["audit", "hunt", "decide"])
def test_smallest_size_runs_and_reports_every_metric(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    values = [m["value"] for m in result["metrics"].values()]
    assert values and all(isinstance(v, (int, float)) for v in values)
    if not trace:  # end-to-end metrics are never 0
        assert all(v > 0 for v in values)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = _run(str(tmp_path), "audit", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_gate_confirms_and_refutes_none():
    sys.path[:0] = [os.path.join(ROOT, "src"), BENCH]
    try:
        import gate
        import graphs
        from dpcharge.cover import cover_from_json, identity_cover
    finally:
        del sys.path[:2]
    g, text = graphs.gadget(4, seed=1)
    assert gate.confirm_none(cover_from_json(text, graph=g.graph), None) is True
    colourable = identity_cover(graphs.cycle(5, seed=1).graph, 3)
    assert gate.confirm_none(colourable, None) is False
