"""Self-tests of the benchmark harness (tiny inputs, about ten seconds).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import checks  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import hyparc.exact_linalg  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_tiny(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_tiny_run_prints_every_metric_with_its_unit(workload, trace):
    proc = run_tiny(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCH["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    table = "\n".join(lines[:-1])
    for m in declared:
        assert m["name"] in table


def test_per_layer_metrics_match_the_tracer():
    assert [(m["name"], m["unit"]) for m in BENCH["per_layer"]] == [
        (name, unit) for name, unit, _ in tracing.METRICS
    ]


def test_wrong_reference_answer_counts_as_failure():
    seed = workloads.DEFAULT_SEED
    cases = workloads.cases("batch_small", seed, "tiny")
    reference = worker.reference_for("batch_small", seed, "tiny")
    results = worker.run_pass(cases)
    assert worker.check_pass(cases, results, reference) == ([], 0)
    wrong = [dict(entry) for entry in reference]
    wrong[3]["d_max"] += 1
    failures, changed = worker.check_pass(cases, results, wrong)
    assert len(failures) == 1 and "d_max differs from the reference" in failures[0]
    assert changed == 0


def test_witness_recheck_catches_a_point_on_a_hyperplane():
    case = workloads.cases("hyperbolic", 0, "tiny")[0]
    [(code, out, _)] = worker.run_pass([case])
    doc = json.loads(out)
    f = doc["forms"][0]
    point = [f[1], -f[0]] + [0] * (len(f) - 2) if (f[0], f[1]) != (0, 0) else [1] + [0] * (len(f) - 1)
    doc["witness_subspace"]["point_basis"] = [point]
    found = checks.problems(case, code, json.dumps(doc).encode(), None)
    assert found == ["form 0 vanishes on the witness"]


def test_missing_hook_target_gives_absent_counter(monkeypatch):
    original_span = hyparc.exact_linalg.span
    monkeypatch.delattr(hyparc.exact_linalg, "solve_coordinates")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        results = worker.run_pass(workloads.cases("partition_search", 0, "tiny"), tracer)
    finally:
        tracer.uninstall()
    assert hyparc.exact_linalg.span is original_span
    assert all(code == 0 for code, _, _ in results)
    assert tracer.missing == {"hyparc.exact_linalg.solve_coordinates"}
    metrics = tracer.metrics()
    assert "exact_linalg.solve_coordinates_calls" not in metrics
    assert "exact_linalg.kernel_self_s.witness" not in metrics
    assert metrics["exact_linalg.intersect_calls"] > 0
    assert metrics["exact_linalg.intersect_calls.verdict"] == metrics["exact_linalg.intersect_calls.cross_check"]


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = run_tiny("batch_small", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
