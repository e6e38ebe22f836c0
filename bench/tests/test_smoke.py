"""Smoke tests for the benchmark, at tiny sizes.

Every workload runs, untraced and traced, and reports exactly the metrics
BENCHMARK.json lists; the counts that should repeat do so across two traced
runs; and verification fails an operation whose expected value is perturbed.

    python -m pytest bench/tests -q
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import worker  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
REPEATING = (".calls", "inequalities.search.points", "realism.block_pairs_mean",
             "inequalities.lp.nit")


def _bench(workload: str, trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "smoke"],
        capture_output=True, text=True, timeout=170, cwd=ROOT,
    )
    assert done.returncode == 0, done.stderr[-3000:]
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_entry_point_and_spec_list_the_same_workloads():
    import run

    assert list(run.WORKLOADS) == list(workloads.WORKLOADS) == WORKLOADS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_workload_reports_end_to_end_metrics(workload):
    result = _bench(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m["name"] for m in SPEC["end_to_end"]}
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_runs_report_layers_and_repeat_counts(workload):
    first, second = _bench(workload, trace=1), _bench(workload, trace=1)
    for result in (first, second):
        assert result["correct"] and result["failed"] == 0
        assert set(result["metrics"]) == {m["name"] for m in SPEC["per_layer"]}
    for name, reported in first["metrics"].items():
        assert reported["unit"] == second["metrics"][name]["unit"]
        if name.endswith(REPEATING):
            assert reported["value"] == second["metrics"][name]["value"], name


@pytest.mark.parametrize(
    "workload, op_name, table, key, delta",
    [
        ("mc-bulk", "v4-chsh", workloads.EXPECTED, "chsh_s", 0.05),
        ("mc-bulk", "v3-eacp", workloads.EXPECTED, "v3_excess", 1e-9),
        ("lhv-sweep-fine", "lhv-sweep", workloads.VERDICTS, "lhv-sweep", "x"),
        ("search-lp", "search-v4-local", workloads.EXPECTED, "search_v4_local", 1e-6),
        ("search-lp", "search-v3-eacp", workloads.EXPECTED, "search_v3_eacp", 1e-6),
    ],
)
def test_perturbed_expectation_fails_the_operation(
    monkeypatch, tmp_path, workload, op_name, table, key, delta
):
    built = workloads.build(workload, 3, workloads.SIZES["smoke"], tmp_path, {})
    op = next(op for op in built.ops if op.name == op_name)
    output = op.run()
    assert op.check(output) == []
    monkeypatch.setitem(table, key, table[key] + delta)
    assert op.check(output)


def test_worker_counts_a_failed_operation(monkeypatch, tmp_path):
    built = workloads.build("search-lp", 3, workloads.SIZES["smoke"], tmp_path, {})
    monkeypatch.setitem(workloads.EXPECTED, "search_v3_local", 0.6)
    result = worker.run_pass(built, 0)
    assert len(result["failures"]) == 1
    assert "search-v3-local" in result["failures"][0]


def test_cli_verdict_mismatch_fails(monkeypatch, tmp_path):
    import run

    op = workloads.CliOp("polytope", 0, None, tmp_path, run.child_env())
    output = op.run()
    assert op.check(output) == []
    monkeypatch.setitem(workloads.VERDICTS, "polytope", "admits a joint")
    assert op.check(output)

