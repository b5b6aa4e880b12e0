"""Smoke test of the benchmark at tiny sizes, so it cannot rot silently.

    python3 -m pytest perfbench/test_smoke.py

Tiny sizes: ``verify --max-g 3``, ``table --max-k 8``,
``verify-localization --max-k 8`` and one block of 3 point queries.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer  # noqa: E402

COUNT_UNITS = ("count", "computed_mults", "bits")


def _tiny(workload, trace):
    return run.Run(workload, seed=7, seconds=0, size="smoke").execute(trace)


def test_benchmark_json_lists_what_run_py_emits():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] \
        == list(run.PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_end_to_end_run_checks_and_reports_every_metric(workload):
    result = _tiny(workload, trace=False)
    assert result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == 0
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] \
        == list(run.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_counts_repeat_exactly(workload):
    first, second = _tiny(workload, trace=True), _tiny(workload, trace=True)
    assert first["correct"] and second["correct"]
    assert [(name, m["unit"]) for name, m in first["metrics"].items()] \
        == [(name, unit) for name, unit, _ in run.PER_LAYER]
    counts = [{name: m["value"] for name, m in result["metrics"].items()
               if m["unit"] in COUNT_UNITS} for result in (first, second)]
    assert counts[0] == counts[1]


@pytest.mark.parametrize("workload, nonzero", [
    ("verify_g20", ("identities.P_poly.calls", "kernels.poly_mul.mults",
                    "cli.run_identity_suite.total_s", "cli.main.self_s")),
    ("table_bulk", ("values.base_value.calls", "values.resolve_per_value",
                    "values.table.calls")),
    ("localization_sweep", ("localization.graph_contribution.calls",
                            "algebra.laurent_sum.calls",
                            "values.closed.hits")),
    ("point_queries", ("values.recursive_D.calls", "values.base_value.calls")),
])
def test_each_workload_reaches_its_layers(workload, nonzero):
    metrics = _tiny(workload, trace=True)["metrics"]
    assert all(metrics[name]["value"] > 0 for name in nonzero)


def test_deep_probe_failure_is_counted_once_at_the_values_boundary():
    metrics = _tiny("point_queries", trace=True)["metrics"]
    assert metrics["values.ops_failed"]["value"] == 1
    assert sum(metrics[f"{layer}.ops_failed"]["value"]
               for layer in run.LAYERS) == 1


def test_computed_kernel_mults():
    assert tracer._poly_mul_mults(([1] * 3, [1] * 4), {}) == 12
    # factors update 1, 2, 3 coefficients; truncated at degree 1: 1, 2, 2
    assert tracer._linear_product_mults(([1] * 3,), {}) == 6
    assert tracer._linear_product_mults(([1] * 3,), {"max_degree": 1}) == 5
    assert tracer._linear_product_mults(([1] * 3, 0), {}) == 3


def test_query_blocks_follow_the_seed():
    first = run.query_block(5, 0, *run.QUERY_SHAPE["full"])
    assert first == run.query_block(5, 0, *run.QUERY_SHAPE["full"])
    assert first != run.query_block(6, 0, *run.QUERY_SHAPE["full"])
    assert len(first) == 18
    assert all(i in run.QUERY_I and k % 2 == 0 and 8 <= k <= 120
               for _, i, k in first)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "table_bulk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
