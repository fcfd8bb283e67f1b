"""A tiny-scale traced run of each workload emits every named metric."""

import json
from pathlib import Path

import pytest

import layers
import run
from workloads import WORKLOADS, build_cells

BENCHMARK = json.loads(
    (Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text()
)


def tiny_cells():
    return build_cells(largest=False, family_names=["uniform-baseline", "pipeline"])


def test_benchmark_json_names_the_metrics_the_run_reports():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(layers.METRICS)
    assert [m["unit"] for m in BENCHMARK["per_layer"]] == list(layers.METRICS.values())
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_tiny_traced_run_reports_every_layer_metric(name, tmp_path):
    bench = run.Run(WORKLOADS[name], 1, 0, True, str(tmp_path), cells=tiny_cells)
    bench.execute()
    assert bench.failures == []
    metrics = bench.per_layer()
    assert list(metrics) == list(layers.METRICS)
    assert metrics["engine.requests_n"] > 0
    assert 0 < metrics["trace.overhead_ratio"]
    if name == "race-sharded":
        assert metrics["race.shard_busy_sum_s"] > 0
        assert metrics["race.checkpoints_n"] is not None
    else:
        assert metrics["sched.pass_n"] > 0 and metrics["metrics.price_n"] > 0
        assert 0 <= metrics["trace.unattributed_ratio"] < 1
    if name == "store-restart":
        assert metrics["store.put_n"] > 0 and metrics["store.db_mb"] > 0
        assert metrics["store.hit_ratio"] > 0
    else:
        assert metrics["store.get_n"] == 0


def test_untraced_run_reports_end_to_end_metrics(tmp_path):
    bench = run.Run(WORKLOADS["store-restart"], 1, 0, False, str(tmp_path), cells=tiny_cells)
    bench.execute()
    assert bench.failures == []
    metrics = bench.end_to_end()
    assert list(metrics) == list(run.END_TO_END)
    assert all(value > 0 for value in metrics.values())
    assert metrics["restart_s"] < metrics["design_s"]


def test_a_changed_design_is_reported_by_name(tmp_path):
    bench = run.Run(WORKLOADS["matrix-cold"], 1, 0, False, str(tmp_path), cells=tiny_cells)
    bench.run_pass(traced=False)
    bench.reference = {key: "0" * 16 for key in bench.reference}
    bench.run_pass(traced=False)
    assert len(bench.failures) == 4
    assert "differs from the first pass" in bench.failures[0]
