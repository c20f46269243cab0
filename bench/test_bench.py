"""Self-tests of the benchmark: python3 -m pytest bench -q"""

from __future__ import annotations

import importlib
import json
import time
from pathlib import Path

import pytest

import spans
import workloads

ROOT = Path(__file__).resolve().parents[1]
SMOKE = workloads.Workload("smoke", "demo", days=2, train_days=1)
SMOKE_CLI = workloads.Workload("smoke_cli", "demo", days=2, train_days=1, cli=True)


def span(sid, start, end, parent=None, run="r"):
    return spans.Span(sid, f"s{sid}", start, end, parent, run)


def test_self_time_subtracts_nested_and_back_to_back_children():
    tree = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 3.0, parent=0),
        span(2, 3.0, 6.0, parent=0),  # starts where 1 ends
        span(3, 4.0, 5.0, parent=2),  # grandchild: only 2 loses it
        span(4, 8.0, 9.0, parent=0),
    ]
    own = spans.self_times(tree)
    assert own[("r", 0)] == pytest.approx(10.0 - 2.0 - 3.0 - 1.0)
    assert own[("r", 1)] == pytest.approx(2.0)
    assert own[("r", 2)] == pytest.approx(2.0)
    assert own[("r", 3)] == pytest.approx(1.0)
    assert own[("r", 4)] == pytest.approx(1.0)


def test_self_time_keeps_runs_apart():
    tree = [
        span(0, 0.0, 10.0),
        span(1, 2.0, 6.0, parent=0),
        span(0, 0.0, 1.0, run="other"),  # same id, other process
    ]
    own = spans.self_times(tree)
    assert own[("r", 0)] == pytest.approx(6.0)
    assert own[("other", 0)] == pytest.approx(1.0)


def test_tracer_links_each_span_to_the_enclosing_one():
    tracer = spans.Tracer("t")
    with tracer.span("outer"):
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
    by_name = {s.name: s for s in tracer.spans}
    assert by_name["outer"].parent is None
    assert by_name["first"].parent == by_name["outer"].id
    assert by_name["second"].parent == by_name["outer"].id
    assert sum(spans.self_time_by_name(tracer.spans).values()) == pytest.approx(
        by_name["outer"].end - by_name["outer"].start
    )


def test_metric_names_and_units_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    as_rows = lambda items: [(m["name"], m["unit"], m["better"]) for m in items]
    assert as_rows(spec["end_to_end"]) == list(workloads.END_TO_END)
    assert as_rows(spec["per_layer"]) == list(workloads.PER_LAYER)
    assert {w["name"] for w in spec["workloads"]} <= set(workloads.WORKLOADS)


def site_values():
    return [
        getattr(importlib.import_module(module), attr) for module, attr, _, _ in spans.SITES
    ]


def test_wrappers_are_restored_even_when_the_block_raises():
    before = site_values()
    with pytest.raises(RuntimeError):
        with spans.installed(spans.Tracer("t")):
            during = site_values()
            assert all(a is not b for a, b in zip(before, during))
            raise RuntimeError("stop")
    assert all(a is b for a, b in zip(before, site_values()))


def check_result(result, expected):
    assert result["correct"], result["problems"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    assert [(k, m["unit"]) for k, m in result["metrics"].items()] == [
        (name, unit) for name, unit, _ in expected
    ]


def test_smoke_library_run_reports_every_metric(tmp_path):
    result = workloads.timed_run(SMOKE, 0, 0.0, tmp_path)
    check_result(result, workloads.END_TO_END)
    assert all(m["value"] > 0 for m in result["metrics"].values())
    # set-up is sampled again in every round, next to the short phases
    assert len(result["detail"]["setup_s"]) >= 1 + workloads.MIN_ROUNDS
    before = site_values()
    traced = [workloads.traced_run(SMOKE, 0, tmp_path) for _ in range(2)]
    assert all(a is b for a, b in zip(before, site_values()))
    for t in traced:
        check_result(t, workloads.PER_LAYER)
    assert traced[0]["detail"]["counts"] == traced[1]["detail"]["counts"]
    metrics = traced[0]["metrics"]
    assert metrics["modes.lw_cluster_s"]["value"] > 0
    assert metrics["classifier.events"]["value"] == sum(
        metrics[f"classifier.stage.{s}"]["value"] for s in workloads.LABEL_STAGES
    )
    assert metrics["classifier.single_after_enforce_cycle_closure"]["value"] == 1.0


def test_smoke_cli_run_matches_the_library_run(tmp_path):
    result = workloads.timed_run(SMOKE_CLI, 0, 0.0, tmp_path)
    check_result(result, workloads.END_TO_END)
    assert len(result["detail"]["setup_s"]) == 1 + workloads.MIN_ROUNDS
    traced = workloads.traced_run(SMOKE_CLI, 0, tmp_path)
    check_result(traced, workloads.PER_LAYER)
    for name in ("cli.import_s", "dataset.read_channel_s", "model_io.load_models_s"):
        assert traced["metrics"][name]["value"] > 0
    assert traced["metrics"]["model_io.model_bytes"]["value"] > 0


def test_a_wrong_label_fails_the_round(tmp_path):
    state = workloads.RunState(SMOKE_CLI, 0, tmp_path)
    reference = workloads.Outputs("m", "r", [(1, "a", "off", "on1")], {"a": 1.0}, 1.0, 0)
    wrong = workloads.Outputs("m", "r", [(1, "b", "off", "on1")], {"a": 1.0}, 1.0, 0)
    workloads.check_round(state, workloads.Round(1.0, [1.0], [1.0], wrong), "r0", reference)
    assert state.checks.failed == 1
    assert "differ from the in-process labels" in state.checks.problems[0]


def test_rounds_stop_after_the_minimum_once_time_is_up(tmp_path):
    def one_round(tag):
        time.sleep(0.01)
        return workloads.Round(1.0, [1.0], [1.0], None)

    least = workloads.MIN_ROUNDS
    for seconds, expected in ((0.0, range(least, least + 1)), (0.1, range(5, 11))):
        state = workloads.RunState(SMOKE, 0, tmp_path)
        workloads.run_rounds(state, time.perf_counter() + seconds, one_round)
        assert len(state.rounds) in expected
