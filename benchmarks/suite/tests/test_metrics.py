"""Percentile rule, counter aggregation and per-layer arithmetic."""

import pytest

from benchmarks.suite import metrics
from benchmarks.suite.spans import ROOT_SPAN


@pytest.mark.parametrize(
    "count, expected",
    [
        (0, None),
        (19, None),
        (20, 50.0),
        (99, 50.0),
        (100, 90.0),
        (199, 90.0),
        (200, 95.0),
        (999, 95.0),
        (1000, 99.0),
        (9999, 99.0),
        (10000, 99.9),
    ],
)
def test_highest_supported_percentile_leaves_ten_samples_beyond(count, expected):
    assert metrics.highest_supported_percentile(count) == expected


def test_supported_percentiles_of_the_full_workloads():
    # wild-small has 1000 scripts (p99), wild-large 200 (p95), serve
    # about 1000 misses (p99) and batch 1100 tasks (p99).
    assert metrics.highest_supported_percentile(1000) == 99.0
    assert metrics.highest_supported_percentile(200) == 95.0


def test_percentile_interpolates_between_ranks():
    values = [4.0, 1.0, 3.0, 2.0]
    assert metrics.percentile(values, 50) == 2.5
    assert metrics.percentile(values, 0) == 1.0
    assert metrics.percentile(values, 100) == 4.0
    with pytest.raises(ValueError):
        metrics.percentile([], 50)


def _stats_row(**overrides):
    row = {
        "evaluator_steps": 10,
        "subtree_memo_hits": 1,
        "subtree_memo_misses": 3,
        "trace_hits": 2,
        "trace_misses": 2,
        "iterations": 3,
        "layers_unwrapped": 1,
        "recovery_outcomes": {"recovered": 1, "blocked": 0, "unsupported": 3},
    }
    row.update(overrides)
    return row


def test_sum_counters_adds_rows():
    totals = metrics.sum_counters([_stats_row(), _stats_row()])
    assert totals["evaluator_steps"] == 20
    assert totals["pieces"] == 8
    assert totals["recovered"] == 2


def test_missing_or_renamed_counters_become_null():
    renamed = _stats_row()
    renamed["evaluator_step_count"] = renamed.pop("evaluator_steps")
    no_outcomes = _stats_row()
    del no_outcomes["recovery_outcomes"]
    totals = metrics.sum_counters([_stats_row(), renamed, no_outcomes])
    assert totals["evaluator_steps"] is None
    assert totals["pieces"] is None and totals["recovered"] is None
    assert totals["trace_hits"] == 6


def _traced_result(**overrides):
    ms = 1_000_000
    result = {
        "workload": "wild-small",
        "layers": {
            ROOT_SPAN: [2, 2 * ms, 20 * ms, 0],
            "pslang.lex": [6, 8 * ms, 8 * ms, 600],
            "pslang.parse": [4, 10 * ms, 10 * ms, 0],
        },
        "missing_layers": [],
        "counters": metrics.sum_counters([_stats_row(), _stats_row()]),
        "pipeline_ms": [10.0, 10.0],
        "input_chars": 100,
        "parse_cache": [1, 3],
        "workers": 1,
        "wall_s": 0.025,
        "latencies_ms": [10.0, 10.0],
        "hit_latencies_ms": [],
    }
    result.update(overrides)
    return result


def test_per_layer_metrics_from_a_traced_result():
    out = metrics.per_layer(_traced_result())
    assert out["pslang.lex.calls_per_script"] == 3
    assert out["pslang.lex.chars_per_input_char"] == 6
    assert out["pslang.lex.self_ms_per_script"] == 4
    assert out["pslang.lex.chars_per_s"] == pytest.approx(600 / 0.008)
    assert out["pslang.parse_cache.hit_ratio"] == 0.25
    assert out["runtime.memo.hit_ratio"] == 0.25
    assert out["core.recovery.recovered_ratio"] == 0.25
    assert out["core.pipeline.residual_share"] == 0.1
    assert out["delivery.busy_share"] == pytest.approx(0.8)
    # A layer that never ran took no time; it is not missing.
    assert out["runtime.evaluator.self_ms_per_script"] == 0
    assert set(out) >= {metric.name for metric in metrics.PER_LAYER}


def test_missing_layers_and_counters_report_null_without_crashing():
    counters = metrics.sum_counters([_stats_row(evaluator_steps=None)])
    out = metrics.per_layer(_traced_result(
        missing_layers=["pslang.lex"], counters=counters, parse_cache=None,
    ))
    assert out["pslang.lex.calls_per_script"] is None
    assert out["pslang.lex.chars_per_s"] is None
    assert out["pslang.parse_cache.hit_ratio"] is None
    assert out["runtime.evaluator.steps_per_script"] is None
    assert out["pslang.parse.calls_per_script"] == 2


def test_breakdown_shares_add_up_to_one():
    shares = metrics.breakdown(_traced_result())
    assert sum(entry["share"] for entry in shares.values()) == pytest.approx(1)
    assert shares[ROOT_SPAN]["share"] == pytest.approx(0.1)
