"""End-to-end runs of the harness at toy size, and its failure mode."""

import json
import shutil
import subprocess
import sys
import time

from benchmarks.suite import layout, metrics, runner, workloads


def test_toy_run_of_every_workload_traced_and_untraced(tmp_path):
    out = tmp_path / "run.json"
    started = time.monotonic()
    completed = subprocess.run(
        [sys.executable, "-m", "benchmarks.suite", "run", "--toy",
         "--seed", "3", "--trace", "--seconds", "10", "--out", str(out)],
        cwd=layout.ROOT, capture_output=True, text=True, timeout=120,
    )
    elapsed = time.monotonic() - started
    assert completed.returncode == 0, completed.stdout + completed.stderr
    assert elapsed < 60
    assert "all checks passed" in completed.stdout
    report = json.loads(out.read_text())
    assert set(report["workloads"]) == set(workloads.WORKLOADS)
    for name, entry in report["workloads"].items():
        assert entry["correct"] and entry["failed"] == 0, name
        for metric in metrics.END_TO_END:
            value = entry["metrics"][metric.name]
            assert value["unit"] == metric.unit
            assert value["value"] > 0, (name, metric.name)
        assert set(entry["per_layer"]) >= {m.name for m in metrics.PER_LAYER}
        assert entry["trace_overhead_share"] is not None
    assert "hit_latency_p50_ms" in report["workloads"]["serve"]["metrics"]
    # Spans of the workload process itself and of its workers both count.
    batch = report["workloads"]["batch"]["per_layer"]
    assert batch["batch.submit_ms_per_task"]["value"] > 0
    assert batch["pslang.lex.calls_per_script"]["value"] > 0
    serve = report["workloads"]["serve"]["per_layer"]
    assert serve["service.edge_ms_per_request"]["value"] is not None
    assert serve["service.dispatch_ms_per_miss"]["value"] > 0


def test_result_line_carries_exactly_the_named_metrics():
    measurement = runner.Measurement(
        {"attempted": 3, "failed": 0}, [0.1],
        metrics={"setup_s": 0.1, "scripts_per_s": 2.0},
    )
    line = runner.result_line(measurement, [
        metrics.Metric("setup_s", "s", "lower"),
        metrics.Metric("scripts_per_s", "1/s", "higher"),
    ])
    assert line == {
        "correct": True,
        "attempted": 3,
        "failed": 0,
        "metrics": {
            "setup_s": {"value": 0.1, "unit": "s"},
            "scripts_per_s": {"value": 2.0, "unit": "1/s"},
        },
    }


def test_fails_without_output_where_there_is_no_program(tmp_path):
    bare = tmp_path / "bare"
    shutil.copytree(
        layout.SUITE_DIR, bare / "benchmarks" / "suite",
        ignore=shutil.ignore_patterns("__pycache__", ".state"),
    )
    shutil.copy(layout.BENCHMARK_JSON, bare / "BENCHMARK.json")
    completed = subprocess.run(
        [sys.executable, "benchmarks/suite/run.py", "--workload", "batch",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=60,
    )
    assert completed.returncode != 0
    assert completed.stdout == ""
    assert not (bare / "benchmarks" / "suite" / ".state").exists()
