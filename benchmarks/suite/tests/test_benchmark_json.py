"""``BENCHMARK.json`` declares exactly what the suite measures."""

import json
import re

import pytest

from benchmarks.suite import layout, metrics, runner, workloads

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    with open(layout.BENCHMARK_JSON, encoding="utf-8") as handle:
        return json.load(handle)


def test_top_level_keys(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end",
        "per_layer",
    }
    assert declared["paths"] == ["benchmarks/suite"]
    assert declared["command"][:2] == ["python3", "benchmarks/suite/run.py"]
    assert declared["run_seconds"] == runner.DEFAULT_SECONDS


def test_workloads_match_the_suite(declared):
    assert [w["name"] for w in declared["workloads"]] == list(
        workloads.WORKLOADS
    )
    for workload in declared["workloads"]:
        assert set(workload) == {"name", "why"}
        assert "\n" not in workload["why"] and len(workload["why"]) <= 200


@pytest.mark.parametrize(
    "section, table", [("end_to_end", metrics.END_TO_END),
                       ("per_layer", metrics.PER_LAYER)],
)
def test_metrics_match_the_suite_tables(declared, section, table):
    entries = declared[section]
    expected = [
        {"name": m.name, "unit": m.unit, "better": m.better}
        for m in table
    ]
    if section == "end_to_end":
        for entry, metric in zip(expected, table):
            entry["bound"] = metric.bound
    assert entries == expected
    for entry in entries:
        assert NAME.match(entry["name"]) and UNIT.match(entry["unit"])


def test_bounds_are_within_the_contract(declared):
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    assert all(0 < bound <= 0.25 for bound in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())


def test_every_name_is_used_once(declared):
    names = [w["name"] for w in declared["workloads"]]
    names += [m["name"] for m in declared["end_to_end"] + declared["per_layer"]]
    assert len(names) == len(set(names))
