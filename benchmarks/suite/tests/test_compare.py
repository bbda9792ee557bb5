"""Verdicts of ``compare`` against the declared bounds."""

import json

import pytest

from benchmarks.suite import cli, compare, metrics

STEADY = [10.0, 10.1, 9.9, 10.0, 10.05, 9.95, 10.0, 10.1, 9.9, 10.0]


def test_identical_sides_are_unchanged():
    assert compare.verdict(STEADY, STEADY, "lower", 0.1)[0] == "unchanged"


def test_small_drift_within_the_bound_is_unchanged():
    worse = [v * 1.05 for v in STEADY]
    assert compare.verdict(STEADY, worse, "lower", 0.1)[0] == "unchanged"


def test_drift_beyond_the_bound_regresses_in_either_direction():
    slower = [v * 1.2 for v in STEADY]
    assert compare.verdict(STEADY, slower, "lower", 0.1)[0] == "regressed"
    fewer = [v * 0.8 for v in STEADY]
    assert compare.verdict(STEADY, fewer, "higher", 0.1)[0] == "regressed"


def test_consistent_gain_beyond_the_spread_improves():
    faster = [v * 0.9 for v in STEADY]
    outcome, wins = compare.verdict(STEADY, faster, "lower", 0.1)
    assert outcome == "improved" and wins == 1.0


def test_gain_won_in_too_few_pairs_is_not_improved():
    mixed = [v * 0.9 for v in STEADY[:8]] + [v * 1.05 for v in STEADY[8:]]
    outcome, wins = compare.verdict(STEADY, mixed, "lower", 0.1)
    assert wins == 0.8
    assert outcome == "unchanged"


def test_ties_count_for_neither_side():
    same = list(STEADY)
    assert compare.verdict(STEADY, same, "lower", 0.1)[1] == 0.0


def test_spread_wider_than_the_bound_is_unresolved():
    noisy = [5.0, 15.0, 8.0, 12.0, 10.0, 6.0, 14.0, 9.0, 11.0, 10.0]
    shifted = [v * 1.05 for v in noisy]
    assert compare.verdict(noisy, shifted, "lower", 0.1)[0] == "unresolved"


def test_wide_spread_resolves_when_every_change_run_is_better():
    noisy = [10.0, 14.0, 11.0, 13.0]
    better = [5.0, 6.0, 5.5, 6.5]
    assert compare.verdict(noisy, better, "lower", 0.1)[0] == "improved"


def test_a_zero_baseline_with_any_increase_regresses():
    assert compare.verdict([0.0] * 5, [0.0] * 4 + [0.01], "lower", 0.0)[0] == (
        "unchanged"
    )
    assert compare.verdict([0.0] * 5, [0.01] * 5, "lower", 0.0)[0] == (
        "regressed"
    )


def _run(latency, recall=1.0):
    return {
        "seed": 1,
        "workloads": {
            "wild-small": {
                "metrics": {
                    "latency_p50_ms": {"value": latency, "unit": "ms"},
                    "keyinfo_recall": {"value": recall, "unit": "ratio"},
                }
            }
        },
    }


def test_a_null_value_drops_its_pair_without_shifting_the_others():
    # Side B is 1.0 faster in every pair; unshifted pairing sees that.
    a = [_run(v) for v in (10.0, 20.0, 30.0, 40.0, 50.0)]
    b = [_run(v) for v in (9.0, None, 29.0, 39.0, 49.0)]
    values = compare.collect(b)["wild-small"]["latency_p50_ms"]
    assert values == [9.0, None, 29.0, 39.0, 49.0]
    rows = compare.compare(a, b)
    row = next(row for row in rows if row.metric == "latency_p50_ms")
    assert row.b_wins == 1.0
    assert row.a[1] == 35.0 and row.b[1] == 34.0


def test_sides_with_different_run_counts_are_rejected(tmp_path, capsys):
    with pytest.raises(ValueError):
        compare.compare([_run(10.0)] * 3, [_run(10.0)] * 2)
    a = [_run_file(tmp_path, f"a{i}.json", 10.0) for i in range(3)]
    assert cli.main(["compare", *a, "--", *a[:2]]) == 2
    assert "same number" in capsys.readouterr().err


def _run_file(tmp_path, name, latency, recall=1.0):
    data = _run(latency, recall)
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def test_compare_uses_the_bounds_declared_in_benchmark_json(tmp_path):
    bound = compare.declared_bounds()["latency_p50_ms"]
    assert bound == metrics.by_name(metrics.END_TO_END)["latency_p50_ms"].bound
    a = [_run_file(tmp_path, f"a{i}.json", 10 + i * 0.01) for i in range(5)]
    within = 10 * (1 + bound / 2)
    b = [_run_file(tmp_path, f"b{i}.json", within + i * 0.01) for i in range(5)]
    rows = compare.compare(compare.load_runs(a), compare.load_runs(b))
    verdicts = {row.metric: row.verdict for row in rows}
    assert verdicts == {"latency_p50_ms": "unchanged",
                        "keyinfo_recall": "unchanged"}
    beyond = 10 * (1 + bound * 1.5)
    c = [_run_file(tmp_path, f"c{i}.json", beyond + i * 0.01) for i in range(5)]
    rows = compare.compare(compare.load_runs(a), compare.load_runs(c))
    assert rows[0].metric == "latency_p50_ms"
    assert rows[0].verdict == "regressed"
    lossy = [
        _run_file(tmp_path, f"d{i}.json", 10.0, recall=0.99) for i in range(5)
    ]
    rows = compare.compare(compare.load_runs(a), compare.load_runs(lossy))
    verdicts = {row.metric: row.verdict for row in rows}
    assert verdicts["keyinfo_recall"] == "regressed"


def test_compare_command_exits_non_zero_on_a_regression(tmp_path, capsys):
    a = [_run_file(tmp_path, f"a{i}.json", 10.0) for i in range(3)]
    b = [_run_file(tmp_path, f"b{i}.json", 13.0) for i in range(3)]
    assert cli.main(["compare", *a, "--", *b]) == 1
    assert "regressed" in capsys.readouterr().out
    assert cli.main(["compare", *a, "--", *a]) == 0
    assert cli.main(["compare", *a]) == 2


@pytest.mark.parametrize("values", [[3.0], [1.0, 2.0], [1.0, 2.0, 3.0, 4.0]])
def test_quartiles_match_statistics_quantiles(values):
    import statistics

    q1, median, q3 = compare.quartiles(values)
    assert median == statistics.median(values)
    if len(values) > 1:
        assert [q1, median, q3] == statistics.quantiles(values, n=4)
