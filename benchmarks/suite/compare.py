"""Compare two sets of runs, metric by metric, against the declared bounds.

Side A is the baseline (the parent commit), side B the change.  Both
sides need the same number of runs, which pair up in the order given,
so alternate the two sides when measuring.  A pair where either run has
no value for a metric is left out of that metric.  For each workload
and end-to-end metric the verdict is:

- ``improved``: B wins at least nine tenths of the pairs (ties count
  for neither side) and the medians differ, in B's favour, by more than
  A's own spread (the distance between A's quartiles);
- ``regressed``: B's median is worse than A's by more than the bound
  and by more than A's spread, both as shares of A's median;
- ``unresolved``: A's spread is wider than the bound, so "no worse than
  the bound" cannot be shown, unless every B run beats every A run;
- ``unchanged``: otherwise.
"""

import json
import math
import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from . import layout, metrics

WIN_SHARE = 0.9


@dataclass
class Row:
    workload: str
    metric: str
    unit: str
    a: Tuple[float, float, float]
    b: Tuple[float, float, float]
    b_wins: float
    verdict: str


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _share(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return math.inf if delta > 0 else 0.0


def paired(
    a: Sequence[Optional[float]], b: Sequence[Optional[float]]
) -> Tuple[List[float], List[float]]:
    """The values of the runs where both sides have one, index by index."""
    if len(a) != len(b):
        raise ValueError(f"{len(a)} runs on side A but {len(b)} on side B")
    pairs = [
        (va, vb) for va, vb in zip(a, b)
        if va is not None and vb is not None
    ]
    return [va for va, _ in pairs], [vb for _, vb in pairs]


def verdict(
    a: Sequence[float], b: Sequence[float], better: str, bound: float
) -> Tuple[str, float]:
    """The verdict for one metric and the share of pairs B won.

    ``a[i]`` and ``b[i]`` are a pair: see :func:`paired`.
    """
    if len(a) != len(b) or not a:
        raise ValueError("verdict needs one pair or more")
    sign = 1.0 if better == "lower" else -1.0

    def beats(x: float, y: float) -> bool:
        return (x - y) * sign < 0

    b_wins = sum(beats(vb, va) for va, vb in zip(a, b)) / len(a)
    q1, median_a, q3 = quartiles(a)
    median_b = statistics.median(b)
    spread = _share(q3 - q1, median_a)
    worse = _share((median_b - median_a) * sign, median_a)
    if (
        b_wins >= WIN_SHARE
        and beats(median_b, median_a)
        and abs(median_b - median_a) > q3 - q1
    ):
        return "improved", b_wins
    if worse > max(bound, spread):
        return "regressed", b_wins
    if spread > bound and not all(beats(vb, va) for vb in b for va in a):
        return "unresolved", b_wins
    return "unchanged", b_wins


def declared_bounds() -> Dict[str, float]:
    """Bounds from ``BENCHMARK.json``, plus the suite's extra metrics."""
    bounds = {metric.name: metric.bound for metric in metrics.EXTRA}
    with open(layout.BENCHMARK_JSON, encoding="utf-8") as handle:
        for metric in json.load(handle)["end_to_end"]:
            bounds[metric["name"]] = metric["bound"]
    return bounds


Slots = List[Optional[float]]


def collect(runs: Sequence[dict]) -> Dict[str, Dict[str, Slots]]:
    """``{workload: {metric: [value per run]}}`` from ``run --out`` files.

    Every list has one slot per run, None where that run has no value.
    """
    values: Dict[str, Dict[str, Slots]] = {}
    for index, run in enumerate(runs):
        for workload, entry in run["workloads"].items():
            for name, metric in entry["metrics"].items():
                slots = values.setdefault(workload, {}).setdefault(
                    name, [None] * len(runs)
                )
                slots[index] = metric["value"]
    return values


def compare(
    runs_a: Sequence[dict],
    runs_b: Sequence[dict],
) -> List[Row]:
    if len(runs_a) != len(runs_b):
        raise ValueError(
            f"{len(runs_a)} runs on side A but {len(runs_b)} on side B: "
            "runs pair up, so both sides need the same number"
        )
    bounds = declared_bounds()
    table = metrics.by_name(metrics.END_TO_END, metrics.EXTRA)
    side_a, side_b = collect(runs_a), collect(runs_b)
    rows = []
    for workload in sorted(set(side_a) & set(side_b)):
        for name, metric in table.items():
            missing = [None] * len(runs_a)
            a, b = paired(
                side_a[workload].get(name, missing),
                side_b[workload].get(name, missing),
            )
            if not a:
                continue
            outcome, b_wins = verdict(a, b, metric.better, bounds[name])
            rows.append(Row(
                workload, name, metric.unit, quartiles(a), quartiles(b),
                b_wins, outcome,
            ))
    return rows


def render(rows: Sequence[Row]) -> str:
    def triple(q) -> str:
        return "/".join(f"{v:.4g}" for v in q)

    lines = [
        f"{'workload':<11} {'metric':<19} {'unit':<6} "
        f"{'A q1/median/q3':<26} {'B q1/median/q3':<26} {'B wins':>6}  verdict"
    ]
    for row in rows:
        lines.append(
            f"{row.workload:<11} {row.metric:<19} {row.unit:<6} "
            f"{triple(row.a):<26} {triple(row.b):<26} "
            f"{row.b_wins:>6.0%}  {row.verdict}"
        )
    return "\n".join(lines)


def load_runs(paths: Sequence[str]) -> List[dict]:
    runs = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            runs.append(json.load(handle))
    return runs
