"""Metric definitions and the arithmetic that turns a run into them.

``END_TO_END`` and ``PER_LAYER`` are what ``BENCHMARK.json`` declares
(a self-test keeps the two in step); every workload reports every one
of them.  ``EXTRA`` holds end-to-end metrics that only some workloads
have (``latency_p99_ms`` needs 1000 samples, ``hit_latency_p50_ms``
needs a cache), and ``WORKLOAD_LAYER`` the batch- and service-only layer
metrics; ``python -m benchmarks.suite run`` prints those too.
"""

import statistics
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from .spans import ROOT_SPAN, LayerTotal


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" or "higher"
    bound: Optional[float] = None


# Each bound is 0.1, or the largest spread (quartile distance over the
# median) measured for the metric on any workload where that is above
# 0.1, rounded up to 0.05 and capped at 0.25, the most the benchmark
# allows; README.md has the measurements.  Every timing metric reaches
# the cap on some workload.  setup_s has the largest bound.
END_TO_END = (
    Metric("setup_s", "s", "lower", 0.25),
    Metric("latency_p50_ms", "ms", "lower", 0.25),
    Metric("latency_p95_ms", "ms", "lower", 0.25),
    Metric("scripts_per_s", "1/s", "higher", 0.25),
    Metric("keyinfo_recall", "ratio", "higher", 0.001),
    Metric("peak_rss_mb", "MiB", "lower", 0.1),
)

EXTRA = (
    Metric("latency_p99_ms", "ms", "lower", 0.25),
    Metric("hit_latency_p50_ms", "ms", "lower", 0.15),
    # Usually 0, so its bound is absolute: any increase regresses.
    Metric("failed_share", "ratio", "lower", 0.0),
)

PER_LAYER = (
    Metric("pslang.lex.calls_per_script", "count", "lower"),
    Metric("pslang.lex.chars_per_input_char", "ratio", "lower"),
    Metric("pslang.lex.self_ms_per_script", "ms", "lower"),
    Metric("pslang.lex.chars_per_s", "1/s", "higher"),
    Metric("pslang.parse.calls_per_script", "count", "lower"),
    Metric("pslang.parse.self_ms_per_script", "ms", "lower"),
    Metric("pslang.parse_cache.hit_ratio", "ratio", "higher"),
    Metric("obs.techniques.busy_ms_per_script", "ms", "lower"),
    Metric("obs.techniques.self_ms_per_script", "ms", "lower"),
    Metric("runtime.evaluator.calls_per_script", "count", "lower"),
    Metric("runtime.evaluator.self_ms_per_script", "ms", "lower"),
    Metric("runtime.evaluator.steps_per_script", "count", "lower"),
    Metric("runtime.memo.hit_ratio", "ratio", "higher"),
    Metric("core.recovery.pieces_per_script", "count", "lower"),
    Metric("core.recovery.recovered_ratio", "ratio", "higher"),
    Metric("core.recovery.self_ms_per_script", "ms", "lower"),
    Metric("core.reconstruction.self_ms_per_script", "ms", "lower"),
    Metric("core.tracing.hit_ratio", "ratio", "higher"),
    Metric("core.token_deobfuscator.self_ms_per_script", "ms", "lower"),
    Metric("core.multilayer.self_ms_per_script", "ms", "lower"),
    Metric("core.multilayer.layers_per_script", "count", "higher"),
    Metric("core.rename.self_ms_per_script", "ms", "lower"),
    Metric("core.reformat.self_ms_per_script", "ms", "lower"),
    Metric("core.pipeline.iterations_per_script", "count", "lower"),
    Metric("core.pipeline.residual_share", "ratio", "lower"),
    Metric("delivery.pipeline_ms_per_script", "ms", "lower"),
    Metric("delivery.busy_share", "ratio", "higher"),
)

WORKLOAD_LAYER = (
    Metric("batch.submit_ms_per_task", "ms", "lower"),
    Metric("batch.tail_s", "s", "lower"),
    Metric("batch.restarts", "count", "lower"),
    Metric("service.edge_ms_per_request", "ms", "lower"),
    Metric("service.cache.hit_ratio", "ratio", "higher"),
    Metric("service.cache.lookup_ms_per_request", "ms", "lower"),
    Metric("service.dispatch_ms_per_miss", "ms", "lower"),
    Metric("service.rejected", "count", "lower"),
)

# Latency samples must leave at least this many beyond a percentile.
SAMPLES_BEYOND = 10
_CANDIDATE_PERCENTILES = (50.0, 90.0, 95.0, 99.0, 99.9)


def by_name(*tables: Sequence[Metric]) -> Dict[str, Metric]:
    return {metric.name: metric for table in tables for metric in table}


def with_units(values: dict, *tables: Sequence[Metric]) -> dict:
    """``{name: {"value", "unit"}}`` for each metric of *tables* that
    *values* has, in table order."""
    return {
        metric.name: {"value": values[metric.name], "unit": metric.unit}
        for table in tables
        for metric in table
        if metric.name in values
    }


def highest_supported_percentile(count: int) -> Optional[float]:
    """The highest of p50/p90/p95/p99/p99.9 with at least
    :data:`SAMPLES_BEYOND` of *count* samples beyond it, or None."""
    best = None
    for percentile in _CANDIDATE_PERCENTILES:
        # Whole tenths of a percent keep the comparison exact.
        beyond_tenths = count * (1000 - round(percentile * 10))
        if beyond_tenths >= SAMPLES_BEYOND * 1000:
            best = percentile
    return best


def percentile(values: Sequence[float], pct: float) -> float:
    """Linear interpolation between the closest ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    rank = (len(ordered) - 1) * pct / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _ratio(numerator, denominator) -> Optional[float]:
    if numerator is None or denominator is None or not denominator:
        return None
    return numerator / denominator


def end_to_end(result: dict, setup_samples: List[float]) -> Dict[str, float]:
    """Every end-to-end metric (including the workload's extras) from a
    workload process result and the run's set-up samples."""
    workload = result["workload"]
    latencies = result["latencies_ms"]
    attempted = result["attempted"]
    out = {
        "setup_s": statistics.median(setup_samples),
        "latency_p50_ms": percentile(latencies, 50),
        "latency_p95_ms": percentile(latencies, 95),
        "scripts_per_s": result["completed"] / result["wall_s"],
        "keyinfo_recall": _ratio(result["keys_found"], result["keys_total"]),
        "peak_rss_mb": result["peak_rss_kib"] / 1024.0,
        "failed_share": result["failed"] / attempted if attempted else 0.0,
    }
    if (highest_supported_percentile(len(latencies)) or 0) >= 99:
        out["latency_p99_ms"] = percentile(latencies, 99)
    if workload == "serve":
        out["hit_latency_p50_ms"] = percentile(result["hit_latencies_ms"], 50)
    return out


def sum_counters(rows: Sequence[dict]) -> Dict[str, Optional[int]]:
    """Add up the program's own per-script counters.

    Each row is a ``PipelineStats.to_dict()`` plus ``iterations`` and
    ``layers_unwrapped``.  A counter missing from any row (renamed or
    removed) comes out as None rather than as a wrong sum.
    """
    simple = (
        "evaluator_steps", "subtree_memo_hits", "subtree_memo_misses",
        "trace_hits", "trace_misses", "iterations", "layers_unwrapped",
    )
    totals: Dict[str, Optional[int]] = {name: 0 for name in simple}
    totals["pieces"] = 0
    totals["recovered"] = 0
    for row in rows:
        for name in simple:
            value = row.get(name)
            if totals[name] is None or not isinstance(value, int):
                totals[name] = None
            else:
                totals[name] += value
        outcomes = row.get("recovery_outcomes")
        if not isinstance(outcomes, dict) or "recovered" not in outcomes:
            totals["pieces"] = totals["recovered"] = None
        elif totals["pieces"] is not None:
            totals["pieces"] += sum(outcomes.values())
            totals["recovered"] += outcomes["recovered"]
    return totals


def per_layer(result: dict) -> Dict[str, Optional[float]]:
    """Every per-layer metric (including the workload's own) from a
    traced workload process result.

    Layer times are per script over the scripts the pipeline ran:
    in-process calls, batch tasks, or serve cache misses.
    """
    layers = {
        name: LayerTotal.from_list(values)
        for name, values in result["layers"].items()
    }
    missing = set(result.get("missing_layers", ()))
    counters = result["counters"]
    scripts = len(result["pipeline_ms"])

    def total(layer: str) -> Optional[LayerTotal]:
        if layer in missing:
            return None
        return layers.get(layer, LayerTotal())

    def per_script(value) -> Optional[float]:
        return _ratio(value, scripts)

    def ms_per_script(layer: str, field: str = "self_ns") -> Optional[float]:
        found = total(layer)
        if found is None:
            return None
        return per_script(getattr(found, field) / 1e6)

    def calls_per_script(layer: str) -> Optional[float]:
        found = total(layer)
        return None if found is None else per_script(found.calls)

    lex = total("pslang.lex")
    root = layers.get(ROOT_SPAN, LayerTotal())
    cache = result.get("parse_cache")
    out = {
        "pslang.lex.calls_per_script": calls_per_script("pslang.lex"),
        "pslang.lex.chars_per_input_char": (
            None if lex is None else _ratio(lex.chars, result["input_chars"])
        ),
        "pslang.lex.self_ms_per_script": ms_per_script("pslang.lex"),
        "pslang.lex.chars_per_s": (
            None if lex is None else _ratio(lex.chars, lex.self_ns / 1e9)
        ),
        "pslang.parse.calls_per_script": calls_per_script("pslang.parse"),
        "pslang.parse.self_ms_per_script": ms_per_script("pslang.parse"),
        "pslang.parse_cache.hit_ratio": (
            None if cache is None else _ratio(cache[0], cache[0] + cache[1])
        ),
        "obs.techniques.busy_ms_per_script": ms_per_script(
            "obs.techniques", "busy_ns"
        ),
        "obs.techniques.self_ms_per_script": ms_per_script("obs.techniques"),
        "runtime.evaluator.calls_per_script": calls_per_script(
            "runtime.evaluator"
        ),
        "runtime.evaluator.self_ms_per_script": ms_per_script(
            "runtime.evaluator"
        ),
        "runtime.evaluator.steps_per_script": per_script(
            counters["evaluator_steps"]
        ),
        "runtime.memo.hit_ratio": _ratio(
            counters["subtree_memo_hits"],
            _add(counters["subtree_memo_hits"], counters["subtree_memo_misses"]),
        ),
        "core.recovery.pieces_per_script": per_script(counters["pieces"]),
        "core.recovery.recovered_ratio": _ratio(
            counters["recovered"], counters["pieces"]
        ),
        "core.recovery.self_ms_per_script": ms_per_script("core.recovery"),
        "core.reconstruction.self_ms_per_script": ms_per_script(
            "core.reconstruction"
        ),
        "core.tracing.hit_ratio": _ratio(
            counters["trace_hits"],
            _add(counters["trace_hits"], counters["trace_misses"]),
        ),
        "core.token_deobfuscator.self_ms_per_script": ms_per_script(
            "core.token_deobfuscator"
        ),
        "core.multilayer.self_ms_per_script": ms_per_script("core.multilayer"),
        "core.multilayer.layers_per_script": per_script(
            counters["layers_unwrapped"]
        ),
        "core.rename.self_ms_per_script": ms_per_script("core.rename"),
        "core.reformat.self_ms_per_script": ms_per_script("core.reformat"),
        "core.pipeline.iterations_per_script": per_script(
            counters["iterations"]
        ),
        "core.pipeline.residual_share": _ratio(root.self_ns, root.busy_ns),
        "delivery.pipeline_ms_per_script": per_script(
            sum(result["pipeline_ms"])
        ),
        "delivery.busy_share": _ratio(
            sum(result["pipeline_ms"]) / 1e3,
            result["workers"] * result["wall_s"],
        ),
    }
    out.update(_workload_layers(result, layers))
    return out


def _add(a, b):
    return None if a is None or b is None else a + b


def breakdown(result: dict) -> Dict[str, Dict[str, float]]:
    """Each pipeline layer's self time per script and its share of the
    traced pipeline time; :data:`ROOT_SPAN`'s self time is the residual.
    The shares add up to 1."""
    layers = {
        name: LayerTotal.from_list(values)
        for name, values in result["layers"].items()
        if not name.startswith(("batch.", "service."))
    }
    scripts = len(result["pipeline_ms"])
    traced_ns = layers.get(ROOT_SPAN, LayerTotal()).busy_ns
    return {
        name: {
            "self_ms_per_script": _ratio(total.self_ns / 1e6, scripts),
            "share": _ratio(total.self_ns, traced_ns),
        }
        for name, total in sorted(
            layers.items(), key=lambda item: -item[1].self_ns
        )
    }


def _workload_layers(result: dict, layers: Dict[str, LayerTotal]) -> dict:
    """The batch- or service-only layer metrics."""
    workload = result["workload"]
    pipeline_ms = result["pipeline_ms"]
    if workload == "batch":
        submit = layers.get("batch.submit", LayerTotal())
        return {
            "batch.submit_ms_per_task": _ratio(submit.busy_ns / 1e6, submit.calls),
            "batch.tail_s": result["tail_s"],
            "batch.restarts": result["restarts"],
        }
    if workload == "serve":
        hits = layers.get("service.submit.hit", LayerTotal())
        misses = layers.get("service.submit.miss", LayerTotal())
        lookup = layers.get("service.cache.lookup", LayerTotal())
        requests = hits.calls + misses.calls
        rtt_ms = sum(result["latencies_ms"]) + sum(result["hit_latencies_ms"])
        submit_ms = (hits.busy_ns + misses.busy_ns) / 1e6
        return {
            "service.edge_ms_per_request": _ratio(rtt_ms - submit_ms, requests),
            "service.cache.hit_ratio": _ratio(
                result["service"]["cache_hits"], result["service"]["requests"]
            ),
            "service.cache.lookup_ms_per_request": _ratio(
                lookup.busy_ns / 1e6, lookup.calls
            ),
            "service.dispatch_ms_per_miss": _ratio(
                misses.busy_ns / 1e6 - sum(pipeline_ms), misses.calls
            ),
            "service.rejected": result["service"]["rejected"],
        }
    return {}
