"""Aggregate statistics over a batch run's records.

:func:`summarize` reduces a record list to the numbers the paper's
evaluation reports per-corpus (status counts, throughput, latency
percentiles) plus the telemetry aggregates PR 2 added: per-phase
latency p50/p95 across the corpus (the Fig 6 per-phase view the paper
itself could not show) and corpus-wide recovery-outcome / unwrap-kind
totals.  :func:`render_summary` formats them for humans.  The summary
dict is plain data so ``benchmarks/bench_utils.render_table`` can turn
it straight into a results table; :class:`repro.batch.BatchSummary` is
the typed view over the same shape.
"""

from typing import Dict, Iterable, List, Optional

from repro.obs.hist import Histogram
from repro.obs.trace import canonical_phase_name
from repro.obs.techniques import render_prevalence

STATUSES = ("ok", "invalid", "timeout", "error")

# Distribution keys reported per phase in ``summary["phase_seconds"]``.
PHASE_METRICS = ("mean", "p50", "p95", "total")


def _percentile(values: List[float], fraction: float) -> float:
    """Nearest-rank percentile; 0.0 on an empty list."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(fraction * (len(ordered) - 1))))
    return ordered[rank]


def _phase_distributions(
    per_phase: Dict[str, List[float]],
) -> Dict[str, Dict[str, float]]:
    out: Dict[str, Dict[str, float]] = {}
    for phase, values in per_phase.items():
        out[phase] = {
            "mean": round(sum(values) / len(values), 6),
            "p50": round(_percentile(values, 0.50), 6),
            "p95": round(_percentile(values, 0.95), 6),
            "total": round(sum(values), 6),
        }
    return out


def summarize(
    records: Iterable[dict],
    wall_seconds: Optional[float] = None,
    worker_restarts: Optional[Dict[str, int]] = None,
) -> Dict[str, object]:
    """Reduce batch records to one summary dict.

    Keys: ``total``, ``status_counts`` (every status in
    :data:`STATUSES`, zero-filled), ``layers_unwrapped``,
    ``changed`` (samples whose script changed), ``cache_hits``
    (duplicate samples served from the ``--dedup`` cache), latency
    over the samples that report ``elapsed_seconds``
    (``latency_mean_seconds``, ``latency_p50_seconds``,
    ``latency_p95_seconds``, ``latency_max_seconds``), per-phase
    latency distributions (``phase_seconds``: phase → mean/p50/p95/
    total over the records whose embedded stats carried span timings),
    corpus-wide ``recovery_outcomes`` and ``unwrap_kinds`` totals,
    ``techniques`` prevalence counts (samples exhibiting each
    obfuscation technique — the Table I column), a bucketed
    ``latency_histogram`` (with per-bucket worst-sample trace
    exemplars when records carried ``trace_id``), ``verify`` verdict
    counts when any record carried a ``--verify``
    verdict, and — when given — ``wall_seconds`` plus end-to-end
    ``throughput_scripts_per_second``, and ``worker_restarts`` (the
    pool's crash/timeout respawn counters).

    Header lines (records with a ``kind`` key, e.g. the version
    header ``repro batch`` writes first) are not samples and are
    skipped.
    """
    records = [r for r in records if "kind" not in r]
    counts = {status: 0 for status in STATUSES}
    latencies: List[float] = []
    latency_hist = Histogram()
    per_phase: Dict[str, List[float]] = {}
    recovery_outcomes: Dict[str, int] = {}
    unwrap_kinds: Dict[str, int] = {}
    techniques: Dict[str, int] = {}
    verify_counts: Dict[str, int] = {}
    layers = 0
    changed = 0
    cache_hits = 0
    for record in records:
        verdict = (record.get("verify") or {}).get("verdict")
        if verdict:
            verify_counts[verdict] = verify_counts.get(verdict, 0) + 1
        status = record.get("status", "error")
        cache_hits += 1 if record.get("cache_hit") else 0
        counts[status] = counts.get(status, 0) + 1
        if "elapsed_seconds" in record:
            elapsed = float(record["elapsed_seconds"])
            latencies.append(elapsed)
            latency_hist.observe(elapsed, str(record.get("trace_id") or ""))
        layers += int(record.get("layers_unwrapped", 0))
        changed += 1 if record.get("changed") else 0
        stats = record.get("stats")
        if not isinstance(stats, dict):
            continue
        for phase, seconds in (stats.get("phase_seconds") or {}).items():
            phase = canonical_phase_name(str(phase))
            per_phase.setdefault(phase, []).append(float(seconds))
        for reason, count in (stats.get("recovery_outcomes") or {}).items():
            recovery_outcomes[reason] = (
                recovery_outcomes.get(reason, 0) + int(count)
            )
        for kind, count in (stats.get("unwrap_kinds") or {}).items():
            unwrap_kinds[kind] = unwrap_kinds.get(kind, 0) + int(count)
        for tag, count in (stats.get("techniques") or {}).items():
            techniques[tag] = techniques.get(tag, 0) + int(count)

    summary: Dict[str, object] = {
        "total": len(records),
        "status_counts": counts,
        "layers_unwrapped": layers,
        "changed": changed,
        "latency_mean_seconds": (
            round(sum(latencies) / len(latencies), 6) if latencies else 0.0
        ),
        "latency_p50_seconds": round(_percentile(latencies, 0.50), 6),
        "latency_p95_seconds": round(_percentile(latencies, 0.95), 6),
        "latency_max_seconds": (
            round(max(latencies), 6) if latencies else 0.0
        ),
        "phase_seconds": _phase_distributions(per_phase),
        "recovery_outcomes": recovery_outcomes,
        "unwrap_kinds": unwrap_kinds,
        "techniques": techniques,
        "cache_hits": cache_hits,
    }
    if latency_hist.count:
        summary["latency_histogram"] = latency_hist.to_dict()
    if verify_counts:
        summary["verify"] = verify_counts
    if worker_restarts is not None:
        summary["worker_restarts"] = dict(worker_restarts)
    if wall_seconds is not None:
        summary["wall_seconds"] = round(wall_seconds, 6)
        summary["throughput_scripts_per_second"] = round(
            len(records) / wall_seconds if wall_seconds > 0 else 0.0, 3
        )
    return summary


def render_summary(summary: Dict[str, object]) -> str:
    """Human-readable multi-line rendering of a :func:`summarize` dict."""
    counts = summary["status_counts"]
    lines = [
        f"samples   : {summary['total']}",
        "status    : "
        + "  ".join(f"{name}={counts.get(name, 0)}" for name in STATUSES),
        f"layers    : {summary['layers_unwrapped']} unwrapped, "
        f"{summary['changed']} samples changed",
        "latency   : "
        f"mean {summary['latency_mean_seconds']:.3f}s  "
        f"p50 {summary['latency_p50_seconds']:.3f}s  "
        f"p95 {summary['latency_p95_seconds']:.3f}s  "
        f"max {summary['latency_max_seconds']:.3f}s",
    ]
    for phase, dist in (summary.get("phase_seconds") or {}).items():
        lines.append(
            f"  {phase:<8}: "
            f"mean {dist['mean']:.4f}s  p50 {dist['p50']:.4f}s  "
            f"p95 {dist['p95']:.4f}s  total {dist['total']:.2f}s"
        )
    if summary.get("cache_hits"):
        lines.append(
            f"dedup     : {summary['cache_hits']} of {summary['total']} "
            f"samples served from cache"
        )
    restarts = summary.get("worker_restarts") or {}
    if any(restarts.values()):
        lines.append(
            "workers   : restarts "
            + "  ".join(f"{k}={v}" for k, v in restarts.items())
        )
    outcomes = summary.get("recovery_outcomes") or {}
    if outcomes:
        lines.append(
            "recovery  : "
            + "  ".join(f"{k}={v}" for k, v in outcomes.items())
        )
    kinds = summary.get("unwrap_kinds") or {}
    if any(kinds.values()):
        lines.append(
            "unwraps   : "
            + "  ".join(f"{k}={v}" for k, v in kinds.items())
        )
    technique_counts = summary.get("techniques") or {}
    if technique_counts:
        lines.extend(
            render_prevalence(technique_counts, int(summary["total"]))
        )
    verify_counts = summary.get("verify") or {}
    if verify_counts:
        verified = sum(verify_counts.values())
        lines.append(
            "verify    : "
            + "  ".join(f"{k}={v}" for k, v in sorted(verify_counts.items()))
            + f"  ({verified} verified)"
        )
    if "throughput_scripts_per_second" in summary:
        lines.append(
            f"throughput: {summary['throughput_scripts_per_second']:.2f} "
            f"scripts/s over {summary['wall_seconds']:.2f}s wall"
        )
    return "\n".join(lines)
