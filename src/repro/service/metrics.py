"""The views of a service snapshot, and the fleet-wide merge.

:meth:`DeobfuscationService.snapshot` produces the snapshot that
``GET /metrics.json`` serves; :func:`healthz_payload`,
:func:`render_metrics` and :func:`statusz_payload` are ``/healthz``,
``/metrics`` and ``/statusz`` as pure functions of one, and
:func:`merge_snapshots` folds instance snapshots into one they render
for the fleet router (whose ``router`` section becomes the
``repro_fleet_*`` families).

:func:`render_metrics` writes the Prometheus exposition format (text
version 0.0.4) — no client library needed, because everything
exported is a monotonic counter or an instant gauge the service
already tracks:

- ``repro_service_*`` — request outcomes, cache behaviour, admission
  queue depth/limit, worker fleet size and restart reasons;
- ``repro_pipeline_*`` — the service-lifetime aggregate of
  :class:`~repro.obs.PipelineStats` over every executed request
  (phase seconds, recovery outcomes, unwrap kinds, technique tags,
  evaluator steps), i.e. PR 2's per-run telemetry re-exported as
  fleet totals;
- ``repro_pipeline_duration_seconds`` / ``repro_service_request_
  duration_seconds`` — proper cumulative-bucket histograms
  (``_bucket``/``_sum``/``_count``) instead of point gauges, each
  non-empty bucket annotated with an OpenMetrics-style exemplar:
  the trace_id of the worst request that landed in it, so the slow
  bucket points straight at a ``repro trace`` waterfall.

Phase labels are the canonical span names of
:mod:`repro.obs.trace`; :func:`canonical_phase_name` asserts no
legacy spelling reaches a render path.

``repro_service_cache_hit_ratio`` counts coalesced joins as hits:
both mean "a pipeline execution was avoided", which is the number a
capacity planner wants.
"""

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence

from repro.obs import Histogram, PipelineStats, RollingWindow
from repro.obs.trace import canonical_phase_name

# Log events a snapshot carries, and a merged snapshot keeps (newest).
LOG_TAIL_EVENTS = 40

# Bump when the /statusz payload shape changes (repro top keys on it).
STATUSZ_SCHEMA_VERSION = 1

_PIPELINE_COUNTERS = (
    "tokens_rewritten",
    "pieces_recovered",
    "variables_traced",
    "variables_substituted",
    "trace_hits",
    "trace_misses",
    "evaluator_steps",
    "recovery_cache_hits",
    "subtree_memo_hits",
    "subtree_memo_misses",
    "intern_hits",
    "intern_misses",
)


def _escape_label(value: str) -> str:
    return (
        value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
    )


def _metric(
    lines: List[str],
    name: str,
    kind: str,
    help_text: str,
    samples,
) -> None:
    """Append one metric family: HELP/TYPE plus ``(labels, value)``
    sample pairs (labels may be None)."""
    lines.append(f"# HELP {name} {help_text}")
    lines.append(f"# TYPE {name} {kind}")
    for labels, value in samples:
        if labels:
            rendered = ",".join(
                f'{k}="{_escape_label(str(v))}"'
                for k, v in sorted(labels.items())
            )
            lines.append(f"{name}{{{rendered}}} {value}")
        else:
            lines.append(f"{name} {value}")


def _format_le(bound: float) -> str:
    if bound == float("inf"):
        return "+Inf"
    text = f"{bound:g}"
    return text


def _histogram(
    lines: List[str],
    name: str,
    help_text: str,
    hist: Dict[str, Any],
    labels: Optional[Dict[str, str]] = None,
    emit_header: bool = True,
) -> None:
    """Append one histogram family from a
    :meth:`repro.obs.hist.Histogram.to_dict` payload.

    Non-empty buckets carry an OpenMetrics-style exemplar — the
    trace_id and value of the worst observation that landed in the
    bucket — appended as ``# {trace_id="..."} value``.  *labels* adds
    constant label pairs to every sample (the per-language/per-policy
    request-duration family); *emit_header* lets a caller render
    several labeled series under one HELP/TYPE header.
    """
    bounds = [float(b) for b in hist.get("bounds", ())]
    counts = [int(c) for c in hist.get("counts", ())]
    exemplars = hist.get("exemplars") or {}
    prefix = (
        ",".join(
            f'{k}="{_escape_label(str(v))}"'
            for k, v in sorted((labels or {}).items())
        )
    )
    if emit_header:
        lines.append(f"# HELP {name} {help_text}")
        lines.append(f"# TYPE {name} histogram")
    running = 0
    for index, bound in enumerate(bounds + [float("inf")]):
        bin_count = counts[index] if index < len(counts) else 0
        running += bin_count
        rendered = (
            f'{prefix},le="{_format_le(bound)}"'
            if prefix
            else f'le="{_format_le(bound)}"'
        )
        sample = f"{name}_bucket{{{rendered}}} {running}"
        exemplar = exemplars.get(str(index))
        if exemplar and bin_count:
            sample += (
                f' # {{trace_id="{_escape_label(str(exemplar["trace_id"]))}"}}'
                f' {exemplar["value"]}'
            )
        lines.append(sample)
    suffix = f"{{{prefix}}}" if prefix else ""
    lines.append(
        f"{name}_sum{suffix} {round(float(hist.get('sum', 0.0)), 6)}"
    )
    lines.append(f"{name}_count{suffix} {int(hist.get('count', 0))}")


def _sum_dicts(dicts: Iterable[Dict[str, Any]]) -> Dict[str, Any]:
    """Key-wise sum of numeric values (non-numeric values are kept
    from the first snapshot that has them)."""
    out: Dict[str, Any] = {}
    for mapping in dicts:
        for key, value in (mapping or {}).items():
            if isinstance(value, bool) or not isinstance(
                value, (int, float)
            ):
                out.setdefault(key, value)
            else:
                current = out.get(key, 0)
                out[key] = (
                    current + value
                    if isinstance(current, (int, float))
                    and not isinstance(current, bool)
                    else value
                )
    return out


def healthz_payload(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The ``/healthz`` payload: beyond liveness, capacity (queue depth
    vs limit, autoscaled pool size) and warm-start state, which the
    fleet router reports per instance."""
    cache = snapshot.get("cache") or {}
    return {
        "status": "draining" if snapshot.get("draining") else "ok",
        "version": snapshot.get("version", ""),
        "workers": snapshot.get("workers", 0),
        "jobs": snapshot.get("jobs", 0),
        "pool_size": snapshot.get("pool_size", 0),
        "queue_depth": snapshot.get("queue_depth", 0),
        "queue_limit": snapshot.get("queue_limit", 0),
        "cache_entries": cache.get("entries", 0),
        "cache_shards": cache.get("shards", 1),
        "warm_start": snapshot.get("persistence") or {"enabled": False},
        "uptime_seconds": snapshot.get("uptime_seconds", 0),
    }


def merge_snapshots(
    snapshots: Mapping[str, Optional[Dict[str, Any]]],
    router_events: Sequence[Dict[str, Any]] = (),
) -> Dict[str, Any]:
    """Fold per-instance snapshots (instance -> snapshot, or None for
    one that did not answer) into one fleet-wide snapshot.

    Counters, queue depths/limits, cache and persistence counters,
    worker counts and restarts sum; the pipeline-telemetry aggregate
    merges through :class:`~repro.obs.PipelineStats`; histograms and
    rolling windows (minute by minute) merge so the slowest exemplar
    wins; log tails interleave by ``ts``, tagged with their
    ``instance``, with the untagged *router_events*.
    ``uptime_seconds`` is the oldest instance's; ``draining`` is true
    only when *every* instance is draining (a single draining
    instance leaves the fleet serving).
    """
    present = {name: snap for name, snap in snapshots.items() if snap}
    window = RollingWindow()
    for snap in present.values():
        if snap.get("window_raw"):
            window.merge(RollingWindow.from_dict(snap["window_raw"]))
    tail = [
        {**event, "instance": name}
        for name, snap in present.items()
        for event in snap.get("log_tail") or ()
    ]
    tail.extend(router_events)
    tail.sort(key=lambda event: event.get("ts") or 0)
    merged: Dict[str, Any] = {
        "instances": len(present),
        "window_raw": window.to_dict(),
        "log_tail": tail[-LOG_TAIL_EVENTS:],
    }
    if not present:
        return merged
    snaps = list(present.values())
    merged.update(
        counters=_sum_dicts(s.get("counters") for s in snaps),
        verify=_sum_dicts(s.get("verify") for s in snaps),
        languages=_sum_dicts(s.get("languages") for s in snaps),
        policies=_sum_dicts(s.get("policies") for s in snaps),
        cache=_sum_dicts(s.get("cache") for s in snaps),
        persistence=_sum_dicts(s.get("persistence") for s in snaps),
        worker_restarts=_sum_dicts(s.get("worker_restarts") for s in snaps),
        queue_depth=sum(s.get("queue_depth", 0) for s in snaps),
        queue_limit=sum(s.get("queue_limit", 0) for s in snaps),
        workers=sum(s.get("workers", 0) for s in snaps),
        pool_size=sum(s.get("pool_size", 0) for s in snaps),
        draining=all(s.get("draining") for s in snaps),
        uptime_seconds=max(s.get("uptime_seconds", 0) for s in snaps),
    )
    # warm_start/enabled summed as ints above would be misleading —
    # report "any instance" semantics instead.
    merged["persistence"]["enabled"] = any(
        (s.get("persistence") or {}).get("enabled") for s in snaps
    )
    merged["persistence"]["warm_start"] = any(
        (s.get("persistence") or {}).get("warm_start") for s in snaps
    )
    totals = PipelineStats()
    for snap in snaps:
        pipeline = snap.get("pipeline")
        if isinstance(pipeline, dict):
            totals.merge(PipelineStats.from_dict(pipeline))
    merged["pipeline"] = totals.to_dict()
    for name in (
        "pipeline_duration_histogram",
        "request_duration_histogram",
    ):
        combined = Histogram()
        for snap in snaps:
            payload = snap.get(name)
            if isinstance(payload, dict) and payload:
                combined.merge(Histogram.from_dict(payload))
        merged[name] = combined.to_dict()
    # The labeled request-duration family merges per "language|policy"
    # key, so per-language latency (and its exemplars) survives fleet
    # aggregation instead of collapsing into the unlabeled total.
    by_label: Dict[str, Histogram] = {}
    for snap in snaps:
        for label, payload in (snap.get("request_duration_by") or {}).items():
            if not isinstance(payload, dict) or not payload:
                continue
            incoming = Histogram.from_dict(payload)
            hist = by_label.get(label)
            if hist is None:
                by_label[label] = incoming
            else:
                hist.merge(incoming)
    merged["request_duration_by"] = {
        label: hist.to_dict() for label, hist in sorted(by_label.items())
    }
    return merged


def statusz_payload(snapshot: Dict[str, Any]) -> Dict[str, Any]:
    """The ``/statusz`` payload, one shape for an instance's snapshot
    and a merged one, so ``repro top`` renders either; ``windows``
    derive from the embedded ``window_raw``."""
    window = RollingWindow.from_dict(snapshot.get("window_raw") or {})
    counters = snapshot.get("counters") or {}
    pipeline = snapshot.get("pipeline") or {}
    techniques = sorted(
        (pipeline.get("techniques") or {}).items(),
        key=lambda item: (-item[1], item[0]),
    )[:10]
    latency_by: Dict[str, Any] = {}
    for label, payload in sorted(
        (snapshot.get("request_duration_by") or {}).items()
    ):
        hist = Histogram.from_dict(payload or {"bounds": []})
        language, _, policy = str(label).partition("|")
        latency_by[label] = {
            "language": language,
            "policy": policy,
            "count": hist.count,
            "p50_ms": round(hist.quantile(0.5) * 1000, 3),
            "p95_ms": round(hist.quantile(0.95) * 1000, 3),
        }
    hits = counters.get("cache_hits", 0) + counters.get("coalesced", 0)
    answered = hits + counters.get("executions", 0)
    payload = {
        "schema_version": STATUSZ_SCHEMA_VERSION,
        "instances": snapshot.get("instances", 1),
        "windows": window.snapshot(),
        "window_raw": window.to_dict(),
        "counters": counters,
        "queue": {
            "depth": snapshot.get("queue_depth", 0),
            "limit": snapshot.get("queue_limit", 0),
        },
        "draining": bool(snapshot.get("draining")),
        "pool": {
            "size": snapshot.get("pool_size", 0),
            "workers": snapshot.get("workers", 0),
            "restarts": snapshot.get("worker_restarts") or {},
        },
        "cache": snapshot.get("cache") or {},
        "cache_hit_ratio": (
            round(hits / answered, 4) if answered else 0.0
        ),
        "persistence": snapshot.get("persistence") or {},
        "languages": snapshot.get("languages") or {},
        "policies": snapshot.get("policies") or {},
        "latency_by": latency_by,
        "verify": snapshot.get("verify") or {},
        "techniques_top": [
            {"technique": technique, "count": count}
            for technique, count in techniques
        ],
        "log_tail": list(snapshot.get("log_tail") or ()),
        "uptime_seconds": snapshot.get("uptime_seconds", 0),
    }
    if "router" in snapshot:
        payload["router"] = snapshot["router"]
    return payload


def render_metrics(snapshot: Dict[str, Any]) -> str:
    """The ``/metrics`` response body for one snapshot."""
    counters = snapshot.get("counters", {})
    cache = snapshot.get("cache", {})
    restarts = snapshot.get("worker_restarts", {})
    pipeline = snapshot.get("pipeline", {})
    lines: List[str] = []

    _metric(
        lines,
        "repro_service_requests_total",
        "counter",
        "Requests accepted by the service front end.",
        [(None, counters.get("requests", 0))],
    )
    # The same counter broken down by resolved language front end.
    # The unlabeled total above is kept: smoke scripts and dashboards
    # key on it, and a request rejected before options parse (queue
    # full while draining) counts there but under no language.
    _metric(
        lines,
        "repro_service_requests_by_language_total",
        "counter",
        "Admitted requests by resolved language front end.",
        [
            ({"language": language}, count)
            for language, count in sorted(
                (snapshot.get("languages") or {}).items()
            )
        ]
        or [(None, 0)],
    )
    _metric(
        lines,
        "repro_service_requests_by_policy_total",
        "counter",
        "Admitted requests by resolved sandbox-policy preset.",
        [
            ({"policy": policy}, count)
            for policy, count in sorted(
                (snapshot.get("policies") or {}).items()
            )
        ]
        or [(None, 0)],
    )
    _metric(
        lines,
        "repro_service_responses_total",
        "counter",
        "Requests by how they were answered.",
        [
            ({"via": "cache"}, counters.get("cache_hits", 0)),
            ({"via": "coalesced"}, counters.get("coalesced", 0)),
            ({"via": "executed"}, counters.get("executions", 0)),
            ({"via": "rejected"}, counters.get("rejected", 0)),
        ],
    )
    _metric(
        lines,
        "repro_service_errors_total",
        "counter",
        "Executions that ended in a worker error record.",
        [(None, counters.get("errors", 0))],
    )
    _metric(
        lines,
        "repro_service_request_timeouts_total",
        "counter",
        "Requests that gave up waiting for a result.",
        [(None, counters.get("request_timeouts", 0))],
    )
    _metric(
        lines,
        "repro_service_queue_depth",
        "gauge",
        "Admitted pipeline executions currently queued or running.",
        [(None, snapshot.get("queue_depth", 0))],
    )
    _metric(
        lines,
        "repro_service_queue_limit",
        "gauge",
        "Admission queue capacity (429 beyond this).",
        [(None, snapshot.get("queue_limit", 0))],
    )
    _metric(
        lines,
        "repro_service_draining",
        "gauge",
        "1 while the service is draining (rejecting new work).",
        [(None, 1 if snapshot.get("draining") else 0)],
    )
    _metric(
        lines,
        "repro_service_uptime_seconds",
        "gauge",
        "Seconds since the service started.",
        [(None, snapshot.get("uptime_seconds", 0))],
    )

    _metric(
        lines,
        "repro_service_cache_hits_total",
        "counter",
        "Cache lookups answered from a stored result.",
        [(None, cache.get("hits", 0))],
    )
    _metric(
        lines,
        "repro_service_cache_misses_total",
        "counter",
        "Cache lookups that found nothing stored.",
        [(None, cache.get("misses", 0))],
    )
    _metric(
        lines,
        "repro_service_cache_coalesced_total",
        "counter",
        "Lookups that joined an identical in-flight execution.",
        [(None, cache.get("coalesced", 0))],
    )
    _metric(
        lines,
        "repro_service_cache_evictions_total",
        "counter",
        "Entries evicted by the entry or byte budget.",
        [(None, cache.get("evictions", 0))],
    )
    _metric(
        lines,
        "repro_service_cache_entries",
        "gauge",
        "Results currently cached.",
        [(None, cache.get("entries", 0))],
    )
    _metric(
        lines,
        "repro_service_cache_bytes",
        "gauge",
        "Approximate bytes of cached results.",
        [(None, cache.get("bytes", 0))],
    )
    hits = counters.get("cache_hits", 0) + counters.get("coalesced", 0)
    answered = hits + counters.get("executions", 0)
    _metric(
        lines,
        "repro_service_cache_hit_ratio",
        "gauge",
        "Share of answered requests that avoided a pipeline execution "
        "(cache hits + coalesced joins).",
        [(None, round(hits / answered, 6) if answered else 0.0)],
    )

    _metric(
        lines,
        "repro_service_verify_verdicts_total",
        "counter",
        "Differential semantics-preservation verdicts of verified "
        "requests.",
        [
            ({"verdict": verdict}, count)
            for verdict, count in sorted(
                (snapshot.get("verify") or {}).items()
            )
        ]
        or [(None, 0)],
    )
    _metric(
        lines,
        "repro_service_workers",
        "gauge",
        "Live worker processes in the fleet.",
        [(None, snapshot.get("workers", 0))],
    )
    _metric(
        lines,
        "repro_service_pool_size",
        "gauge",
        "Target worker-pool size (moves under autoscaling).",
        [(None, snapshot.get("pool_size", snapshot.get("workers", 0)))],
    )
    _metric(
        lines,
        "repro_service_pool_autoscale_total",
        "counter",
        "Autoscaler pool resizes by direction.",
        [
            ({"direction": "up"}, counters.get("scale_ups", 0)),
            ({"direction": "down"}, counters.get("scale_downs", 0)),
        ],
    )
    _metric(
        lines,
        "repro_service_cache_shards",
        "gauge",
        "Independent result-cache shards (by script-hash range).",
        [(None, cache.get("shards", 1))],
    )
    persistence = snapshot.get("persistence") or {}
    _metric(
        lines,
        "repro_service_cache_warm_start",
        "gauge",
        "1 when this instance warm-started from a persisted cache.",
        [(None, 1 if persistence.get("warm_start") else 0)],
    )
    _metric(
        lines,
        "repro_service_cache_persist_loaded_entries",
        "gauge",
        "Cache entries recovered from snapshot+journal at boot.",
        [(None, persistence.get("loaded_entries", 0))],
    )
    _metric(
        lines,
        "repro_service_cache_persist_skipped_records_total",
        "counter",
        "Corrupt or truncated persisted records skipped during load.",
        [(None, persistence.get("skipped_records", 0))],
    )
    _metric(
        lines,
        "repro_service_cache_journal_dropped_total",
        "counter",
        "Corrupt journal lines dropped during warm-start load "
        "(journal-only share of skipped records: likely data loss).",
        [(None, persistence.get("journal_skipped_records", 0))],
    )
    _metric(
        lines,
        "repro_service_cache_persist_appends_total",
        "counter",
        "Results appended to the cache journal.",
        [(None, persistence.get("appended_records", 0))],
    )
    _metric(
        lines,
        "repro_service_cache_persist_compactions_total",
        "counter",
        "Snapshot compactions (journal folded into the snapshot).",
        [(None, persistence.get("compactions", 0))],
    )
    _metric(
        lines,
        "repro_service_worker_restarts_total",
        "counter",
        "Worker respawns by cause (crash vs timeout SIGKILL).",
        [
            ({"reason": reason}, count)
            for reason, count in sorted(restarts.items())
        ]
        or [(None, 0)],
    )

    for name in _PIPELINE_COUNTERS:
        _metric(
            lines,
            f"repro_pipeline_{name}_total",
            "counter",
            f"Lifetime pipeline total of {name.replace('_', ' ')}.",
            [(None, pipeline.get(name, 0))],
        )
    phase_seconds = pipeline.get("phase_seconds") or {}
    _metric(
        lines,
        "repro_pipeline_phase_seconds_total",
        "counter",
        "Lifetime wall-clock seconds spent per pipeline phase.",
        [
            (
                {"phase": canonical_phase_name(str(phase))},
                round(float(seconds), 6),
            )
            for phase, seconds in sorted(phase_seconds.items())
        ]
        or [(None, 0)],
    )
    _metric(
        lines,
        "repro_pipeline_recovery_outcomes_total",
        "counter",
        "Recoverable pieces by outcome reason.",
        [
            ({"reason": reason}, count)
            for reason, count in sorted(
                (pipeline.get("recovery_outcomes") or {}).items()
            )
        ]
        or [(None, 0)],
    )
    _metric(
        lines,
        "repro_pipeline_unwrap_kinds_total",
        "counter",
        "Multi-layer unwraps by invoker kind.",
        [
            ({"kind": kind}, count)
            for kind, count in sorted(
                (pipeline.get("unwrap_kinds") or {}).items()
            )
        ]
        or [(None, 0)],
    )
    _metric(
        lines,
        "repro_pipeline_techniques_total",
        "counter",
        "Samples exhibiting each recovered obfuscation technique "
        "(Table I prevalence).",
        [
            ({"technique": technique}, count)
            for technique, count in sorted(
                (pipeline.get("techniques") or {}).items()
            )
        ]
        or [(None, 0)],
    )
    _metric(
        lines,
        "repro_policy_denials_total",
        "counter",
        "Sandbox-policy capability denials by capability kind.",
        [
            ({"capability": capability}, count)
            for capability, count in sorted(
                (pipeline.get("policy_denials") or {}).items()
            )
        ]
        or [(None, 0)],
    )
    _histogram(
        lines,
        "repro_pipeline_duration_seconds",
        "Pipeline execution wall-clock per request (worker runs only; "
        "exemplars name the slowest trace per bucket).",
        snapshot.get("pipeline_duration_histogram") or {},
    )
    _histogram(
        lines,
        "repro_service_request_duration_seconds",
        "Front-door request latency across all answer paths (cache, "
        "coalesced, executed).",
        snapshot.get("request_duration_histogram") or {},
    )
    first = True
    for label, payload in sorted(
        (snapshot.get("request_duration_by") or {}).items()
    ):
        language, _, policy = str(label).partition("|")
        _histogram(
            lines,
            "repro_service_request_duration_by_seconds",
            "Front-door request latency by language front end and "
            "sandbox-policy preset.",
            payload or {},
            labels={"language": language, "policy": policy},
            emit_header=first,
        )
        first = False
    # A merged snapshot's ``router`` section is the fleet router's
    # FleetState.counters(); ``routed`` has one entry per instance.
    router = snapshot.get("router")
    if router is not None:
        routed = router.get("routed") or {}
        unhealthy = set(router.get("unhealthy") or ())
        _metric(
            lines,
            "repro_fleet_instances",
            "gauge",
            "Configured service instances.",
            [(None, len(routed))],
        )
        _metric(
            lines,
            "repro_fleet_healthy_instances",
            "gauge",
            "Instances the router considers routable.",
            [(None, len(set(routed) - unhealthy))],
        )
        _metric(
            lines,
            "repro_fleet_routed_total",
            "counter",
            "Requests routed per instance.",
            [
                ({"instance": instance}, count)
                for instance, count in sorted(routed.items())
            ],
        )
        _metric(
            lines,
            "repro_fleet_fallbacks_total",
            "counter",
            "Requests rerouted off a dead primary via rendezvous hashing.",
            [(None, router.get("fallbacks", 0))],
        )
        _metric(
            lines,
            "repro_fleet_unroutable_total",
            "counter",
            "Requests rejected with no healthy instance.",
            [(None, router.get("rejected", 0))],
        )
    return "\n".join(lines) + "\n"
