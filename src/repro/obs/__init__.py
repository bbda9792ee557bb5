"""Pipeline observability: spans, counters, and the typed stats record.

The paper's efficiency claims (Fig 6) and its failure analysis (Section
V-C) both require knowing *where* a run spends its time and *why* each
recoverable piece was kept or replaced.  This package is the
instrumentation layer that records exactly that, with no third-party
dependencies:

- :class:`SpanRecorder` / :class:`TraceSpan` / :class:`TraceContext` —
  the one span model (:mod:`repro.obs.trace`): a run's ``pipeline``
  span and its per-phase, per-iteration children, named by the
  canonical ``SPAN_*`` constants every telemetry surface shares, with
  a trace identity propagated over the worker-pool pipe and the W3C
  ``traceparent`` header, exported as OpenTelemetry-compatible JSONL
  (:mod:`repro.obs.export`) and rendered by ``repro trace``;
- :class:`PipelineStats` — the typed, versioned per-run record that
  ``DeobfuscationResult.stats`` carries (counters plus
  ``phase_seconds``, the per-phase sums of the run's phase spans),
  with lossless ``to_dict()``/``from_dict()`` for JSONL embedding
  (:mod:`repro.obs.stats`);
- :func:`tag_techniques` — the Table I technique-telemetry pass
  (:mod:`repro.obs.techniques`);
- :class:`Histogram` — bucketed latency with per-bucket trace
  exemplars, rendered by ``/metrics`` (:mod:`repro.obs.hist`);
- :func:`render_profile` — the human rendering behind ``repro profile``
  and ``repro deobfuscate --stats`` (:mod:`repro.obs.profile`).
"""

from repro.obs.hist import DEFAULT_LATENCY_BUCKETS, Histogram
from repro.obs.log import (
    LOG_SCHEMA_VERSION,
    LogEvent,
    LogRing,
    LogSink,
    configure_logging,
    get_logger,
    iter_events,
    log_tail,
    logging_enabled,
    reset_logging,
)
from repro.obs.profile import profile_lines, render_profile
from repro.obs.stats import (
    RECOVERY_REASONS,
    STATS_SCHEMA_VERSION,
    UNWRAP_KINDS,
    PipelineStats,
)
from repro.obs.techniques import (
    LAYER_TAGS,
    render_prevalence,
    tag_techniques,
)
from repro.obs.trace import (
    PHASES,
    TRACE_SCHEMA_VERSION,
    SpanRecorder,
    TraceContext,
    TraceSpan,
    canonical_phase_name,
    parse_traceparent,
)
from repro.obs.window import WINDOW_MINUTES, RollingWindow

__all__ = [
    "DEFAULT_LATENCY_BUCKETS",
    "Histogram",
    "LAYER_TAGS",
    "LOG_SCHEMA_VERSION",
    "LogEvent",
    "LogRing",
    "LogSink",
    "PHASES",
    "PipelineStats",
    "RECOVERY_REASONS",
    "RollingWindow",
    "STATS_SCHEMA_VERSION",
    "SpanRecorder",
    "TRACE_SCHEMA_VERSION",
    "TraceContext",
    "TraceSpan",
    "UNWRAP_KINDS",
    "WINDOW_MINUTES",
    "canonical_phase_name",
    "configure_logging",
    "get_logger",
    "iter_events",
    "log_tail",
    "logging_enabled",
    "parse_traceparent",
    "profile_lines",
    "render_prevalence",
    "render_profile",
    "reset_logging",
    "tag_techniques",
]
