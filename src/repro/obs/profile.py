"""Human-readable rendering of a run's telemetry.

``render_profile`` turns a :class:`~repro.obs.stats.PipelineStats` (plus
the run metadata on a ``DeobfuscationResult`` and the phase spans in
the run's :class:`~repro.obs.trace.SpanRecorder`) into the text block
shown by ``repro profile`` and ``repro deobfuscate --stats``; the same
counter lines feed the triage report's telemetry section.
"""

from typing import List, Optional

from repro.obs.stats import PipelineStats
from repro.obs.trace import PHASES, SPAN_PIPELINE, SpanRecorder


def _counter_line(label: str, counts: dict) -> str:
    rendered = "  ".join(f"{name}={value}" for name, value in counts.items())
    return f"{label}: {rendered}"


def profile_lines(
    stats: PipelineStats, elapsed_seconds: Optional[float] = None
) -> List[str]:
    """The counter/timing lines shared by every profile surface."""
    lines: List[str] = []
    if stats.phase_seconds:
        ordered = [p for p in PHASES if p in stats.phase_seconds]
        ordered += [
            p for p in stats.phase_seconds if p not in ordered
        ]
        accounted = sum(stats.phase_seconds.values())
        parts = "  ".join(
            f"{phase} {stats.phase_seconds[phase]:.4f}s" for phase in ordered
        )
        lines.append(f"phases    : {parts}")
        if elapsed_seconds:
            lines.append(
                f"            ({accounted:.4f}s of {elapsed_seconds:.4f}s "
                "accounted to phases)"
            )
    lines.append(_counter_line("recovery  ", stats.recovery_outcomes))
    lines.append(
        f"            replacements={stats.pieces_recovered}  "
        f"cache_hits={stats.recovery_cache_hits}  "
        f"evaluator_steps={stats.evaluator_steps}"
    )
    lines.append(
        "hot paths : "
        f"memo_hits={stats.subtree_memo_hits}  "
        f"memo_misses={stats.subtree_memo_misses}  "
        f"intern_hits={stats.intern_hits}  "
        f"intern_misses={stats.intern_misses}"
    )
    lines.append(
        "tracing   : "
        f"traced={stats.variables_traced}  "
        f"substituted={stats.variables_substituted}  "
        f"hits={stats.trace_hits}  misses={stats.trace_misses}"
    )
    lines.append(_counter_line("unwraps   ", stats.unwrap_kinds))
    lines.append(f"tokens    : {stats.tokens_rewritten} rewritten")
    if stats.techniques:
        tags = "  ".join(sorted(stats.techniques))
        lines.append(f"techniques: {tags}")
    if stats.policy or stats.policy_denials or stats.budget_spent:
        parts = [stats.policy or "?"]
        if stats.policy_denials:
            parts.append(
                "denials "
                + "  ".join(
                    f"{capability}={count}"
                    for capability, count in sorted(
                        stats.policy_denials.items()
                    )
                )
            )
        if stats.budget_spent:
            parts.append(
                "budget "
                + "  ".join(
                    f"{name}={value}"
                    for name, value in sorted(stats.budget_spent.items())
                )
            )
        lines.append("policy    : " + "  |  ".join(parts))
    return lines


def render_profile(result, recorder: Optional[SpanRecorder] = None) -> str:
    """Full profile for one :class:`DeobfuscationResult`.

    With the *recorder* the run recorded into, the profile ends with
    one ``spans`` row per phase span of the run's (last) ``pipeline``
    span.
    """
    stats: PipelineStats = result.stats
    lines = ["=== pipeline profile ==="]
    status = "converged"
    if not result.valid_input:
        status = "invalid input"
    elif result.timed_out:
        status = "TIMED OUT (partial)"
    lines.append(
        f"run       : {result.elapsed_seconds:.4f}s, "
        f"{result.iterations} iteration(s), "
        f"{result.layers_unwrapped} layer(s) unwrapped — {status}"
    )
    lines.extend(profile_lines(stats, result.elapsed_seconds))
    runs = [] if recorder is None else [
        span for span in recorder.spans if span.name == SPAN_PIPELINE
    ]
    phase_spans = recorder.children(runs[-1]) if runs else []
    if phase_spans:
        lines.append("spans     :")
        for span in phase_spans:
            iteration = span.attributes.get("iteration")
            tag = f"iter {iteration}" if iteration is not None else "post"
            lines.append(
                f"  {span.name:<10} {span.seconds:>9.4f}s  ({tag})"
            )
    return "\n".join(lines)
