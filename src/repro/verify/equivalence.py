"""Differential semantic-equivalence verification.

:func:`verify_equivalence` is the subsystem's core: execute the original
and the deobfuscated script under identical sandbox limits, normalize
both behaviour logs (:mod:`repro.verify.normalize`), and judge:

``equivalent``
    The normalized observable sequences match — the deobfuscated script
    still *does* the same things, in the same order.

``divergent``
    The sequences differ (or the candidate no longer parses).  The
    verdict carries a minimal event diff so a triage analyst sees the
    first behaviours gained/lost rather than two raw logs.

``inconclusive``
    Either execution hit the step limit or was refused by the blocklist
    before finishing — the logs are truncated, so neither equality nor
    inequality would be trustworthy.

This is the paper's behavioural-consistency experiment (Table IV)
upgraded from an unordered network-signature set to an ordered,
multi-surface event comparison.
"""

import time
from dataclasses import dataclass
from difflib import SequenceMatcher
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.verify.normalize import describe_event, normalized_signature
from repro.verify.observe import (
    DEFAULT_STEP_LIMIT,
    BehaviorReport,
    observe_behavior,
)

VERDICTS = ("equivalent", "divergent", "inconclusive")

# A verdict's diff is a *minimal* witness, not a transcript.
DEFAULT_MAX_DIFF = 8


@dataclass(frozen=True)
class VerifyVerdict:
    """The outcome of one differential verification run."""

    verdict: str                               # one of VERDICTS
    reason: str = ""
    diff: Tuple[str, ...] = ()                 # "- lost" / "+ gained" lines
    original_events: int = 0
    candidate_events: int = 0
    original_error: str = ""
    candidate_error: str = ""
    seconds: float = 0.0

    @property
    def equivalent(self) -> bool:
        return self.verdict == "equivalent"

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "verdict": self.verdict,
            "original_events": self.original_events,
            "candidate_events": self.candidate_events,
            "seconds": round(self.seconds, 4),
        }
        if self.reason:
            data["reason"] = self.reason
        if self.diff:
            data["diff"] = list(self.diff)
        if self.original_error:
            data["original_error"] = self.original_error
        if self.candidate_error:
            data["candidate_error"] = self.candidate_error
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "VerifyVerdict":
        return cls(
            verdict=str(data.get("verdict", "inconclusive")),
            reason=str(data.get("reason", "")),
            diff=tuple(str(line) for line in data.get("diff", ())),
            original_events=int(data.get("original_events", 0)),
            candidate_events=int(data.get("candidate_events", 0)),
            original_error=str(data.get("original_error", "")),
            candidate_error=str(data.get("candidate_error", "")),
            seconds=float(data.get("seconds", 0.0)),
        )


def _event_diff(
    original: Sequence[Any],
    candidate: Sequence[Any],
    max_diff: int,
    describe: Callable[[Any], str] = describe_event,
) -> Tuple[str, ...]:
    """Minimal ``-``/``+`` witness of where the two sequences part ways.

    Front ends with their own event shape pass the *describe* that
    renders one of their events.
    """
    lines: List[str] = []
    matcher = SequenceMatcher(a=original, b=candidate, autojunk=False)
    for op, a_lo, a_hi, b_lo, b_hi in matcher.get_opcodes():
        if op == "equal":
            continue
        for entry in original[a_lo:a_hi]:
            lines.append("- " + describe(entry))
        for entry in candidate[b_lo:b_hi]:
            lines.append("+ " + describe(entry))
    if len(lines) > max_diff:
        extra = len(lines) - max_diff
        lines = lines[:max_diff] + [f"… {extra} more difference(s)"]
    return tuple(lines)


def _truncation_reason(label: str, report: BehaviorReport) -> Optional[str]:
    """Why *report* cannot support a verdict, or None if it can."""
    if report.timed_out:
        return f"{label} script exhausted the step limit"
    if report.blocked:
        return f"{label} script execution was blocked"
    if report.events_dropped:
        return f"{label} script overflowed the event log"
    return None


def verify_equivalence(
    original: str,
    candidate: str,
    responses: Optional[dict] = None,
    step_limit: int = DEFAULT_STEP_LIMIT,
    max_diff: int = DEFAULT_MAX_DIFF,
    policy=None,
) -> VerifyVerdict:
    """Differentially verify that *candidate* preserves *original*'s
    observable behaviour.  Both run under the same sandbox policy
    (default ``verify-observing``), limits, and synthetic
    ``responses``; see the module docstring for the verdict
    semantics."""
    started = time.perf_counter()
    first = observe_behavior(
        original, responses, step_limit=step_limit, policy=policy
    )
    second = observe_behavior(
        candidate, responses, step_limit=step_limit, policy=policy
    )
    elapsed = lambda: time.perf_counter() - started  # noqa: E731

    def build(verdict: str, reason: str, diff: Tuple[str, ...] = ()):
        return VerifyVerdict(
            verdict=verdict,
            reason=reason,
            diff=diff,
            original_events=len(first.events),
            candidate_events=len(second.events),
            original_error=first.error or "",
            candidate_error=second.error or "",
            seconds=elapsed(),
        )

    if second.invalid:
        return build("divergent", "deobfuscated script does not parse")
    if first.invalid:
        # The pipeline never produced a candidate from an unparseable
        # original (valid_input=False keeps the text untouched), so this
        # arm only triggers on hand-fed pairs — nothing to compare.
        return build("inconclusive", "original script does not parse")
    for label, report in (("original", first), ("deobfuscated", second)):
        reason = _truncation_reason(label, report)
        if reason:
            return build("inconclusive", reason)

    first_signature = normalized_signature(first.events)
    second_signature = normalized_signature(second.events)
    if first_signature == second_signature:
        return build("equivalent", "")
    diff = _event_diff(first_signature, second_signature, max_diff)
    return build(
        "divergent",
        "normalized behaviour logs differ "
        f"({len(first_signature)} vs {len(second_signature)} observable events)",
        diff,
    )


def verify_result(
    result: Any,
    responses: Optional[dict] = None,
    step_limit: int = DEFAULT_STEP_LIMIT,
    policy=None,
) -> VerifyVerdict:
    """Verify a :class:`~repro.core.pipeline.DeobfuscationResult`.

    Fast paths: an untouched script is trivially equivalent (nothing to
    execute), and a result the pipeline already marked invalid-input
    cannot be judged.
    """
    if not getattr(result, "valid_input", True):
        return VerifyVerdict(
            verdict="inconclusive", reason="original script does not parse"
        )
    if result.script == result.original:
        return VerifyVerdict(
            verdict="equivalent", reason="script unchanged by pipeline"
        )
    return verify_equivalence(
        result.original,
        result.script,
        responses,
        step_limit=step_limit,
        policy=policy,
    )
