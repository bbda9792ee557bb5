"""The typed, versioned per-run telemetry record: :class:`PipelineStats`.

This replaces the free-form ``stats: Dict[str, int]`` the pipeline used
to return.  Every counter the phases emit has a declared field, the
serialized form is pinned by ``STATS_SCHEMA_VERSION`` (and a golden-file
test), and ``from_dict(to_dict())`` round-trips losslessly — which is
what lets ``repro batch`` embed the stats in JSONL records and
``repro.batch.summary`` aggregate per-phase percentiles over a corpus.

Use the attributes, or ``to_dict()`` for a mapping.
"""

from dataclasses import dataclass, field, fields
from typing import Any, Dict

from repro.obs.trace import canonical_phase_name

# Bump whenever the serialized shape of PipelineStats changes.
# Version 2 adds the ``verify`` verdict-count section; version 3 adds
# the ``techniques`` tag section (Table I telemetry); version 4 adds
# the hot-path counters (``subtree_memo_hits`` /
# ``subtree_memo_misses`` from repro.runtime.memo, ``intern_hits`` /
# ``intern_misses`` from repro.pslang.interning); version 5 adds the
# sandbox-policy section (``policy`` preset name, per-capability
# ``policy_denials``, summed ``budget_spent``) from repro.policy;
# version 6 adds the ``language`` front-end id (repro.frontend);
# version 7 drops the raw ``spans`` list — the phase spans live in the
# run's SpanRecorder (repro.obs.trace), and ``phase_seconds`` is
# derived from them.
STATS_SCHEMA_VERSION = 7

# Why a recoverable piece did / did not get replaced (Section III-B2
# plus the failure taxonomy of Section V-C).
RECOVERY_REASONS = (
    "recovered",           # executed; result had a string form
    "blocked",             # mentions a blocklisted command: never executed
    "unsupported",         # evaluation failed (outside the sandbox subset)
    "step_limit",          # execution budget exhausted mid-piece
    "not_stringifiable",   # executed fine, but no faithful literal exists
)

# What kind of invoker the multi-layer phase unwrapped.
UNWRAP_KINDS = (
    "iex",                 # Invoke-Expression / iex / &'iex' / .('iex')
    "encoded_command",     # powershell -EncodedCommand <base64>
    "command",             # powershell -Command / bare inline script
)


def _zero_reasons() -> Dict[str, int]:
    return {reason: 0 for reason in RECOVERY_REASONS}


def _zero_kinds() -> Dict[str, int]:
    return {kind: 0 for kind in UNWRAP_KINDS}


@dataclass
class PipelineStats:
    """Everything one :meth:`Deobfuscator.deobfuscate` run measured.

    Counters
    --------
    tokens_rewritten
        Token-phase rewrites applied (ticks removed, aliases expanded,
        casing canonicalized).
    pieces_recovered
        Recoverable AST pieces whose replacement actually changed the
        script.  ``recovery_outcomes["recovered"]`` additionally counts
        pieces that evaluated to their own text (already-clean pieces).
    variables_traced / variables_substituted
        Algorithm 1 symbol-table writes and use-site replacements.
    trace_hits / trace_misses
        At substitutable use sites: how often the symbol table had a
        usable value vs not — the paper's variable-tracing efficacy.
    recovery_outcomes
        Per-piece outcome counts keyed by :data:`RECOVERY_REASONS`.
    recovery_cache_hits
        Pieces answered from the state-independent memo instead of the
        sandbox.
    subtree_memo_hits / subtree_memo_misses
        Structure-hash memo lookups (:mod:`repro.runtime.memo`) that
        replayed a stored piece outcome vs ran the sandbox.  Both zero
        when the run had ``subtree_memo=False``.
    intern_hits / intern_misses
        This run's delta of the process-wide token-string intern table
        (:mod:`repro.pslang.interning`): strings reused vs newly seen.
    evaluator_steps
        Total sandbox interpreter steps across every piece and
        assignment evaluation — the run's execution-cost denominator.
    unwrap_kinds
        Multi-layer unwraps by invoker kind (:data:`UNWRAP_KINDS`).
    verify
        Semantic-equivalence verdict counts (``equivalent`` /
        ``divergent`` / ``inconclusive``) when the run was
        differentially verified (:mod:`repro.verify`); empty — and
        omitted from ``to_dict()`` — otherwise.  A single run carries
        one count of 1; batch/service aggregation sums them.
    techniques
        Obfuscation-technique tags this run recovered
        (:mod:`repro.obs.techniques`): detector names plus ``layer_*``
        unwrap tags, value 1 each for a single run.  Summing over a
        corpus via :meth:`merge` yields the Table I prevalence counts.
        Empty — and omitted from ``to_dict()`` — when tagging was off.
    policy / policy_denials / budget_spent
        The sandbox-policy section (:mod:`repro.policy`): the preset
        name the run executed under, per-capability counts of refused
        checks (only the capabilities that denied; empty — and omitted
        — on a clean run), and the summed execution-budget consumption
        (steps/loop ticks/output chars) across every evaluation.
        ``policy`` is ``"mixed"`` after merging runs with different
        policies, and ``""`` on legacy records that predate policies.
    language
        The front-end id (:mod:`repro.frontend`) the run parsed and
        recovered with (``powershell``, ``js``); ``"mixed"`` after
        merging runs of different languages, ``""`` on legacy records.

    Timing
    ------
    phase_seconds
        Total wall-clock per phase name: the sum, over iterations, of
        the run's phase spans (children of its ``pipeline`` span in
        the :class:`~repro.obs.trace.SpanRecorder`).  Empty when the
        pipeline ran with ``collect_spans=False``.
    """

    tokens_rewritten: int = 0
    pieces_recovered: int = 0
    variables_traced: int = 0
    variables_substituted: int = 0
    trace_hits: int = 0
    trace_misses: int = 0
    evaluator_steps: int = 0
    recovery_cache_hits: int = 0
    subtree_memo_hits: int = 0
    subtree_memo_misses: int = 0
    intern_hits: int = 0
    intern_misses: int = 0
    recovery_outcomes: Dict[str, int] = field(default_factory=_zero_reasons)
    unwrap_kinds: Dict[str, int] = field(default_factory=_zero_kinds)
    verify: Dict[str, int] = field(default_factory=dict)
    techniques: Dict[str, int] = field(default_factory=dict)
    policy: str = ""
    language: str = ""
    policy_denials: Dict[str, int] = field(default_factory=dict)
    budget_spent: Dict[str, int] = field(default_factory=dict)
    phase_seconds: Dict[str, float] = field(default_factory=dict)
    schema_version: int = STATS_SCHEMA_VERSION

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        """JSON-ready dict; pinned by the schema golden test.

        The ``verify`` section appears only on verified runs, so the
        overwhelmingly common unverified record pays no size for it.
        """
        data: Dict[str, Any] = {
            "schema_version": self.schema_version,
            "tokens_rewritten": self.tokens_rewritten,
            "pieces_recovered": self.pieces_recovered,
            "variables_traced": self.variables_traced,
            "variables_substituted": self.variables_substituted,
            "trace_hits": self.trace_hits,
            "trace_misses": self.trace_misses,
            "evaluator_steps": self.evaluator_steps,
            "recovery_cache_hits": self.recovery_cache_hits,
            "subtree_memo_hits": self.subtree_memo_hits,
            "subtree_memo_misses": self.subtree_memo_misses,
            "intern_hits": self.intern_hits,
            "intern_misses": self.intern_misses,
            "recovery_outcomes": dict(self.recovery_outcomes),
            "unwrap_kinds": dict(self.unwrap_kinds),
            "phase_seconds": dict(self.phase_seconds),
        }
        if self.verify:
            data["verify"] = dict(self.verify)
        if self.techniques:
            data["techniques"] = dict(self.techniques)
        if self.policy:
            data["policy"] = self.policy
        if self.language:
            data["language"] = self.language
        if self.policy_denials:
            data["policy_denials"] = dict(self.policy_denials)
        if self.budget_spent:
            data["budget_spent"] = dict(self.budget_spent)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "PipelineStats":
        """Rebuild from :meth:`to_dict` output.

        Tolerant of older records: missing fields default to zero (a
        pre-telemetry record's three counters still load), and unknown
        keys — the ``spans`` list of a version 6 record among them —
        are ignored so a newer writer does not break an older reader.
        Phase names must already be canonical
        (:func:`~repro.obs.trace.canonical_phase_name` asserts so).
        """
        stats = cls()
        for item in fields(cls):
            if item.name not in data:
                continue
            value = data[item.name]
            if item.name in (
                "recovery_outcomes", "unwrap_kinds", "verify",
                "techniques", "policy_denials", "budget_spent",
            ):
                merged = getattr(stats, item.name)
                merged.update({str(k): int(v) for k, v in value.items()})
            elif item.name in ("policy", "language"):
                setattr(stats, item.name, str(value))
            elif item.name == "phase_seconds":
                stats.phase_seconds = {}
                for key, seconds in value.items():
                    phase = canonical_phase_name(str(key))
                    stats.phase_seconds[phase] = round(
                        stats.phase_seconds.get(phase, 0.0) + float(seconds),
                        6,
                    )
            else:
                setattr(stats, item.name, int(value))
        return stats

    # -- aggregation --------------------------------------------------------

    def merge(self, other: "PipelineStats") -> None:
        """Add *other*'s counters and timings into this record."""
        self.tokens_rewritten += other.tokens_rewritten
        self.pieces_recovered += other.pieces_recovered
        self.variables_traced += other.variables_traced
        self.variables_substituted += other.variables_substituted
        self.trace_hits += other.trace_hits
        self.trace_misses += other.trace_misses
        self.evaluator_steps += other.evaluator_steps
        self.recovery_cache_hits += other.recovery_cache_hits
        self.subtree_memo_hits += other.subtree_memo_hits
        self.subtree_memo_misses += other.subtree_memo_misses
        self.intern_hits += other.intern_hits
        self.intern_misses += other.intern_misses
        for reason, count in other.recovery_outcomes.items():
            self.recovery_outcomes[reason] = (
                self.recovery_outcomes.get(reason, 0) + count
            )
        for kind, count in other.unwrap_kinds.items():
            self.unwrap_kinds[kind] = (
                self.unwrap_kinds.get(kind, 0) + count
            )
        for verdict, count in other.verify.items():
            self.verify[verdict] = self.verify.get(verdict, 0) + count
        for tag, count in other.techniques.items():
            self.techniques[tag] = self.techniques.get(tag, 0) + count
        if other.policy:
            if not self.policy:
                self.policy = other.policy
            elif self.policy != other.policy:
                self.policy = "mixed"
        if other.language:
            if not self.language:
                self.language = other.language
            elif self.language != other.language:
                self.language = "mixed"
        for capability, count in other.policy_denials.items():
            self.policy_denials[capability] = (
                self.policy_denials.get(capability, 0) + count
            )
        for dimension, count in other.budget_spent.items():
            self.budget_spent[dimension] = (
                self.budget_spent.get(dimension, 0) + count
            )
        for phase, seconds in other.phase_seconds.items():
            self.phase_seconds[phase] = round(
                self.phase_seconds.get(phase, 0.0) + seconds, 6
            )
