"""The Invoke-Deobfuscation orchestrator (paper Fig 2).

``token parse → AST recovery (with variable tracing) → multi-layer
unwrap`` runs in a loop until the script stops changing (Section III-B4's
fixpoint), then randomized identifiers are renamed and the script is
reformatted.  Every phase is individually optional so the ablation bench
(DESIGN.md A1) can switch pieces off.

Every run is instrumented through :mod:`repro.obs`: per-phase,
per-iteration wall-clock spans plus the counters each phase emits land
in the typed :class:`~repro.obs.PipelineStats` on the result.
"""

import time
from dataclasses import dataclass, field
from typing import List, Optional

from repro.frontend import Frontend, resolve_frontend
from repro.obs import PipelineStats, Tracer
from repro.obs.log import get_logger
from repro.obs.spans import SPAN_TECHNIQUES
from repro.options import DEFAULT_MAX_ITERATIONS, PipelineOptions
from repro.policy import PolicyAudit, SandboxPolicy, resolve_policy
from repro.runtime.memo import SubtreeMemo

_log = get_logger("core.pipeline")


@dataclass
class DeobfuscationResult:
    """What one deobfuscation run produced.

    Attributes
    ----------
    original
        The input script, untouched.
    script
        The deobfuscated script.  When ``valid_input`` is False this is
        the input unchanged; when ``timed_out`` is True it is the best
        intermediate reached before the deadline.
    layers
        One intermediate script per fixpoint iteration that changed the
        input — what an analyst would inspect layer by layer.
    iterations
        Fixpoint iterations executed (Section III-B4), including the
        final no-change iteration that proves convergence.
    layers_unwrapped
        ``Invoke-Expression`` / ``powershell -EncodedCommand`` layers
        removed by the multi-layer phase across all iterations.
    valid_input
        False when the input did not parse under the run's language
        front end at all; no phase ran.
    timed_out
        True when ``deadline_seconds`` elapsed before the fixpoint was
        reached; ``script`` still holds the best-effort intermediate and
        ``stats`` the partial telemetry (including the spans of every
        phase that did run).
    elapsed_seconds
        Wall-clock time spent inside :meth:`Deobfuscator.deobfuscate`.
    stats
        The run's :class:`~repro.obs.PipelineStats`: per-phase spans and
        timings, per-piece recovery outcomes with reasons, evaluator
        step counts, variable-tracing hit/miss counts, multilayer
        unwrap kinds, and the sandbox policy's denial/budget counters.
        Serialize with ``stats.to_dict()``; the legacy dict-style
        ``stats["pieces_recovered"]`` access has been retired.
    audit
        The run's :class:`~repro.policy.PolicyAudit`: per-capability
        denial counts, summed budget consumption, and — when the policy
        audits — the structured :class:`~repro.policy.AuditEvent` log.
    """

    original: str
    script: str
    layers: List[str] = field(default_factory=list)
    iterations: int = 0
    layers_unwrapped: int = 0
    valid_input: bool = True
    timed_out: bool = False
    elapsed_seconds: float = 0.0
    stats: PipelineStats = field(default_factory=PipelineStats)
    audit: Optional[PolicyAudit] = None

    @property
    def changed(self) -> bool:
        return self.script != self.original


class Deobfuscator:
    """AST-based, semantics-preserving deobfuscator.

    The orchestrator is language-neutral: every language-specific
    phase dispatches through the :class:`~repro.frontend.Frontend`
    named by ``options.language`` (``powershell`` — the paper's
    pipeline — by default).  Configured by one typed record:
    ``Deobfuscator(options=PipelineOptions(...))``.  The option fields
    mirror the paper's design decisions so each can be ablated:

    token_phase
        Run the Section III-A token parsing phase.
    ast_phase
        Run Section III-B recovery based on AST.
    trace_variables
        Keep Algorithm 1's symbol tables (off → the Li et al. failure
        mode on variable-carrying pieces).
    trace_functions
        EXTENSION (off by default, matching the paper): make user-defined
        function definitions callable during piece recovery, lifting the
        paper's Section V-C "recovery algorithm inside a function"
        limitation for side-effect-free decoders.
    multilayer
        Unwrap ``Invoke-Expression``/``powershell -enc`` layers.
    rename / reformat
        The Section III-C post-processing.
    enforce_blocklist
        Skip pieces containing irrelevant/dangerous commands (off → the
        Fig 6 slow-baseline behaviour).
    policy
        The :mod:`repro.policy` sandbox preset every evaluation this
        run performs executes under (capability allow/deny lists,
        budgets, audit settings).  ``recovery-strict`` — the paper's
        defaults — when unset; an explicit ``enforce_blocklist=False``
        still wins over the preset's blocklist setting so the Fig 6
        ablation stays a one-flag change.
    deadline_seconds
        Cooperative wall-clock budget for one ``deobfuscate()`` call.
        The deadline is checked between phases and between fixpoint
        iterations; when it passes, the run stops, returns the best
        intermediate script and sets ``result.timed_out``.  A single
        pathological phase can still overrun (phases are not
        preempted) — :mod:`repro.batch` adds the hard process-kill
        backstop for corpus runs.
    collect_spans
        Record per-phase wall-clock spans into ``result.stats`` (on by
        default; the overhead is two clock reads per phase, pinned ≤ 5%
        by ``benchmarks/test_phase_profile.py``).  Counters are always
        collected.
    tag_techniques
        Run the Table I technique-telemetry pass after convergence (on
        by default): the per-technique detectors scan the original and
        every exposed intermediate layer, and the tags land in
        ``result.stats.techniques`` (:mod:`repro.obs.techniques`).

    ``deobfuscate(script, recorder=...)`` additionally accepts a
    :class:`~repro.obs.SpanRecorder`: the whole run then records a
    ``pipeline`` trace span with every phase span nested under it, so
    entry points (CLI, batch worker, service request) can stitch the
    run into a cross-process trace.
    """

    def __init__(self, options: Optional[PipelineOptions] = None):
        if options is None:
            options = PipelineOptions()
        elif not isinstance(options, PipelineOptions):
            raise TypeError(
                "options must be a PipelineOptions, got "
                f"{type(options).__name__}"
            )
        self.options = options
        # One resolved policy per deobfuscator: the preset the options
        # name, with the explicit blocklist ablation flag applied on
        # top (Fig 6's one-flag experiment must stay one flag).
        policy = resolve_policy(options.policy)
        if not options.enforce_blocklist and policy.enforce_blocklist:
            policy = policy.replace(enforce_blocklist=False)
        self.policy: SandboxPolicy = policy
        # The language front end every phase dispatches through —
        # options.language was validated at construction, so this
        # resolve cannot fail.
        self.frontend: Frontend = resolve_frontend(options.language)

    def deobfuscate(
        self, script: str, recorder=None
    ) -> DeobfuscationResult:
        started = time.perf_counter()
        # The cooperative wall-clock ceiling: an explicit option wins,
        # else the policy's wall_time_seconds budget applies.
        deadline_seconds = self.options.deadline_seconds
        if deadline_seconds is None:
            deadline_seconds = self.policy.wall_time_seconds
        deadline = (
            started + deadline_seconds
            if deadline_seconds is not None
            else None
        )

        def out_of_time() -> bool:
            return deadline is not None and time.perf_counter() >= deadline

        audit = PolicyAudit(self.policy)
        result = DeobfuscationResult(
            original=script, script=script, audit=audit
        )
        stats = result.stats
        pipeline_span = (
            recorder.begin("pipeline") if recorder is not None else None
        )
        tracer = Tracer(enabled=self.options.collect_spans, recorder=recorder)
        frontend = self.frontend
        # One subtree memo per run, shared across fixpoint iterations
        # (identical obfuscated fragments recur within one script);
        # front-end-private process-wide counters (the PowerShell
        # intern table) record this run's delta through the
        # begin/finalize bracket.
        memo = SubtreeMemo() if self.options.subtree_memo else None
        counters_token = frontend.begin_counters()

        def finalize_counters() -> None:
            if memo is not None:
                stats.subtree_memo_hits = memo.hits
                stats.subtree_memo_misses = memo.misses
            frontend.finalize_counters(stats, counters_token)
            stats.policy = self.policy.name
            stats.language = self.options.language
            stats.policy_denials = audit.denial_counts()
            stats.budget_spent = audit.budget_spent()

        ast, _ = frontend.try_parse(script)
        if ast is None:
            result.valid_input = False
            finalize_counters()
            result.elapsed_seconds = time.perf_counter() - started
            _log.warning(
                "input did not parse; no phase ran",
                language=self.options.language,
                length=len(script),
            )
            if pipeline_span is not None:
                recorder.end(pipeline_span, status="error")
            return result

        current = script
        converged = False
        for iteration in range(self.options.max_iterations):
            if out_of_time():
                result.timed_out = True
                break
            step = current
            if self.options.token_phase:
                with tracer.span("token", iteration=iteration):
                    step = frontend.token_pass(step, stats=stats)
            if self.options.ast_phase and not out_of_time():
                with tracer.span("ast", iteration=iteration):
                    step = frontend.ast_pass(
                        step,
                        options=self.options,
                        policy=self.policy,
                        memo=memo,
                        audit=audit,
                        stats=stats,
                    )
            if self.options.multilayer and not out_of_time():
                with tracer.span("multilayer", iteration=iteration):
                    unwrapped = frontend.unwrap_layers(step)
                step = unwrapped.script
                result.layers_unwrapped += unwrapped.count
                for kind, count in unwrapped.kinds.items():
                    stats.unwrap_kinds[kind] = (
                        stats.unwrap_kinds.get(kind, 0) + count
                    )
            result.iterations += 1
            if step == current:
                converged = True
                break
            current = step
            result.layers.append(current)
        if not converged and out_of_time():
            result.timed_out = True

        if self.options.rename:
            if out_of_time():
                result.timed_out = True
            else:
                with tracer.span("rename"):
                    current = frontend.rename(current)
        if self.options.reformat:
            if out_of_time():
                result.timed_out = True
            else:
                with tracer.span("reformat"):
                    current = frontend.reformat(current)

        result.script = current

        if self.options.tag_techniques and not out_of_time():
            with tracer.span(SPAN_TECHNIQUES):
                stats.techniques = frontend.tag_techniques(
                    result.original,
                    layers=result.layers,
                    unwrap_kinds=stats.unwrap_kinds,
                )

        stats.spans = tracer.spans
        stats.phase_seconds = tracer.phase_totals()
        finalize_counters()
        result.elapsed_seconds = time.perf_counter() - started
        if result.timed_out:
            _log.warning(
                "pipeline hit its cooperative deadline",
                iterations=result.iterations,
                deadline_seconds=deadline_seconds,
                elapsed_ms=round(result.elapsed_seconds * 1000, 3),
            )
        else:
            _log.debug(
                "pipeline run finished",
                iterations=result.iterations,
                layers_unwrapped=result.layers_unwrapped,
                pieces_recovered=stats.pieces_recovered,
                changed=result.changed,
                elapsed_ms=round(result.elapsed_seconds * 1000, 3),
            )
        if pipeline_span is not None:
            recorder.end(
                pipeline_span,
                status="aborted" if result.timed_out else "ok",
            )
        return result


def deobfuscate(
    script: str,
    options: Optional[PipelineOptions] = None,
    recorder=None,
) -> DeobfuscationResult:
    """One-call convenience API: ``deobfuscate(script).script``.

    *recorder* optionally threads a :class:`~repro.obs.SpanRecorder`
    through the run (see :meth:`Deobfuscator.deobfuscate`).
    """
    return Deobfuscator(options=options).deobfuscate(
        script, recorder=recorder
    )
