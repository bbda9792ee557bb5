"""Observing runner + differential verification for JavaScript.

The JS analogue of :mod:`repro.verify.observe` / :mod:`repro.verify.
equivalence`: run a script under budget, log its *observable* events —
``console.log`` output and calls to anything the sandbox does not model
— then compare the ordered event sequences of the original and the
deobfuscated candidate.  ``eval`` of a string executes the payload
recursively in the same scope (budget shared), which is exactly what
makes an eval-wrapped original and its unwrapped recovery log the same
events.
"""

import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.frontend.js import ast_nodes as N
from repro.frontend.js.errors import JsEvalError
from repro.frontend.js.evaluator import JsEvaluator, js_to_string
from repro.frontend.js.parser import try_parse
from repro.runtime.errors import EvaluationError, StepLimitError
from repro.runtime.limits import ExecutionBudget
from repro.verify.equivalence import (
    DEFAULT_MAX_DIFF,
    VerifyVerdict,
    _event_diff,
)

DEFAULT_STEP_LIMIT = 200_000
MAX_EVENTS = 10_000
# eval-in-eval nesting deeper than this is a decoder bomb, not a layer.
MAX_EVAL_DEPTH = 16

JsEvent = Tuple[str, Tuple[str, ...]]


@dataclass
class JsBehaviorLog:
    """What one scripted run did, in order."""

    events: List[JsEvent] = field(default_factory=list)
    error: str = ""
    invalid: bool = False
    timed_out: bool = False
    events_dropped: bool = False


class _ObservingRunner:
    """Execute a program's statements, recording observable events.

    Calls whose target the pure evaluator cannot resolve (``console.
    log``, ``alert``, ``document.write``, ...) become events rather
    than errors: arguments are evaluated, stringified and logged.  That
    is the entire observable surface of the subset — everything else is
    pure computation.
    """

    def __init__(self, budget: ExecutionBudget, log: JsBehaviorLog):
        self.budget = budget
        self.log = log
        self.environment: Dict[str, Any] = {}

    def run(self, source: str, depth: int = 0) -> None:
        ast, error = try_parse(source)
        if ast is None:
            raise JsEvalError(f"payload does not parse: {error}")
        for statement in ast.body:
            self._run_statement(statement, depth)

    def _run_statement(self, statement: N.JsNode, depth: int) -> None:
        self.budget.step()
        if isinstance(statement, N.Program):
            for child in statement.body:
                self._run_statement(child, depth)
            return
        if isinstance(statement, N.VariableDeclaration):
            value: Any = None
            if statement.init is not None:
                value = self._evaluate(statement.init, depth)
            self.environment[statement.name] = value
            return
        if isinstance(statement, N.ExpressionStatement):
            self._evaluate(statement.expression, depth, discard=True)
            return
        self._evaluate(statement, depth, discard=True)

    def _evaluate(
        self, node: N.JsNode, depth: int, discard: bool = False
    ) -> Any:
        if isinstance(node, N.AssignmentExpression) and isinstance(
            node.target, N.Identifier
        ):
            value = self._evaluate(node.value, depth)
            self.environment[node.target.name] = value
            return value
        if isinstance(node, N.CallExpression):
            handled, value = self._try_effect_call(node, depth)
            if handled:
                return value
        if isinstance(node, N.ParenExpression):
            return self._evaluate(node.expression, depth, discard=discard)
        evaluator = JsEvaluator(
            environment=self.environment, budget=self.budget
        )
        return evaluator.evaluate(node)

    def _try_effect_call(
        self, node: N.CallExpression, depth: int
    ) -> Tuple[bool, Any]:
        """Handle eval and observable (unmodelled) calls; returns
        ``(handled, value)`` — unhandled calls fall through to the pure
        evaluator."""
        name = self._callee_name(node.callee)
        if name is None:
            return False, None
        arguments = [self._evaluate(arg, depth) for arg in node.arguments]
        if name == "eval":
            if len(arguments) == 1 and isinstance(arguments[0], str):
                if depth >= MAX_EVAL_DEPTH:
                    raise JsEvalError("eval nesting too deep")
                self.run(arguments[0], depth + 1)
                return True, None
            # eval of a non-string returns it unchanged (JS semantics).
            return True, arguments[0] if arguments else None
        if self._is_observable(name):
            self._emit(name, arguments)
            return True, None
        return False, None

    def _callee_name(self, callee: N.JsNode) -> Optional[str]:
        """A dotted name for identifier/member callees, or None."""
        if isinstance(callee, N.ParenExpression):
            return self._callee_name(callee.expression)
        if isinstance(callee, N.Identifier):
            return callee.name
        if isinstance(callee, N.MemberExpression) and not callee.computed:
            base = self._callee_name(callee.object)
            if base is None:
                return None
            return f"{base}.{callee.property}"
        return None

    def _is_observable(self, name: str) -> bool:
        """A call is observable when its root object is not a traced
        variable — i.e. the pure evaluator could not model it anyway."""
        root = name.split(".", 1)[0]
        if root in ("parseInt", "parseFloat", "atob", "String", "Number"):
            return False
        return root not in self.environment

    def _emit(self, name: str, arguments: List[Any]) -> None:
        if len(self.log.events) >= MAX_EVENTS:
            self.log.events_dropped = True
            raise StepLimitError("event log overflow")
        rendered = tuple(js_to_string(arg) for arg in arguments)
        self.log.events.append((name, rendered))


def observe_js(
    script: str,
    step_limit: int = DEFAULT_STEP_LIMIT,
    policy: Any = None,
) -> JsBehaviorLog:
    """Run *script* under budget and return its behaviour log."""
    log = JsBehaviorLog()
    ast, error = try_parse(script)
    if ast is None:
        log.invalid = True
        log.error = error or "parse error"
        return log
    if policy is not None:
        from repro.policy import resolve_policy

        budget = ExecutionBudget.from_policy(
            resolve_policy(policy), step_limit=step_limit
        )
    else:
        budget = ExecutionBudget(step_limit=step_limit)
    runner = _ObservingRunner(budget, log)
    try:
        runner.run(script)
    except StepLimitError as exc:
        log.timed_out = True
        log.error = str(exc)
    except (JsEvalError, EvaluationError) as exc:
        log.error = str(exc)
    return log


def _describe(event: JsEvent) -> str:
    name, arguments = event
    return f"{name}({', '.join(arguments)})"


def verify_js_equivalence(
    original: str,
    candidate: str,
    step_limit: int = DEFAULT_STEP_LIMIT,
    policy: Any = None,
    max_diff: int = DEFAULT_MAX_DIFF,
) -> VerifyVerdict:
    """Differentially verify that *candidate* preserves *original*'s
    observable behaviour, with the PowerShell verifier's verdict
    semantics (divergent on a non-parsing candidate, inconclusive on
    truncated runs)."""
    started = time.perf_counter()
    first = observe_js(original, step_limit=step_limit, policy=policy)
    second = observe_js(candidate, step_limit=step_limit, policy=policy)

    def build(verdict: str, reason: str, diff: Tuple[str, ...] = ()):
        return VerifyVerdict(
            verdict=verdict,
            reason=reason,
            diff=diff,
            original_events=len(first.events),
            candidate_events=len(second.events),
            original_error=first.error,
            candidate_error=second.error,
            seconds=time.perf_counter() - started,
        )

    if second.invalid:
        return build("divergent", "deobfuscated script does not parse")
    if first.invalid:
        return build("inconclusive", "original script does not parse")
    for label, log in (("original", first), ("deobfuscated", second)):
        if log.timed_out:
            return build(
                "inconclusive", f"{label} script exhausted the step limit"
            )
        if log.error:
            return build(
                "inconclusive", f"{label} script failed: {log.error}"
            )
    if first.events == second.events:
        return build("equivalent", "")
    return build(
        "divergent",
        "observable event logs differ "
        f"({len(first.events)} vs {len(second.events)} events)",
        _event_diff(first.events, second.events, max_diff, _describe),
    )


def verify_js_result(
    result: Any,
    step_limit: int = DEFAULT_STEP_LIMIT,
    policy: Any = None,
) -> VerifyVerdict:
    """Verify a pipeline result, with the usual fast paths."""
    if not getattr(result, "valid_input", True):
        return VerifyVerdict(
            verdict="inconclusive", reason="original script does not parse"
        )
    if result.script == result.original:
        return VerifyVerdict(
            verdict="equivalent", reason="script unchanged by pipeline"
        )
    return verify_js_equivalence(
        result.original, result.script, step_limit=step_limit, policy=policy
    )
