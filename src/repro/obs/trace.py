"""Spans: where a run spends its time, within and across processes.

This is the one span model.  A pipeline run records a ``pipeline`` span
with one child per phase (``token``/``ast``/``multilayer`` once per
fixpoint iteration, then ``rename``, ``reformat``, ``techniques``), and
``PipelineStats.phase_seconds`` is the per-name sum of those children.
The same spans join a cross-process trace when an entry point passes
its recorder in:

- :class:`TraceContext` — the ``(trace_id, span_id)`` pair minted at
  every entry point (``repro deobfuscate``, a service request, a batch
  task) and *propagated* across boundaries: it rides in the
  :class:`~repro.batch.task.Task` payload over the worker pipe and in
  the W3C ``traceparent`` HTTP header, so parent and worker spans share
  one trace_id.
- :class:`TraceSpan` — one timed region with identity: wall-clock start
  and end, a status (``ok`` / ``error`` / ``aborted``), and free-form
  attributes (a phase span carries its fixpoint ``iteration``), so it
  can be laid on a waterfall.
- :class:`SpanRecorder` — collects TraceSpans for one request/run, with
  a stack so nested ``span()`` blocks parent correctly.  Workers that
  die mid-sample flush their open spans with ``status="aborted"``
  (:func:`drain_active_spans`) so the parent can still export them.

Everything serializes through plain dicts (:meth:`TraceSpan.to_dict`)
because spans cross the same process boundary tasks do; the
OpenTelemetry-compatible JSONL rendering lives in
:mod:`repro.obs.export`.
"""

import secrets
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional

# Bump whenever the serialized TraceSpan shape changes (the exported
# JSONL embeds it; ``repro trace --check`` validates it).
TRACE_SCHEMA_VERSION = 1

# Terminal statuses a span can carry.
SPAN_STATUSES = ("ok", "error", "aborted")

# The canonical span names.  Every surface that names a phase — the
# phase spans, PipelineStats.phase_seconds, ``repro profile`` output,
# batch summaries, and the ``/metrics`` phase labels — uses these, so
# the per-process profile and the service scrape agree.
SPAN_PIPELINE = "pipeline"
SPAN_TOKEN = "token"
SPAN_AST = "ast"
SPAN_MULTILAYER = "multilayer"
SPAN_RENAME = "rename"
SPAN_REFORMAT = "reformat"
SPAN_TECHNIQUES = "techniques"

# The pipeline's phase names, in execution order.  ``token``/``ast``/
# ``multilayer`` repeat once per fixpoint iteration; ``rename`` and
# ``reformat`` run once, after convergence.
PHASES = (SPAN_TOKEN, SPAN_AST, SPAN_MULTILAYER, SPAN_RENAME, SPAN_REFORMAT)


def canonical_phase_name(name: str) -> str:
    """Assert *name* is already canonical and pass it through.

    The one-release alias fold (``tokens``/``token_parsing`` →
    ``token``, ``ast_recovery`` → ``ast``, ``multi_layer`` →
    ``multilayer``) is retired: every emitter writes the ``SPAN_*``
    constants now, so a non-canonical spelling on a read path is a
    producer bug to surface, not data to repair.  Unknown names other
    than the legacy spellings still pass through — readers must accept
    span names added by newer writers.
    """
    assert name not in (
        "tokens", "token_parsing", "ast_recovery", "multi_layer"
    ), f"legacy phase spelling {name!r} reached a read path"
    return name


def new_trace_id() -> str:
    """A 128-bit lowercase-hex trace id (W3C trace-context sized)."""
    return secrets.token_hex(16)


def new_span_id() -> str:
    """A 64-bit lowercase-hex span id."""
    return secrets.token_hex(8)


@dataclass(frozen=True)
class TraceContext:
    """The propagated identity: which trace, and which span to open.

    ``span_id`` is the id the receiver's *root* span will take (see
    :class:`SpanRecorder` — a parent that minted the context therefore
    knows the remote root span's id without any communication), and
    ``parent_span_id`` is the span that root should attach to, so a
    worker's spans link back into the parent process's tree.
    """

    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None

    @classmethod
    def new(cls) -> "TraceContext":
        return cls(trace_id=new_trace_id(), span_id=new_span_id())

    def child(self) -> "TraceContext":
        """A context for work nested under this one: same trace, fresh
        root id, parented on this context's span."""
        return TraceContext(
            trace_id=self.trace_id,
            span_id=new_span_id(),
            parent_span_id=self.span_id,
        )

    # Tasks carry the dict form across the worker process boundary.

    def to_dict(self) -> Dict[str, str]:
        data = {"trace_id": self.trace_id, "span_id": self.span_id}
        if self.parent_span_id is not None:
            data["parent_span_id"] = self.parent_span_id
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, str]) -> "TraceContext":
        return cls(
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_span_id=(
                str(data["parent_span_id"])
                if data.get("parent_span_id") is not None
                else None
            ),
        )

    def to_traceparent(self) -> str:
        """The W3C ``traceparent`` header value for this context."""
        return f"00-{self.trace_id}-{self.span_id}-01"


def parse_traceparent(header: str) -> Optional[TraceContext]:
    """Parse a W3C ``traceparent`` header; None when malformed.

    Accepts ``version-traceid-spanid-flags`` with 32/16 hex-digit ids;
    an all-zero id is invalid per the spec.
    """
    parts = header.strip().split("-")
    if len(parts) != 4:
        return None
    _version, trace_id, span_id, _flags = parts
    if len(trace_id) != 32 or len(span_id) != 16:
        return None
    try:
        int(trace_id, 16)
        int(span_id, 16)
    except ValueError:
        return None
    if trace_id == "0" * 32 or span_id == "0" * 16:
        return None
    return TraceContext(trace_id=trace_id.lower(), span_id=span_id.lower())


@dataclass
class TraceSpan:
    """One timed, identified region of a trace."""

    name: str
    trace_id: str
    span_id: str
    parent_span_id: Optional[str] = None
    start_unix: float = 0.0
    end_unix: Optional[float] = None
    status: str = "ok"
    process: str = ""
    attributes: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        if self.end_unix is None:
            return 0.0
        return max(0.0, self.end_unix - self.start_unix)

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "start_unix": round(self.start_unix, 6),
            "end_unix": (
                round(self.end_unix, 6) if self.end_unix is not None
                else None
            ),
            "status": self.status,
        }
        if self.parent_span_id is not None:
            data["parent_span_id"] = self.parent_span_id
        if self.process:
            data["process"] = self.process
        if self.attributes:
            data["attributes"] = dict(self.attributes)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "TraceSpan":
        return cls(
            name=str(data["name"]),
            trace_id=str(data["trace_id"]),
            span_id=str(data["span_id"]),
            parent_span_id=data.get("parent_span_id"),
            start_unix=float(data.get("start_unix", 0.0)),
            end_unix=(
                float(data["end_unix"])
                if data.get("end_unix") is not None
                else None
            ),
            status=str(data.get("status", "ok")),
            process=str(data.get("process", "")),
            attributes=dict(data.get("attributes") or {}),
        )


class SpanRecorder:
    """Collects :class:`TraceSpan` records for one request or run.

    The recorder is rooted at a :class:`TraceContext`: the first
    ``span()`` takes the context's ``span_id`` (so a parent process
    that minted the context and put it in a task payload knows exactly
    which id the remote root span will carry), and nested ``span()``
    blocks parent on the enclosing one via an explicit stack.

    Single-threaded by design — one recorder per request/run.  ``clock``
    and ``id_factory`` are injectable so tests (and the golden trace
    file) are deterministic.
    """

    def __init__(
        self,
        context: Optional[TraceContext] = None,
        process: str = "",
        clock: Callable[[], float] = time.time,
        id_factory: Callable[[], str] = new_span_id,
    ):
        self.context = context if context is not None else TraceContext.new()
        self.process = process
        self.clock = clock
        self.id_factory = id_factory
        self.spans: List[TraceSpan] = []
        self._stack: List[TraceSpan] = []
        self._root_id_used = False

    @property
    def trace_id(self) -> str:
        return self.context.trace_id

    def current_context(self) -> TraceContext:
        """The context child work should inherit *right now*: the open
        span if any, else the recorder's root context."""
        if self._stack:
            return TraceContext(
                trace_id=self.trace_id, span_id=self._stack[-1].span_id
            )
        return self.context

    def begin(self, name: str, **attributes: Any) -> TraceSpan:
        """Open a span (child of the innermost open span, if any)."""
        if self._stack:
            parent_id: Optional[str] = self._stack[-1].span_id
            span_id = self.id_factory()
        elif not self._root_id_used:
            # The root span takes the id the context promised, and
            # attaches to whatever the minting process had open.
            parent_id = self.context.parent_span_id
            span_id = self.context.span_id
            self._root_id_used = True
        else:
            # A second top-level span: sibling of the root span.
            parent_id = self.context.parent_span_id
            span_id = self.id_factory()
        span = TraceSpan(
            name=name,
            trace_id=self.trace_id,
            span_id=span_id,
            parent_span_id=parent_id,
            start_unix=self.clock(),
            process=self.process,
            attributes={k: v for k, v in attributes.items() if v is not None},
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: TraceSpan, status: str = "ok") -> None:
        """Close *span* (and anything mistakenly left open inside it)."""
        if not any(open_span is span for open_span in self._stack):
            if span.end_unix is None:
                span.end_unix = self.clock()
                span.status = status
            return
        while self._stack:
            top = self._stack.pop()
            top.end_unix = self.clock()
            top.status = status
            if top is span:
                return

    @contextmanager
    def span(self, name: str, **attributes: Any) -> Iterator[TraceSpan]:
        """Time the enclosed block as a child span; ``status="error"``
        when the block raises."""
        opened = self.begin(name, **attributes)
        try:
            yield opened
        except BaseException:
            self.end(opened, status="error")
            raise
        else:
            self.end(opened, status="ok")

    def children(self, parent: TraceSpan) -> List[TraceSpan]:
        """*parent*'s direct children, in start order."""
        return [
            span for span in self.spans
            if span.parent_span_id == parent.span_id
        ]

    def flush_open(self, status: str = "aborted") -> int:
        """Close every still-open span with *status*; return how many.

        This is the dying-worker path: a worker that raises (or is
        about to be killed) closes its partial spans as ``aborted`` so
        the parent can still export a truthful waterfall.
        """
        closed = 0
        now = self.clock()
        while self._stack:
            span = self._stack.pop()
            span.end_unix = now
            span.status = status
            closed += 1
        return closed


# -- the active recorder ------------------------------------------------------
#
# Worker processes run one sample at a time, but the code that builds
# an *error* record for a raising worker (repro.batch.task
# .exception_record) has no handle on the recorder run_one created.
# This tiny registry bridges that gap: run_one activates its recorder,
# the error path drains it.  One slot, not a stack — a worker process
# never nests samples.

_ACTIVE: Optional[SpanRecorder] = None


def activate_recorder(recorder: SpanRecorder) -> None:
    global _ACTIVE
    _ACTIVE = recorder


def deactivate_recorder() -> None:
    global _ACTIVE
    _ACTIVE = None


def active_recorder() -> Optional[SpanRecorder]:
    return _ACTIVE


def drain_active_spans(status: str = "aborted") -> List[Dict[str, Any]]:
    """Flush and serialize the active recorder's spans, deactivating it.

    Returns ``[]`` when no recorder is active — callers can
    unconditionally attach the result to their error payloads.
    """
    global _ACTIVE
    recorder = _ACTIVE
    _ACTIVE = None
    if recorder is None:
        return []
    recorder.flush_open(status=status)
    return [span.to_dict() for span in recorder.spans]
