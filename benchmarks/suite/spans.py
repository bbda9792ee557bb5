"""Outside-in layer tracing: wrap public entry points, keep spans in memory.

The suite records spans from its own code, around the calls into each
layer, without touching the program: :meth:`Tracer.install` replaces
each entry point in :data:`ENTRY_POINTS` with a wrapper that records one
span per call.  Replacing module attributes works because the
PowerShell front end imports its phase functions at call time, and
replacing class attributes works for every caller.  Worker processes
forked after :meth:`Tracer.install` inherit the wrappers;
:func:`traced_run_one` is the batch worker that summarizes each task's
spans into its record.

A span is the tuple ``(span_id, parent_id, name, start_ns, end_ns,
chars)``.  :func:`layer_totals` turns a span list into per-layer call
counts, self time (a span's duration minus the time its children
cover), busy time (time inside the layer, counting a recursive call
once) and characters processed.
"""

import functools
import importlib
import itertools
import json
import threading
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Tuple

Span = Tuple[int, int, str, int, int, int]

# The span the suite opens around each deobfuscation call; its self
# time is the pipeline time no wrapped layer accounts for.
ROOT_SPAN = "script"


def _lexed_chars(args, kwargs) -> int:
    return len(getattr(args[0], "source", "") or "")


def _hit_or_miss(result) -> str:
    return "hit" if isinstance(result, dict) and result.get("cache_hit") else "miss"


@dataclass(frozen=True)
class EntryPoint:
    """One wrapped callable: ``module`` attribute path ``attr``."""

    module: str
    attr: str
    layer: str
    # Characters of input the call handles, read from its arguments.
    chars: Optional[Callable] = None
    # A suffix for the span name, read from the call's result.
    label: Optional[Callable] = None


ENTRY_POINTS = (
    EntryPoint("repro.pslang.lexer", "Lexer.tokenize", "pslang.lex",
               chars=_lexed_chars),
    EntryPoint("repro.pslang.parser", "Parser.parse", "pslang.parse"),
    EntryPoint("repro.core.token_deobfuscator", "deobfuscate_tokens",
               "core.token_deobfuscator"),
    EntryPoint("repro.core.reconstruction", "AstDeobfuscator.process",
               "core.reconstruction"),
    EntryPoint("repro.core.recovery", "RecoveryEngine.recover_piece_detailed",
               "core.recovery"),
    EntryPoint("repro.runtime.evaluator", "Evaluator.run_script_text",
               "runtime.evaluator"),
    EntryPoint("repro.core.multilayer", "unwrap_layers_detailed",
               "core.multilayer"),
    EntryPoint("repro.core.rename", "rename_random_identifiers", "core.rename"),
    EntryPoint("repro.core.reformat", "reformat_script", "core.reformat"),
    EntryPoint("repro.obs", "tag_techniques", "obs.techniques"),
    EntryPoint("repro.service.core", "DeobfuscationService.submit",
               "service.submit", label=_hit_or_miss),
    EntryPoint("repro.service.shard", "ShardedResultCache.lookup",
               "service.cache.lookup"),
    EntryPoint("repro.batch.pool", "BatchPool.submit", "batch.submit"),
)


class Tracer:
    """Records a span per call of every installed entry point.

    Spans stay in :attr:`spans` until the caller writes them out with
    :meth:`dump`.  Parent links follow a per-thread stack, so spans of
    concurrent requests on different threads never nest into each other.
    """

    def __init__(self):
        self.spans: List[Span] = []
        # Entry points that could not be found (renamed or removed);
        # their layer metrics report null.
        self.missing: List[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patched: List[Tuple[object, str, object]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, function, *args, **kwargs):
        """Run ``function(*args, **kwargs)`` inside a span called *name*."""
        return self.wrap(EntryPoint("", "", name), function)(*args, **kwargs)

    def wrap(self, point: EntryPoint, original):
        # Exactly one extra frame per wrapped call: every frame brings the
        # interpreter's depth limit closer for recursive layers such as
        # the evaluator, so the recording is inlined here.
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else 0
            span_id = next(self._ids)
            stack.append(span_id)
            start = time.perf_counter_ns()
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                name = point.layer
                if point.label is not None:
                    name = f"{name}.{point.label(result)}"
                chars = point.chars(args, kwargs) if point.chars else 0
                self.spans.append((span_id, parent, name, start, end, chars))

        return wrapper

    def install(self, points: Iterable[EntryPoint] = ENTRY_POINTS) -> None:
        """Wrap every entry point that exists; note the ones that do not."""
        for point in points:
            try:
                owner = importlib.import_module(point.module)
                *path, attr = point.attr.split(".")
                for part in path:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(point.layer)
                continue
            self._patched.append((owner, attr, original))
            setattr(owner, attr, self.wrap(point, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def take(self, since: int = 0) -> List[Span]:
        """Remove and return the spans recorded after index *since*."""
        taken = self.spans[since:]
        del self.spans[since:]
        return taken

    def dump(self, path: str) -> None:
        """Write the recorded spans as JSONL, one span per line."""
        with open(path, "w", encoding="utf-8") as handle:
            for span_id, parent, name, start, end, chars in self.spans:
                handle.write(json.dumps({
                    "span_id": span_id, "parent_id": parent, "name": name,
                    "start_ns": start, "end_ns": end, "chars": chars,
                }) + "\n")


@dataclass
class LayerTotal:
    calls: int = 0
    self_ns: int = 0
    busy_ns: int = 0
    chars: int = 0

    def add(self, other: "LayerTotal") -> None:
        self.calls += other.calls
        self.self_ns += other.self_ns
        self.busy_ns += other.busy_ns
        self.chars += other.chars

    def to_list(self) -> List[int]:
        return [self.calls, self.self_ns, self.busy_ns, self.chars]

    @classmethod
    def from_list(cls, values: List[int]) -> "LayerTotal":
        return cls(*values)


def layer_totals(spans: Iterable[Span]) -> Dict[str, LayerTotal]:
    """Per-name calls, self time, busy time and characters.

    Self time is a span's duration minus the durations of its direct
    children.  Busy time adds a span's full duration only when no
    ancestor has the same name, so a recursive call is not counted
    twice.  A span whose parent is not in *spans* counts as a root.
    """
    spans = sorted(spans)  # ids grow with start order: parents first
    names = {span[0]: span[2] for span in spans}
    child_ns: Dict[int, int] = {}
    for span_id, parent, _name, start, end, _chars in spans:
        if parent in names:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    # The names on each span's ancestor path (shared between siblings).
    ancestry: Dict[int, frozenset] = {}
    totals: Dict[str, LayerTotal] = {}
    for span_id, parent, name, start, end, chars in spans:
        if parent in names:
            above = ancestry[parent] | {names[parent]}
        else:
            above = frozenset()
        ancestry[span_id] = above
        total = totals.setdefault(name, LayerTotal())
        duration = end - start
        total.calls += 1
        total.self_ns += duration - child_ns.get(span_id, 0)
        if name not in above:
            total.busy_ns += duration
        total.chars += chars
    return totals


def merge_totals(
    into: Dict[str, LayerTotal], more: Dict[str, LayerTotal]
) -> None:
    for name, total in more.items():
        into.setdefault(name, LayerTotal()).add(total)


# -- worker side -------------------------------------------------------------

# The tracer forked workers inherit: set by the workload process before
# its pool forks, read by traced_run_one inside each worker.
ACTIVE: Optional[Tracer] = None
WORKER_SPEC = f"{__name__}:traced_run_one"


def parse_cache_counts() -> Optional[Tuple[int, int]]:
    """``(hits, misses)`` of the process-wide parse cache, or None."""
    try:
        from repro.pslang import parser

        cache = parser._parse_cache
        return int(cache.hits), int(cache.misses)
    except (ImportError, AttributeError, TypeError, ValueError):
        return None


def traced_run_one(task):
    """The default batch worker inside a :data:`ROOT_SPAN` span.

    The record gains ``suite_layers`` (this task's :class:`LayerTotal`
    lists by name) and ``suite_parse_cache`` (the parse-cache hit/miss
    delta), so the parent can add up worker-side layers.
    """
    from repro.batch.task import run_one

    tracer = ACTIVE
    if tracer is None:
        return run_one(task)
    mark = len(tracer.spans)
    before = parse_cache_counts()
    record = tracer.call(ROOT_SPAN, run_one, task)
    after = parse_cache_counts()
    totals = layer_totals(tracer.take(mark))
    record["suite_layers"] = {
        name: total.to_list() for name, total in totals.items()
    }
    if before is not None and after is not None:
        record["suite_parse_cache"] = [
            after[0] - before[0], after[1] - before[1]
        ]
    return record
