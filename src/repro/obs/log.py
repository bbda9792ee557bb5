"""Structured, trace-correlated event logging.

Counters and histograms (PR 3/8) say *how often* and *how slow*; spans
(PR 2/4) say *where the time went*.  What an operator still cannot do
is grep: "show me every policy denial in the last minute", "what did
the pool do right before that 500".  This module is the missing event
stream — dependency-free, like everything in :mod:`repro.obs`:

- :class:`LogEvent` — one typed event: wall-clock ``ts``, ``level``,
  ``logger`` (a dotted component name such as ``service.admission``),
  human ``message``, machine ``fields``, and the ``trace_id`` /
  ``span_id`` of whatever :class:`~repro.obs.trace.SpanRecorder` was
  active when the event was emitted — so a slow request's trace links
  to the exact events it produced.
- :class:`LogRing` — a bounded per-process ring buffer; ``/statusz``
  serves its tail so operators see recent events without any file.
- :class:`LogSink` — a JSONL file sink with size-based rotation
  (``path`` → ``path.1``); ``repro logs`` tails and filters it.

Logging is **disabled by default** and the disabled path is two
attribute reads and a comparison — the pipeline p50 budget in
``benchmarks/trajectory.py`` pins the overhead at ≤ 5%.  Configure it
with :func:`configure_logging` (the service does this at start; the
CLI via ``--log-file`` / ``--log-level``).

Events serialize as single JSON lines with a ``schema_version`` field,
versioned exactly like :class:`~repro.obs.stats.PipelineStats` — the
golden file under ``tests/obs/golden/`` pins the shape.
"""

import json
import os
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, Iterator, List, Optional

from repro.obs.trace import active_recorder

# Bump whenever the serialized LogEvent shape changes (tests/obs/golden
# pins it; ``repro logs`` renders any version it understands).
LOG_SCHEMA_VERSION = 1

# Severity order, syslog-flavored.  No "critical": a process that sick
# should crash and let the pool/fleet layer narrate the restart.
LEVELS: Dict[str, int] = {
    "debug": 10,
    "info": 20,
    "warning": 30,
    "error": 40,
}
LEVEL_NAMES = {number: name for name, number in LEVELS.items()}

DEFAULT_RING_SIZE = 512
DEFAULT_ROTATE_BYTES = 16 * 1024 * 1024


@dataclass
class LogEvent:
    """One structured event, serializable as a single JSON line."""

    ts: float
    level: str
    logger: str
    message: str
    fields: Dict[str, Any] = field(default_factory=dict)
    trace_id: Optional[str] = None
    span_id: Optional[str] = None

    def to_dict(self) -> Dict[str, Any]:
        data: Dict[str, Any] = {
            "schema_version": LOG_SCHEMA_VERSION,
            "ts": round(self.ts, 6),
            "level": self.level,
            "logger": self.logger,
            "message": self.message,
        }
        if self.fields:
            data["fields"] = dict(self.fields)
        if self.trace_id:
            data["trace_id"] = self.trace_id
        if self.span_id:
            data["span_id"] = self.span_id
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "LogEvent":
        return cls(
            ts=float(data.get("ts", 0.0)),
            level=str(data.get("level", "info")),
            logger=str(data.get("logger", "")),
            message=str(data.get("message", "")),
            fields=dict(data.get("fields") or {}),
            trace_id=data.get("trace_id"),
            span_id=data.get("span_id"),
        )


class LogRing:
    """A bounded, thread-safe ring of recent events.

    ``/statusz`` serves ``tail()`` so an operator sees what just
    happened without log files; the bound keeps a chatty debug run
    from growing memory.
    """

    def __init__(self, capacity: int = DEFAULT_RING_SIZE):
        self.capacity = max(1, int(capacity))
        self._events: Deque[LogEvent] = deque(maxlen=self.capacity)
        self._lock = threading.Lock()
        self.appended = 0

    def append(self, event: LogEvent) -> None:
        with self._lock:
            self._events.append(event)
            self.appended += 1

    def tail(
        self,
        limit: int = 50,
        min_level: Optional[str] = None,
        logger: Optional[str] = None,
        trace_id: Optional[str] = None,
    ) -> List[LogEvent]:
        """The newest matching events, oldest first."""
        threshold = LEVELS.get(min_level or "", 0)
        with self._lock:
            events = list(self._events)
        matched: List[LogEvent] = []
        for event in reversed(events):
            if LEVELS.get(event.level, 0) < threshold:
                continue
            if logger and not event.logger.startswith(logger):
                continue
            if trace_id and event.trace_id != trace_id:
                continue
            matched.append(event)
            if len(matched) >= max(1, int(limit)):
                break
        matched.reverse()
        return matched


class LogSink:
    """Append-only JSONL file sink with size-based rotation.

    One ``write()`` is one ``O_APPEND`` line write under a lock, so
    forked batch workers inheriting the handle interleave whole lines
    rather than bytes.  When the file passes ``rotate_bytes`` it is
    renamed to ``<path>.1`` (replacing any previous rotation) and a
    fresh file is started — bounded disk, no external logrotate.
    """

    def __init__(
        self, path: str, rotate_bytes: int = DEFAULT_ROTATE_BYTES
    ):
        self.path = path
        self.rotate_bytes = max(4096, int(rotate_bytes))
        self._lock = threading.Lock()
        directory = os.path.dirname(os.path.abspath(path))
        os.makedirs(directory, exist_ok=True)
        self._file = open(path, "a", encoding="utf-8")
        self.written = 0
        self.rotations = 0

    def write(self, event: LogEvent) -> None:
        line = json.dumps(event.to_dict(), sort_keys=True)
        with self._lock:
            if self._file.closed:  # pragma: no cover - defensive
                return
            self._file.write(line + "\n")
            self._file.flush()
            self.written += 1
            try:
                size = self._file.tell()
            except (OSError, ValueError):  # pragma: no cover
                return
            if size >= self.rotate_bytes:
                self._rotate()

    def _rotate(self) -> None:
        self._file.close()
        try:
            os.replace(self.path, self.path + ".1")
        except OSError:  # pragma: no cover - defensive
            pass
        self._file = open(self.path, "a", encoding="utf-8")
        self.rotations += 1

    def close(self) -> None:
        with self._lock:
            if not self._file.closed:
                self._file.close()


def iter_events(path: str) -> Iterator[LogEvent]:
    """Parse a JSONL log file, skipping lines that do not parse.

    Tolerant for the same reason the cache journal loader is: a
    SIGKILLed process can leave a torn final line, and one bad line
    must not make the whole file unreadable to ``repro logs``.
    """
    with open(path, "r", encoding="utf-8") as handle:
        for line in handle:
            line = line.strip()
            if not line:
                continue
            try:
                data = json.loads(line)
            except ValueError:
                continue
            if not isinstance(data, dict):
                continue
            yield LogEvent.from_dict(data)


class _LogState:
    """Process-global logging configuration (one slot, like the active
    recorder registry in :mod:`repro.obs.trace`)."""

    __slots__ = ("enabled", "threshold", "ring", "sink", "clock")

    def __init__(self) -> None:
        self.enabled = False
        self.threshold = LEVELS["info"]
        self.ring: Optional[LogRing] = None
        self.sink: Optional[LogSink] = None
        self.clock: Callable[[], float] = time.time


_STATE = _LogState()

# Worker pools fork while other threads may be mid-write.  A child that
# inherits a ring or sink lock held by one of those threads blocks on
# its first event forever, so fork() waits for both locks and parent
# and child each release them afterwards.
_FORK_HELD: List[threading.Lock] = []


def _hold_locks_for_fork() -> None:
    held = [
        part._lock
        for part in (_STATE.ring, _STATE.sink)
        if part is not None
    ]
    for lock in held:
        lock.acquire()
    _FORK_HELD[:] = held


def _release_locks_after_fork() -> None:
    # Empty the list before releasing: a concurrent fork in another
    # thread refills it as soon as it gets the locks.
    held = _FORK_HELD[:]
    _FORK_HELD.clear()
    for lock in reversed(held):
        lock.release()


os.register_at_fork(
    before=_hold_locks_for_fork,
    after_in_parent=_release_locks_after_fork,
    after_in_child=_release_locks_after_fork,
)


def configure_logging(
    level: str = "info",
    ring_size: int = DEFAULT_RING_SIZE,
    path: Optional[str] = None,
    rotate_bytes: int = DEFAULT_ROTATE_BYTES,
    clock: Callable[[], float] = time.time,
) -> None:
    """Turn the event log on: ring buffer always, file sink if *path*.

    ``level`` is the threshold below which events are dropped at the
    emit site.  ``clock`` is injectable so tests (and the golden JSONL
    file) are deterministic.
    """
    if level not in LEVELS:
        raise ValueError(
            f"unknown log level {level!r}; choose from {sorted(LEVELS)}"
        )
    if _STATE.sink is not None:
        _STATE.sink.close()
    _STATE.threshold = LEVELS[level]
    _STATE.ring = LogRing(ring_size)
    _STATE.sink = LogSink(path, rotate_bytes) if path else None
    _STATE.clock = clock
    _STATE.enabled = True


def reset_logging() -> None:
    """Back to the default disabled state (tests; also end of serve)."""
    if _STATE.sink is not None:
        _STATE.sink.close()
    _STATE.enabled = False
    _STATE.threshold = LEVELS["info"]
    _STATE.ring = None
    _STATE.sink = None
    _STATE.clock = time.time


def logging_enabled() -> bool:
    return _STATE.enabled


def log_ring() -> Optional[LogRing]:
    """The active ring buffer, None when logging is disabled."""
    return _STATE.ring


def log_tail(
    limit: int = 50,
    min_level: Optional[str] = None,
    logger: Optional[str] = None,
    trace_id: Optional[str] = None,
) -> List[Dict[str, Any]]:
    """Serialized tail of the ring buffer ([] when disabled) — the
    shape ``/statusz`` embeds."""
    ring = _STATE.ring
    if ring is None:
        return []
    return [
        event.to_dict()
        for event in ring.tail(limit, min_level, logger, trace_id)
    ]


class Logger:
    """A named emitter.  Cheap to construct; hold one per module.

    The disabled fast path — ``_STATE.enabled`` false or the level
    below threshold — costs two attribute reads and a comparison, which
    is what keeps always-present call sites in the pipeline inside the
    ≤ 5% overhead pin.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name

    def debug(self, message: str, **fields: Any) -> None:
        self._emit(10, "debug", message, fields)

    def info(self, message: str, **fields: Any) -> None:
        self._emit(20, "info", message, fields)

    def warning(self, message: str, **fields: Any) -> None:
        self._emit(30, "warning", message, fields)

    def error(self, message: str, **fields: Any) -> None:
        self._emit(40, "error", message, fields)

    def _emit(
        self,
        level_no: int,
        level: str,
        message: str,
        fields: Dict[str, Any],
    ) -> None:
        state = _STATE
        if not state.enabled or level_no < state.threshold:
            return
        # An explicit trace_id/span_id field wins (emit sites that hold
        # a recorder without it being thread-active, like the service's
        # request accounting); otherwise the active recorder is read.
        trace_id = fields.pop("trace_id", None)
        span_id = fields.pop("span_id", None)
        if trace_id is None:
            recorder = active_recorder()
            if recorder is not None:
                context = recorder.current_context()
                trace_id = context.trace_id
                span_id = context.span_id
        event = LogEvent(
            ts=state.clock(),
            level=level,
            logger=self.name,
            message=message,
            fields={k: v for k, v in fields.items() if v is not None},
            trace_id=trace_id,
            span_id=span_id,
        )
        ring = state.ring
        if ring is not None:
            ring.append(event)
        sink = state.sink
        if sink is not None:
            sink.write(event)


def get_logger(name: str) -> Logger:
    return Logger(name)
