"""Content-addressed result cache with single-flight deduplication.

Wild corpora are heavily duplicated — the same droppers and loaders
recur across submissions — so an online deobfuscation service wins most
of its throughput by never running the pipeline twice for the same
input.  Two mechanisms, one lock:

content addressing
    :func:`cache_key` hashes the *normalized* source (BOM stripped,
    newlines canonicalized, surrounding whitespace trimmed — all
    semantics-free in PowerShell) together with the pipeline options,
    so byte-trivial resubmissions of the same script hit, while the
    same script under different options (``rename`` off, say) does not
    serve the wrong result.

bounded LRU
    :class:`ResultCache` is a :class:`~repro.caching.LRUCache` of at
    most ``max_entries`` results and at most ``max_bytes`` of
    (approximate JSON-serialized) payload, its weight budget; a single
    result larger than the byte budget is simply not stored.

single-flight
    :meth:`ResultCache.lookup` atomically resolves a key to one of
    ``hit`` (cached result), ``lead`` (caller must run the pipeline
    and later call :meth:`resolve`), or ``join`` (another caller is
    already running it — wait on the returned :class:`Flight`).  N
    concurrent identical submissions therefore execute the pipeline
    exactly once; the other N-1 block until the leader's result lands
    and share it.  Results that may be transient (worker ``error``,
    ``timeout``) resolve the flight but are not cached, so a later
    resubmission retries.

The class is thread-safe; ``repro batch --dedup`` uses the same keying
(single-threaded) for offline corpus deduplication.
"""

import hashlib
import json
import threading
from typing import Any, Dict, List, Optional, Tuple

from repro.caching import LRUCache

# lookup() outcome tags.
HIT, LEAD, JOIN = "hit", "lead", "join"

DEFAULT_MAX_ENTRIES = 4096
DEFAULT_MAX_BYTES = 256 * 1024 * 1024


def normalize_source(source: str) -> str:
    """Canonical text for hashing: semantics-preserving trivia removed.

    Strips a UTF-8 BOM, normalizes CRLF/CR to LF, and trims leading and
    trailing whitespace — none of which change what a PowerShell script
    does, but all of which differ across resubmissions of the same
    sample (mail gateways re-encode, sandboxes append newlines).
    """
    text = source.replace("\r\n", "\n").replace("\r", "\n")
    if text.startswith("\ufeff"):
        text = text[1:]
    return text.strip()


def cache_key(source: str, options: Optional[Dict[str, Any]] = None) -> str:
    """SHA-256 hex digest identifying (normalized source, options)."""
    digest = hashlib.sha256()
    digest.update(normalize_source(source).encode("utf-8"))
    if options:
        digest.update(b"\x00")
        digest.update(
            json.dumps(options, sort_keys=True, default=str).encode("utf-8")
        )
    return digest.hexdigest()


def _entry_bytes(value: Any) -> int:
    """Approximate retained size: the JSON wire size of the record."""
    try:
        return len(json.dumps(value, default=str))
    except (TypeError, ValueError):
        return 0


class Flight:
    """One in-progress pipeline execution that waiters can share."""

    __slots__ = ("event", "record", "waiters")

    def __init__(self):
        self.event = threading.Event()
        self.record: Optional[dict] = None
        self.waiters = 0

    def wait(self, timeout: Optional[float] = None) -> Optional[dict]:
        """Block until the leader resolves; None on timeout."""
        if not self.event.wait(timeout):
            return None
        return self.record


class ResultCache(LRUCache):
    """Bounded LRU over deobfuscation results, with single-flight.

    The :class:`~repro.caching.LRUCache` budgets are ``max_entries``
    and ``max_bytes`` (its weight budget; each record weighs its JSON
    size).  ``max_entries=0`` (or ``max_bytes=0``) disables storage but
    keeps the single-flight semantics — concurrent duplicates still run
    once.  Reads, writes and flights all hold the cache's lock.
    Counters (``hits``, ``misses``, ``coalesced``, ``evictions``) are
    lifetime totals, exported by the service's ``/metrics``.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
    ):
        super().__init__(max(0, max_entries), max_weight=max(0, max_bytes))
        self._lock = threading.Lock()
        self._flights: Dict[str, Flight] = {}
        self.coalesced = 0

    @property
    def current_bytes(self) -> int:
        return self.weight

    # -- plain cache interface ---------------------------------------------

    def get(self, key: str) -> Optional[dict]:
        """The cached record for *key*, refreshing its recency."""
        with self._lock:
            return super().get(key)

    def put(self, key: str, record: dict) -> bool:
        """Store *record* under *key*, evicting LRU entries as needed;
        False when it was not stored."""
        with self._lock:
            return self._put_locked(key, record)

    def items(self) -> List[Tuple[str, dict]]:
        """Every ``(key, record)``, least recently used first."""
        with self._lock:
            return super().items()

    # -- single-flight interface -------------------------------------------

    def lookup(self, key: str) -> Tuple[str, Optional[Any]]:
        """Atomically classify *key*: ``(HIT, record)``,
        ``(JOIN, flight)``, or ``(LEAD, flight)``.

        A ``LEAD`` caller owns the execution and MUST eventually call
        :meth:`resolve` (or :meth:`abandon`) for the key, or joiners
        will block until their wait timeout.
        """
        with self._lock:
            record = super().get(key)
            if record is not None:
                return HIT, record
            flight = self._flights.get(key)
            if flight is not None:
                flight.waiters += 1
                self.coalesced += 1
                return JOIN, flight
            flight = Flight()
            self._flights[key] = flight
            return LEAD, flight

    def resolve(self, key: str, record: dict, cacheable: bool = True) -> None:
        """Leader's completion: publish *record* to waiters and (when
        *cacheable*) store it — atomically, so no concurrent lookup can
        slip between flight removal and cache insert and re-execute."""
        with self._lock:
            flight = self._flights.pop(key, None)
            if cacheable:
                self._put_locked(key, record)
            if flight is not None:
                flight.record = record
                flight.event.set()

    def abandon(self, key: str) -> None:
        """Leader's bail-out (admission rejected, internal error):
        wake waiters with no record so they can fail fast."""
        with self._lock:
            flight = self._flights.pop(key, None)
            if flight is not None:
                flight.event.set()

    @property
    def in_flight(self) -> int:
        return len(self._flights)

    def snapshot(self) -> Dict[str, int]:
        """Counter snapshot for ``/metrics``."""
        with self._lock:
            return {
                "entries": len(self),
                "bytes": self.weight,
                "max_entries": self.max_entries,
                "max_bytes": self.max_weight,
                "hits": self.hits,
                "misses": self.misses,
                "coalesced": self.coalesced,
                "evictions": self.evictions,
                "in_flight": len(self._flights),
            }

    def _put_locked(self, key: str, record: dict) -> bool:
        if not (self.max_entries and self.max_weight):
            return False  # disabled: skip sizing the record
        return super().put(key, record, _entry_bytes(record))
