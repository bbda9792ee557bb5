"""The one bounded-LRU primitive under every cache.

:class:`LRUCache` holds the eviction code for all three cache levels:
the process-wide parse and view caches (:mod:`repro.pslang.parser`,
:mod:`repro.frontend.js.parser`, :mod:`repro.scoring.detectors`), the
per-run subtree memo (:mod:`repro.runtime.memo`) and the service's
result cache (:mod:`repro.service.cache`).  Each keeps its own
instance, so two caches never share entries; the parse caches key on
the source text alone.
"""

from collections import OrderedDict
from typing import Any, Callable, Hashable, List, Optional, Tuple

# Sources longer than this are built but not kept by the parse and view
# caches: large sources are both unlikely to repeat and expensive to
# retain.
MAX_SOURCE_CHARS = 32_768


class LRUCache:
    """A map bounded by an entry budget and an optional summed-weight
    budget, evicting least recently used entries first.

    ``hits``, ``misses`` and ``evictions`` are lifetime counters;
    ``weight`` is the summed weight of the stored entries.  A stored
    value of None reads as a miss.  Not thread-safe: callers that share
    an instance across threads hold their own lock.
    """

    __slots__ = (
        "max_entries", "max_weight", "weight",
        "hits", "misses", "evictions", "_entries",
    )

    def __init__(self, max_entries: int, max_weight: Optional[int] = None):
        self.max_entries = max_entries
        self.max_weight = max_weight
        self.weight = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: "OrderedDict[Hashable, Tuple[Any, int]]" = (
            OrderedDict()
        )

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key: Hashable) -> Optional[Any]:
        """The value stored under *key*, refreshing its recency."""
        entry = self._entries.get(key)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(key)
        self.hits += 1
        return entry[0]

    def put(self, key: Hashable, value: Any, weight: int = 0) -> bool:
        """Store *value* under *key*, then evict until both budgets
        hold.  Returns False, storing nothing, when the entry budget is
        zero or *weight* alone exceeds the weight budget."""
        max_weight = self.max_weight
        if self.max_entries <= 0 or (
            max_weight is not None and weight > max_weight
        ):
            return False
        entries = self._entries
        old = entries.pop(key, None)
        if old is not None:
            self.weight -= old[1]
        entries[key] = (value, weight)
        self.weight += weight
        while len(entries) > self.max_entries or (
            max_weight is not None and self.weight > max_weight
        ):
            _key, (_value, dropped) = entries.popitem(last=False)
            self.weight -= dropped
            self.evictions += 1
        return True

    def get_or_build(
        self,
        key: Hashable,
        build: Callable[[Any], Any],
        keep: bool = True,
    ) -> Any:
        """The value for *key*; on a miss, ``build(key)`` and store it
        when *keep*.  A build that raises stores nothing, so it
        re-raises on every call."""
        value = self.get(key)
        if value is None:
            value = build(key)
            if keep:
                self.put(key, value)
        return value

    def items(self) -> List[Tuple[Hashable, Any]]:
        """Every ``(key, value)``, least recently used first."""
        return [(key, entry[0]) for key, entry in self._entries.items()]

    def clear(self) -> None:
        self._entries.clear()
        self.weight = 0
