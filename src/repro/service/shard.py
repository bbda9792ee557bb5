"""Sharded result cache: N independent LRUs behind one key space.

One :class:`~repro.service.cache.ResultCache` serializes every lookup
behind a single lock — fine for one box, but the fleet tier pushes
hundreds of concurrent front-end tasks through the cache, and a single
hot lock becomes the first scaling wall.  :class:`ShardedResultCache`
splits the key space into ``shards`` independent
:class:`ResultCache` instances, each with its own lock and its own
slice of the entry/byte budget.  The cache key is already a SHA-256
hex digest (:func:`repro.service.cache.cache_key`), so the shard
index is just the key's leading 64 bits modulo the shard count —
uniform by construction, deterministic across restarts, and the same
placement function the fleet router uses across *instances*
(:mod:`repro.service.fleet`): hash once, route everywhere.

The interface is a superset of :class:`ResultCache` (lookup/resolve/
abandon/get/put/snapshot), so :class:`DeobfuscationService` treats
either interchangeably.  Single-flight state lives inside each shard;
two requests for the same key always land on the same shard, so the
coalescing guarantee is unchanged.

Persistence (:mod:`repro.service.persist`) hooks in at this layer:
:meth:`entries` iterates every stored record for snapshotting, and
:meth:`load` replays warm-start records without touching the hit/miss
counters.
"""

import threading
from typing import Any, Dict, Iterator, List, Optional, Tuple

from repro.service.cache import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    ResultCache,
)

DEFAULT_SHARDS = 8


def shard_index(key: str, shards: int) -> int:
    """Deterministic shard for a hex cache key: leading 64 bits mod N.

    The key is a SHA-256 hex digest, so any fixed slice is uniformly
    distributed; the leading 16 hex chars keep the computation a
    single ``int()``.
    """
    return int(key[:16], 16) % shards


class ShardedResultCache:
    """``shards`` independent :class:`ResultCache` LRUs, one key space.

    The entry and byte budgets are split evenly across shards (each
    shard gets at least one entry), so the aggregate bounds match a
    single cache of the same configuration to within rounding.  The
    service always runs :data:`DEFAULT_SHARDS` shards; other counts
    exist for tests.  :meth:`entries` and :meth:`load` go through each
    shard's locked ``items``/``put``.
    """

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_ENTRIES,
        max_bytes: int = DEFAULT_MAX_BYTES,
        shards: int = DEFAULT_SHARDS,
    ):
        self.shards = max(1, int(shards))
        self.max_entries = max(0, max_entries)
        self.max_bytes = max(0, max_bytes)
        per_entries = (
            max(1, self.max_entries // self.shards)
            if self.max_entries
            else 0
        )
        per_bytes = (
            max(1, self.max_bytes // self.shards) if self.max_bytes else 0
        )
        self._shards: List[ResultCache] = [
            ResultCache(max_entries=per_entries, max_bytes=per_bytes)
            for _ in range(self.shards)
        ]
        # Warm-start accounting (filled by load()); reads are atomic.
        self.loaded_entries = 0
        self._load_lock = threading.Lock()

    # -- routing ------------------------------------------------------------

    def shard_for(self, key: str) -> ResultCache:
        return self._shards[shard_index(key, self.shards)]

    # -- ResultCache-compatible interface -----------------------------------

    def __len__(self) -> int:
        return sum(len(shard) for shard in self._shards)

    def get(self, key: str) -> Optional[dict]:
        return self.shard_for(key).get(key)

    def put(self, key: str, record: dict) -> bool:
        return self.shard_for(key).put(key, record)

    def lookup(self, key: str) -> Tuple[str, Optional[Any]]:
        return self.shard_for(key).lookup(key)

    def resolve(self, key: str, record: dict, cacheable: bool = True) -> None:
        self.shard_for(key).resolve(key, record, cacheable=cacheable)

    def abandon(self, key: str) -> None:
        self.shard_for(key).abandon(key)

    @property
    def in_flight(self) -> int:
        return sum(shard.in_flight for shard in self._shards)

    @property
    def current_bytes(self) -> int:
        return sum(shard.current_bytes for shard in self._shards)

    def snapshot(self) -> Dict[str, Any]:
        """Aggregate counters plus a compact per-shard breakdown."""
        totals = {
            "entries": 0,
            "bytes": 0,
            "hits": 0,
            "misses": 0,
            "coalesced": 0,
            "evictions": 0,
            "in_flight": 0,
        }
        per_shard_entries = []
        for shard in self._shards:
            snap = shard.snapshot()
            for field in totals:
                totals[field] += snap[field]
            per_shard_entries.append(snap["entries"])
        totals["max_entries"] = self.max_entries
        totals["max_bytes"] = self.max_bytes
        totals["shards"] = self.shards
        totals["shard_entries"] = per_shard_entries
        totals["loaded_entries"] = self.loaded_entries
        return totals

    # -- persistence hooks --------------------------------------------------

    def entries(self) -> Iterator[Tuple[str, dict]]:
        """Every stored ``(key, record)``, LRU-first within each shard.

        Used by the persistence snapshot writer; iteration copies each
        shard's items under its lock, so a concurrent request can at
        worst miss an entry that was being inserted mid-snapshot.
        """
        for shard in self._shards:
            yield from shard.items()

    def load(self, pairs: Iterator[Tuple[str, dict]]) -> int:
        """Warm-start: insert ``(key, record)`` pairs, returning how
        many were stored (budget evictions may drop the oldest)."""
        with self._load_lock:
            stored = sum(self.put(key, record) for key, record in pairs)
            self.loaded_entries += stored
            return stored
