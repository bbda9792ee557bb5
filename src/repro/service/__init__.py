"""The online deobfuscation service: ``repro serve`` and its engine.

Where :mod:`repro.batch` is the *offline* corpus mode (submit a task
list, drain it, shut the fleet down), this package is the *online*
mode the ROADMAP's production north star asks for: a long-running
process that keeps a warm worker fleet, answers HTTP requests, and —
because wild traffic is heavily duplicated — fronts the fleet with a
content-addressed result cache so repeated submissions cost a dict
lookup instead of a pipeline run.

Layers, bottom up:

- :mod:`repro.service.cache` — SHA-256-of-normalized-source → result,
  bounded LRU with a byte budget, and single-flight dedup (N
  concurrent identical requests execute once and share the result).
- :mod:`repro.service.shard` — N independent cache shards keyed by
  script-hash range, so concurrent front-end tasks never serialize on
  one cache lock.
- :mod:`repro.service.persist` — snapshot + append-only journal
  persistence: a restarted instance warm-starts its cache instead of
  cold-missing, skipping (and counting) corrupt records.
- :mod:`repro.service.core` — :class:`DeobfuscationService`: the
  bounded admission queue (reject with retry-after when full — the
  backpressure reaches clients, not the fleet), a dispatcher thread
  owning the interactive :class:`~repro.batch.BatchPool` API — grown
  and shrunk on queue-depth watermarks when autoscaling is on — and
  the lifetime telemetry aggregates.
- :mod:`repro.service.aserver` — the one asyncio HTTP edge
  (non-blocking parsing under hard input limits, keep-alive) and the
  ``repro serve`` routes on it: bounded edge admission, graceful
  drain.
- :mod:`repro.service.fleet` — ``repro fleet``: N instances behind a
  consistent-hash router (script SHA-256 ring, rendezvous fallback)
  that runs on the same edge, with fleet-wide ``/metrics``
  aggregation.
- :mod:`repro.service.metrics` — the views of the service snapshot
  (``/healthz``, Prometheus ``/metrics``, ``/statusz``) and its
  cross-instance merge.

In-process use, no HTTP::

    from repro.service import DeobfuscationService, ServiceConfig

    with DeobfuscationService(ServiceConfig(jobs=4)) as svc:
        record = svc.submit("I`E`X ('wri'+'te-host hi')")
        print(record["script"], record["cache_hit"])

All guarantees of the batch pool hold per request: a hanging script is
SIGKILLed at its budget and costs one worker restart (counted in
``/metrics``), never a wedged service.
"""

from repro.service.cache import ResultCache, cache_key, normalize_source
from repro.service.core import (
    CACHEABLE_STATUSES,
    DeobfuscationService,
    ServiceConfig,
    ServiceUnavailable,
)
from repro.service.aserver import (
    AsyncServiceServer,
    run_async_server,
    start_async_server,
)
from repro.service.metrics import merge_snapshots, render_metrics
from repro.service.persist import CachePersistence
from repro.service.shard import ShardedResultCache, shard_index

__all__ = [
    "AsyncServiceServer",
    "CACHEABLE_STATUSES",
    "CachePersistence",
    "DeobfuscationService",
    "ResultCache",
    "ServiceConfig",
    "ServiceUnavailable",
    "ShardedResultCache",
    "cache_key",
    "merge_snapshots",
    "normalize_source",
    "render_metrics",
    "run_async_server",
    "shard_index",
    "start_async_server",
]
