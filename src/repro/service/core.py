"""The deobfuscation service: persistent workers behind a cached front.

:class:`DeobfuscationService` is the engine under ``repro serve`` (and
usable in-process without HTTP).  A request travels:

1. **Cache / single-flight** — :meth:`submit` keys the request by
   content hash (:func:`repro.service.cache.cache_key` over normalized
   source + pipeline options).  A cached result returns immediately;
   a request identical to one already executing joins its flight and
   shares the result; otherwise the caller becomes the leader.
2. **Admission** — leaders need a slot in the bounded admission queue
   (``queue_limit``).  When the queue is full the request is rejected
   with :class:`ServiceUnavailable` (HTTP 429) instead of piling up —
   backpressure reaches the client, not the worker fleet.
3. **Execution** — a single dispatcher thread owns the
   :class:`~repro.batch.BatchPool` (which is not thread-safe), feeding
   it admitted jobs and resolving their flights as records complete.
   The pool keeps PR 1's guarantees: per-request wall-clock budget with
   SIGKILL backstop, crash isolation, respawn — so a hostile hanging
   script costs one worker restart, never a wedged service.

Telemetry: every executed record's :class:`~repro.obs.PipelineStats`
is merged into a service-lifetime aggregate; :meth:`snapshot` reports
it with the service counters, and :mod:`repro.service.metrics` renders
the endpoints from that snapshot.  The worker's spans are
exported with the request's trace and stripped from the record.

Shutdown is a drain, not a drop: :meth:`begin_drain` stops admitting,
:meth:`drain` waits for in-flight work, :meth:`close` stops the
dispatcher and the fleet.
"""

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Optional

from repro import package_version
from repro.batch.pool import BatchPool
from repro.batch.task import DEFAULT_WORKER_SPEC, Task
from repro.obs import Histogram, PipelineStats
from repro.obs.export import SpanExporter
from repro.obs.log import get_logger, log_tail
from repro.obs.trace import SpanRecorder, TraceContext
from repro.obs.window import RollingWindow
from repro.options import PipelineOptions
from repro.service.cache import (
    DEFAULT_MAX_BYTES,
    DEFAULT_MAX_ENTRIES,
    HIT,
    JOIN,
    cache_key,
)
from repro.service.metrics import LOG_TAIL_EVENTS
from repro.service.persist import CachePersistence
from repro.service.shard import ShardedResultCache

# Statuses whose results are deterministic for a given input+options
# and therefore safe to cache.  error (environmental) and timeout
# (budget-dependent, and hard kills carry no result) are re-run on
# resubmission.
CACHEABLE_STATUSES = ("ok", "invalid")

# Extra seconds a caller waits beyond the worker budget before giving
# up on a result that the pool should already have killed.
_WAIT_MARGIN = 5.0

_log = get_logger("service.core")


class ServiceUnavailable(Exception):
    """Request rejected by backpressure (queue full) or drain."""

    def __init__(self, reason: str, retry_after: float = 1.0):
        super().__init__(reason)
        self.reason = reason
        self.retry_after = retry_after


def jittered_retry_after(seconds: float) -> int:
    """A 429/503 ``Retry-After`` value with random spread.

    Every rejected client getting the same integer means they all come
    back in the same instant and the admission queue fills again — a
    self-sustaining thundering herd.  Spread retries uniformly over
    ``[base, 2*base]`` (minimum 1s) so the herd re-arrives as a
    trickle.
    """
    import random

    base = max(1.0, float(seconds))
    return int(round(base + random.uniform(0.0, base)))


@dataclass
class ServiceConfig:
    """Tuning knobs for one service instance.

    ``queue_limit`` bounds *admitted* pipeline executions (queued +
    running); cache hits and coalesced joins bypass it.  ``timeout``
    is the per-request worker budget the pool enforces (cooperative
    deadline first, SIGKILL ``kill_grace`` later); a request may lower
    it but never raise it above this cap.  ``jobs``, ``kill_grace``,
    ``retries`` and ``worker`` configure the
    :class:`~repro.batch.BatchPool`, whose workers start with the
    platform's default start method.

    ``cache_max_entries`` and ``cache_max_bytes`` bound the result
    cache (split over :data:`~repro.service.shard.DEFAULT_SHARDS`
    shards); ``cache_max_entries=0`` stores nothing but keeps
    single-flight coalescing.  ``cache_dir`` persists the cache for warm
    restarts.

    ``trace_path`` enables span export: every request's trace —
    request/cache_lookup/admission/execute spans in the service
    process plus the worker/pipeline-phase spans returned across the
    pool's pipe — is appended to this JSONL file in the
    OpenTelemetry-compatible shape ``repro trace`` renders.  Requests
    always carry a trace_id (for histogram exemplars and responses);
    only the file write is gated on this setting.
    """

    jobs: int = 2
    timeout: float = 30.0
    kill_grace: float = 0.5
    retries: int = 1
    queue_limit: int = 64
    cache_max_entries: int = DEFAULT_MAX_ENTRIES
    cache_max_bytes: int = DEFAULT_MAX_BYTES
    cache_dir: Optional[str] = None
    worker: str = DEFAULT_WORKER_SPEC
    default_options: Dict[str, Any] = field(default_factory=dict)
    trace_path: Optional[str] = None
    # Autoscaling: with ``max_jobs > jobs`` the dispatcher grows the
    # worker fleet one process at a time while the admitted queue
    # depth exceeds ``scale_up_depth`` per worker, and shrinks back
    # toward ``jobs`` after ``scale_down_idle`` seconds below the
    # watermark.  ``jobs`` is the floor; ``max_jobs=None`` (or equal
    # to ``jobs``) disables scaling.
    max_jobs: Optional[int] = None
    scale_up_depth: float = 2.0
    scale_down_idle: float = 3.0


class _Job:
    """One admitted pipeline execution crossing the dispatcher."""

    __slots__ = ("task", "key", "event", "record")

    def __init__(self, task: Task, key: str):
        self.task = task
        self.key = key
        self.event = threading.Event()
        self.record: Optional[dict] = None


class DeobfuscationService:
    """Long-running deobfuscation front end over a warm worker fleet."""

    def __init__(self, config: Optional[ServiceConfig] = None, **overrides):
        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            raise TypeError("pass either config or overrides, not both")
        self.config = config
        # Resolved once: without an installed distribution every
        # lookup is a failed importlib.metadata search.
        self.version = package_version()
        self.cache = ShardedResultCache(
            max_entries=config.cache_max_entries,
            max_bytes=config.cache_max_bytes,
        )
        self.persistence: Optional[CachePersistence] = (
            CachePersistence(config.cache_dir) if config.cache_dir else None
        )
        self.pool = BatchPool(
            jobs=config.jobs,
            timeout=config.timeout,
            kill_grace=config.kill_grace,
            retries=config.retries,
            worker=config.worker,
        )
        self.counters: Dict[str, int] = {
            "requests": 0,
            "cache_hits": 0,
            "coalesced": 0,
            "executions": 0,
            "rejected": 0,
            "request_timeouts": 0,
            "errors": 0,
            "scale_ups": 0,
            "scale_downs": 0,
        }
        self.pipeline_totals = PipelineStats()
        self.verify_counts: Dict[str, int] = {}
        # Requests by resolved language front end (the /metrics
        # language label on the request counter).
        self.language_counts: Dict[str, int] = {}
        # Requests by resolved sandbox-policy preset (same idea).
        self.policy_counts: Dict[str, int] = {}
        # Latency histograms (Prometheus buckets + worst-sample trace
        # exemplars): pipeline execution time per worker run, and
        # front-door request time across all answer paths.
        self.pipeline_hist = Histogram()
        self.request_hist = Histogram()
        # The same request latency broken down per "language|policy"
        # pair, so per-language tails survive fleet aggregation.
        self.request_hist_by: Dict[str, Histogram] = {}
        # Rolling 1/5/15-minute view behind /statusz.
        self.window = RollingWindow()
        self.exporter: Optional[SpanExporter] = (
            SpanExporter(config.trace_path, service_name="repro-serve")
            if config.trace_path
            else None
        )
        self._gate = threading.Lock()
        self._admitted = 0
        self._draining = False
        self._started = False
        self._stop = threading.Event()
        self._jobs: "queue.Queue[_Job]" = queue.Queue()
        self._dispatcher: Optional[threading.Thread] = None
        self._started_monotonic = time.monotonic()
        self._below_since = time.monotonic()

    # -- lifecycle ----------------------------------------------------------

    def start(self) -> "DeobfuscationService":
        """Prestart the worker fleet and the dispatcher thread."""
        if self._started:
            return self
        self._started = True
        self._started_monotonic = time.monotonic()
        if self.persistence is not None:
            loaded = self.persistence.load()
            if loaded:
                self.cache.load(iter(loaded.items()))
        self._dispatcher = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._dispatcher.start()
        _log.info(
            "service started",
            jobs=self.config.jobs,
            max_jobs=self.config.max_jobs,
            queue_limit=self.config.queue_limit,
            warm_start=(
                self.persistence.warm_start
                if self.persistence is not None else False
            ),
        )
        return self

    def begin_drain(self) -> None:
        """Stop admitting new requests; in-flight work continues."""
        if not self._draining:
            _log.info(
                "drain started", queue_depth=self.queue_depth
            )
        self._draining = True

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: float = 60.0) -> bool:
        """Wait for every admitted execution to finish; True if clean."""
        self.begin_drain()
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self._gate:
                if self._admitted == 0 and self._jobs.empty():
                    return True
            time.sleep(0.02)
        with self._gate:
            return self._admitted == 0 and self._jobs.empty()

    def close(self) -> None:
        """Stop the dispatcher and the worker fleet.

        Does not wait for in-flight work — call :meth:`drain` first
        for a graceful shutdown.
        """
        self._draining = True
        self._stop.set()
        if self._dispatcher is not None:
            self._dispatcher.join(timeout=5.0)
            self._dispatcher = None
        self.pool.close()
        if self.persistence is not None:
            # Final compaction: the snapshot becomes the whole state,
            # so the next boot replays one clean file.
            self.persistence.compact(self.cache.entries())
            self.persistence.close()
        if self.exporter is not None:
            self.exporter.close()
            self.exporter = None
        _log.info("service stopped")
        self._started = False

    def __enter__(self) -> "DeobfuscationService":
        return self.start()

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- request path -------------------------------------------------------

    def submit(
        self,
        script: str,
        options: Optional[Dict[str, Any]] = None,
        timeout: Optional[float] = None,
        verify: bool = False,
        trace: Optional[TraceContext] = None,
    ) -> dict:
        """Deobfuscate *script*; return the enriched result record.

        The record is the worker's (see :mod:`repro.batch` for the
        schema, ``script`` always embedded) plus ``cache_key``,
        ``cache_hit``, ``coalesced`` and ``trace_id``.  *options* may
        be a :class:`~repro.options.PipelineOptions` payload —
        including ``policy``, which therefore participates in the
        cache key; unknown option names raise ``TypeError``.  ``verify=True`` additionally runs the
        differential semantics-preservation check and embeds its
        verdict — verified and unverified submissions of the same
        script cache separately, since their records differ.  *trace*
        continues an incoming trace (e.g. a parsed ``traceparent``
        header): the request span parents on it instead of starting a
        fresh trace.  Raises :class:`ServiceUnavailable` under
        backpressure or drain.
        """
        if not self._started:
            raise RuntimeError("service not started — call start()")
        recorder = SpanRecorder(
            context=(
                trace.child() if trace is not None else TraceContext.new()
            ),
            process="service",
        )
        request_span = recorder.begin("request", verify=verify or None)
        started = time.perf_counter()
        labels: Dict[str, str] = {}
        try:
            record = self._submit_traced(
                script, options, timeout, verify, recorder, labels
            )
        except BaseException:
            recorder.flush_open(status="error")
            self._finish_request(
                recorder, time.perf_counter() - started, labels
            )
            raise
        recorder.end(request_span)
        self._finish_request(
            recorder, time.perf_counter() - started, labels
        )
        record["trace_id"] = recorder.trace_id
        return record

    def _submit_traced(
        self,
        script: str,
        options: Optional[Dict[str, Any]],
        timeout: Optional[float],
        verify: bool,
        recorder: SpanRecorder,
        labels: Dict[str, str],
    ) -> dict:
        if self._draining:
            with self._gate:
                self.counters["rejected"] += 1
            _log.warning(
                "request rejected: draining",
                queue_depth=self._admitted,
            )
            raise ServiceUnavailable("draining", retry_after=5.0)
        with self._gate:
            self.counters["requests"] += 1
        self.window.incr("requests")

        merged = dict(self.config.default_options)
        if options:
            merged.update(options)
        budget = self.config.timeout
        if timeout is not None:
            budget = max(0.0, min(timeout, budget))
        pipeline_options = PipelineOptions.from_dict(merged).replace(
            deadline_seconds=budget
        )
        labels["language"] = pipeline_options.language
        labels["policy"] = pipeline_options.policy
        with self._gate:
            self.language_counts[pipeline_options.language] = (
                self.language_counts.get(pipeline_options.language, 0) + 1
            )
            self.policy_counts[pipeline_options.policy] = (
                self.policy_counts.get(pipeline_options.policy, 0) + 1
            )
        opts = pipeline_options.canonical_dict()
        key_options = dict(opts)
        if verify:
            key_options["verify"] = True
        key = cache_key(script, key_options)
        wait_budget = budget + self.pool.kill_grace + _WAIT_MARGIN

        with recorder.span("cache_lookup"):
            outcome, payload = self.cache.lookup(key)
        if outcome == HIT:
            with self._gate:
                self.counters["cache_hits"] += 1
            self.window.incr("cache_hits")
            return self._response(payload, key, cache_hit=True)
        if outcome == JOIN:
            with self._gate:
                self.counters["coalesced"] += 1
            self.window.incr("cache_hits")
            with recorder.span("execute", coalesced=True):
                record = payload.wait(wait_budget)
            if record is None:
                with self._gate:
                    self.counters["request_timeouts"] += 1
                self.window.incr("errors")
                _log.error(
                    "coalesced request did not complete",
                    wait_budget=round(wait_budget, 3),
                )
                raise ServiceUnavailable(
                    "coalesced request did not complete", retry_after=1.0
                )
            return self._response(record, key, coalesced=True)

        # Leader: need an admission slot before touching the fleet.
        with recorder.span("admission"):
            with self._gate:
                if self._admitted >= self.config.queue_limit:
                    self.counters["rejected"] += 1
                    self.cache.abandon(key)
                    _log.warning(
                        "request rejected: admission queue full",
                        queue_depth=self._admitted,
                        queue_limit=self.config.queue_limit,
                    )
                    raise ServiceUnavailable("admission queue full")
                self._admitted += 1
                self.counters["executions"] += 1

        execute_span = recorder.begin("execute")
        task = Task(
            path=f"sha256:{key[:12]}",
            options=opts,
            store_script=True,
            source=script,
            verify=verify,
            # The worker's root span parents on the execute span and
            # takes the id this child context promises.
            trace=recorder.current_context().child().to_dict(),
        )
        job = _Job(task, key)
        self._jobs.put(job)
        if not job.event.wait(wait_budget):
            # The pool's SIGKILL backstop should make this unreachable;
            # defensively surface it as a retryable failure.
            with self._gate:
                self.counters["request_timeouts"] += 1
            self.window.incr("errors")
            _log.error(
                "execution overran its budget",
                wait_budget=round(wait_budget, 3),
            )
            raise ServiceUnavailable("execution overran its budget")
        recorder.end(execute_span)
        return self._response(job.record, key, cache_hit=False)

    def _finish_request(
        self,
        recorder: SpanRecorder,
        elapsed: float,
        labels: Optional[Dict[str, str]] = None,
    ) -> None:
        """Account one finished request: latency histograms (total and
        per language|policy), the rolling window, span export."""
        label_key = (
            f"{labels['language']}|{labels['policy']}"
            if labels and "language" in labels
            else None
        )
        with self._gate:
            self.request_hist.observe(elapsed, recorder.trace_id)
            if label_key is not None:
                hist = self.request_hist_by.get(label_key)
                if hist is None:
                    hist = self.request_hist_by[label_key] = Histogram()
                hist.observe(elapsed, recorder.trace_id)
        self.window.observe(elapsed, recorder.trace_id)
        _log.debug(
            "request finished",
            elapsed_ms=round(elapsed * 1000, 3),
            label=label_key,
            trace_id=recorder.trace_id,
        )
        if self.exporter is not None:
            self.exporter.export(recorder.spans)

    def _response(
        self,
        record: dict,
        key: str,
        cache_hit: bool = False,
        coalesced: bool = False,
    ) -> dict:
        out = dict(record)
        out["cache_key"] = key
        out["cache_hit"] = cache_hit
        out["coalesced"] = coalesced
        return out

    # -- dispatcher ---------------------------------------------------------

    def _dispatch_loop(self) -> None:
        """Single owner of the (non-thread-safe) pool."""
        self.pool.prestart()
        inflight: Dict[int, _Job] = {}
        floor = max(1, self.config.jobs)
        ceiling = max(floor, self.config.max_jobs or floor)
        self._below_since = time.monotonic()
        while not self._stop.is_set():
            try:
                job = self._jobs.get(timeout=0.02)
            except queue.Empty:
                job = None
            if job is not None:
                ticket = self.pool.submit(job.task)
                inflight[ticket] = job
                # batch any burst that arrived meanwhile
                while True:
                    try:
                        job = self._jobs.get_nowait()
                    except queue.Empty:
                        break
                    inflight[self.pool.submit(job.task)] = job
            if ceiling > floor:
                self._autoscale(floor, ceiling)
            if inflight:
                for ticket, record in self.pool.collect(timeout=0.05):
                    finished = inflight.pop(ticket, None)
                    if finished is None:
                        continue
                    self._complete(finished, record)

    def _autoscale(self, floor: int, ceiling: int) -> None:
        """Grow/shrink the pool on queue-depth watermarks.

        Runs on the dispatcher thread (the pool's single owner).  Grow
        one worker per pass while the admitted depth exceeds
        ``scale_up_depth`` per worker; shrink one worker after the
        depth has stayed low enough for the *smaller* fleet for
        ``scale_down_idle`` seconds, so a bursty load does not flap.
        """
        with self._gate:
            depth = self._admitted
        target = self.pool.jobs
        now = time.monotonic()
        if depth > self.config.scale_up_depth * target and target < ceiling:
            self.pool.resize(target + 1)
            with self._gate:
                self.counters["scale_ups"] += 1
            self._below_since = now
            return
        fits_smaller = depth <= self.config.scale_up_depth * (target - 1)
        if target > floor and fits_smaller:
            if now - self._below_since >= self.config.scale_down_idle:
                self.pool.resize(target - 1)
                with self._gate:
                    self.counters["scale_downs"] += 1
                self._below_since = now
        else:
            self._below_since = now

    def _complete(self, job: _Job, record: dict) -> None:
        status = record.get("status")
        with self._gate:
            self._admitted -= 1
            if status == "error":
                self.counters["errors"] += 1
        if status == "error":
            self.window.incr("errors")
            _log.warning(
                "worker returned an error record",
                error=record.get("error"),
                path=record.get("path"),
            )
        elif status == "timeout":
            _log.warning(
                "request hit its worker budget",
                path=record.get("path"),
                elapsed=record.get("elapsed_seconds"),
            )
        # Worker-side spans (and the run's trace identity) are for this
        # request only — export them, observe the pipeline latency
        # histogram, and strip them so cached copies stay clean.
        worker_spans = record.pop("trace_spans", None)
        worker_trace_id = record.pop("trace_id", "")
        if worker_spans and self.exporter is not None:
            self.exporter.export_dicts(worker_spans)
        if "elapsed_seconds" in record:
            with self._gate:
                self.pipeline_hist.observe(
                    float(record["elapsed_seconds"]),
                    str(worker_trace_id or ""),
                )
        stats = record.get("stats")
        if isinstance(stats, dict):
            partial = PipelineStats.from_dict(stats)
            with self._gate:
                self.pipeline_totals.merge(partial)
        verdict = (record.get("verify") or {}).get("verdict")
        if verdict:
            with self._gate:
                self.verify_counts[verdict] = (
                    self.verify_counts.get(verdict, 0) + 1
                )
            self.window.incr("verified")
            if verdict == "divergent":
                self.window.incr("divergent")
                _log.warning(
                    "verifier found divergent behavior",
                    path=record.get("path"),
                )
        cacheable = status in CACHEABLE_STATUSES
        self.cache.resolve(job.key, record, cacheable=cacheable)
        if self.persistence is not None and cacheable:
            if self.persistence.append(job.key, record):
                self.persistence.compact(self.cache.entries())
        job.record = record
        job.event.set()

    # -- introspection ------------------------------------------------------

    @property
    def queue_depth(self) -> int:
        """Admitted executions currently queued or running."""
        with self._gate:
            return self._admitted

    def snapshot(self) -> Dict[str, Any]:
        """Everything the service reports, as plain data.

        ``/metrics.json`` serves it as is; ``/healthz``, ``/metrics``
        and ``/statusz`` are views of it, and the fleet router merges
        one per instance (all in :mod:`repro.service.metrics`).
        """
        with self._gate:
            counters = dict(self.counters)
            queue_depth = self._admitted
            pipeline = self.pipeline_totals.to_dict()
            verify_counts = dict(self.verify_counts)
            language_counts = dict(self.language_counts)
            policy_counts = dict(self.policy_counts)
            pipeline_hist = self.pipeline_hist.to_dict()
            request_hist = self.request_hist.to_dict()
            request_hist_by = {
                label: hist.to_dict()
                for label, hist in self.request_hist_by.items()
            }
        persistence: Dict[str, Any] = {"enabled": False}
        if self.persistence is not None:
            persistence = self.persistence.snapshot_counters()
        return {
            "counters": counters,
            "verify": verify_counts,
            "languages": language_counts,
            "policies": policy_counts,
            "pipeline_duration_histogram": pipeline_hist,
            "request_duration_histogram": request_hist,
            "request_duration_by": request_hist_by,
            "queue_depth": queue_depth,
            "queue_limit": self.config.queue_limit,
            "draining": self._draining,
            "cache": self.cache.snapshot(),
            "persistence": persistence,
            "worker_restarts": dict(self.pool.restarts),
            "workers": self.pool.worker_count,
            "pool_size": self.pool.jobs,
            "pipeline": pipeline,
            "uptime_seconds": round(
                time.monotonic() - self._started_monotonic, 3
            ),
            "version": self.version,
            "jobs": self.config.jobs,
            "window_raw": self.window.to_dict(),
            "log_tail": log_tail(limit=LOG_TAIL_EVENTS),
        }
