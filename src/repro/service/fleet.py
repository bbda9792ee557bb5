"""Multi-instance serving: N service processes behind consistent hashing.

One service instance scales to one box's cores.  ``repro fleet`` runs
N instances (separate processes, separate worker pools, separate
persisted cache directories) behind a thin router that owns three
jobs:

consistent-hash routing
    Requests are routed by the script's SHA-256 (the same normalized
    content hash the result cache keys on, options excluded): a
    :class:`HashRing` with ``replicas`` virtual nodes per instance
    maps every script deterministically to one instance.  The payoff
    is cache *partitioning*, not just load spreading — each script
    always lands on the instance that already holds its result, so
    fleet-wide cache economics match a single shared cache without
    any shared state.

rendezvous fallback
    When the routed instance is unreachable, the router falls back to
    rendezvous (highest-random-weight) hashing over the remaining
    healthy instances — still deterministic (every router picks the
    same fallback for the same script), minimal disruption (only the
    dead instance's keys move), and self-healing (a recovered
    instance takes its keys back, where its persisted cache still
    has the results warm).

aggregation
    Each ``GET /healthz``, ``/metrics`` and ``/statusz`` fetches every
    instance's ``/metrics.json`` snapshot exactly once.  ``/healthz``
    reports each instance's own health view of its snapshot (queue
    depth, pool size, warm-start status; ``draining`` for an instance
    that is draining); ``/metrics`` and ``/statusz`` render one merge
    of the snapshots (:func:`repro.service.metrics.merge_snapshots`:
    counters and histograms, rolling windows minute by minute so
    latency exemplar trace ids survive, instance log tails interleaved
    with the router's own routing/failover events), with the router's
    routing counters attached as its ``router`` section.  An instance
    that does not answer, or is draining, is marked down until a
    scrape or the prober finds it ready again.

The router is deliberately thin — no pipeline work, no cache.
:class:`FleetRouter` adds its routes to the same asyncio edge
(:class:`repro.service.aserver.HttpEdge`) that serves each instance,
so it inherits the edge's hostile-input limits; its routes spend
their time in ``urllib`` waits on the instances, on the edge's thread
pool.  :class:`FleetManager` owns the child processes (spawn, port
discovery, SIGTERM drain); :class:`FleetRouter` can also front
*pre-existing* instances given their URLs, which is how the tests
drive it.
"""

import asyncio
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from bisect import bisect_left
from typing import Any, Dict, Iterable, List, Optional, Tuple
from urllib.parse import urlsplit

from repro.obs.log import get_logger, log_tail
from repro.service.aserver import (
    HttpEdge,
    Response,
    json_response,
    metrics_response,
    serve_until_signal,
)
from repro.service.cache import normalize_source
from repro.service.metrics import (
    LOG_TAIL_EVENTS,
    healthz_payload,
    merge_snapshots,
    statusz_payload,
)

_log = get_logger("service.fleet")

DEFAULT_REPLICAS = 64
_PROBE_INTERVAL = 1.0
_FORWARD_TIMEOUT = 120.0
_ROUTER_POOL_SIZE = 128


def script_routing_key(script: str) -> str:
    """The fleet routing key: SHA-256 of the normalized script.

    Options are deliberately excluded (unlike the result-cache key):
    all variants of one script belong on one instance, so its cache
    holds every option combination for that script.
    """
    return hashlib.sha256(
        normalize_source(script).encode("utf-8")
    ).hexdigest()


def _point(label: str) -> int:
    """64-bit ring position for a label."""
    return int.from_bytes(
        hashlib.sha256(label.encode("utf-8")).digest()[:8], "big"
    )


class HashRing:
    """Consistent-hash ring with rendezvous fallback.

    ``replicas`` virtual nodes per instance smooth the key ranges;
    with the default 64 the expected per-instance load imbalance is a
    few percent.  Both :meth:`route` and :meth:`fallback` are pure
    functions of (instances, key), so every router replica makes the
    same decision with no coordination.
    """

    def __init__(
        self, instances: Iterable[str], replicas: int = DEFAULT_REPLICAS
    ):
        self.instances = sorted(set(instances))
        self.replicas = max(1, replicas)
        points: List[Tuple[int, str]] = []
        for instance in self.instances:
            for replica in range(self.replicas):
                points.append(
                    (_point(f"{instance}#{replica}"), instance)
                )
        points.sort()
        self._points = [p for p, _ in points]
        self._owners = [owner for _, owner in points]

    def route(self, key: str) -> str:
        """The ring owner of a hex *key* (first point clockwise)."""
        if not self.instances:
            raise ValueError("empty ring")
        position = int(key[:16], 16)
        index = bisect_left(self._points, position)
        if index >= len(self._points):
            index = 0
        return self._owners[index]

    def fallback(
        self, key: str, healthy: Iterable[str]
    ) -> Optional[str]:
        """Rendezvous choice among *healthy* instances.

        Highest-random-weight: every healthy instance scores
        ``hash(key ‖ instance)`` and the max wins — deterministic, and
        when an instance dies only *its* keys move (each to a
        different survivor, so the fallback load spreads evenly).
        """
        best, best_score = None, -1
        for instance in healthy:
            score = _point(f"{key}@{instance}")
            if score > best_score:
                best, best_score = instance, score
        return best


# --------------------------------------------------------------------------
# router
# --------------------------------------------------------------------------

class FleetState:
    """Shared router state: the ring, health, and routing counters."""

    def __init__(self, instances: List[str], replicas: int = DEFAULT_REPLICAS):
        self.ring = HashRing(instances, replicas=replicas)
        self._lock = threading.Lock()
        self._unhealthy: Dict[str, float] = {}  # instance -> down since
        self.routed: Dict[str, int] = {i: 0 for i in self.ring.instances}
        self.fallbacks = 0
        self.rejected = 0

    @property
    def instances(self) -> List[str]:
        return self.ring.instances

    def healthy_instances(self) -> List[str]:
        with self._lock:
            return [
                i for i in self.ring.instances if i not in self._unhealthy
            ]

    def mark_down(self, instance: str) -> None:
        with self._lock:
            newly_down = instance not in self._unhealthy
            self._unhealthy.setdefault(instance, time.monotonic())
        if newly_down:
            _log.warning(
                "instance marked down; rerouting its keys",
                instance=instance,
            )

    def mark_up(self, instance: str) -> None:
        with self._lock:
            recovered = self._unhealthy.pop(instance, None) is not None
        if recovered:
            _log.info(
                "instance recovered; takes its keys back",
                instance=instance,
            )

    def is_healthy(self, instance: str) -> bool:
        with self._lock:
            return instance not in self._unhealthy

    def pick(self, key: str) -> Optional[Tuple[str, bool]]:
        """(instance, is_fallback) for a routing key; None if all down."""
        primary = self.ring.route(key)
        if self.is_healthy(primary):
            return primary, False
        healthy = self.healthy_instances()
        if not healthy:
            return None
        fallback = self.ring.fallback(key, healthy)
        return (fallback, True) if fallback else None

    def count_routed(self, instance: str, fallback: bool) -> None:
        with self._lock:
            self.routed[instance] = self.routed.get(instance, 0) + 1
            if fallback:
                self.fallbacks += 1

    def count_rejected(self) -> None:
        with self._lock:
            self.rejected += 1

    def counters(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "routed": dict(self.routed),
                "fallbacks": self.fallbacks,
                "rejected": self.rejected,
                "unhealthy": sorted(self._unhealthy),
            }


def _fetch_json(
    url: str, timeout: float = 10.0
) -> Optional[Dict[str, Any]]:
    try:
        with urllib.request.urlopen(url, timeout=timeout) as response:
            return json.loads(response.read())
    except (OSError, ValueError, urllib.error.URLError):
        return None


class _HealthProber(threading.Thread):
    """Background re-check of instances the router marked down."""

    def __init__(self, state: FleetState, interval: float = _PROBE_INTERVAL):
        super().__init__(name="repro-fleet-probe", daemon=True)
        self.state = state
        self.interval = interval
        self.stop_event = threading.Event()

    def run(self) -> None:
        while not self.stop_event.wait(self.interval):
            for instance in self.state.instances:
                if self.state.is_healthy(instance):
                    continue
                health = _fetch_json(instance + "/healthz", timeout=2.0)
                if health and health.get("status") == "ok":
                    self.state.mark_up(instance)


class FleetRouter(HttpEdge):
    """The ``repro fleet`` router: :class:`FleetState` behind the edge.

    Every route waits on ``urllib`` round trips to the instances, so
    each runs on the edge pool, whose 128 threads bound the requests
    the router works on at once.
    """

    def __init__(
        self,
        state: FleetState,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
    ):
        super().__init__(
            host,
            port,
            quiet=quiet,
            pool_size=_ROUTER_POOL_SIZE,
            thread_name="repro-fleet",
        )
        self.state = state

    async def start(self) -> "FleetRouter":
        await super().start()
        _log.info(
            "fleet router started",
            instances=len(self.state.instances),
            port=self.server_address[1],
        )
        return self

    async def route(self, method, target, headers, body) -> Response:
        return await self.run_blocking(
            self._route, method, target, headers, body
        )

    def _route(self, method, target, headers, body) -> Response:
        path = urlsplit(target).path
        if method == "GET" and path == "/healthz":
            return self._healthz()
        if method == "GET" and path == "/metrics":
            return metrics_response(self._fleet_snapshot())
        if method == "GET" and path == "/statusz":
            return json_response(200, statusz_payload(self._fleet_snapshot()))
        if method == "POST" and path == "/deobfuscate":
            return self._proxy(target, headers, body)
        return json_response(404, {"error": f"no such path: {target}"})

    # -- aggregation endpoints ----------------------------------------------

    def _scrape(self) -> Dict[str, Optional[Dict[str, Any]]]:
        """Every instance's ``/metrics.json`` (None if it did not
        answer), fetched once; marks an instance down when it did not
        answer or is draining, so routing skips it, and up otherwise."""
        snapshots: Dict[str, Optional[Dict[str, Any]]] = {}
        for instance in self.state.instances:
            snap = _fetch_json(instance + "/metrics.json", timeout=10.0)
            if not snap or snap.get("draining"):
                self.state.mark_down(instance)
            else:
                self.state.mark_up(instance)
            snapshots[instance] = snap
        return snapshots

    def _fleet_snapshot(self) -> Dict[str, Any]:
        """One scrape merged once, plus the router's own log events and
        its routing counters as the ``router`` section."""
        merged = merge_snapshots(
            self._scrape(), router_events=log_tail(limit=LOG_TAIL_EVENTS)
        )
        merged["router"] = self.state.counters()
        return merged

    def _healthz(self) -> Response:
        reports = {
            instance: (
                healthz_payload(snap) if snap else {"status": "unreachable"}
            )
            for instance, snap in self._scrape().items()
        }
        healthy = sum(
            report["status"] == "ok" for report in reports.values()
        )
        status = (
            "ok"
            if healthy == len(reports)
            else ("degraded" if healthy else "down")
        )
        return json_response(
            200 if healthy else 503,
            {
                "status": status,
                "healthy_instances": healthy,
                "instances": reports,
                "router": self.state.counters(),
            },
        )

    # -- routing proxy ------------------------------------------------------

    def _proxy(self, target, headers, body) -> Response:
        try:
            payload = json.loads(body or b"")
        except ValueError:
            payload = None
        if not isinstance(payload, dict) or not isinstance(
            payload.get("script"), str
        ):
            return json_response(
                400, {"error": "expected {\"script\": \"...\"}"}
            )
        key = script_routing_key(payload["script"])
        traceparent = headers.get("traceparent")

        for attempt in (1, 2):
            picked = self.state.pick(key)
            if picked is None:
                break
            instance, fallback = picked
            forwarded = _forward(instance + target, body, traceparent)
            if forwarded is None:
                _log.warning(
                    "forward failed; marking instance down",
                    instance=instance,
                    attempt=attempt,
                    fallback=fallback,
                )
                self.state.mark_down(instance)
                continue
            if fallback:
                _log.debug(
                    "routed via rendezvous fallback",
                    instance=instance,
                    key=key[:16],
                )
            self.state.count_routed(instance, fallback)
            code, response_headers, response_body = forwarded
            passthrough = {
                name: value
                for name, value in response_headers
                if name.lower() in ("x-trace-id", "retry-after")
            }
            passthrough["X-Repro-Instance"] = instance
            passthrough["X-Repro-Routing"] = (
                "fallback" if fallback else "primary"
            )
            return code, response_body, "application/json", passthrough
        self.state.count_rejected()
        _log.error("no healthy instance; rejecting request", key=key[:16])
        return json_response(
            503, {"error": "no healthy instance"}, {"Retry-After": "5"}
        )


def _forward(
    url: str, body: bytes, traceparent: Optional[str]
) -> Optional[Tuple[int, List[Tuple[str, str]], bytes]]:
    """POST *body* to an instance *url*; None on transport failure."""
    request = urllib.request.Request(
        url,
        data=body,
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    if traceparent:
        request.add_header("traceparent", traceparent)
    try:
        with urllib.request.urlopen(
            request, timeout=_FORWARD_TIMEOUT
        ) as response:
            return response.status, response.getheaders(), response.read()
    except urllib.error.HTTPError as error:
        # An HTTP status from the instance (429, 400, 500…) is an
        # *answer*, not a dead instance — pass it through.
        return error.code, error.headers.items(), error.read()
    except (OSError, urllib.error.URLError):
        return None


# --------------------------------------------------------------------------
# instance management
# --------------------------------------------------------------------------

class FleetManager:
    """Spawn and supervise N ``repro serve`` child processes.

    Each instance gets its own ephemeral port (discovered through a
    port file) and its own cache directory under ``cache_root`` —
    restarting instance *k* therefore warm-starts from
    ``cache_root/instance-k``.
    """

    def __init__(
        self,
        instances: int,
        serve_args: Optional[List[str]] = None,
        cache_root: Optional[str] = None,
        workdir: Optional[str] = None,
        host: str = "127.0.0.1",
        serve_log_file: Optional[str] = None,
    ):
        import tempfile

        self.count = max(1, instances)
        self.serve_args = list(serve_args or [])
        self.host = host
        # Event-log file base forwarded to every instance, suffixed
        # per instance so concurrent processes never share a rotation.
        self.serve_log_file = serve_log_file
        self.workdir = workdir or tempfile.mkdtemp(prefix="repro-fleet-")
        self.cache_root = cache_root or os.path.join(
            self.workdir, "cache"
        )
        self.processes: List[subprocess.Popen] = []
        self.urls: List[str] = []

    def instance_command(self, index: int) -> List[str]:
        port_file = os.path.join(self.workdir, f"port-{index}")
        cache_dir = os.path.join(self.cache_root, f"instance-{index}")
        command = [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--host",
            self.host,
            "--port",
            "0",
            "--port-file",
            port_file,
            "--cache-dir",
            cache_dir,
            *self.serve_args,
        ]
        if self.serve_log_file:
            command += [
                "--log-file",
                f"{self.serve_log_file}.instance-{index}",
            ]
        return command

    def start(self, startup_timeout: float = 30.0) -> List[str]:
        os.makedirs(self.workdir, exist_ok=True)
        for index in range(self.count):
            port_file = os.path.join(self.workdir, f"port-{index}")
            if os.path.exists(port_file):
                os.unlink(port_file)
            log = open(
                os.path.join(self.workdir, f"serve-{index}.log"), "ab"
            )
            self.processes.append(
                subprocess.Popen(
                    self.instance_command(index),
                    stdout=log,
                    stderr=log,
                )
            )
            log.close()
        deadline = time.monotonic() + startup_timeout
        self.urls = []
        for index, process in enumerate(self.processes):
            port_file = os.path.join(self.workdir, f"port-{index}")
            while not os.path.exists(port_file):
                if process.poll() is not None:
                    raise RuntimeError(
                        f"instance {index} died during startup "
                        f"(exit {process.returncode}); see "
                        f"{self.workdir}/serve-{index}.log"
                    )
                if time.monotonic() > deadline:
                    raise RuntimeError(
                        f"instance {index} did not report a port within "
                        f"{startup_timeout}s"
                    )
                time.sleep(0.05)
            with open(port_file, "r", encoding="utf-8") as handle:
                port = int(handle.read().strip())
            self.urls.append(f"http://{self.host}:{port}")
        return self.urls

    def stop(self, timeout: float = 30.0) -> bool:
        """SIGTERM every instance (graceful drain); True if all exit 0."""
        for process in self.processes:
            if process.poll() is None:
                process.send_signal(signal.SIGTERM)
        clean = True
        deadline = time.monotonic() + timeout
        for process in self.processes:
            remaining = max(0.1, deadline - time.monotonic())
            try:
                clean &= process.wait(timeout=remaining) == 0
            except subprocess.TimeoutExpired:
                process.kill()
                process.wait()
                clean = False
        self.processes = []
        return clean


def run_fleet(
    instances: int,
    host: str = "127.0.0.1",
    port: int = 8765,
    port_file: Optional[str] = None,
    serve_args: Optional[List[str]] = None,
    cache_root: Optional[str] = None,
    workdir: Optional[str] = None,
    replicas: int = DEFAULT_REPLICAS,
    quiet: bool = True,
    serve_log_file: Optional[str] = None,
) -> int:
    """Blocking ``repro fleet`` body: instances + router + drain."""
    manager = FleetManager(
        instances,
        serve_args=serve_args,
        cache_root=cache_root,
        workdir=workdir,
        host=host,
        serve_log_file=serve_log_file,
    )
    try:
        urls = manager.start()
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        manager.stop(timeout=5.0)
        return 1
    state = FleetState(urls, replicas=replicas)
    router = FleetRouter(state, host=host, port=port, quiet=quiet)
    prober = _HealthProber(state)
    prober.start()

    async def route_until_signal() -> None:
        await serve_until_signal(
            router,
            port_file,
            "repro fleet: routing http://{host}:{port} -> "
            f"{len(urls)} instance(s): {', '.join(urls)}",
        )
        print(
            "repro fleet: draining instances…", file=sys.stderr, flush=True
        )
        await router.drain_and_stop()

    try:
        asyncio.run(route_until_signal())
    except OSError as exc:
        print(f"error: cannot bind {host}:{port}: {exc}", file=sys.stderr)
        manager.stop(timeout=10.0)
        return 1
    finally:
        prober.stop_event.set()
    clean = manager.stop()
    print(
        "repro fleet: drained cleanly"
        if clean
        else "repro fleet: some instances did not drain cleanly",
        file=sys.stderr,
        flush=True,
    )
    return 0 if clean else 1
