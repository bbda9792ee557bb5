"""The asyncio HTTP edge: the one HTTP/1.1 server in the package.

:class:`HttpEdge` owns the wire and nothing else:

- **Non-blocking parsing under hard limits** — request lines, headers
  and bodies are read with stream readers.  A header section over
  64 KiB is a 431, a ``Content-Length`` over 16 MiB is a 400 before
  any of the body is read, and a client gets ``idle_timeout`` seconds
  to deliver each whole request, so a slow (or slowloris) client costs
  a coroutine for a bounded time, never a thread.
- **Keep-alive** — a connection serves requests until the client sends
  ``Connection: close``, goes idle, or sends garbage.
- **One thread pool** for blocking route work, sized per edge.
- **Fork safety** — forked worker processes release every socket
  they inherit (:mod:`repro.batch.pool`), so none holds the port or
  a client connection open past the edge's own close.

Subclasses only add routes: :meth:`HttpEdge.route` maps one parsed
request to ``(code, body, content_type, headers)``.  Two do:

- :class:`AsyncServiceServer` — one :class:`DeobfuscationService`
  behind the ``repro serve`` routes, with bounded edge admission: at
  most ``max_pending`` requests may be inside the service at once;
  beyond that the edge answers 429 with a jittered ``Retry-After``
  without blocking the loop.  (The service's own admission queue still
  bounds pipeline executions; this outer bound protects the pool.)
  :meth:`DeobfuscationService.submit` blocks by design (it coordinates
  the single-flight cache and the worker pool), so each
  ``POST /deobfuscate`` makes exactly one hop to the edge pool; GETs
  answer on the loop.  SIGTERM/SIGINT drain gracefully: stop the
  listener, fail new requests 503, let in-flight requests finish,
  flush a final metrics snapshot, exit 0.
- :class:`repro.service.fleet.FleetRouter` — the ``repro fleet``
  consistent-hash router.

Tests embed an edge with :func:`start_edge` (or
:func:`start_async_server` for a service), which runs the event loop
on a daemon thread and returns a handle exposing ``server_address``
and ``shutdown()``.
"""

import asyncio
import functools
import json
import signal
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.obs.trace import parse_traceparent
from repro.service.core import (
    DeobfuscationService,
    ServiceConfig,
    ServiceUnavailable,
    jittered_retry_after,
)
from repro.service.metrics import (
    healthz_payload,
    render_metrics,
    statusz_payload,
)

_MAX_HEADER_BYTES = 64 * 1024
_MAX_BODY_BYTES = 16 * 1024 * 1024

# Worker result statuses that map to HTTP 200: the service did its
# job even when the *pipeline* reports a timeout partial or a parse
# failure — those are results, not transport errors.
_OK_STATUSES = ("ok", "invalid", "timeout")

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    408: "Request Timeout",
    429: "Too Many Requests",
    431: "Request Header Fields Too Large",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

# What a route returns: (status code, body, content type, headers).
Response = Tuple[int, bytes, str, Optional[Dict[str, str]]]


def json_response(
    code: int, payload: Any, headers: Optional[Dict[str, str]] = None
) -> Response:
    body = json.dumps(payload, sort_keys=True).encode("utf-8")
    return code, body, "application/json", headers


def metrics_response(snapshot: Dict[str, Any]) -> Response:
    body = render_metrics(snapshot).encode("utf-8")
    return 200, body, "text/plain; version=0.0.4; charset=utf-8", None


class RequestError(Exception):
    """A malformed ``/deobfuscate`` body; ``payload`` is the 400 JSON."""

    def __init__(self, payload: dict):
        super().__init__(payload.get("error", "bad request"))
        self.payload = payload


def shape_request(
    payload, default_verify: bool = False
) -> Tuple[str, dict, bool, Optional[float]]:
    """Validate a ``/deobfuscate`` JSON body.

    Returns ``(script, options, verify, timeout)``; raises
    :class:`RequestError` with the 400 response payload otherwise.
    ``default_verify`` carries the ``?verify=1`` query flag, which a
    ``"verify"`` body field overrides.
    """
    if not isinstance(payload, dict) or not isinstance(
        payload.get("script"), str
    ):
        raise RequestError({"error": "expected {\"script\": \"...\"}"})
    options = {}
    for flag in ("rename", "reformat"):
        if flag in payload:
            options[flag] = bool(payload[flag])
    if "policy" in payload:
        policy = payload["policy"]
        if not isinstance(policy, str):
            raise RequestError({"error": "policy must be a string"})
        from repro.policy import PolicyError, normalize_policy_name
        from repro.policy.presets import PRESETS

        try:
            name = normalize_policy_name(policy)
            if name not in PRESETS:
                raise PolicyError(name)
        except PolicyError:
            raise RequestError(
                {
                    "error": f"unknown policy: {policy!r}",
                    "policies": sorted(PRESETS),
                }
            ) from None
        options["policy"] = name
    if "language" in payload:
        language = payload["language"]
        if not isinstance(language, str):
            raise RequestError({"error": "language must be a string"})
        from repro.frontend import (
            FrontendError,
            frontend_names,
            normalize_language,
        )

        try:
            options["language"] = normalize_language(language)
        except FrontendError:
            raise RequestError(
                {
                    "error": f"unknown language: {language!r}",
                    "languages": frontend_names(),
                }
            ) from None
    verify = bool(payload.get("verify", default_verify))
    timeout = payload.get("timeout")
    if timeout is not None and not isinstance(timeout, (int, float)):
        raise RequestError({"error": "timeout must be a number"})
    return payload["script"], options, verify, timeout


class _BadHTTP(Exception):
    """Transport-level garbage: respond once and close the connection."""

    def __init__(self, code: int, message: str):
        super().__init__(message)
        self.code = code
        self.message = message


class HttpEdge:
    """An asyncio HTTP/1.1 listener; subclasses supply :meth:`route`."""

    def __init__(
        self,
        host: str,
        port: int,
        *,
        quiet: bool,
        pool_size: int,
        thread_name: str,
        idle_timeout: float = 30.0,
    ):
        self.host = host
        self.port = port
        self.quiet = quiet
        self.idle_timeout = idle_timeout
        self.server_address: Tuple[str, int] = (host, port)
        self._server: Optional[asyncio.base_events.Server] = None
        self._executor = ThreadPoolExecutor(
            max_workers=pool_size, thread_name_prefix=thread_name
        )

    # -- lifecycle ----------------------------------------------------------

    async def start(self) -> "HttpEdge":
        self._server = await asyncio.start_server(
            self._serve_connection,
            host=self.host,
            port=self.port,
            limit=_MAX_HEADER_BYTES,
        )
        for sock in self._server.sockets or ():
            self.server_address = sock.getsockname()[:2]
            break
        return self

    async def stop_listening(self) -> None:
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()

    async def drain_and_stop(self) -> bool:
        """Stop accepting, then let in-flight route work finish."""
        await self.stop_listening()
        await asyncio.get_running_loop().run_in_executor(
            None, self._executor.shutdown
        )
        return True

    async def run_blocking(self, function, *args, **kwargs):
        """Run a blocking call on the edge pool."""
        return await asyncio.get_running_loop().run_in_executor(
            self._executor, functools.partial(function, *args, **kwargs)
        )

    async def route(
        self, method: str, target: str, headers: Dict[str, str],
        body: bytes,
    ) -> Response:
        raise NotImplementedError

    # -- the wire -----------------------------------------------------------

    async def _serve_connection(self, reader, writer) -> None:
        try:
            while True:
                try:
                    request = await asyncio.wait_for(
                        self._read_request(reader, writer),
                        timeout=self.idle_timeout,
                    )
                except asyncio.TimeoutError:
                    break
                except _BadHTTP as exc:
                    await self._respond(
                        writer,
                        *json_response(exc.code, {"error": exc.message}),
                        keep_alive=False,
                    )
                    break
                if request is None:
                    break
                method, target, headers, body = request
                keep_alive = (
                    headers.get("connection", "").lower() != "close"
                )
                response = await self.route(method, target, headers, body)
                await self._respond(writer, *response, keep_alive=keep_alive)
                if not self.quiet:
                    sys.stderr.write(
                        f"{method} {target} {response[0]} "
                        f"{len(response[1])}B\n"
                    )
                if not keep_alive:
                    break
        except (ConnectionResetError, BrokenPipeError):
            pass  # the client went away; the work is done either way
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError, OSError):
                pass

    async def _read_request(self, reader, writer):
        """Parse one HTTP/1.1 request; None on clean EOF."""
        try:
            request_line = await reader.readline()
        except (ValueError, asyncio.LimitOverrunError):
            raise _BadHTTP(431, "request line too long") from None
        if not request_line:
            return None
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _BadHTTP(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        budget = _MAX_HEADER_BYTES - len(request_line)
        while True:
            try:
                line = await reader.readline()
            except (ValueError, asyncio.LimitOverrunError):
                raise _BadHTTP(431, "header section too large") from None
            if line in (b"\r\n", b"\n", b""):
                break
            budget -= len(line)
            if budget < 0:
                raise _BadHTTP(431, "header section too large")
            if len(headers) > 256:
                raise _BadHTTP(431, "too many headers")
            name, sep, value = line.decode("latin-1").partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length") or 0)
        except ValueError:
            raise _BadHTTP(400, "bad Content-Length") from None
        if length < 0 or length > _MAX_BODY_BYTES:
            raise _BadHTTP(400, "bad or missing Content-Length")
        body = b""
        if length:
            if headers.get("expect", "").lower() == "100-continue":
                writer.write(b"HTTP/1.1 100 Continue\r\n\r\n")
            try:
                body = await reader.readexactly(length)
            except asyncio.IncompleteReadError:
                return None
        return method, target, headers, body

    async def _respond(
        self,
        writer,
        code: int,
        body: bytes,
        content_type: str,
        headers: Optional[Dict[str, str]] = None,
        keep_alive: bool = True,
    ) -> None:
        reason = _STATUS_TEXT.get(code, "Unknown")
        head = [
            f"HTTP/1.1 {code} {reason}",
            f"Content-Type: {content_type}",
            f"Content-Length: {len(body)}",
            "Connection: " + ("keep-alive" if keep_alive else "close"),
        ]
        for name, value in (headers or {}).items():
            head.append(f"{name}: {value}")
        writer.write(
            ("\r\n".join(head) + "\r\n\r\n").encode("latin-1") + body
        )
        await writer.drain()


class AsyncServiceServer(HttpEdge):
    """One service instance behind the edge: the ``repro serve`` routes.

    ``POST /deobfuscate`` (``?verify=1`` to verify), ``GET
    /metrics.json`` (the service snapshot, which the fleet router
    merges) and its views ``GET /healthz``, ``GET /metrics``
    (Prometheus text) and ``GET /statusz``; the request and response
    shapes are in ``docs/service.md``.
    """

    def __init__(
        self,
        service: DeobfuscationService,
        host: str = "127.0.0.1",
        port: int = 0,
        quiet: bool = True,
        max_pending: Optional[int] = None,
        idle_timeout: float = 30.0,
    ):
        # Enough slots for every admissible leader plus a band of
        # cache hits/joiners; beyond this the edge sheds load.
        self.max_pending = max_pending or (
            service.config.queue_limit * 2 + 32
        )
        super().__init__(
            host,
            port,
            quiet=quiet,
            pool_size=self.max_pending,
            thread_name="repro-aserve",
            idle_timeout=idle_timeout,
        )
        self.service = service
        self._pending = 0

    async def start(self) -> "AsyncServiceServer":
        self.service.start()
        await super().start()
        return self

    async def drain_and_stop(self) -> bool:
        """Stop accepting, finish in-flight work, shut the fleet down."""
        self.service.begin_drain()
        await self.stop_listening()
        loop = asyncio.get_running_loop()
        drained = await loop.run_in_executor(
            None,
            functools.partial(
                self.service.drain,
                timeout=max(30.0, self.service.config.timeout + 10.0),
            ),
        )
        await super().drain_and_stop()
        self.service.close()
        return drained

    async def route(self, method, target, headers, body) -> Response:
        url = urlsplit(target)
        if method == "GET" and url.path == "/healthz":
            health = healthz_payload(self.service.snapshot())
            code = 503 if health["status"] == "draining" else 200
            return json_response(code, health)
        if method == "GET" and url.path == "/metrics":
            return metrics_response(self.service.snapshot())
        if method == "GET" and url.path == "/metrics.json":
            return json_response(200, self.service.snapshot())
        if method == "GET" and url.path == "/statusz":
            return json_response(
                200, statusz_payload(self.service.snapshot())
            )
        if method == "POST" and url.path == "/deobfuscate":
            return await self._deobfuscate(url, headers, body)
        return json_response(404, {"error": f"no such path: {target}"})

    async def _deobfuscate(self, url, headers, body) -> Response:
        query = parse_qs(url.query)
        query_verify = (query.get("verify") or ["0"])[-1].lower() in (
            "1", "true", "yes",
        )
        try:
            payload = json.loads(body or b"")
        except (ValueError, UnicodeDecodeError):
            return json_response(400, {"error": "body is not valid JSON"})
        try:
            script, options, verify, timeout = shape_request(
                payload, default_verify=query_verify
            )
        except RequestError as exc:
            return json_response(400, exc.payload)

        if self._pending >= self.max_pending:
            retry_after = jittered_retry_after(1.0)
            return json_response(
                429,
                {"error": "edge at capacity", "retry_after": retry_after},
                {"Retry-After": str(retry_after)},
            )

        trace = parse_traceparent(headers.get("traceparent") or "")
        self._pending += 1
        try:
            record = await self.run_blocking(
                self.service.submit,
                script,
                options=options,
                timeout=timeout,
                verify=verify,
                trace=trace,
            )
        except ServiceUnavailable as exc:
            code = 503 if exc.reason == "draining" else 429
            retry_after = jittered_retry_after(exc.retry_after)
            return json_response(
                code,
                {"error": exc.reason, "retry_after": retry_after},
                {"Retry-After": str(retry_after)},
            )
        finally:
            self._pending -= 1

        if not payload.get("stats"):
            record.pop("stats", None)
        code = 200 if record.get("status") in _OK_STATUSES else 500
        extra = None
        trace_id = record.get("trace_id")
        if trace_id:
            extra = {"X-Trace-Id": str(trace_id)}
        return json_response(code, record, extra)


# --------------------------------------------------------------------------
# embedding and CLI entry points
# --------------------------------------------------------------------------

class EdgeHandle:
    """Test/embedding handle: background event loop + running edge."""

    def __init__(self, server: HttpEdge, loop, thread):
        self.server = server
        self.loop = loop
        self.thread = thread

    @property
    def server_address(self) -> Tuple[str, int]:
        return self.server.server_address

    def shutdown(self, drain: bool = True) -> bool:
        """Stop the edge (optionally draining) and join the loop."""
        if not self.loop.is_running():
            return True
        if drain:
            future = asyncio.run_coroutine_threadsafe(
                self.server.drain_and_stop(), self.loop
            )
            drained = future.result(timeout=60.0)
        else:
            drained = True
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(timeout=10.0)
        return drained


def start_edge(edge: HttpEdge) -> EdgeHandle:
    """Run *edge* on a daemon thread's event loop; return its handle.

    An edge built with ``port=0`` binds an ephemeral port, readable
    from ``handle.server_address`` once this returns.
    """
    loop = asyncio.new_event_loop()
    started = threading.Event()
    failure: list = []

    def _run() -> None:
        asyncio.set_event_loop(loop)

        async def _boot():
            try:
                await edge.start()
            except BaseException as exc:  # noqa: BLE001 — surface to caller
                failure.append(exc)
            finally:
                started.set()

        loop.create_task(_boot())
        loop.run_forever()
        # Cancel whatever is left so the loop closes cleanly.
        for task in asyncio.all_tasks(loop):
            task.cancel()
        loop.run_until_complete(
            asyncio.gather(*asyncio.all_tasks(loop), return_exceptions=True)
        )
        loop.close()

    thread = threading.Thread(
        target=_run, name="repro-edge-loop", daemon=True
    )
    thread.start()
    if not started.wait(timeout=10.0):
        raise RuntimeError("edge did not start within 10s")
    if failure:
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=5.0)
        raise failure[0]
    return EdgeHandle(edge, loop, thread)


def start_async_server(
    service: DeobfuscationService,
    host: str = "127.0.0.1",
    port: int = 0,
    quiet: bool = True,
    **server_options: Any,
) -> EdgeHandle:
    """Serve *service* on a background edge; return its handle."""
    return start_edge(
        AsyncServiceServer(
            service, host=host, port=port, quiet=quiet, **server_options
        )
    )


async def serve_until_signal(
    edge: HttpEdge, port_file: Optional[str], banner: str
) -> None:
    """Start *edge*, publish its port, print *banner*, wait for a signal.

    *banner* is formatted with the bound ``host`` and ``port``; the
    coroutine returns once SIGTERM or SIGINT arrives, with the edge
    still serving — the caller drains it.
    """
    await edge.start()
    host, port = edge.server_address
    if port_file:
        with open(port_file, "w", encoding="utf-8") as handle:
            handle.write(str(port))
    print(banner.format(host=host, port=port), file=sys.stderr, flush=True)
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for signum in (signal.SIGTERM, signal.SIGINT):
        loop.add_signal_handler(signum, stop.set)
    try:
        await stop.wait()
    finally:
        for signum in (signal.SIGTERM, signal.SIGINT):
            loop.remove_signal_handler(signum)


def run_async_server(
    config: ServiceConfig,
    host: str = "127.0.0.1",
    port: int = 8765,
    port_file: Optional[str] = None,
    quiet: bool = True,
) -> int:
    """Blocking ``repro serve`` body with graceful SIGTERM/SIGINT drain."""
    service = DeobfuscationService(config)
    server = AsyncServiceServer(service, host=host, port=port, quiet=quiet)

    async def serve() -> bool:
        await serve_until_signal(
            server,
            port_file,
            "repro serve: listening on http://{host}:{port} "
            f"({config.jobs} workers, queue limit {config.queue_limit}, "
            "asyncio front end)",
        )
        print("repro serve: draining…", file=sys.stderr, flush=True)
        drained = await server.drain_and_stop()
        print(
            render_metrics(service.snapshot()),
            file=sys.stderr,
            flush=True,
        )
        print(
            "repro serve: drained cleanly"
            if drained
            else "repro serve: drain timed out; some work was dropped",
            file=sys.stderr,
            flush=True,
        )
        return drained

    try:
        drained = asyncio.run(serve())
    except OSError as exc:
        print(f"error: cannot bind {host}:{port}: {exc}", file=sys.stderr)
        return 1
    return 0 if drained else 1
