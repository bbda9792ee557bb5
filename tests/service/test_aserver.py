"""Tests for the asyncio edge (:mod:`repro.service.aserver`).

The routes must answer over HTTP exactly what the in-process pipeline
and service answer; on top of that come the things only the edge
does: keep-alive connection reuse, bounded edge admission (429 before
the pool saturates), one pool hop per ``POST /deobfuscate`` and none
per ``GET``, and the hostile-input limits, which both edges — the
service's and the fleet router's — must enforce.
"""

import http.client
import json
import socket
import time

import pytest

from repro.service import DeobfuscationService, ServiceConfig
from repro.service.aserver import start_async_server, start_edge
from repro.service.core import jittered_retry_after
from repro.service.fleet import FleetRouter, FleetState
from tests.service.helpers import CRASH_MARKER
from tests.service.test_service import get, metric_value, post


class TestRouteParity:
    def test_deobfuscate_matches_direct_pipeline(self, served):
        from repro import Deobfuscator

        _service, url = served()
        script = "$a = 'wri'+'te-host'; I`E`X ($a + ' same')"
        code, body, headers = post(url, {"script": script})
        assert code == 200
        direct = Deobfuscator().deobfuscate(script)
        assert body["script"] == direct.script
        assert body["cache_hit"] is False
        assert headers.get("X-Trace-Id") == body["trace_id"]

    def test_cache_hit_on_resubmission(self, served):
        _service, url = served()
        _code, first, _h = post(url, {"script": "write-host again"})
        _code, second, _h = post(url, {"script": "write-host again"})
        assert second["cache_hit"] is True
        assert second["cache_key"] == first["cache_key"]

    def test_verify_via_query_and_body(self, served):
        import urllib.request

        _service, url = served()

        def post_query(payload):
            request = urllib.request.Request(
                url + "/deobfuscate?verify=1",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with urllib.request.urlopen(request, timeout=30.0) as response:
                return response.status, json.loads(response.read())

        code, body = post_query({"script": "write-host v"})
        assert code == 200
        assert body["verify"]["verdict"] == "equivalent"
        # The body field overrides the query default off again.
        code, body = post_query({"script": "write-host v2", "verify": False})
        assert "verify" not in body

    def test_raw_garbage_body_is_a_400(self, served):
        _service, url = served()
        host, port = url.replace("http://", "").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
        conn.request(
            "POST", "/deobfuscate", body=b"\xff not json",
            headers={"Content-Type": "application/json"},
        )
        response = conn.getresponse()
        assert response.status == 400
        assert b"not valid JSON" in response.read()
        conn.close()

    def test_healthz_reports_fleet_readiness_fields(self, served, tmp_path):
        from repro import package_version

        _service, url = served(cache_dir=str(tmp_path / "cache"))
        status, body = get(url, "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["version"] == package_version()
        assert health["pool_size"] == 2
        assert health["queue_depth"] == 0
        assert health["cache_shards"] == 8
        assert health["warm_start"]["enabled"] is True
        assert health["warm_start"]["warm_start"] is False

    def test_metrics_text_and_json(self, served):
        _service, url = served()
        post(url, {"script": "write-host m"})
        status, text = get(url, "/metrics")
        assert status == 200
        assert metric_value(text, "repro_service_requests_total") == 1
        assert metric_value(text, "repro_service_pool_size") == 2
        assert metric_value(text, "repro_service_cache_shards") == 8
        status, raw = get(url, "/metrics.json")
        snapshot = json.loads(raw)
        assert snapshot["counters"]["requests"] == 1
        assert snapshot["cache"]["shards"] == 8


class TestKeepAlive:
    def test_connection_reuse_across_requests(self, served):
        _service, url = served()
        host, port = url.replace("http://", "").split(":")
        conn = http.client.HTTPConnection(host, int(port), timeout=10.0)
        for index in range(3):
            body = json.dumps({"script": f"write-host k{index}"})
            conn.request(
                "POST", "/deobfuscate", body=body,
                headers={"Content-Type": "application/json"},
            )
            response = conn.getresponse()
            assert response.status == 200
            assert response.headers["Connection"] == "keep-alive"
            json.loads(response.read())
        conn.close()


class TestEdgeAdmission:
    def test_edge_429_when_pending_saturated(self, served):
        _service, url = served(max_pending=4)
        (handle,) = served.handles
        # Deterministic saturation: claim every slot by hand, then ask.
        handle.server._pending = handle.server.max_pending
        try:
            code, body, headers = post(url, {"script": "write-host x"})
        finally:
            handle.server._pending = 0
        assert code == 429
        assert body["error"] == "edge at capacity"
        retry_after = int(headers["Retry-After"])
        assert 1 <= retry_after <= 2
        assert body["retry_after"] == retry_after

    def test_one_pool_hop_per_post_and_none_per_get(
        self, served, monkeypatch
    ):
        _service, url = served()
        (handle,) = served.handles
        pool = handle.server._executor
        hops = []
        submit = pool.submit

        def counting_submit(*args, **kwargs):
            hops.append(args[0])
            return submit(*args, **kwargs)

        monkeypatch.setattr(pool, "submit", counting_submit)
        for path in ("/healthz", "/metrics", "/metrics.json", "/statusz"):
            status, _body = get(url, path)
            assert status == 200
        assert hops == []
        code, _body, _h = post(url, {"script": "write-host hop"})
        assert code == 200
        assert len(hops) == 1


class TestDrain:
    def test_drain_rejects_then_stops_clean(self, served):
        service, url = served()
        (handle,) = served.handles
        code, _body, _h = post(url, {"script": "write-host pre"})
        assert code == 200
        service.begin_drain()
        code, body, _h = post(url, {"script": "write-host late"})
        assert code == 503
        assert body["error"] == "draining"
        status, body = get(url, "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "draining"
        assert handle.shutdown(drain=True) is True


class TestRetryAfterJitter:
    def test_spread_over_base_to_double(self):
        values = {jittered_retry_after(5.0) for _ in range(300)}
        assert values <= set(range(5, 11))
        assert len(values) > 1, "no jitter at all"

    def test_minimum_is_one_second(self):
        assert all(
            1 <= jittered_retry_after(0.0) <= 2 for _ in range(50)
        )


def _dead_url() -> str:
    """A localhost URL nothing listens on."""
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return "http://127.0.0.1:%d" % sock.getsockname()[1]


@pytest.fixture(params=["service", "router"])
def edge(request):
    """Each edge in turn: a service, and a fleet router (whose limits
    trip before any routing, so it needs no live instance)."""
    if request.param == "service":
        service = DeobfuscationService(ServiceConfig(jobs=1, queue_limit=4))
        handle = start_async_server(service)
    else:
        handle = start_edge(FleetRouter(FleetState([_dead_url()])))
    yield handle
    handle.shutdown(drain=True)


def exchange(handle, raw: bytes, timeout: float = 5.0) -> bytes:
    """Send *raw*; return all the edge sends back until it closes."""
    received = []
    with socket.create_connection(
        handle.server_address, timeout=timeout
    ) as sock:
        sock.sendall(raw)
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break
            if not chunk:
                break
            received.append(chunk)
    return b"".join(received)


class TestInputLimits:
    def test_idle_connection_closed_after_idle_timeout(self, edge):
        edge.server.idle_timeout = 0.3
        started = time.monotonic()
        # The headers promise a body that never comes.
        reply = exchange(
            edge,
            b"POST /deobfuscate HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 100\r\n\r\n",
        )
        assert reply == b""
        assert time.monotonic() - started < 3.0

    def test_oversized_header_section_is_431(self, edge):
        # 100 headers of 1 KiB: every line is short, the section is not.
        headers = b"".join(
            b"X-Pad-%d: %s\r\n" % (index, b"a" * 1024)
            for index in range(100)
        )
        reply = exchange(
            edge, b"GET /healthz HTTP/1.1\r\n" + headers + b"\r\n"
        )
        assert reply.startswith(b"HTTP/1.1 431 ")
        assert b"header section too large" in reply

    def test_oversized_body_is_400_without_reading_it(self, edge):
        started = time.monotonic()
        reply = exchange(
            edge,
            b"POST /deobfuscate HTTP/1.1\r\nHost: x\r\n"
            b"Content-Length: 20000000\r\n\r\n",
        )
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"Content-Length" in reply
        # Answered at once, not after idle_timeout: nothing waited for
        # the 20 MB the headers announced.
        assert time.monotonic() - started < edge.server.idle_timeout

    def test_malformed_request_line_is_400(self, edge):
        reply = exchange(edge, b"NONSENSE\r\n\r\n")
        assert reply.startswith(b"HTTP/1.1 400 ")
        assert b"malformed request line" in reply

    def test_expect_continue_is_answered_before_the_body(self, edge):
        body = json.dumps({"script": "write-host hi"}).encode()
        with socket.create_connection(
            edge.server_address, timeout=10.0
        ) as sock:
            sock.sendall(
                b"POST /deobfuscate HTTP/1.1\r\nHost: x\r\n"
                b"Connection: close\r\nExpect: 100-continue\r\n"
                b"Content-Length: %d\r\n\r\n" % len(body)
            )
            interim = sock.recv(64)
            assert interim == b"HTTP/1.1 100 Continue\r\n\r\n"
            sock.sendall(body)
            final = sock.makefile("rb").readline()
        # The service answers; the router finds no live instance.
        assert final.split()[1] in (b"200", b"503")


class TestForkedWorkers:
    def test_idle_connection_sees_eof_after_a_worker_respawn(self, served):
        # A worker forked while a connection is open inherits its FD;
        # unless the worker closes it, the edge's close sends no FIN
        # and the client waits for the worker's lifetime.
        _, url = served(
            jobs=1, worker="tests.service.helpers:counting_worker"
        )
        edge = served.handles[-1]
        edge.server.idle_timeout = 2.0
        idle = http.client.HTTPConnection(*edge.server_address, timeout=10)
        try:
            idle.request("GET", "/healthz")
            assert idle.getresponse().read()
            # The edge now holds the connection idle.  Crash the worker,
            # then make the pool fork a fresh one while it stays open.
            started = time.monotonic()
            assert post(url, {"script": CRASH_MARKER})[1]["status"] == (
                "error"
            )
            assert post(url, {"script": "write-host hi"})[0] == 200
            idle.sock.settimeout(edge.server.idle_timeout + 3.0)
            assert idle.sock.recv(1) == b""
            assert time.monotonic() - started < (
                edge.server.idle_timeout + 3.0
            )
        finally:
            idle.close()
