"""Fleet tests: the hash ring, routing state, and the router proxy.

The load-bearing properties: routing is a pure function of
(instances, script) — every router replica agrees with no
coordination; removing an instance moves *only* that instance's keys
(consistent hashing's whole point); and the rendezvous fallback is
deterministic and spreads a dead instance's keys across the
survivors.  The proxy tests drive a real two-instance fleet in
process — asyncio edges over real worker pools — through a
:class:`FleetRouter` on the same edge.
"""

import json
import urllib.request

import pytest

from repro.obs.trace import TraceContext
from repro.service import (
    DeobfuscationService,
    ServiceConfig,
    start_async_server,
)
from repro.service.aserver import start_edge
from repro.service.fleet import (
    FleetRouter,
    FleetState,
    HashRing,
    script_routing_key,
)
from tests.service.test_service import get, metric_value, post

KEYS = [script_routing_key(f"write-host k{i}") for i in range(400)]
INSTANCES = [f"http://127.0.0.1:{8000 + i}" for i in range(4)]


class TestRoutingKey:
    def test_ignores_trivia_but_not_content(self):
        assert script_routing_key("write-host a\r\n") == script_routing_key(
            "﻿write-host a\n"
        )
        assert script_routing_key("write-host a") != script_routing_key(
            "write-host b"
        )


class TestHashRing:
    def test_deterministic_across_instances_order(self):
        ring_a = HashRing(INSTANCES)
        ring_b = HashRing(list(reversed(INSTANCES)))
        assert [ring_a.route(k) for k in KEYS] == [
            ring_b.route(k) for k in KEYS
        ]

    def test_routes_land_on_configured_instances(self):
        ring = HashRing(INSTANCES)
        owners = {ring.route(key) for key in KEYS}
        assert owners <= set(INSTANCES)
        # 400 keys over 4 instances with 64 vnodes each: everyone
        # owns a share.
        assert owners == set(INSTANCES)

    def test_removal_moves_only_the_removed_instances_keys(self):
        full = HashRing(INSTANCES)
        removed = INSTANCES[1]
        shrunk = HashRing([i for i in INSTANCES if i != removed])
        moved = stayed = 0
        for key in KEYS:
            before = full.route(key)
            after = shrunk.route(key)
            if before == removed:
                assert after != removed
            elif before == after:
                stayed += 1
            else:
                moved += 1
        # Consistent hashing: keys not owned by the removed instance
        # keep their placement.
        assert moved == 0
        assert stayed > 0

    def test_empty_ring_raises(self):
        with pytest.raises(ValueError):
            HashRing([]).route(KEYS[0])

    def test_fallback_is_deterministic_and_excludes_dead(self):
        ring = HashRing(INSTANCES)
        dead = INSTANCES[0]
        healthy = [i for i in INSTANCES if i != dead]
        picks = [ring.fallback(key, healthy) for key in KEYS]
        assert picks == [ring.fallback(key, healthy) for key in KEYS]
        assert dead not in picks
        # The dead instance's keys spread across every survivor, not
        # onto one neighbour.
        orphan_picks = {
            ring.fallback(key, healthy)
            for key in KEYS
            if ring.route(key) == dead
        }
        assert orphan_picks == set(healthy)

    def test_fallback_empty_healthy_is_none(self):
        ring = HashRing(INSTANCES)
        assert ring.fallback(KEYS[0], []) is None


class TestFleetState:
    def test_pick_prefers_healthy_primary(self):
        state = FleetState(INSTANCES)
        key = KEYS[0]
        primary = state.ring.route(key)
        assert state.pick(key) == (primary, False)

    def test_pick_falls_back_when_primary_down(self):
        state = FleetState(INSTANCES)
        key = KEYS[0]
        primary = state.ring.route(key)
        state.mark_down(primary)
        instance, fallback = state.pick(key)
        assert fallback is True
        assert instance != primary
        state.mark_up(primary)
        assert state.pick(key) == (primary, False)

    def test_pick_none_when_all_down(self):
        state = FleetState(INSTANCES[:2])
        for instance in INSTANCES[:2]:
            state.mark_down(instance)
        assert state.pick(KEYS[0]) is None

    def test_counters(self):
        state = FleetState(INSTANCES[:2])
        state.count_routed(INSTANCES[0], fallback=False)
        state.count_routed(INSTANCES[1], fallback=True)
        state.count_rejected()
        counters = state.counters()
        assert counters["routed"][INSTANCES[0]] == 1
        assert counters["fallbacks"] == 1
        assert counters["rejected"] == 1


@pytest.fixture
def fleet():
    """Two real service instances behind a router; yields (state, url,
    handles)."""
    handles = [
        start_async_server(
            DeobfuscationService(
                ServiceConfig(jobs=1, timeout=10.0, queue_limit=16)
            )
        )
        for _ in range(2)
    ]
    urls = [
        f"http://{host}:{port}"
        for host, port in (h.server_address for h in handles)
    ]
    state = FleetState(urls)
    router = start_edge(FleetRouter(state))
    host, port = router.server_address
    yield state, f"http://{host}:{port}", handles
    router.shutdown(drain=True)
    for handle in handles:
        handle.shutdown(drain=False)
        handle.server.service.close()


class TestRouterProxy:
    def test_routing_is_deterministic_and_matches_the_ring(self, fleet):
        state, url, _handles = fleet
        for index in range(6):
            script = f"write-host r{index}"
            expected = state.ring.route(script_routing_key(script))
            for _ in range(2):  # resubmission lands on the same box
                code, body, headers = post(url, {"script": script})
                assert code == 200
                assert body["status"] == "ok"
                assert headers["X-Repro-Instance"] == expected
                assert headers["X-Repro-Routing"] == "primary"
            # Second submission hit that instance's local cache.
            assert body["cache_hit"] is True

    def test_bad_requests_stopped_at_the_router(self, fleet):
        _state, url, _handles = fleet
        code, body, _h = post(url, {"no_script": True})
        assert code == 400
        status, _body = get(url, "/nope")
        assert status == 404

    def test_instance_errors_pass_through(self, fleet):
        _state, url, _handles = fleet
        # A 400 answered by the *instance* (bad policy survives the
        # router's thin script check) must not be mistaken for a dead
        # instance.
        code, body, _h = post(
            url, {"script": "write-host x", "policy": "no-such"}
        )
        assert code == 400
        assert "unknown policy" in body["error"]

    def test_verify_query_reaches_the_instance(self, fleet):
        _state, url, _handles = fleet
        request = urllib.request.Request(
            url + "/deobfuscate?verify=1",
            data=json.dumps({"script": "write-host v"}).encode("utf-8"),
            headers={"Content-Type": "application/json"},
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            assert response.status == 200
            body = json.loads(response.read())
        assert body["verify"]["verdict"] == "equivalent"

    def test_traceparent_comes_back_as_x_trace_id(self, fleet):
        _state, url, _handles = fleet
        caller = TraceContext.new()
        request = urllib.request.Request(
            url + "/deobfuscate",
            data=json.dumps({"script": "write-host t"}).encode("utf-8"),
            headers={
                "Content-Type": "application/json",
                "traceparent": caller.to_traceparent(),
            },
            method="POST",
        )
        with urllib.request.urlopen(request, timeout=30.0) as response:
            assert response.status == 200
            assert response.headers["X-Trace-Id"] == caller.trace_id
            assert json.loads(response.read())["trace_id"] == (
                caller.trace_id
            )

    def test_healthz_aggregates_instances(self, fleet):
        _state, url, _handles = fleet
        status, body = get(url, "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["healthy_instances"] == 2
        assert all(
            report["status"] == "ok"
            for report in health["instances"].values()
        )

    def test_healthz_reports_a_draining_instance(self, fleet):
        state, url, handles = fleet
        host, port = handles[0].server_address
        draining = f"http://{host}:{port}"
        handles[0].server.service.begin_drain()
        status, body = get(url, "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "degraded"
        assert health["healthy_instances"] == 1
        # The instance's own health view, not "unreachable": its
        # /healthz answers 503 while draining, its snapshot does not.
        assert health["instances"][draining]["status"] == "draining"
        assert health["instances"][draining]["queue_limit"] == 16
        # Routing skips it.
        assert draining not in state.healthy_instances()

    def test_metrics_aggregates_and_counts_routing(self, fleet):
        _state, url, _handles = fleet
        for index in range(4):
            post(url, {"script": f"write-host m{index}"})
        status, metrics = get(url, "/metrics")
        assert status == 200
        assert metric_value(metrics, "repro_fleet_instances") == 2
        assert metric_value(metrics, "repro_fleet_healthy_instances") == 2
        # The merged service counters see every request exactly once.
        assert metric_value(metrics, "repro_service_requests_total") == 4
        routed = sum(
            float(line.rsplit(" ", 1)[1])
            for line in metrics.splitlines()
            if line.startswith("repro_fleet_routed_total{")
        )
        assert routed == 4

    def test_dead_instance_falls_back_and_recovers(self, fleet):
        state, url, handles = fleet
        # Find a script routed to instance 0, then kill instance 0.
        urls = state.instances
        target = next(
            f"write-host d{i}"
            for i in range(100)
            if state.ring.route(script_routing_key(f"write-host d{i}"))
            == urls[0]
        )
        victim = next(
            h for h in handles
            if f"http://{h.server_address[0]}:{h.server_address[1]}"
            == urls[0]
        )
        # A full shutdown closes the listener, so the router's forward
        # fails fast (connection refused) instead of hanging.
        victim.shutdown(drain=True)

        code, body, headers = post(url, {"script": target})
        assert code == 200
        assert body["status"] == "ok"
        assert headers["X-Repro-Instance"] != urls[0]
        assert headers["X-Repro-Routing"] == "fallback"
        assert state.counters()["fallbacks"] >= 1
        # The router noticed the death.
        assert urls[0] not in state.healthy_instances()

    def test_all_dead_is_503_with_retry_after(self, fleet):
        state, url, _handles = fleet
        for instance in state.instances:
            state.mark_down(instance)
        code, body, headers = post(url, {"script": "write-host x"})
        assert code == 503
        assert body["error"] == "no healthy instance"
        assert headers.get("Retry-After") == "5"
        for instance in state.instances:
            state.mark_up(instance)


class TestMergeSnapshots:
    def test_two_instances_sum_and_max(self):
        from repro.service.metrics import merge_snapshots

        services = [
            DeobfuscationService(ServiceConfig(jobs=1)).start()
            for _ in range(2)
        ]
        try:
            services[0].submit("write-host merge-a")
            services[0].submit("write-host merge-a")
            services[1].submit("write-host merge-b")
            merged = merge_snapshots(
                {
                    str(index): service.snapshot()
                    for index, service in enumerate(services)
                }
            )
            assert merged["counters"]["requests"] == 3
            assert merged["counters"]["cache_hits"] == 1
            assert merged["counters"]["executions"] == 2
            assert merged["instances"] == 2
            assert merged["workers"] == 2
            assert merged["cache"]["entries"] == 2
            assert merged["draining"] is False
            hist = merged["request_duration_histogram"]
            assert sum(hist["counts"]) == 3
        finally:
            for service in services:
                service.close()

    def test_empty_list_renders(self):
        from repro.service.metrics import merge_snapshots, render_metrics

        text = render_metrics(merge_snapshots({}))
        assert "repro_service_requests_total 0" in text

    def test_windows_and_log_tails_merge_across_instances(self):
        from repro.obs import RollingWindow
        from repro.service.metrics import merge_snapshots
        from tests.obs.test_window import FakeClock

        clock = FakeClock()
        a = RollingWindow(clock=clock)
        a.incr("requests", 1)
        a.observe(0.1, "a-trace")
        b = RollingWindow(clock=clock)
        b.incr("requests", 4)
        b.observe(2.0, "b-slow")
        merged = merge_snapshots(
            {
                "http://a": {
                    "window_raw": a.to_dict(),
                    "log_tail": [
                        {"ts": 1.0, "message": "a1"},
                        {"ts": 3.0, "message": "a3"},
                    ],
                },
                "http://down": None,
                "http://b": {
                    "window_raw": b.to_dict(),
                    "log_tail": [{"ts": 2.0, "message": "b2"}],
                },
            },
            router_events=[{"ts": 2.5, "message": "routed"}],
        )
        # The instance that did not answer is skipped.
        assert merged["instances"] == 2
        one = RollingWindow.from_dict(
            merged["window_raw"], clock=clock
        ).snapshot()["1m"]
        assert one["requests"] == 5
        assert one["observations"] == 2
        # The slowest instance's exemplar survives the merge.
        assert one["exemplar"]["trace_id"] == "b-slow"
        # Tails interleave by timestamp; instance events are tagged,
        # the router's own are not.
        assert [
            (event["message"], event.get("instance"))
            for event in merged["log_tail"]
        ] == [
            ("a1", "http://a"),
            ("b2", "http://b"),
            ("routed", None),
            ("a3", "http://a"),
        ]

        down = merge_snapshots({"http://a": None, "http://b": None})
        assert down["instances"] == 0
        empty = RollingWindow.from_dict(down["window_raw"], clock=clock)
        assert empty.snapshot()["1m"]["requests"] == 0


class TestRouterScrape:
    def test_each_aggregate_get_fetches_every_instance_once(
        self, monkeypatch
    ):
        from repro.service import fleet as fleet_module

        instances = ["http://127.0.0.1:1", "http://127.0.0.1:2"]
        fetched = []

        def fake_fetch(url, timeout=10.0):
            fetched.append(url)
            return {"counters": {"requests": 1}, "draining": False}

        monkeypatch.setattr(fleet_module, "_fetch_json", fake_fetch)
        router = start_edge(FleetRouter(FleetState(instances)))
        host, port = router.server_address
        try:
            for path in ("/healthz", "/metrics", "/statusz"):
                fetched.clear()
                status, _body = get(f"http://{host}:{port}", path)
                assert sorted(fetched) == [
                    instance + "/metrics.json" for instance in instances
                ]
                assert status == 200
        finally:
            router.shutdown(drain=True)


class TestRouterStatusz:
    def test_statusz_merges_instances(self, fleet):
        from repro.service.metrics import STATUSZ_SCHEMA_VERSION

        state, url, _handles = fleet
        traces = []
        for index in range(4):
            code, body, _h = post(
                url, {"script": f"write-host z{index}"}
            )
            assert code == 200
            traces.append(body["trace_id"])

        status, text = get(url, "/statusz")
        assert status == 200
        payload = json.loads(text)
        assert payload["schema_version"] == STATUSZ_SCHEMA_VERSION
        assert payload["instances"] == 2
        # The merged rolling window saw every request exactly once.
        one = payload["windows"]["1m"]
        assert one["requests"] == 4
        assert one["observations"] == 4
        # Exemplar trace ids survive the minute-by-minute merge: the
        # fleet-wide slowest request is one of the four we just made.
        assert one["exemplar"]["trace_id"] in traces
        # Router-side routing state rides along.
        assert payload["router"]["routed"]
        assert sum(payload["router"]["routed"].values()) == 4

    def test_statusz_skips_dead_instances(self, fleet):
        state, url, handles = fleet
        post(url, {"script": "write-host alive"})
        victim_url = state.instances[0]
        victim = next(
            h for h in handles
            if f"http://{h.server_address[0]}:{h.server_address[1]}"
            == victim_url
        )
        victim.shutdown(drain=True)
        status, text = get(url, "/statusz")
        payload = json.loads(text)
        assert status == 200
        assert payload["instances"] == 1
        assert victim_url not in state.healthy_instances()
