"""Concurrency and fault tests for the ``repro serve`` service.

The headline scenario mirrors the PR's acceptance criterion: a
2-worker fleet under 100 concurrent HTTP requests spread over 10
unique scripts must answer everything correctly with ≥ 90% of requests
avoiding a pipeline execution — proven exactly-once per unique hash by
a cross-process execution counter, not just by counters the service
keeps about itself.  The rest covers the failure modes a long-running
service must survive: hostile hanging scripts (timeout-kill + worker
respawn), admission overflow (429 + Retry-After), crashing workers,
and graceful drain.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest

from repro.service import (
    DeobfuscationService,
    ServiceConfig,
    ServiceUnavailable,
)
from tests.service.helpers import (
    COUNTER_ENV,
    CRASH_MARKER,
    LOOP_MARKER,
    SLEEP_MARKER,
)

COUNTING = "tests.service.helpers:counting_worker"


def make_service(**overrides):
    defaults = dict(jobs=2, timeout=10.0, kill_grace=0.3, queue_limit=64)
    defaults.update(overrides)
    return DeobfuscationService(ServiceConfig(**defaults))


def post(url, body, timeout=30.0):
    """POST JSON; return (status_code, decoded_body, headers)."""
    request = urllib.request.Request(
        url + "/deobfuscate",
        data=json.dumps(body).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), dict(
                response.headers
            )
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), dict(error.headers)


def get(url, path, timeout=10.0):
    try:
        with urllib.request.urlopen(url + path, timeout=timeout) as response:
            return response.status, response.read().decode("utf-8")
    except urllib.error.HTTPError as error:
        return error.code, error.read().decode("utf-8")


def metric_value(metrics_text, name):
    for line in metrics_text.splitlines():
        if line.startswith(name + " ") or line.startswith(name + "{"):
            return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"metric {name} not found")


class TestLoadAndSingleFlight:
    def test_100_concurrent_over_10_unique(self, served, tmp_path,
                                           monkeypatch):
        counter = tmp_path / "executions.log"
        monkeypatch.setenv(COUNTER_ENV, str(counter))
        _service, url = served(worker=COUNTING)

        scripts = [
            f"I`E`X ('wri'+'te-host u{index}')" for index in range(10)
        ]
        results = [None] * 100
        barrier = threading.Barrier(100)

        def one(slot):
            barrier.wait(timeout=30.0)
            results[slot] = post(url, {"script": scripts[slot % 10]})

        threads = [
            threading.Thread(target=one, args=(slot,))
            for slot in range(100)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)

        # zero dropped responses, all correct
        assert all(result is not None for result in results)
        assert all(code == 200 for code, _body, _h in results)
        for slot, (_code, body, _headers) in enumerate(results):
            assert body["status"] == "ok"
            assert body["script"].strip() == f"Write-Host u{slot % 10}"

        # exactly-once per unique hash, proven across processes
        executions = counter.read_text().splitlines()
        assert len(executions) == 10

        # >= 90% of requests avoided a pipeline execution
        _status, metrics = get(url, "/metrics")
        assert metric_value(metrics, "repro_service_requests_total") == 100
        assert metric_value(
            metrics, "repro_service_cache_hit_ratio"
        ) >= 0.9
        assert metric_value(
            metrics, "repro_service_queue_depth"
        ) == 0

    def test_coalesced_join_shares_leader_result(self, served, tmp_path,
                                                 monkeypatch):
        counter = tmp_path / "executions.log"
        monkeypatch.setenv(COUNTER_ENV, str(counter))
        _service, url = served(worker=COUNTING)

        script = f"# {SLEEP_MARKER}\nwrite-host slow"
        outcomes = []
        barrier = threading.Barrier(4)

        def one():
            barrier.wait(timeout=10.0)
            outcomes.append(post(url, {"script": script}))

        threads = [threading.Thread(target=one) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        assert len(counter.read_text().splitlines()) == 1
        assert all(code == 200 for code, _b, _h in outcomes)
        coalesced = [b for _c, b, _h in outcomes if b["coalesced"]]
        executed = [
            b for _c, b, _h in outcomes
            if not b["coalesced"] and not b["cache_hit"]
        ]
        assert len(executed) == 1
        assert len(coalesced) == 3
        assert {b["script"] for _c, b, _h in outcomes} == {
            executed[0]["script"]
        }


class TestHostileInputs:
    def test_hanging_script_killed_and_fleet_recovers(self, served):
        service, url = served(worker=COUNTING, timeout=0.5, kill_grace=0.2)
        code, body, _headers = post(
            url, {"script": f"# {LOOP_MARKER}\nwhile ($true) {{ }}"}
        )
        assert code == 200
        assert body["status"] == "timeout"
        assert body["graceful"] is False
        assert service.pool.restarts["timeout"] == 1

        # timeouts are not cached: resubmission re-executes
        code, body, _headers = post(
            url, {"script": f"# {LOOP_MARKER}\nwhile ($true) {{ }}"}
        )
        assert body["cache_hit"] is False

        # the fleet respawned; normal work still flows
        code, body, _headers = post(url, {"script": "write-host alive"})
        assert code == 200
        assert body["status"] == "ok"

        _status, metrics = get(url, "/metrics")
        assert metric_value(
            metrics,
            'repro_service_worker_restarts_total{reason="timeout"}',
        ) >= 2

    def test_crashing_worker_yields_500_and_restart_count(self, served):
        service, url = served(worker=COUNTING, retries=0)
        code, body, _headers = post(
            url, {"script": f"# {CRASH_MARKER}\nwrite-host boom"}
        )
        assert code == 500
        assert body["status"] == "error"
        assert "died" in body["error"]
        assert service.pool.restarts["crash"] >= 1
        # errors are not cached
        code, body, _headers = post(url, {"script": "write-host fine"})
        assert code == 200

    def test_bad_requests_rejected(self, served):
        _service, url = served()
        code, body, _headers = post(url, {"no_script": True})
        assert code == 400
        code, body, _headers = post(url, {"script": "x", "timeout": "soon"})
        assert code == 400
        status, _body = get(url, "/nope")
        assert status == 404


class TestBackpressure:
    def test_queue_overflow_returns_429_with_retry_after(self, served):
        _service, url = served(
            worker=COUNTING, jobs=1, queue_limit=1, timeout=5.0
        )
        responses = []
        barrier = threading.Barrier(6)

        def one(index):
            barrier.wait(timeout=10.0)
            responses.append(
                post(url, {"script": f"# {SLEEP_MARKER}\nwrite-host {index}"})
            )

        threads = [
            threading.Thread(target=one, args=(index,))
            for index in range(6)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30.0)

        codes = sorted(code for code, _b, _h in responses)
        assert 429 in codes, codes
        assert len(responses) == 6
        rejected = [
            (body, headers)
            for code, body, headers in responses
            if code == 429
        ]
        for body, headers in rejected:
            assert "queue full" in body["error"]
            # ServiceUnavailable's default retry_after=1.0, jittered
            # over [1, 2].
            assert 1 <= int(headers["Retry-After"]) <= 2
        # everything admitted completed fine
        assert all(
            body["status"] == "ok"
            for code, body, _h in responses
            if code == 200
        )

    def test_in_process_rejection_counter(self):
        with make_service(jobs=1, queue_limit=0) as service:
            with pytest.raises(ServiceUnavailable):
                service.submit("write-host hi")
            assert service.counters["rejected"] == 1


class TestDrainAndHealth:
    def test_healthz_reports_version_and_fleet(self, served):
        from repro import package_version

        _service, url = served()
        status, body = get(url, "/healthz")
        health = json.loads(body)
        assert status == 200
        assert health["status"] == "ok"
        assert health["version"] == package_version()
        assert health["jobs"] == 2
        assert health["queue_limit"] == 64

    def test_drain_rejects_then_finishes_clean(self, served):
        service, url = served()
        code, body, _headers = post(url, {"script": "write-host pre"})
        assert code == 200

        service.begin_drain()
        code, body, _headers = post(url, {"script": "write-host late"})
        assert code == 503
        assert body["error"] == "draining"
        status, body = get(url, "/healthz")
        assert status == 503
        assert json.loads(body)["status"] == "draining"

        assert service.drain(timeout=10.0) is True
        _status, metrics = get(url, "/metrics")
        assert metric_value(metrics, "repro_service_draining") == 1

    def test_drain_waits_for_inflight_work(self):
        service = make_service(worker=COUNTING, jobs=1).start()
        results = []
        thread = threading.Thread(
            target=lambda: results.append(
                service.submit(f"# {SLEEP_MARKER}\nwrite-host slow")
            )
        )
        thread.start()
        # wait until the request is admitted, then drain
        for _ in range(200):
            if service.queue_depth > 0:
                break
            threading.Event().wait(0.01)
        assert service.drain(timeout=15.0) is True
        thread.join(timeout=15.0)
        assert results and results[0]["status"] == "ok"
        service.close()


class TestResultFidelity:
    def test_matches_direct_deobfuscate(self, served):
        from repro import Deobfuscator

        _service, url = served()
        script = "$a = 'wri'+'te-host'; I`E`X ($a + ' same')"
        _code, body, _headers = post(url, {"script": script})
        direct = Deobfuscator().deobfuscate(script)
        assert body["script"] == direct.script
        assert body["iterations"] == direct.iterations

    def test_stats_embedded_only_on_request(self, served):
        _service, url = served()
        _code, body, _h = post(url, {"script": "write-host a"})
        assert "stats" not in body
        _code, body, _h = post(
            url, {"script": "write-host a", "stats": True}
        )
        assert body["stats"]["schema_version"] >= 1

    def test_options_partition_results(self, served):
        _service, url = served()
        script = "$longVariableName = 'a'+'b'; write-host $longVariableName"
        _c, with_rename, _h = post(url, {"script": script})
        _c, without, _h = post(url, {"script": script, "rename": False})
        assert with_rename["cache_key"] != without["cache_key"]
        assert without["cache_hit"] is False


class TestPolicyOption:
    def test_policy_partitions_the_cache(self, served):
        _service, url = served()
        script = "$a = 'a'+'b'; write-host $a"
        _c, default, _h = post(url, {"script": script})
        _c, paranoid, _h = post(
            url, {"script": script, "policy": "wild-sample-paranoid"}
        )
        assert default["cache_key"] != paranoid["cache_key"]
        assert paranoid["cache_hit"] is False
        # The default preset spelled out is the same request as no
        # policy at all — byte-identical cache key, so it's a hit.
        _c, spelled, _h = post(
            url, {"script": script, "policy": "Recovery_Strict"}
        )
        assert spelled["cache_key"] == default["cache_key"]
        assert spelled["cache_hit"] is True

    def test_policy_shows_up_in_stats_and_metrics(self, served):
        _service, url = served()
        # An $env: probe: denied (and counted) only under the paranoid
        # preset.
        script = "write-host $env:COMPUTERNAME"
        _c, body, _h = post(
            url,
            {"script": script, "policy": "wild-sample-paranoid",
             "stats": True},
        )
        assert body["stats"]["policy"] == "wild-sample-paranoid"
        assert body["stats"]["policy_denials"].get("env", 0) >= 1
        _code, metrics = get(url, "/metrics")
        assert metric_value(
            metrics, 'repro_policy_denials_total{capability="env"}'
        ) >= 1

    def test_unknown_policy_is_a_400(self, served):
        _service, url = served()
        code, body, _h = post(
            url, {"script": "write-host x", "policy": "no-such"}
        )
        assert code == 400
        assert "unknown policy" in body["error"]
        code, body, _h = post(
            url, {"script": "write-host x", "policy": 42}
        )
        assert code == 400


class TestLanguageOption:
    def test_js_request_end_to_end(self, served):
        _service, url = served()
        script = "eval('conso' + 'le.log(\\'hi\\');');"
        code, body, _h = post(
            url, {"script": script, "language": "javascript"}
        )
        assert code == 200
        assert body["script"] == "console.log('hi');"
        # The language partitions the cache: the same bytes under the
        # default (PowerShell) front end are a different entry.
        _c, as_powershell, _h = post(url, {"script": script})
        assert body["cache_key"] != as_powershell["cache_key"]

    def test_unknown_language_is_a_400(self, served):
        _service, url = served()
        code, body, _h = post(
            url, {"script": "console.log(1);", "language": "cobol"}
        )
        assert code == 400
        assert "unknown language" in body["error"]
        assert "powershell" in body["languages"]
        assert "js" in body["languages"]

    def test_requests_counted_by_language(self, served):
        _service, url = served()
        post(url, {"script": "write-host hi"})
        post(url, {"script": "console.log(1);", "language": "js"})
        _code, metrics = get(url, "/metrics")
        assert metric_value(
            metrics,
            'repro_service_requests_by_language_total'
            '{language="powershell"}',
        ) == 1
        assert metric_value(
            metrics,
            'repro_service_requests_by_language_total{language="js"}',
        ) == 1
        # The unlabeled total is untouched by the new family.
        assert metric_value(
            metrics, "repro_service_requests_total"
        ) == 2
