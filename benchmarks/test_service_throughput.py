"""(ours) — ``repro serve`` throughput: cache-hit speedup under load.

The acceptance scenario for the service PR: a 2-worker fleet takes 100
concurrent HTTP requests spread over 10 unique obfuscated scripts.
Single-flight plus the content-addressed cache must hold the hit ratio
at ≥ 90%, drop nothing, return byte-identical results to the offline
``repro deobfuscate`` path, and answer cached requests ≥ 10× faster
than cold pipeline executions.
"""

import json
import statistics
import threading
import time
import urllib.request

import pytest

from benchmarks.bench_utils import render_table, write_result
from benchmarks.trajectory import stage_metrics
from repro import Deobfuscator
from repro.service import (
    DeobfuscationService,
    ServiceConfig,
    start_async_server,
)

UNIQUE_SCRIPTS = 10
TOTAL_REQUESTS = 100


@pytest.fixture(scope="module")
def scripts():
    from repro.dataset import generate_corpus

    # Joined pairs make each sample heavy enough that pipeline time,
    # not HTTP overhead, dominates the cold path being compared.
    samples = generate_corpus(2 * UNIQUE_SCRIPTS, seed=7321)
    return [
        samples[2 * index].script + "\n" + samples[2 * index + 1].script
        for index in range(UNIQUE_SCRIPTS)
    ]


@pytest.fixture(scope="module")
def served():
    service = DeobfuscationService(
        ServiceConfig(jobs=2, timeout=60.0, queue_limit=128)
    )
    handle = start_async_server(service)
    host, port = handle.server_address
    yield service, f"http://{host}:{port}"
    handle.shutdown(drain=True)


def post(url, script):
    request = urllib.request.Request(
        url + "/deobfuscate",
        data=json.dumps({"script": script}).encode("utf-8"),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    started = time.monotonic()
    with urllib.request.urlopen(request, timeout=120.0) as response:
        body = json.loads(response.read())
        return response.status, body, time.monotonic() - started


def scrape(url, name):
    with urllib.request.urlopen(url + "/metrics", timeout=30.0) as response:
        for line in response.read().decode("utf-8").splitlines():
            if line.startswith(name + " "):
                return float(line.rsplit(" ", 1)[1])
    raise AssertionError(f"metric {name} not found")


def test_service_throughput(served, scripts):
    service, url = served

    # -- cold pass: 10 unique scripts execute the pipeline ------------------
    cold_seconds = []
    cold_results = {}
    for script in scripts:
        code, body, elapsed = post(url, script)
        assert code == 200 and body["status"] == "ok"
        assert body["cache_hit"] is False and body["coalesced"] is False
        cold_seconds.append(elapsed)
        cold_results[script] = body["script"]

    # -- fidelity: identical to the offline repro deobfuscate path ----------
    tool = Deobfuscator()
    for script in scripts:
        assert cold_results[script] == tool.deobfuscate(script).script

    # -- warm latency: sequential cache hits --------------------------------
    warm_seconds = []
    for script in scripts:
        code, body, elapsed = post(url, script)
        assert code == 200 and body["cache_hit"] is True
        warm_seconds.append(elapsed)

    # -- load: 100 concurrent requests over the same 10 scripts -------------
    outcomes = [None] * TOTAL_REQUESTS
    barrier = threading.Barrier(TOTAL_REQUESTS)

    def one(slot):
        barrier.wait(timeout=60.0)
        outcomes[slot] = post(url, scripts[slot % UNIQUE_SCRIPTS])

    started = time.monotonic()
    threads = [
        threading.Thread(target=one, args=(slot,))
        for slot in range(TOTAL_REQUESTS)
    ]
    for worker in threads:
        worker.start()
    for worker in threads:
        worker.join(timeout=120.0)
    load_wall = time.monotonic() - started

    # zero dropped, every answer correct and served from cache
    assert all(outcome is not None for outcome in outcomes)
    for slot, (code, body, _elapsed) in enumerate(outcomes):
        assert code == 200
        assert body["script"] == cold_results[scripts[slot % UNIQUE_SCRIPTS]]

    hit_ratio = scrape(url, "repro_service_cache_hit_ratio")
    executions = service.counters["executions"]
    cold_p50 = statistics.median(cold_seconds)
    warm_p50 = statistics.median(warm_seconds)
    speedup = cold_p50 / warm_p50 if warm_p50 else float("inf")

    text = render_table(
        f"Service throughput — {TOTAL_REQUESTS} concurrent requests over "
        f"{UNIQUE_SCRIPTS} unique scripts, 2 workers",
        ["Measure", "value"],
        [
            ["pipeline executions", executions],
            ["cache hit ratio", f"{hit_ratio:.3f}"],
            ["cold p50 (ms)", f"{cold_p50 * 1000:.1f}"],
            ["cache-hit p50 (ms)", f"{warm_p50 * 1000:.1f}"],
            ["cache-hit speedup", f"{speedup:.1f}x"],
            ["load wall (s)", f"{load_wall:.2f}"],
            [
                "load req/s",
                f"{TOTAL_REQUESTS / load_wall:.0f}" if load_wall else "inf",
            ],
        ],
    )
    write_result("service_throughput", text)
    stage_metrics("service_throughput", {
        "executions": executions,
        "cache_hit_ratio": hit_ratio,
        "cold_p50_ms": cold_p50 * 1000,
        "warm_p50_ms": warm_p50 * 1000,
        "cache_speedup": speedup,
        "requests_per_sec": (
            TOTAL_REQUESTS / load_wall if load_wall else 0.0
        ),
    })

    # acceptance: executions stayed at one per unique script, ratio >= 90%,
    # and the cached path is an order of magnitude faster than cold
    assert executions == UNIQUE_SCRIPTS
    assert hit_ratio >= 0.9
    assert speedup >= 10.0

