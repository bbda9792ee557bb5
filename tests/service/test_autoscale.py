"""Queue-depth autoscaling of the service worker pool.

With ``max_jobs`` above ``jobs`` the dispatcher grows the fleet one
process at a time while admitted depth exceeds ``scale_up_depth`` per
worker, and shrinks back toward the ``jobs`` floor after the load has
stayed low for ``scale_down_idle`` seconds.  The tests drive real
load (sleeping worker scripts) and watch ``pool.jobs`` move.
"""

import threading
import time

from repro.service import DeobfuscationService, ServiceConfig
from repro.service.metrics import healthz_payload
from tests.service.helpers import SLEEP_MARKER

COUNTING = "tests.service.helpers:counting_worker"


def submit_burst(service, count):
    """Fire *count* unique slow scripts concurrently; join them all."""
    errors = []

    def one(index):
        try:
            service.submit(f"# {SLEEP_MARKER}\nwrite-host a{index}")
        except Exception as exc:  # pragma: no cover — surfaced below
            errors.append(exc)

    threads = [
        threading.Thread(target=one, args=(index,)) for index in range(count)
    ]
    for thread in threads:
        thread.start()
    return threads, errors


def wait_for(predicate, timeout=15.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(0.02)
    return predicate()


class TestAutoscale:
    def test_grows_under_load_and_shrinks_when_idle(self):
        config = ServiceConfig(
            jobs=1,
            max_jobs=3,
            scale_up_depth=1.0,
            scale_down_idle=0.3,
            timeout=10.0,
            queue_limit=32,
            worker=COUNTING,
        )
        with DeobfuscationService(config) as service:
            threads, errors = submit_burst(service, 8)
            grew = wait_for(lambda: service.pool.jobs >= 2)
            for thread in threads:
                thread.join(timeout=30.0)
            assert not errors
            assert grew, "pool never grew under sustained queue depth"
            assert service.counters["scale_ups"] >= 1
            assert service.pool.jobs <= 3

            # Idle: depth is 0, so after scale_down_idle the pool
            # steps back down to the floor.
            shrank = wait_for(lambda: service.pool.jobs == 1)
            assert shrank, "pool never shrank back to the floor"
            assert service.counters["scale_downs"] >= 1
            snap = service.snapshot()
            assert snap["pool_size"] == 1
            assert snap["counters"]["scale_ups"] >= 1

    def test_disabled_without_max_jobs(self):
        config = ServiceConfig(
            jobs=1,
            timeout=10.0,
            queue_limit=32,
            worker=COUNTING,
        )
        with DeobfuscationService(config) as service:
            threads, errors = submit_burst(service, 4)
            for thread in threads:
                thread.join(timeout=30.0)
            assert not errors
            assert service.pool.jobs == 1
            assert service.counters["scale_ups"] == 0
            assert service.counters["scale_downs"] == 0

    def test_healthz_reports_live_pool_size(self):
        config = ServiceConfig(jobs=2, timeout=5.0, worker=COUNTING)
        with DeobfuscationService(config) as service:
            assert healthz_payload(service.snapshot())["pool_size"] == 2
