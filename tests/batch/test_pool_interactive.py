"""Tests for the interactive :class:`BatchPool` API — ``submit()`` /
``collect()`` — which the service dispatcher uses to keep one fleet
warm across many requests (``run()`` covers the one-shot batch path).
"""

import os
import socket
import time

import pytest

from repro.batch.pool import BatchPool
from repro.batch.task import Task
from tests.batch.helpers import CRASH_MARKER, LOOP_MARKER

FAULTY = "tests.batch.helpers:faulty_worker"


def write_sample(directory, name, content):
    path = directory / name
    path.write_text(content, encoding="utf-8")
    return str(path)


def collect_all(pool, expected):
    """Drain *expected* completions; return {ticket: record}."""
    done = {}
    while len(done) < expected:
        for ticket, record in pool.collect(timeout=10.0):
            done[ticket] = record
    return done


class TestSubmitCollect:
    def test_round_trip_matches_tickets(self, tmp_path):
        pool = BatchPool(jobs=2)
        try:
            tickets = {}
            for index in range(4):
                path = write_sample(
                    tmp_path, f"s{index}.ps1", f"write-host {index}"
                )
                tickets[pool.submit(Task(path=path))] = index
            done = collect_all(pool, 4)
            assert set(done) == set(tickets)
            for ticket, record in done.items():
                assert record["status"] == "ok"
                assert record["path"].endswith(f"s{tickets[ticket]}.ps1")
        finally:
            pool.close()

    def test_collect_without_work_returns_empty(self):
        pool = BatchPool(jobs=1)
        try:
            assert pool.collect(timeout=0.05) == []
            assert pool.outstanding == 0
        finally:
            pool.close()

    def test_fleet_persists_across_submissions(self, tmp_path):
        pool = BatchPool(jobs=2)
        try:
            pool.prestart()
            first_pids = {
                worker.proc.pid for worker in pool._workers.values()
            }
            assert len(first_pids) == 2
            for round_number in range(3):
                path = write_sample(
                    tmp_path, f"r{round_number}.ps1", "write-host hi"
                )
                pool.submit(Task(path=path))
                collect_all(pool, 1)
            second_pids = {
                worker.proc.pid for worker in pool._workers.values()
            }
            # healthy workers are reused, never respawned per-task
            assert second_pids == first_pids
            assert pool.restarts == {"crash": 0, "timeout": 0}
        finally:
            pool.close()

    def test_source_task_needs_no_file(self):
        pool = BatchPool(jobs=1)
        try:
            pool.submit(
                Task(path="mem:a", source="write-host from-memory",
                     store_script=True)
            )
            (record,) = collect_all(pool, 1).values()
            assert record["status"] == "ok"
            assert "from-memory" in record["script"]
        finally:
            pool.close()


class TestRestartAccounting:
    def test_crash_counts_and_fleet_recovers(self, tmp_path):
        pool = BatchPool(jobs=1, retries=0, worker=FAULTY)
        try:
            boom = write_sample(tmp_path, "boom.ps1", f"# {CRASH_MARKER}")
            pool.submit(Task(path=boom))
            (record,) = collect_all(pool, 1).values()
            assert record["status"] == "error"
            assert pool.restarts == {"crash": 1, "timeout": 0}

            fine = write_sample(tmp_path, "fine.ps1", "write-host ok")
            pool.submit(Task(path=fine))
            (record,) = collect_all(pool, 1).values()
            assert record["status"] == "ok"
        finally:
            pool.close()

    def test_timeout_kill_counts(self, tmp_path):
        pool = BatchPool(jobs=1, timeout=0.4, kill_grace=0.2, worker=FAULTY)
        try:
            hang = write_sample(
                tmp_path, "hang.ps1", f"# {LOOP_MARKER}\nwhile(1){{}}"
            )
            pool.submit(Task(path=hang))
            (record,) = collect_all(pool, 1).values()
            assert record["status"] == "timeout"
            assert record["graceful"] is False
            assert pool.restarts == {"crash": 0, "timeout": 1}
        finally:
            pool.close()

    def test_crash_retry_then_success_still_counts(self, tmp_path):
        from tests.batch.helpers import CRASH_ONCE_MARKER

        pool = BatchPool(jobs=1, retries=1, worker=FAULTY)
        try:
            once = write_sample(
                tmp_path, "once.ps1", f"# {CRASH_ONCE_MARKER}\nwrite-host hi"
            )
            pool.submit(Task(path=once))
            (record,) = collect_all(pool, 1).values()
            assert record["status"] == "ok"
            assert record["attempts"] == 2
            assert pool.restarts["crash"] == 1
        finally:
            pool.close()


class TestLifecycle:
    def test_close_is_reusable_and_preserves_counters(self, tmp_path):
        pool = BatchPool(jobs=1, retries=0, worker=FAULTY)
        boom = write_sample(tmp_path, "boom.ps1", f"# {CRASH_MARKER}")
        pool.submit(Task(path=boom))
        collect_all(pool, 1)
        assert pool.restarts["crash"] == 1
        pool.close()
        assert pool.worker_count == 0

        # a closed pool accepts new work and keeps lifetime counters
        fine = write_sample(tmp_path, "fine.ps1", "write-host ok")
        pool.submit(Task(path=fine))
        (record,) = collect_all(pool, 1).values()
        assert record["status"] == "ok"
        assert pool.restarts["crash"] == 1
        pool.close()

    def test_close_kills_outstanding_workers(self, tmp_path):
        pool = BatchPool(jobs=1, timeout=30.0, worker=FAULTY)
        hang = write_sample(
            tmp_path, "hang.ps1", f"# {LOOP_MARKER}\nwhile(1){{}}"
        )
        pool.submit(Task(path=hang))
        # let the task dispatch, then abandon it
        pool.collect(timeout=0.3)
        pids = [worker.proc.pid for worker in pool._workers.values()]
        pool.close()
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)

    def test_close_stops_idle_workers_gracefully(self):
        pool = BatchPool(jobs=2)
        pool.prestart()
        procs = [worker.proc for worker in pool._workers.values()]
        assert len(procs) == 2
        started = time.monotonic()
        pool.close()
        # Idle workers take the stop sentinel and exit on their own;
        # nobody waits out the join deadline or gets SIGKILLed.
        assert time.monotonic() - started < 0.5
        assert [proc.exitcode for proc in procs] == [0, 0]

    def test_worker_releases_sockets_open_at_fork(self):
        # A server's connection that is open when a worker forks must
        # still read as EOF at the client once the server closes it.
        with socket.create_server(("127.0.0.1", 0)) as listener:
            client = socket.create_connection(listener.getsockname())
            server_side, _ = listener.accept()
            pool = BatchPool(jobs=1)
            try:
                pool.submit(Task(path="mem:a", source="write-host a"))
                # The worker answered, so it released what it inherited.
                collect_all(pool, 1)
                server_side.close()
                client.settimeout(5.0)
                assert client.recv(1) == b""
            finally:
                client.close()
                pool.close()

    def test_run_generator_still_works_after_interactive_use(self, tmp_path):
        pool = BatchPool(jobs=2)
        path = write_sample(tmp_path, "a.ps1", "write-host a")
        pool.submit(Task(path=path))
        collect_all(pool, 1)
        pool.close()

        tasks = [
            Task(path=write_sample(tmp_path, f"g{i}.ps1", f"write-host {i}"))
            for i in range(3)
        ]
        records = list(pool.run(tasks))
        assert len(records) == 3
        assert all(record["status"] == "ok" for record in records)

    def test_submit_rejects_bad_worker_spec_fast(self):
        pool = BatchPool(jobs=1, worker="nosuch.module:fn")
        with pytest.raises((ImportError, AttributeError, ValueError)):
            pool.submit(Task(path="x.ps1"))


class TestResize:
    def test_grow_spawns_on_demand(self, tmp_path):
        pool = BatchPool(jobs=1)
        try:
            pool.prestart()
            assert pool.worker_count == 1
            assert pool.resize(3) == 3
            pool.prestart()
            assert pool.worker_count == 3
        finally:
            pool.close()

    def test_shrink_sheds_idle_workers(self, tmp_path):
        pool = BatchPool(jobs=3)
        try:
            pool.prestart()
            assert pool.worker_count == 3
            pool.resize(1)
            assert pool.jobs == 1
            assert pool.worker_count == 1
            # the surviving fleet still does work
            path = write_sample(tmp_path, "a.ps1", "write-host a")
            pool.submit(Task(path=path))
            (record,) = collect_all(pool, 1).values()
            assert record["status"] == "ok"
        finally:
            pool.close()

    def test_shrink_spares_busy_workers(self, tmp_path):
        from tests.batch.helpers import SLEEP_MARKER

        pool = BatchPool(jobs=2, worker=FAULTY)
        try:
            slow = write_sample(
                tmp_path, "slow.ps1", f"# {SLEEP_MARKER}\nwrite-host s"
            )
            pool.submit(Task(path=slow))
            # One dispatch pass: a 0.2 s wait could also collect the
            # 0.2 s task and leave no busy worker to spare.
            pool.collect(timeout=0)
            busy = [
                worker_id
                for worker_id, state in pool._workers.items()
                if state.ticket is not None
            ]
            assert busy
            pool.resize(1)
            # the busy worker survives until its task completes
            assert busy[0] in pool._workers
            (record,) = collect_all(pool, 1).values()
            assert record["status"] == "ok"
        finally:
            pool.close()

    def test_resize_floors_at_one(self):
        pool = BatchPool(jobs=2)
        try:
            assert pool.resize(0) == 1
        finally:
            pool.close()
