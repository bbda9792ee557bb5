"""Persistence tests: snapshot/journal round-trip, corruption, warm-start.

The fleet acceptance criterion lives here: a restarted service pointed
at the same ``cache_dir`` must answer previously-seen scripts from the
persisted cache — proven by a cross-process execution counter staying
flat across the restart, not just by the service's own hit counters.
"""

import json
import os

from repro.service import CachePersistence, DeobfuscationService, ServiceConfig
from repro.service.metrics import healthz_payload
from repro.service.persist import JOURNAL_NAME, SNAPSHOT_NAME
from tests.service.helpers import COUNTER_ENV

COUNTING = "tests.service.helpers:counting_worker"


def make_persistence(tmp_path, **kwargs):
    return CachePersistence(str(tmp_path / "cache"), **kwargs)


class TestJournalRoundTrip:
    def test_append_then_load(self, tmp_path):
        writer = make_persistence(tmp_path)
        assert writer.load() == {}
        assert writer.warm_start is False
        for index in range(8):
            writer.append(f"{index:064x}", {"status": "ok", "n": index})
        writer.close()

        reader = make_persistence(tmp_path)
        entries = reader.load()
        assert len(entries) == 8
        assert entries[f"{3:064x}"] == {"status": "ok", "n": 3}
        assert reader.warm_start is True
        assert reader.loaded_entries == 8
        assert reader.skipped_records == 0

    def test_newest_duplicate_wins_and_orders_last(self, tmp_path):
        writer = make_persistence(tmp_path)
        writer.append("a" * 64, {"version": 1})
        writer.append("b" * 64, {"version": 1})
        writer.append("a" * 64, {"version": 2})
        writer.close()

        reader = make_persistence(tmp_path)
        entries = reader.load()
        assert entries["a" * 64] == {"version": 2}
        # Recency order: the re-written key moved to the fresh end, so
        # an LRU loading this evicts "b" first under pressure.
        assert list(entries) == ["b" * 64, "a" * 64]

    def test_compaction_moves_journal_into_snapshot(self, tmp_path):
        writer = make_persistence(tmp_path, compact_after=3)
        due = [
            writer.append(f"{index:064x}", {"n": index}) for index in range(3)
        ]
        assert due == [False, False, True]
        written = writer.compact(
            iter((f"{index:064x}", {"n": index}) for index in range(3))
        )
        assert written == 3
        assert os.path.getsize(writer.journal_path) == 0
        assert writer.compactions == 1

        reader = make_persistence(tmp_path)
        assert len(reader.load()) == 3
        assert reader.warm_start is True


class TestCorruptionTolerance:
    def test_garbage_truncated_and_tampered_lines_skipped(self, tmp_path):
        writer = make_persistence(tmp_path)
        writer.append("a" * 64, {"status": "ok"})
        writer.append("b" * 64, {"status": "ok"})
        writer.close()

        journal = tmp_path / "cache" / JOURNAL_NAME
        good = journal.read_bytes()
        tampered = json.dumps(
            # The embedded length no longer matches the record: a torn
            # write that happened to end on a newline.
            {"key": "c" * 64, "n": 99999, "record": {"status": "ok"}}
        ).encode("utf-8")
        journal.write_bytes(
            good
            + b"not json at all\n"
            + tampered + b"\n"
            + b'{"key": 42, "record": []}\n'
            + good.splitlines()[0][:25]  # truncated mid-write, no newline
        )

        reader = make_persistence(tmp_path)
        entries = reader.load()
        assert set(entries) == {"a" * 64, "b" * 64}
        assert reader.skipped_records == 4
        assert reader.warm_start is True

    def test_corrupt_snapshot_lines_also_counted(self, tmp_path):
        writer = make_persistence(tmp_path)
        writer.compact(iter([("a" * 64, {"status": "ok"})]))
        snapshot = tmp_path / "cache" / SNAPSHOT_NAME
        snapshot.write_bytes(snapshot.read_bytes() + b"\xff\xfe broken\n")

        reader = make_persistence(tmp_path)
        assert len(reader.load()) == 1
        assert reader.skipped_records == 1

    def test_blank_lines_are_not_counted_as_corruption(self, tmp_path):
        writer = make_persistence(tmp_path)
        writer.append("a" * 64, {"status": "ok"})
        writer.close()
        journal = tmp_path / "cache" / JOURNAL_NAME
        journal.write_bytes(journal.read_bytes() + b"\n\n")
        reader = make_persistence(tmp_path)
        assert len(reader.load()) == 1
        assert reader.skipped_records == 0


class TestServiceWarmStart:
    def service(self, tmp_path, **overrides):
        defaults = dict(
            jobs=2,
            timeout=10.0,
            queue_limit=64,
            worker=COUNTING,
            cache_dir=str(tmp_path / "cache"),
        )
        defaults.update(overrides)
        return DeobfuscationService(ServiceConfig(**defaults))

    def test_restart_answers_from_persisted_cache(self, tmp_path,
                                                  monkeypatch):
        counter = tmp_path / "executions.log"
        monkeypatch.setenv(COUNTER_ENV, str(counter))
        scripts = [f"write-host warm{index}" for index in range(10)]

        with self.service(tmp_path) as service:
            for script in scripts:
                record = service.submit(script)
                assert record["status"] == "ok"
            assert healthz_payload(service.snapshot())["warm_start"]["enabled"] is True
        executions_before = len(counter.read_text().splitlines())
        assert executions_before == 10

        with self.service(tmp_path) as restarted:
            health = healthz_payload(restarted.snapshot())
            assert health["warm_start"]["warm_start"] is True
            assert health["warm_start"]["loaded_entries"] == 10
            hits = 0
            for script in scripts:
                record = restarted.submit(script)
                assert record["status"] == "ok"
                hits += 1 if record["cache_hit"] else 0
            # The acceptance bar: >= 90% of previously-seen scripts are
            # answered without a pipeline execution.
            assert hits >= 9
            snap = restarted.snapshot()
            assert snap["persistence"]["warm_start"] is True
            assert snap["cache"]["loaded_entries"] == 10
        # Cross-process proof: the restart added no executions.
        assert len(counter.read_text().splitlines()) == executions_before

    def test_error_results_are_not_persisted(self, tmp_path):
        from tests.service.helpers import CRASH_MARKER

        with self.service(tmp_path, retries=0) as service:
            record = service.submit(f"# {CRASH_MARKER}\nwrite-host x")
            assert record["status"] == "error"
            record = service.submit("write-host keep")
            assert record["status"] == "ok"

        with self.service(tmp_path) as restarted:
            assert healthz_payload(restarted.snapshot())["warm_start"]["loaded_entries"] == 1

    def test_disabled_without_cache_dir(self, tmp_path):
        with self.service(tmp_path, cache_dir=None) as service:
            assert healthz_payload(service.snapshot())["warm_start"] == {"enabled": False}
            snap = service.snapshot()
            assert snap["persistence"] == {"enabled": False}
