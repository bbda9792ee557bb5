"""Tests for the live ``/statusz`` status page and its plumbing.

Covers the page on the asyncio edge, the trace-correlation chain it
is built for — a slow request's trace_id must be findable in the
rolling-window exemplar, the event-log tail, and the ``--log-file``
JSONL — plus the fleet-merge pieces: the labeled
request-duration histograms ``merge_snapshots`` folds per
language|policy, and the journal-corruption counter surfaced through
``/healthz`` and ``repro_service_cache_journal_dropped_total``.
"""

import json
import threading

import pytest

from repro.obs import Histogram
from repro.obs.log import (
    configure_logging,
    iter_events,
    reset_logging,
)
from repro.service import DeobfuscationService, ServiceConfig
from repro.service.metrics import (
    STATUSZ_SCHEMA_VERSION,
    healthz_payload,
    merge_snapshots,
    render_metrics,
)
from repro.service.persist import JOURNAL_NAME, CachePersistence
from tests.service.helpers import SLEEP_MARKER
from tests.service.test_service import get, metric_value, post

COUNTING = "tests.service.helpers:counting_worker"


@pytest.fixture(autouse=True)
def _logging_state():
    reset_logging()
    yield
    reset_logging()


class TestStatuszAsync:
    def test_statusz_on_the_asyncio_front_end(self, served):
        configure_logging(level="debug")
        _service, url = served()
        code, body, _headers = post(url, {"script": "write-host s1"})
        assert code == 200

        status, text = get(url, "/statusz")
        assert status == 200
        payload = json.loads(text)
        assert payload["schema_version"] == STATUSZ_SCHEMA_VERSION
        assert payload["instances"] == 1

        one = payload["windows"]["1m"]
        assert one["requests"] == 1
        assert one["observations"] == 1
        assert one["latency_p50_ms"] > 0
        # The exemplar is the request we just made.
        assert one["exemplar"]["trace_id"] == body["trace_id"]

        # Per-language|policy latency survives into the payload.
        assert "powershell|recovery-strict" in payload["latency_by"]
        entry = payload["latency_by"]["powershell|recovery-strict"]
        assert entry["count"] == 1
        assert entry["language"] == "powershell"

        # The tail carries a trace-tagged accounting event.
        finished = [
            event
            for event in payload["log_tail"]
            if event["message"] == "request finished"
        ]
        assert finished
        assert finished[-1]["trace_id"] == body["trace_id"]

        # The windows above derive from the embedded window_raw.
        assert payload["window_raw"]["slots"]

    def test_statusz_without_logging_still_serves(self, served):
        _service, url = served()
        post(url, {"script": "write-host s2"})
        status, text = get(url, "/statusz")
        payload = json.loads(text)
        assert status == 200
        assert payload["log_tail"] == []
        assert payload["windows"]["1m"]["requests"] == 1


class TestSlowRequestCorrelation:
    def test_slow_trace_in_exemplar_tail_and_log_file(
        self, served, tmp_path
    ):
        log_file = tmp_path / "events.jsonl"
        # Configure before the service starts: forked workers inherit
        # the sink handle and append their pipeline events to it.
        configure_logging(level="debug", path=str(log_file))
        _service, url = served(worker=COUNTING, timeout=30.0)

        code, _fast, _h = post(url, {"script": "write-host quick"})
        assert code == 200
        code, slow, _h = post(
            url, {"script": f"write-host go # {SLEEP_MARKER}"}
        )
        assert code == 200
        trace_id = slow["trace_id"]

        status, text = get(url, "/statusz")
        payload = json.loads(text)
        one = payload["windows"]["1m"]
        assert one["requests"] == 2
        # The slow request dominates the window's exemplar...
        assert one["exemplar"]["trace_id"] == trace_id
        assert one["exemplar"]["value_ms"] >= 800
        # ...and the tail's accounting event carries the same trace.
        assert any(
            event.get("trace_id") == trace_id
            for event in payload["log_tail"]
        )
        # The worker's own pipeline events land in the shared JSONL
        # sink under the same trace — one grep finds the whole story.
        file_traces = {
            event.trace_id
            for event in iter_events(str(log_file))
            if event.trace_id
        }
        assert trace_id in file_traces


class TestJournalDroppedSurfacing:
    def make_corrupt_cache(self, tmp_path):
        directory = str(tmp_path / "cache")
        writer = CachePersistence(directory)
        writer.load()
        writer.append("a" * 64, {"status": "ok", "script": "x"})
        writer.close()
        journal = tmp_path / "cache" / JOURNAL_NAME
        journal.write_bytes(
            journal.read_bytes() + b"not json at all\n{broken\n"
        )
        return directory

    def test_healthz_and_metric_report_dropped_journal_lines(
        self, tmp_path
    ):
        directory = self.make_corrupt_cache(tmp_path)
        service = DeobfuscationService(
            ServiceConfig(jobs=1, queue_limit=4, cache_dir=directory)
        ).start()
        try:
            health = healthz_payload(service.snapshot())
            warm = health["warm_start"]
            assert warm["warm_start"] is True
            assert warm["journal_skipped_records"] == 2
            text = render_metrics(service.snapshot())
            assert metric_value(
                text, "repro_service_cache_journal_dropped_total"
            ) == 2
        finally:
            service.close()

    def test_corrupt_journal_drops_are_logged(self, tmp_path):
        configure_logging(level="debug")
        directory = self.make_corrupt_cache(tmp_path)
        from repro.obs.log import log_tail

        reader = CachePersistence(directory)
        reader.load()
        reader.close()
        dropped = [
            event
            for event in log_tail(limit=100, logger="service.persist")
            if event["message"].startswith("dropped corrupt")
        ]
        assert len(dropped) == 2
        assert all(
            event["fields"]["file"] == JOURNAL_NAME for event in dropped
        )


class TestLabeledHistogramMerge:
    def snapshot_with(self, label: str, values, trace: str):
        hist = Histogram()
        for value in values:
            hist.observe(value, trace)
        return {
            "counters": {"requests": len(values)},
            "request_duration_by": {label: hist.to_dict()},
        }

    def test_merge_snapshots_folds_per_label(self):
        merged = merge_snapshots(
            {
                "a": self.snapshot_with(
                    "powershell|recovery-strict", [0.01, 0.02], "t-a"
                ),
                "b": self.snapshot_with(
                    "powershell|recovery-strict", [4.0], "t-slow"
                ),
                "c": self.snapshot_with(
                    "js|verify-observing", [0.5], "t-js"
                ),
            }
        )
        by = merged["request_duration_by"]
        assert set(by) == {
            "powershell|recovery-strict",
            "js|verify-observing",
        }
        ps = Histogram.from_dict(by["powershell|recovery-strict"])
        assert ps.count == 3
        # The slow instance's exemplar survives the label-wise merge.
        assert ps.worst_exemplar()[0] == "t-slow"

    def test_render_metrics_emits_one_labeled_family(self):
        merged = merge_snapshots(
            {
                "a": self.snapshot_with(
                    "powershell|recovery-strict", [0.01], "t-a"
                ),
                "b": self.snapshot_with(
                    "js|verify-observing", [0.5], "t-js"
                ),
            }
        )
        text = render_metrics(merged)
        labeled = [
            line
            for line in text.splitlines()
            if line.startswith(
                "repro_service_request_duration_by_seconds_bucket"
            )
        ]
        assert any('language="powershell"' in line for line in labeled)
        assert any('language="js"' in line for line in labeled)
        assert all('policy="' in line for line in labeled)
        # One HELP/TYPE header for the whole family, despite two series.
        assert (
            text.count(
                "# TYPE repro_service_request_duration_by_seconds "
                "histogram"
            )
            == 1
        )

    def test_labels_render_on_the_single_instance_path(self):
        snapshot = self.snapshot_with(
            "powershell|recovery-strict", [0.25], "t-one"
        )
        text = render_metrics(snapshot)
        assert (
            'repro_service_request_duration_by_seconds_count'
            '{language="powershell",policy="recovery-strict"}'
        ) in text
