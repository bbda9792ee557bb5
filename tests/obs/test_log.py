"""Tests for the structured event log (:mod:`repro.obs.log`).

The serialized ``LogEvent`` shape is a wire format (``--log-file``
JSONL, the ``/statusz`` tail, ``repro logs``), so a golden file under
``tests/obs/golden/`` pins it exactly like the PipelineStats schema.
If the shape changes on purpose: bump ``LOG_SCHEMA_VERSION`` and
regenerate with ``python tests/obs/regen_golden.py``.
"""

import json
import multiprocessing
import os
import threading
import time

import pytest

import repro.obs.log as log_module
from repro.obs.log import (
    LOG_SCHEMA_VERSION,
    LogEvent,
    LogRing,
    LogSink,
    configure_logging,
    get_logger,
    iter_events,
    log_ring,
    log_tail,
    logging_enabled,
    reset_logging,
)
from repro.obs.trace import (
    SpanRecorder,
    TraceContext,
    activate_recorder,
    deactivate_recorder,
)

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "golden")
GOLDEN_LOG = os.path.join(GOLDEN_DIR, "log_events.jsonl")


def build_golden_log_lines():
    """The golden JSONL lines (also used by regen_golden.py).

    One event per shape variant: bare, with fields, with trace
    correlation — fixed timestamps so the file is deterministic.
    """
    events = [
        LogEvent(
            ts=1700000000.0,
            level="info",
            logger="service.core",
            message="service started",
        ),
        LogEvent(
            ts=1700000000.25,
            level="warning",
            logger="policy.audit",
            message="policy denied capability",
            fields={
                "capability": "command",
                "name": "invoke-webrequest",
                "rule": "blocklist",
                "policy": "recovery-strict",
            },
        ),
        LogEvent(
            ts=1700000001.5,
            level="error",
            logger="batch.pool",
            message="worker died; respawning",
            fields={"pid": 4242, "exit_code": -9},
            trace_id="0123456789abcdef0123456789abcdef",
            span_id="0123456789abcdef",
        ),
    ]
    return [json.dumps(e.to_dict(), sort_keys=True) for e in events]


@pytest.fixture(autouse=True)
def _reset_logging_state():
    reset_logging()
    yield
    reset_logging()


class TestGoldenSchema:
    def test_serialized_events_match_golden(self):
        with open(GOLDEN_LOG, encoding="utf-8") as handle:
            golden = [line for line in handle.read().splitlines() if line]
        assert build_golden_log_lines() == golden

    def test_golden_lines_round_trip(self, tmp_path):
        path = tmp_path / "events.jsonl"
        path.write_text(
            "\n".join(build_golden_log_lines()) + "\n", encoding="utf-8"
        )
        events = list(iter_events(str(path)))
        assert [
            json.dumps(e.to_dict(), sort_keys=True) for e in events
        ] == build_golden_log_lines()

    def test_every_golden_line_carries_the_schema_version(self):
        for line in build_golden_log_lines():
            assert json.loads(line)["schema_version"] == LOG_SCHEMA_VERSION


class TestDisabledDefault:
    def test_logging_is_off_by_default(self):
        assert not logging_enabled()
        assert log_ring() is None
        get_logger("x").warning("dropped on the floor", a=1)
        assert log_tail() == []

    def test_configure_then_reset(self):
        configure_logging(level="debug")
        assert logging_enabled()
        get_logger("x").debug("hello")
        assert len(log_tail()) == 1
        reset_logging()
        assert not logging_enabled()
        assert log_tail() == []


class TestLevelsAndFilters:
    def test_threshold_drops_lower_levels(self):
        configure_logging(level="warning")
        log = get_logger("svc")
        log.debug("no")
        log.info("no")
        log.warning("yes")
        log.error("yes")
        assert [e["level"] for e in log_tail()] == ["warning", "error"]

    def test_unknown_level_rejected(self):
        with pytest.raises(ValueError):
            configure_logging(level="verbose")

    def test_tail_filters_by_level_logger_and_trace(self):
        configure_logging(level="debug")
        log_a = get_logger("service.core")
        log_b = get_logger("policy.audit")
        log_a.info("one")
        log_b.warning("two", trace_id="t" * 32)
        log_a.error("three")
        assert [
            e["message"] for e in log_tail(min_level="warning")
        ] == ["two", "three"]
        assert [
            e["message"] for e in log_tail(logger="policy")
        ] == ["two"]
        assert [
            e["message"] for e in log_tail(trace_id="t" * 32)
        ] == ["two"]

    def test_tail_limit_keeps_newest_oldest_first(self):
        configure_logging(level="debug")
        log = get_logger("x")
        for index in range(10):
            log.info(f"m{index}")
        assert [e["message"] for e in log_tail(limit=3)] == [
            "m7", "m8", "m9",
        ]

    def test_none_valued_fields_are_dropped(self):
        configure_logging(level="debug")
        get_logger("x").info("m", keep=1, drop=None)
        assert log_tail()[0]["fields"] == {"keep": 1}


class TestRing:
    def test_ring_is_bounded(self):
        ring = LogRing(capacity=4)
        for index in range(10):
            ring.append(
                LogEvent(
                    ts=float(index), level="info",
                    logger="x", message=f"m{index}",
                )
            )
        assert ring.appended == 10
        assert [e.message for e in ring.tail(limit=100)] == [
            "m6", "m7", "m8", "m9",
        ]


class TestTraceCorrelation:
    def test_active_recorder_stamps_trace_and_span(self):
        configure_logging(level="debug")
        recorder = SpanRecorder(
            context=TraceContext.new(), process="test"
        )
        span = recorder.begin("work")
        activate_recorder(recorder)
        try:
            get_logger("x").info("inside")
        finally:
            deactivate_recorder()
            recorder.end(span)
        get_logger("x").info("outside")
        inside, outside = log_tail()
        assert inside["trace_id"] == recorder.trace_id
        assert inside["span_id"]
        assert "trace_id" not in outside

    def test_explicit_trace_field_wins_over_active_recorder(self):
        configure_logging(level="debug")
        recorder = SpanRecorder(
            context=TraceContext.new(), process="test"
        )
        activate_recorder(recorder)
        try:
            get_logger("x").info("pinned", trace_id="f" * 32)
        finally:
            deactivate_recorder()
        event = log_tail()[0]
        assert event["trace_id"] == "f" * 32
        assert event.get("fields", {}).get("trace_id") is None


def _log_from_child():
    get_logger("child").info("from the child")


class TestSink:
    def test_sink_writes_jsonl(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        configure_logging(level="debug", path=str(path))
        get_logger("x").info("persisted", n=1)
        reset_logging()  # closes the sink
        events = list(iter_events(str(path)))
        assert len(events) == 1
        assert events[0].message == "persisted"
        assert events[0].fields == {"n": 1}

    def test_rotation_replaces_previous(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        sink = LogSink(str(path), rotate_bytes=4096)
        big = "x" * 600
        for index in range(20):
            sink.write(
                LogEvent(
                    ts=float(index), level="info",
                    logger="r", message=big,
                )
            )
        sink.close()
        assert sink.rotations >= 1
        assert os.path.exists(str(path) + ".1")
        # Both generations still parse as whole events.
        for name in (str(path), str(path) + ".1"):
            for event in iter_events(name):
                assert event.message == big

    def test_fork_while_another_thread_holds_the_sink(self, tmp_path):
        # A forked worker must not inherit the sink lock from a parent
        # thread caught mid-write, or its first event blocks forever.
        path = tmp_path / "ev.jsonl"
        configure_logging(level="debug", path=str(path))
        lock = log_module._STATE.sink._lock
        holding = threading.Event()

        def write_slowly():
            with lock:
                holding.set()
                time.sleep(0.3)

        writer = threading.Thread(target=write_slowly)
        writer.start()
        assert holding.wait(5.0)
        child = multiprocessing.get_context("fork").Process(
            target=_log_from_child
        )
        child.start()
        child.join(10.0)
        writer.join(5.0)
        if child.is_alive():
            child.kill()
            child.join()
        assert child.exitcode == 0
        reset_logging()
        assert [e.message for e in iter_events(str(path))] == [
            "from the child"
        ]

    def test_iter_events_skips_garbage_lines(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        good = build_golden_log_lines()[0]
        path.write_text(
            good + "\nnot json\n[1,2]\n" + good[: len(good) // 2] + "\n"
            + good + "\n",
            encoding="utf-8",
        )
        events = list(iter_events(str(path)))
        assert len(events) == 2
        assert all(e.message == "service started" for e in events)


class TestInjectedClock:
    def test_events_use_the_configured_clock(self):
        ticks = iter([100.0, 200.0])
        configure_logging(level="debug", clock=lambda: next(ticks))
        log = get_logger("x")
        log.info("a")
        log.info("b")
        assert [e["ts"] for e in log_tail()] == [100.0, 200.0]
