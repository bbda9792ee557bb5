"""Unit tests for the trace identity layer (repro.obs.trace) and the
OTel-style JSONL exporter (repro.obs.export)."""

import json

import pytest

from repro.obs.export import (
    SpanExporter,
    read_raw_lines,
    read_spans,
    render_waterfall,
    span_from_otel,
    span_to_otel,
    summarize_traces,
    validate_spans,
)
from repro.obs.trace import (
    SPAN_STATUSES,
    TRACE_SCHEMA_VERSION,
    SpanRecorder,
    TraceContext,
    TraceSpan,
    activate_recorder,
    active_recorder,
    deactivate_recorder,
    drain_active_spans,
    new_span_id,
    new_trace_id,
    parse_traceparent,
)


class FakeClock:
    def __init__(self, start=1000.0, step=0.25):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


def make_ids(prefix="aa"):
    counter = [0]

    def factory():
        counter[0] += 1
        return f"{counter[0]:016x}"

    return factory


class TestTraceContext:
    def test_new_mints_well_formed_ids(self):
        ctx = TraceContext.new()
        assert len(ctx.trace_id) == 32
        assert len(ctx.span_id) == 16
        int(ctx.trace_id, 16)
        int(ctx.span_id, 16)
        assert ctx.parent_span_id is None

    def test_child_keeps_trace_and_parents_on_self(self):
        ctx = TraceContext.new()
        child = ctx.child()
        assert child.trace_id == ctx.trace_id
        assert child.span_id != ctx.span_id
        assert child.parent_span_id == ctx.span_id

    def test_dict_round_trip(self):
        ctx = TraceContext.new().child()
        assert TraceContext.from_dict(ctx.to_dict()) == ctx

    def test_dict_round_trip_without_parent(self):
        ctx = TraceContext.new()
        data = ctx.to_dict()
        assert "parent_span_id" not in data
        assert TraceContext.from_dict(data) == ctx

    def test_traceparent_round_trip(self):
        ctx = TraceContext.new()
        parsed = parse_traceparent(ctx.to_traceparent())
        assert parsed is not None
        assert parsed.trace_id == ctx.trace_id
        assert parsed.span_id == ctx.span_id

    @pytest.mark.parametrize(
        "header",
        [
            "",
            "garbage",
            "00-short-ffffffffffffffff-01",
            "00-" + "g" * 32 + "-" + "f" * 16 + "-01",   # not hex
            "00-" + "0" * 32 + "-" + "f" * 16 + "-01",   # all-zero trace
            "00-" + "f" * 32 + "-" + "0" * 16 + "-01",   # all-zero span
            "00-" + "f" * 32 + "-" + "f" * 16,           # missing flags
        ],
    )
    def test_malformed_traceparent_is_none(self, header):
        assert parse_traceparent(header) is None

    def test_traceparent_lowercases(self):
        header = "00-" + "AB" * 16 + "-" + "CD" * 8 + "-01"
        parsed = parse_traceparent(header)
        assert parsed.trace_id == "ab" * 16
        assert parsed.span_id == "cd" * 8


class TestSpanRecorder:
    def test_root_span_takes_promised_id(self):
        ctx = TraceContext.new()
        recorder = SpanRecorder(context=ctx, process="test")
        root = recorder.begin("root")
        assert root.span_id == ctx.span_id
        assert root.parent_span_id is None
        assert root.trace_id == ctx.trace_id

    def test_root_span_attaches_to_remote_parent(self):
        ctx = TraceContext.new().child()
        recorder = SpanRecorder(context=ctx)
        root = recorder.begin("root")
        assert root.span_id == ctx.span_id
        assert root.parent_span_id == ctx.parent_span_id

    def test_nesting_parents_on_enclosing_span(self):
        recorder = SpanRecorder(clock=FakeClock(), id_factory=make_ids())
        with recorder.span("outer") as outer:
            with recorder.span("inner") as inner:
                assert inner.parent_span_id == outer.span_id
            with recorder.span("sibling") as sibling:
                assert sibling.parent_span_id == outer.span_id
        assert [s.name for s in recorder.spans] == [
            "outer", "inner", "sibling",
        ]
        assert all(s.end_unix is not None for s in recorder.spans)

    def test_children_are_the_direct_ones_in_start_order(self):
        recorder = SpanRecorder(clock=FakeClock(), id_factory=make_ids())
        with recorder.span("outer") as outer:
            with recorder.span("first"):
                with recorder.span("grandchild"):
                    pass
            with recorder.span("second"):
                pass
        assert [s.name for s in recorder.children(outer)] == [
            "first", "second",
        ]

    def test_second_top_level_span_is_root_sibling(self):
        ctx = TraceContext.new().child()
        recorder = SpanRecorder(context=ctx, id_factory=make_ids())
        first = recorder.begin("first")
        recorder.end(first)
        second = recorder.begin("second")
        assert second.span_id != first.span_id
        assert second.parent_span_id == ctx.parent_span_id

    def test_current_context_points_at_open_span(self):
        recorder = SpanRecorder()
        assert recorder.current_context() == recorder.context
        with recorder.span("open") as span:
            inherited = recorder.current_context()
            assert inherited.span_id == span.span_id
            assert inherited.trace_id == recorder.trace_id

    def test_error_status_on_raise(self):
        recorder = SpanRecorder()
        with pytest.raises(ValueError):
            with recorder.span("boom"):
                raise ValueError("x")
        assert recorder.spans[0].status == "error"

    def test_flush_open_closes_everything_aborted(self):
        recorder = SpanRecorder(clock=FakeClock())
        recorder.begin("outer")
        recorder.begin("inner")
        assert recorder.flush_open() == 2
        assert {s.status for s in recorder.spans} == {"aborted"}
        assert all(s.end_unix is not None for s in recorder.spans)
        assert recorder.flush_open() == 0

    def test_end_drains_spans_left_open_inside(self):
        recorder = SpanRecorder(clock=FakeClock())
        outer = recorder.begin("outer")
        recorder.begin("leaked")
        recorder.end(outer, status="ok")
        assert all(s.end_unix is not None for s in recorder.spans)

    def test_end_is_idempotent(self):
        clock = FakeClock()
        recorder = SpanRecorder(clock=clock)
        span = recorder.begin("once")
        recorder.end(span)
        closed_at = span.end_unix
        recorder.end(span)
        assert span.end_unix == closed_at

    def test_statuses_are_known(self):
        assert set(SPAN_STATUSES) == {"ok", "error", "aborted"}


class TestActiveRecorderRegistry:
    def test_drain_serializes_and_deactivates(self):
        recorder = SpanRecorder(clock=FakeClock())
        recorder.begin("open")
        activate_recorder(recorder)
        assert active_recorder() is recorder
        payloads = drain_active_spans(status="aborted")
        assert active_recorder() is None
        assert len(payloads) == 1
        assert payloads[0]["status"] == "aborted"
        assert payloads[0]["trace_id"] == recorder.trace_id

    def test_drain_without_active_recorder_is_empty(self):
        deactivate_recorder()
        assert drain_active_spans() == []


class TestOtelSerialization:
    def test_round_trip(self):
        span = TraceSpan(
            name="pipeline",
            trace_id=new_trace_id(),
            span_id=new_span_id(),
            parent_span_id=new_span_id(),
            start_unix=100.0,
            end_unix=101.5,
            status="aborted",
            process="worker",
            attributes={"path": "x.ps1"},
        )
        assert span_from_otel(span_to_otel(span)) == span

    def test_otel_shape(self):
        span = TraceSpan(
            name="request",
            trace_id="ab" * 16,
            span_id="cd" * 8,
            start_unix=1.0,
            end_unix=2.0,
        )
        data = span_to_otel(span, service_name="repro-test")
        assert data["schemaVersion"] == TRACE_SCHEMA_VERSION
        assert data["traceId"] == "ab" * 16
        assert data["spanId"] == "cd" * 8
        assert data["startTimeUnixNano"] == 1_000_000_000
        assert data["endTimeUnixNano"] == 2_000_000_000
        assert data["status"]["code"] == "STATUS_CODE_OK"
        assert data["resource"]["service.name"] == "repro-test"
        assert "parentSpanId" not in data

    def test_non_ok_status_maps_to_error_code_and_attribute(self):
        span = TraceSpan(
            name="worker", trace_id="ab" * 16, span_id="cd" * 8,
            start_unix=0.0, end_unix=1.0, status="aborted",
        )
        data = span_to_otel(span)
        assert data["status"]["code"] == "STATUS_CODE_ERROR"
        assert data["attributes"]["repro.status"] == "aborted"
        assert span_from_otel(data).status == "aborted"


class TestExporterAndValidation:
    def _recorded(self):
        recorder = SpanRecorder(
            clock=FakeClock(), id_factory=make_ids(), process="test"
        )
        with recorder.span("root"):
            with recorder.span("child"):
                pass
        return recorder

    def test_export_and_read_back(self, tmp_path):
        recorder = self._recorded()
        path = str(tmp_path / "spans.jsonl")
        with SpanExporter(path) as exporter:
            assert exporter.export(recorder.spans) == 2
        spans = read_spans(path)
        assert [s.name for s in spans] == ["root", "child"]
        assert validate_spans(read_raw_lines(path)) == []

    def test_export_skips_empty(self, tmp_path):
        path = str(tmp_path / "spans.jsonl")
        with SpanExporter(path) as exporter:
            assert exporter.export([]) == 0
        assert read_spans(path) == []

    def test_reader_tolerates_garbage_lines(self, tmp_path):
        recorder = self._recorded()
        path = str(tmp_path / "spans.jsonl")
        with SpanExporter(path) as exporter:
            exporter.export(recorder.spans)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("{truncated\n\n")
        assert len(read_spans(path)) == 2

    def test_validate_flags_bad_schema_version(self):
        line = span_to_otel(
            TraceSpan(name="x", trace_id="ab" * 16, span_id="cd" * 8)
        )
        line["schemaVersion"] = 99
        problems = validate_spans([line])
        assert any("schemaVersion" in p for p in problems)

    def test_validate_flags_malformed_ids_and_times(self):
        problems = validate_spans([
            {
                "schemaVersion": TRACE_SCHEMA_VERSION,
                "traceId": "nope",
                "spanId": "short",
                "name": "",
                "startTimeUnixNano": 10,
                "endTimeUnixNano": 5,
            }
        ])
        assert any("traceId" in p for p in problems)
        assert any("spanId" in p for p in problems)
        assert any("no name" in p for p in problems)
        assert any("precedes" in p for p in problems)

    def test_validate_flags_dangling_parent(self):
        recorder = self._recorded()
        lines = [span_to_otel(s) for s in recorder.spans]
        lines[1]["parentSpanId"] = "0123456789abcdef"
        problems = validate_spans(lines)
        assert any("parentSpanId" in p for p in problems)

    def test_validate_allows_remote_parent_on_trace_root(self):
        # A request that joined a caller's trace via traceparent exports
        # its root with a parent the file cannot contain.
        ctx = TraceContext.new().child()
        recorder = SpanRecorder(context=ctx, clock=FakeClock())
        with recorder.span("request"):
            with recorder.span("execute"):
                pass
        lines = [span_to_otel(s) for s in recorder.spans]
        assert lines[0]["parentSpanId"] == ctx.parent_span_id
        assert validate_spans(lines) == []

    def test_validate_flags_self_parent(self):
        span = TraceSpan(
            name="x", trace_id="ab" * 16, span_id="cd" * 8,
            parent_span_id="cd" * 8, start_unix=0.0, end_unix=1.0,
        )
        problems = validate_spans([span_to_otel(span)])
        assert any("own parent" in p for p in problems)

    def test_export_dicts_round_trips_worker_payloads(self, tmp_path):
        recorder = self._recorded()
        payloads = [s.to_dict() for s in recorder.spans]
        path = str(tmp_path / "spans.jsonl")
        with SpanExporter(path) as exporter:
            assert exporter.export_dicts(payloads) == 2
        assert [s.to_dict() for s in read_spans(path)] == payloads


class TestWaterfall:
    def test_renders_tree_with_status_and_process(self):
        recorder = SpanRecorder(
            clock=FakeClock(), id_factory=make_ids(), process="svc"
        )
        recorder.begin("request")
        recorder.begin("worker")
        recorder.flush_open(status="aborted")
        text = render_waterfall(recorder.spans)
        lines = text.splitlines()
        assert lines[0].startswith(f"trace {recorder.trace_id}")
        assert "request" in lines[1]
        assert "worker" in lines[2]
        assert lines[2].index("worker") > lines[1].index("request")
        assert "[aborted]" in lines[2]
        assert "(svc)" in lines[1]

    def test_orphans_render_at_top_level(self):
        span = TraceSpan(
            name="lost", trace_id="ab" * 16, span_id="cd" * 8,
            parent_span_id="ef" * 8, start_unix=0.0, end_unix=1.0,
        )
        text = render_waterfall([span])
        assert "lost" in text

    def test_summarize_traces(self):
        recorder = SpanRecorder(clock=FakeClock(start=0.0, step=1.0))
        with recorder.span("a"):
            pass
        rows = summarize_traces(recorder.spans)
        assert rows == [(recorder.trace_id, 1, 1.0)]

    def test_waterfall_json_safe(self):
        recorder = SpanRecorder(clock=FakeClock())
        with recorder.span("root", note="hi"):
            pass
        payload = json.dumps([span_to_otel(s) for s in recorder.spans])
        assert "root" in payload
