"""Service-side tracing and histogram-metrics tests.

The acceptance scenario: one POST /deobfuscate with tracing enabled
yields a single exported trace covering request admission → cache
lookup → worker execution → the pipeline phases, all sharing one
trace_id across the process boundary — plus latency histograms whose
buckets carry slow-request trace exemplars.
"""

import json
import urllib.error
import urllib.request

import pytest

from repro.obs.export import (
    read_raw_lines,
    read_spans,
    render_waterfall,
    validate_spans,
)
from repro.obs.hist import Histogram
from repro.obs.trace import TraceContext
from repro.service import DeobfuscationService, ServiceConfig
from repro.service.metrics import render_metrics

SCRIPT = "I`E`X ('wri'+'te-host hi')\n$a = 'mal'+'ware'\n"


def make_service(tmp_path, **overrides):
    defaults = dict(
        jobs=1,
        timeout=20.0,
        queue_limit=16,
        trace_path=str(tmp_path / "trace.jsonl"),
    )
    defaults.update(overrides)
    return DeobfuscationService(ServiceConfig(**defaults))


@pytest.fixture
def traced_service(tmp_path):
    service = make_service(tmp_path)
    service.start()
    yield service, str(tmp_path / "trace.jsonl")
    service.close()


class TestEndToEndTrace:
    def test_one_request_exports_one_linked_trace(self, traced_service):
        service, trace_path = traced_service
        record = service.submit(SCRIPT)
        assert record["status"] == "ok"
        trace_id = record["trace_id"]
        assert len(trace_id) == 32

        spans = read_spans(trace_path)
        assert {s.trace_id for s in spans} == {trace_id}
        names = {s.name for s in spans}
        assert {
            "request", "cache_lookup", "admission", "execute",
            "worker", "pipeline",
        } <= names
        assert {"token", "ast", "multilayer"} <= names
        assert {s.process for s in spans} == {"service", "worker"}
        assert validate_spans(read_raw_lines(trace_path)) == []

        # The worker span nests under the service's execute span.
        by_id = {s.span_id: s for s in spans}
        worker = next(s for s in spans if s.name == "worker")
        assert by_id[worker.parent_span_id].name == "execute"
        pipeline = next(s for s in spans if s.name == "pipeline")
        assert by_id[pipeline.parent_span_id].name == "worker"

        rendered = render_waterfall(spans)
        assert f"trace {trace_id}" in rendered
        assert "worker" in rendered and "request" in rendered

    def test_traceparent_joins_the_callers_trace(self, traced_service):
        service, trace_path = traced_service
        caller = TraceContext.new()
        record = service.submit(SCRIPT, trace=caller)
        assert record["trace_id"] == caller.trace_id
        spans = read_spans(trace_path)
        assert {s.trace_id for s in spans} == {caller.trace_id}
        request = next(s for s in spans if s.name == "request")
        assert request.parent_span_id == caller.span_id
        # The remote parent is outside the file; validation still holds.
        assert validate_spans(read_raw_lines(trace_path)) == []

    def test_cached_responses_get_fresh_request_traces(
        self, traced_service
    ):
        service, trace_path = traced_service
        first = service.submit(SCRIPT)
        second = service.submit(SCRIPT)
        assert second["cache_hit"] is True
        assert "trace_spans" not in second
        assert second["trace_id"] != first["trace_id"]
        hit_spans = [
            s for s in read_spans(trace_path)
            if s.trace_id == second["trace_id"]
        ]
        names = {s.name for s in hit_spans}
        assert "request" in names and "cache_lookup" in names
        assert "worker" not in names  # no execution happened

    def test_record_in_cache_stays_free_of_trace_spans(
        self, traced_service
    ):
        service, _ = traced_service
        service.submit(SCRIPT)
        cached = service.submit(SCRIPT)
        assert "trace_spans" not in cached

    def test_untraced_service_still_mints_trace_ids(self, tmp_path):
        service = make_service(tmp_path, trace_path=None)
        service.start()
        try:
            record = service.submit(SCRIPT)
            assert len(record["trace_id"]) == 32
        finally:
            service.close()


class TestHistogramsUnderLoad:
    def test_pipeline_histogram_fills_distinct_buckets(self, tmp_path):
        import random

        from repro.dataset.generator import generate_sample

        service = make_service(tmp_path, trace_path=None)
        service.start()
        try:
            # A trivial script and a heavy multi-layer sample land in
            # different latency buckets.
            service.submit("Write-Host hi\n")
            heavy = generate_sample(
                "heavy", random.Random(5), layer_depth=2
            )
            service.submit(heavy.script, timeout=30.0)
            snapshot = service.snapshot()
        finally:
            service.close()

        hist = Histogram.from_dict(
            snapshot["pipeline_duration_histogram"]
        )
        assert hist.count == 2
        assert hist.nonzero_buckets() >= 2
        request_hist = Histogram.from_dict(
            snapshot["request_duration_histogram"]
        )
        assert request_hist.count == 2

        text = render_metrics(snapshot)
        assert "# TYPE repro_pipeline_duration_seconds histogram" in text
        assert "repro_pipeline_duration_seconds_count 2" in text
        # Exemplars point at the slow request's trace.
        assert 'trace_id="' in text

    def test_techniques_reach_metrics(self, tmp_path):
        service = make_service(tmp_path, trace_path=None)
        service.start()
        try:
            service.submit(SCRIPT)
            text = render_metrics(service.snapshot())
        finally:
            service.close()
        assert 'repro_pipeline_techniques_total{technique="concat"} 1' \
            in text
        assert 'technique="layer_iex"' in text


class TestHttpTraceHeaders:
    def _post(self, url, body, headers=None):
        request = urllib.request.Request(
            url + "/deobfuscate",
            data=json.dumps(body).encode("utf-8"),
            headers={"Content-Type": "application/json",
                     **(headers or {})},
            method="POST",
        )
        try:
            with urllib.request.urlopen(request, timeout=30.0) as resp:
                return resp.status, json.loads(resp.read()), dict(
                    resp.headers
                )
        except urllib.error.HTTPError as error:
            return error.code, json.loads(error.read()), dict(
                error.headers
            )

    def test_response_carries_x_trace_id(self, served, tmp_path):
        _service, url = served(trace_path=str(tmp_path / "trace.jsonl"))
        status, record, headers = self._post(url, {"script": SCRIPT})
        assert status == 200
        assert headers["X-Trace-Id"] == record["trace_id"]

    def test_traceparent_header_is_honoured(self, served, tmp_path):
        _service, url = served(trace_path=str(tmp_path / "trace.jsonl"))
        caller = TraceContext.new()
        status, record, headers = self._post(
            url,
            {"script": "Write-Host hi\n"},
            headers={"traceparent": caller.to_traceparent()},
        )
        assert status == 200
        assert record["trace_id"] == caller.trace_id
        assert headers["X-Trace-Id"] == caller.trace_id
