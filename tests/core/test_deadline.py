"""Tests for the pipeline's cooperative ``deadline_seconds`` budget."""

from repro import PipelineOptions, Deobfuscator, deobfuscate
from repro.obs import SpanRecorder

NESTED = "iex 'iex ''write-host x'''"


class TestDeadline:
    def test_no_deadline_by_default(self):
        result = deobfuscate(NESTED)
        assert result.timed_out is False
        assert result.script == "Write-Host x"

    def test_generous_deadline_completes(self):
        result = deobfuscate(NESTED, options=PipelineOptions(deadline_seconds=60.0))
        assert result.timed_out is False
        assert result.script == "Write-Host x"

    def test_zero_deadline_times_out_immediately(self):
        result = deobfuscate(NESTED, options=PipelineOptions(deadline_seconds=0.0))
        assert result.timed_out is True
        # best-effort partial result: the input, untouched
        assert result.script == NESTED
        assert result.valid_input is True

    def test_timed_out_still_reports_elapsed(self):
        result = deobfuscate(NESTED, options=PipelineOptions(deadline_seconds=0.0))
        assert result.elapsed_seconds >= 0.0

    def test_invalid_input_is_not_timed_out(self):
        result = deobfuscate("'unterminated", options=PipelineOptions(deadline_seconds=0.0))
        assert result.valid_input is False
        assert result.timed_out is False

    def test_deadline_constructor_parameter(self):
        tool = Deobfuscator(options=PipelineOptions(deadline_seconds=0.0))
        assert tool.deobfuscate(NESTED).timed_out is True


class FakeTime:
    """Stand-in for the ``time`` module: every read advances 1 second."""

    def __init__(self):
        self.now = 0.0

    def perf_counter(self) -> float:
        self.now += 1.0
        return self.now


class TestTimedOutTelemetry:
    """A run that hits the deadline still carries partial phase spans."""

    def test_partial_spans_survive_timeout(self, monkeypatch):
        # The pipeline reads its clock ~3 times per iteration (deadline
        # checks); with a 3.5 s budget on a 1 s-per-read fake clock the
        # first iteration completes and the second trips the deadline —
        # deterministically, regardless of host speed.
        monkeypatch.setattr("repro.core.pipeline.time", FakeTime())
        tool = Deobfuscator(options=PipelineOptions(deadline_seconds=3.5))
        recorder = SpanRecorder()
        result = tool.deobfuscate(NESTED, recorder=recorder)
        assert result.timed_out is True
        pipeline = recorder.spans[0]
        assert (pipeline.name, pipeline.status) == ("pipeline", "aborted")
        phases_run = {span.name for span in recorder.children(pipeline)}
        assert {"token", "ast", "multilayer"} <= phases_run
        assert "rename" not in phases_run  # post-processing was skipped
        assert set(result.stats.phase_seconds) == phases_run

    def test_zero_deadline_has_no_spans_but_valid_stats(self):
        recorder = SpanRecorder()
        result = deobfuscate(
            NESTED,
            options=PipelineOptions(deadline_seconds=0.0),
            recorder=recorder,
        )
        assert result.timed_out is True
        assert [span.name for span in recorder.spans] == ["pipeline"]
        assert result.stats.phase_seconds == {}
        # The record still serializes round-trip cleanly.
        from repro.obs import PipelineStats

        data = result.stats.to_dict()
        assert PipelineStats.from_dict(data).to_dict() == data
