"""``PipelineOptions.language`` round-trips across every surface:
constructor ⇄ dict ⇄ CLI flags ⇄ JSONL task payload ⇄ service body."""

import argparse
import json

import pytest

from repro import PipelineOptions
from repro.frontend import FrontendError


class TestConstruction:
    def test_default_is_powershell(self):
        assert PipelineOptions().language == "powershell"

    def test_alias_normalizes_at_construction(self):
        assert PipelineOptions(language="JavaScript").language == "js"
        assert PipelineOptions(language="PS1").language == "powershell"

    def test_unknown_language_fails_at_the_boundary(self):
        with pytest.raises(FrontendError):
            PipelineOptions(language="cobol")

    def test_none_means_default(self):
        assert (
            PipelineOptions.from_dict({"language": None}).language
            == "powershell"
        )


class TestDictRoundTrip:
    def test_to_dict_from_dict(self):
        options = PipelineOptions(language="js", rename=False)
        rebuilt = PipelineOptions.from_dict(options.to_dict())
        assert rebuilt == options
        assert rebuilt.language == "js"

    def test_canonical_dict_omits_default_language(self):
        assert "language" not in PipelineOptions().canonical_dict()
        assert (
            "language"
            not in PipelineOptions(language="ps1").canonical_dict()
        )
        assert PipelineOptions(language="javascript").canonical_dict() == {
            "language": "js"
        }

    def test_jsonl_round_trip(self):
        # The batch-task wire form: canonical dict through JSON text.
        options = PipelineOptions(language="js")
        line = json.dumps(options.canonical_dict(), sort_keys=True)
        assert PipelineOptions.from_dict(json.loads(line)) == options


class TestCliRoundTrip:
    def _parse(self, argv):
        from repro.cli import build_parser

        return build_parser().parse_args(argv)

    def test_from_cli_args_to_cli_flags(self):
        args = self._parse(
            ["deobfuscate", "x.js", "--language", "javascript"]
        )
        options = PipelineOptions.from_cli_args(args)
        assert options.language == "js"
        flags = options.to_cli_flags()
        assert flags == ["--language", "js"]
        # And back: re-parsing the emitted flags reproduces the options.
        again = self._parse(["deobfuscate", "x.js"] + flags)
        assert PipelineOptions.from_cli_args(again) == options

    def test_default_language_emits_no_flag(self):
        assert "--language" not in PipelineOptions().to_cli_flags()

    def test_unknown_language_is_an_argument_error(self):
        with pytest.raises(SystemExit):
            self._parse(["deobfuscate", "x", "--language", "cobol"])

    def test_language_flag_on_batch_verify_serve(self):
        for argv in (
            ["batch", "dir", "--language", "js"],
            ["verify", "x.js", "--language", "js"],
            ["serve", "--language", "js"],
            ["fleet", "--language", "js"],
        ):
            args = self._parse(argv)
            assert args.language == "js"


class TestTaskPayload:
    def test_make_tasks_carries_language(self):
        from repro.batch import make_tasks

        tasks = make_tasks(
            ["a.js"], options=PipelineOptions(language="js")
        )
        assert tasks[0].options == {"language": "js"}
        assert (
            PipelineOptions.from_dict(tasks[0].options).language == "js"
        )


class TestServiceBody:
    def test_shape_request_accepts_language(self):
        from repro.service.aserver import shape_request

        script, options, verify, timeout = shape_request(
            {"script": "console.log('x');", "language": "JavaScript"}
        )
        assert options["language"] == "js"

    def test_shape_request_rejects_unknown_language(self):
        from repro.frontend import frontend_names
        from repro.service.aserver import RequestError, shape_request

        with pytest.raises(RequestError) as exc:
            shape_request({"script": "x", "language": "cobol"})
        payload = exc.value.payload
        assert "cobol" in payload["error"]
        assert payload["languages"] == frontend_names()

    def test_shape_request_rejects_non_string_language(self):
        from repro.service.aserver import RequestError, shape_request

        with pytest.raises(RequestError):
            shape_request({"script": "x", "language": 7})
