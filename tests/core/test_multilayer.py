"""Tests for multi-layer unwrapping (Section III-B4)."""

import base64

from repro.core.multilayer import (
    decode_encoded_command,
    unwrap_layers,
)
from repro.core.pipeline import deobfuscate


def enc(script: str) -> str:
    return base64.b64encode(script.encode("utf-16-le")).decode()


class TestDecodeEncodedCommand:
    def test_roundtrip(self):
        assert decode_encoded_command(enc("write-host hi")) == "write-host hi"

    def test_garbage_returns_none(self):
        assert decode_encoded_command("!!!not base64!!!") is None

    def test_plain_base64_of_binary_returns_none(self):
        blob = base64.b64encode(bytes(range(7))).decode()
        assert decode_encoded_command(blob) is None


class TestUnwrapForms:
    def test_iex_with_literal(self):
        result, count = unwrap_layers("iex 'write-host hi'")
        assert result == "write-host hi"
        assert count == 1

    def test_invoke_expression_full_name(self):
        result, count = unwrap_layers("Invoke-Expression 'write-host hi'")
        assert result == "write-host hi"

    def test_pipe_into_iex(self):
        result, count = unwrap_layers("'write-host hi' | iex")
        assert result == "write-host hi"

    def test_call_operator_quoted_iex(self):
        result, count = unwrap_layers("&'iex' 'write-host hi'")
        assert result == "write-host hi"

    def test_dot_call_paren_iex(self):
        result, count = unwrap_layers(".('iex') 'write-host hi'")
        assert result == "write-host hi"

    def test_powershell_encodedcommand(self):
        result, count = unwrap_layers(
            f"powershell -EncodedCommand {enc('write-host hi')}"
        )
        assert result == "write-host hi"

    def test_powershell_e_prefix(self):
        result, count = unwrap_layers(f"powershell -e {enc('gci')}")
        assert result == "gci"

    def test_powershell_enc_mixed_case(self):
        result, count = unwrap_layers(f"PoWeRsHeLl -eNc {enc('gci')}")
        assert result == "gci"

    def test_powershell_with_noise_flags(self):
        result, count = unwrap_layers(
            f"powershell -NoP -NonI -W Hidden -e {enc('dir')}"
        )
        assert result == "dir"

    def test_powershell_command_flag(self):
        result, count = unwrap_layers("powershell -Command 'write-host x'")
        assert result == "write-host x"

    def test_powershell_exe_path(self):
        result, count = unwrap_layers(
            f"C:\\Windows\\System32\\powershell.exe -e {enc('dir')}"
        )
        assert result == "dir"


class TestUnwrapSafety:
    def test_non_literal_argument_kept(self):
        source = "iex $command"
        result, count = unwrap_layers(source)
        assert result == source
        assert count == 0

    def test_invalid_payload_kept(self):
        source = "iex 'not ( valid'"
        result, count = unwrap_layers(source)
        assert result == source

    def test_unrelated_command_kept(self):
        source = "write-host 'iex'"
        result, count = unwrap_layers(source)
        assert result == source

    def test_embedded_unwrap_keeps_context(self):
        source = "$a = 1\niex 'write-host hi'\n$b = 2"
        result, count = unwrap_layers(source)
        assert "$a = 1" in result
        assert "write-host hi" in result
        assert "$b = 2" in result

    def test_expandable_string_without_vars_unwrapped(self):
        result, count = unwrap_layers('iex "write-host hi"')
        assert result == "write-host hi"

    def test_expandable_string_with_vars_kept(self):
        source = 'iex "write-host $x"'
        result, count = unwrap_layers(source)
        assert result == source


class TestPowerShellParameters:
    """``powershell.exe`` parameters that take a value consume it, and
    ``-File`` never unwraps: its path is not an inline script."""

    FILE_LINE = (
        'powershell -ExecutionPolicy Bypass -File "C:\\Users\\Public\\run.ps1"'
    )

    def test_file_line_is_kept_and_verifies_equivalent(self):
        from repro.verify import verify_result

        result = deobfuscate(self.FILE_LINE)
        assert result.script == self.FILE_LINE
        assert result.layers_unwrapped == 0
        assert verify_result(result).verdict == "equivalent"

    def test_file_prefixes_never_unwrap(self):
        for flag in ("-f", "-Fil", "-FILE"):
            source = f"powershell {flag} run.ps1 'write-host hi'"
            assert unwrap_layers(source) == (source, 0)

    def test_value_parameters_consume_their_value(self):
        for flags in (
            "-ep bypass",
            "-ExecutionPolicy:Bypass",
            "-Exec Bypass -WindowStyle Hidden",
            "-w hidden -Version 2 -ConfigurationName x -InputFormat Text",
            "-OutputFormat Text -PSConsoleFile c.psc1",
            "-WorkingDirectory C:\\ -SettingsFile s.json",
        ):
            result, count = unwrap_layers(
                f"powershell {flags} 'write-host hi'"
            )
            assert (result, count) == ("write-host hi", 1), flags

    def test_a_value_alone_is_not_a_payload(self):
        source = "powershell -ExecutionPolicy Bypass"
        assert unwrap_layers(source) == (source, 0)

    def test_hidden_encoded_command_still_unwraps(self):
        payload = enc("write-host hi")
        result = deobfuscate(f"powershell -w hidden -NoP -e {payload}")
        assert result.script == "Write-Host hi"

    def test_command_after_execution_policy_still_unwraps(self):
        result = deobfuscate(
            'powershell -ExecutionPolicy Bypass -Command "write-host hi"'
        )
        assert result.script == "Write-Host hi"


class TestMultiLayerEndToEnd:
    def test_two_layers(self):
        inner = "write-host hello"
        layer1 = f"iex '{inner}'"
        layer2 = f"iex \"iex 'write-host hello'\""
        result = deobfuscate(layer2)
        assert result.script.strip().lower() == "write-host hello"

    def test_three_layers_encoded(self):
        inner = "write-host deep"
        layer1 = f"powershell -e {enc(inner)}"
        layer2 = f"powershell -enc {enc(layer1)}"
        layer3 = f"iex '{layer2.replace(chr(39), chr(39)*2)}'"
        result = deobfuscate(layer3)
        assert result.script.strip().lower() == "write-host deep"
        assert result.layers_unwrapped >= 3

    def test_layer_with_inner_obfuscation(self):
        inner_obfuscated = "IeX ('wri'+'te-host hi')"
        outer = f"powershell -enc {enc(inner_obfuscated)}"
        result = deobfuscate(outer)
        assert result.script.strip() == "Write-Host hi"
