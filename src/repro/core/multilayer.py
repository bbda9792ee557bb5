"""Multi-layer obfuscation: Invoke-Expression / PowerShell (Section III-B4).

Multi-layer obfuscation wraps an obfuscated script string in an invoker:
``iex '...'``, ``'...' | iex``, ``&'iex' '...'``, ``.('iex') '...'`` or
``powershell -EncodedCommand <base64>``.  After the AST recovery pass has
reduced the argument to a string literal, this module unwraps one layer by
replacing the invocation with the argument's content, validating that the
resulting script still parses.  The deobfuscation pipeline repeats
token-parse → AST-recover → unwrap until a fixpoint.
"""

import base64
import binascii
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.pslang import ast_nodes as N
from repro.pslang.aliases import resolve_alias
from repro.pslang.parser import try_parse_cached as try_parse

_IEX_NAMES = {"iex", "invoke-expression"}
_POWERSHELL_NAMES = {"powershell", "powershell.exe", "pwsh", "pwsh.exe"}


def _literal_value(node: N.Ast) -> Optional[str]:
    """The string a literal-ish element denotes, or None."""
    if isinstance(node, N.StringConstantExpressionAst):
        return node.value
    if isinstance(node, N.ExpandableStringExpressionAst):
        # Only safe when there is nothing left to expand.
        if "$" not in node.value and "`" not in node.value:
            return node.value
        return None
    if isinstance(node, N.ParenExpressionAst):
        inner = node.pipeline
        if isinstance(inner, N.PipelineAst) and len(inner.elements) == 1:
            element = inner.elements[0]
            if isinstance(element, N.CommandExpressionAst):
                return _literal_value(element.expression)
    return None


def _command_name(command: N.CommandAst) -> Optional[str]:
    """Resolve the (possibly quoted/aliased) name of a command element."""
    if not command.elements:
        return None
    head = command.elements[0]
    name = _literal_value(head)
    if name is None and isinstance(head, N.StringConstantExpressionAst):
        name = head.value
    if name is None:
        return None
    name = name.strip().lower()
    resolved = resolve_alias(name)
    if resolved is not None:
        return resolved.lower()
    basename = name.rsplit("\\", 1)[-1].rsplit("/", 1)[-1]
    return basename


def is_invoke_expression_command(command: N.CommandAst) -> bool:
    return _command_name(command) in _IEX_NAMES


def is_powershell_command(command: N.CommandAst) -> bool:
    return _command_name(command) in _POWERSHELL_NAMES


def decode_encoded_command(encoded: str) -> Optional[str]:
    """Base64(UTF-16LE) → script, or None when it does not decode."""
    text = encoded.strip().strip("'\"")
    try:
        raw = base64.b64decode(text, validate=True)
    except (binascii.Error, ValueError):
        return None
    try:
        script = raw.decode("utf-16-le")
    except UnicodeDecodeError:
        return None
    if "\x00" in script:
        return None
    return script


# ``powershell.exe`` parameters as ``(name, shortest accepted prefix)``:
# the binder takes any case-insensitive prefix of a name that is at
# least that long (paper: ``'-encodedcommand'.StartsWith($param)``).
# Two-letter aliases such as ``-ep`` are names of their own.
_ENCODED_COMMAND = (("encodedcommand", "e"), ("ec", "ec"))
_COMMAND = (("command", "c"),)
_FILE = (("file", "f"),)
# The parameters that take a value; the value is never the payload.
_VALUE_PARAMETERS = (
    ("executionpolicy", "ex"), ("ep", "ep"),
    ("windowstyle", "w"),
    ("configurationname", "config"),
    ("version", "v"),
    ("inputformat", "in"), ("if", "if"),
    ("outputformat", "o"), ("of", "of"),
    ("psconsolefile", "psc"),
    ("workingdirectory", "wo"), ("wd", "wd"),
    ("settingsfile", "settings"),
)


def _binds(name: str, parameters: Tuple[Tuple[str, str], ...]) -> bool:
    """Does the ``-name`` token bind one of *parameters*?"""
    lowered = name.lstrip("-").lower()
    return any(
        full.startswith(lowered) and len(lowered) >= len(shortest)
        for full, shortest in parameters
    )


def _extract_iex_payload(command: N.CommandAst) -> Optional[str]:
    for element in command.elements[1:]:
        if isinstance(element, N.CommandParameterAst):
            continue
        return _literal_value(element)
    return None


def _extract_powershell_payload(
    command: N.CommandAst,
) -> Optional[Tuple[str, str]]:
    """The inner script and its unwrap kind (``encoded_command`` when a
    base64 payload was decoded, ``command`` for inline script text)."""
    elements = command.elements[1:]
    index = 0
    positional: List[N.Ast] = []
    while index < len(elements):
        element = elements[index]
        if isinstance(element, N.CommandParameterAst):
            if _binds(element.name, _FILE):
                # ``-File`` runs a script from disk: nothing to unwrap.
                return None
            if _binds(element.name, _VALUE_PARAMETERS):
                if element.argument is None:
                    index += 1
            elif _binds(element.name, _ENCODED_COMMAND):
                argument = element.argument
                if argument is None and index + 1 < len(elements):
                    argument = elements[index + 1]
                    index += 1
                if argument is not None:
                    literal = _literal_value(argument)
                    if literal is not None:
                        decoded = decode_encoded_command(literal)
                        if decoded is not None:
                            return decoded, "encoded_command"
                return None
            elif _binds(element.name, _COMMAND):
                argument = element.argument
                if argument is None and index + 1 < len(elements):
                    argument = elements[index + 1]
                    index += 1
                if argument is not None:
                    literal = _literal_value(argument)
                    if literal is not None:
                        return literal, "command"
                return None
        else:
            positional.append(element)
        index += 1
    # A bare trailing argument: encoded command or inline script.
    if positional:
        literal = _literal_value(positional[-1])
        if literal is not None:
            decoded = decode_encoded_command(literal)
            if decoded is not None:
                return decoded, "encoded_command"
            return literal, "command"
    return None


def _unwrap_pipeline(
    pipeline: N.PipelineAst,
) -> Optional[Tuple[str, str]]:
    """``(replacement_text, unwrap_kind)`` for a pipeline, or None."""
    elements = pipeline.elements
    # `'payload' | iex` (possibly with more stages in front).
    if len(elements) == 2 and isinstance(elements[1], N.CommandAst):
        tail = elements[1]
        if is_invoke_expression_command(tail) and isinstance(
            elements[0], N.CommandExpressionAst
        ):
            payload = _literal_value(elements[0].expression)
            if payload is not None:
                return payload, "iex"
    if len(elements) == 1 and isinstance(elements[0], N.CommandAst):
        command = elements[0]
        if is_invoke_expression_command(command):
            payload = _extract_iex_payload(command)
            if payload is not None:
                return payload, "iex"
            return None
        if is_powershell_command(command):
            return _extract_powershell_payload(command)
    return None


@dataclass
class UnwrapResult:
    """One ``unwrap_layers`` pass: the new script plus what happened."""

    script: str
    count: int = 0
    kinds: Dict[str, int] = field(default_factory=dict)


def unwrap_layers_detailed(script: str) -> UnwrapResult:
    """Unwrap every syntactically safe invoker in *script* once,
    recording how many layers of each kind (``iex``, ``encoded_command``,
    ``command``) came off."""
    ast, _ = try_parse(script)
    if ast is None:
        return UnwrapResult(script)
    replacements: List[Tuple[int, int, str, str]] = []
    for node in ast.walk_pre_order():
        if not isinstance(node, N.PipelineAst):
            continue
        unwrapped = _unwrap_pipeline(node)
        if unwrapped is None:
            continue
        payload, kind = unwrapped
        inner_ast, _ = try_parse(payload)
        if inner_ast is None:
            continue
        replacements.append((node.start, node.end, payload, kind))
    if not replacements:
        return UnwrapResult(script)
    # Drop nested replacements (outermost wins) and apply right-to-left.
    replacements.sort(key=lambda r: (r[0], -r[1]))
    accepted: List[Tuple[int, int, str, str]] = []
    last_end = -1
    for start, end, payload, kind in replacements:
        if start < last_end:
            continue
        accepted.append((start, end, payload, kind))
        last_end = end
    outcome = UnwrapResult(script)
    result = script
    for start, end, payload, kind in reversed(accepted):
        candidate = result[:start] + payload + result[end:]
        validated, _ = try_parse(candidate)
        if validated is None:
            continue
        result = candidate
        outcome.count += 1
        outcome.kinds[kind] = outcome.kinds.get(kind, 0) + 1
    outcome.script = result
    return outcome


def unwrap_layers(script: str) -> Tuple[str, int]:
    """Unwrap every syntactically safe invoker in *script* once.

    Returns ``(new_script, how_many_layers_unwrapped)``.
    """
    outcome = unwrap_layers_detailed(script)
    return outcome.script, outcome.count
