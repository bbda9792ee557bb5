"""Allowlisted cmdlet implementations.

Each cmdlet is a function ``f(ctx) -> list`` where :class:`CommandContext`
carries the evaluator, evaluated positional arguments, named parameters
(lower-cased, ``True`` for switch parameters) and the pipeline input.
Returning a list models the output stream.

Anything not present here raises
:class:`~repro.runtime.errors.UnsupportedOperationError` at dispatch —
deny by default.
"""

import base64
import binascii
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.runtime import securestring as ss
from repro.runtime.errors import (
    EvaluationError,
    UnsupportedOperationError,
)
from repro.runtime.objects import (
    ArrayList,
    DeflateStream,
    Encoding,
    GzipStream,
    MemoryStream,
    PSCredential,
    StreamReader,
    StringBuilder,
    TcpClient,
    WebClient,
)
from repro.runtime.values import (
    ScriptBlockValue,
    as_list,
    to_bool,
    to_int,
    to_string,
)


@dataclass
class CommandContext:
    evaluator: Any
    name: str
    arguments: List[Any] = field(default_factory=list)
    parameters: Dict[str, Any] = field(default_factory=dict)
    input_stream: List[Any] = field(default_factory=list)

    def param(self, *names: str, default: Any = None) -> Any:
        """Fetch a named parameter by any of its (prefix-matched) names."""
        for name in names:
            if name in self.parameters:
                return self.parameters[name]
        return default

    def param_startswith(self, full_name: str) -> Optional[Any]:
        """PowerShell-style parameter prefix matching (-enc → -EncodedCommand)."""
        full = full_name.lower()
        for key, value in self.parameters.items():
            if full.startswith(key) and key:
                return value
        return None


# ---------------------------------------------------------------------------
# Core object/pipeline cmdlets
# ---------------------------------------------------------------------------


def _foreach_object(ctx: CommandContext) -> List[Any]:
    blocks = [
        a for a in ctx.arguments if isinstance(a, ScriptBlockValue)
    ]
    if not blocks:
        member = ctx.param("membername")
        if member is None and ctx.arguments:
            member = to_string(ctx.arguments[0])
        if member is None:
            raise EvaluationError("ForEach-Object needs a scriptblock")
        from repro.runtime import members as _members
        from repro.runtime.errors import UnsupportedOperationError as _Unsup

        out = []
        for item in ctx.input_stream:
            # `% Length` reads a property; `% ToUpper` calls a method.
            try:
                value = _members.get_member(item, member)
            except _Unsup:
                value = ctx.evaluator.invoke_member_on(item, member, [])
            out.extend(as_list(value))
        return out
    out: List[Any] = []
    for item in ctx.input_stream:
        for block in blocks:
            out.extend(ctx.evaluator.invoke_scriptblock(block, dollar=item))
    return out


def _where_object(ctx: CommandContext) -> List[Any]:
    blocks = [a for a in ctx.arguments if isinstance(a, ScriptBlockValue)]
    if not blocks:
        raise UnsupportedOperationError(
            "Where-Object supports only scriptblock filters"
        )
    block = blocks[0]
    out = []
    for item in ctx.input_stream:
        result = ctx.evaluator.invoke_scriptblock(block, dollar=item)
        if to_bool(result if len(result) != 1 else result[0]):
            out.append(item)
    return out


def _write_output(ctx: CommandContext) -> List[Any]:
    out = list(ctx.input_stream)
    for arg in ctx.arguments:
        out.extend(as_list(arg))
    return out


def _write_host(ctx: CommandContext) -> List[Any]:
    pieces = [to_string(a) for a in ctx.arguments]
    pieces.extend(to_string(v) for v in ctx.input_stream)
    ctx.evaluator.host.write_host(" ".join(pieces))
    return []


def _write_silent(ctx: CommandContext) -> List[Any]:
    return []


def _out_null(ctx: CommandContext) -> List[Any]:
    return []


def _out_string(ctx: CommandContext) -> List[Any]:
    values = list(ctx.input_stream)
    values.extend(ctx.arguments)
    return ["\r\n".join(to_string(v) for v in values)]


def _out_file(ctx: CommandContext) -> List[Any]:
    path = ctx.param("filepath", "path") or (
        to_string(ctx.arguments[0]) if ctx.arguments else ""
    )
    content = ctx.param("value")
    if content is None:
        pieces = [to_string(v) for v in ctx.input_stream]
        content = "\r\n".join(pieces)
    else:
        content = to_string(content)
    append = bool(ctx.param("append")) or ctx.name == "add-content"
    ctx.evaluator.host.write_file(to_string(path), content, append=append)
    return []


def _get_content(ctx: CommandContext) -> List[Any]:
    path = ctx.param("path", "literalpath") or (
        to_string(ctx.arguments[0]) if ctx.arguments else ""
    )
    content = ctx.evaluator.host.read_file(to_string(path))
    if content is None:
        raise EvaluationError(f"Get-Content: path not found: {path}")
    if isinstance(content, (bytes, bytearray)):
        if ctx.param("asbytestream") or ctx.param("encoding") == "Byte":
            return list(content)
        content = bytes(content).decode("utf-8", "replace")
    if ctx.param("raw"):
        return [content]
    return content.splitlines()


def _select_object(ctx: CommandContext) -> List[Any]:
    items = list(ctx.input_stream)
    first = ctx.param("first")
    last = ctx.param("last")
    unique = ctx.param("unique")
    if unique:
        seen = []
        for item in items:
            if item not in seen:
                seen.append(item)
        items = seen
    if first is not None:
        items = items[:to_int(first)]
    if last is not None:
        items = items[-to_int(last):]
    index = ctx.param("index")
    if index is not None:
        wanted = [to_int(i) for i in as_list(index)]
        items = [items[i] for i in wanted if 0 <= i < len(items)]
    return items


def _sort_object(ctx: CommandContext) -> List[Any]:
    items = list(ctx.input_stream)
    reverse = bool(ctx.param("descending"))
    try:
        return sorted(items, reverse=reverse)
    except TypeError:
        return sorted(items, key=to_string, reverse=reverse)


def _measure_object(ctx: CommandContext) -> List[Any]:
    return [{"Count": len(ctx.input_stream)}]


def _get_variable(ctx: CommandContext) -> List[Any]:
    if not ctx.arguments:
        name = ctx.param("name")
    else:
        name = ctx.arguments[0]
    if name is None:
        raise EvaluationError("Get-Variable needs a name")
    value = ctx.evaluator.lookup_variable(to_string(name))
    if ctx.param("valueonly") or ctx.param("value"):
        return [value]
    return [{"Name": to_string(name), "Value": value}]


def _set_variable(ctx: CommandContext) -> List[Any]:
    name = ctx.param("name") or (
        ctx.arguments[0] if ctx.arguments else None
    )
    value = ctx.param("value")
    if value is None and len(ctx.arguments) > 1:
        value = ctx.arguments[1]
    if name is None:
        raise EvaluationError("Set-Variable needs a name")
    ctx.evaluator.set_variable(to_string(name), value)
    return []


def _set_alias(ctx: CommandContext) -> List[Any]:
    name = ctx.param("name") or (
        to_string(ctx.arguments[0]) if ctx.arguments else None
    )
    value = ctx.param("value")
    if value is None and len(ctx.arguments) > 1:
        value = ctx.arguments[1]
    if name is None or value is None:
        raise EvaluationError("Set-Alias needs name and value")
    ctx.evaluator.dynamic_aliases[to_string(name).lower()] = to_string(value)
    return []


def _get_location(ctx: CommandContext) -> List[Any]:
    return [r"C:\Users\user"]


def _join_path(ctx: CommandContext) -> List[Any]:
    parts = [to_string(a) for a in ctx.arguments]
    path = ctx.param("path")
    child = ctx.param("childpath")
    if path is not None:
        parts.insert(0, to_string(path))
    if child is not None:
        parts.append(to_string(child))
    return ["\\".join(p.rstrip("\\") for p in parts if p)]


def _split_path(ctx: CommandContext) -> List[Any]:
    path = to_string(
        ctx.param("path") or (ctx.arguments[0] if ctx.arguments else "")
    )
    if ctx.param("leaf"):
        return [path.rsplit("\\", 1)[-1]]
    head = path.rsplit("\\", 1)
    return [head[0] if len(head) == 2 else ""]


def _test_path(ctx: CommandContext) -> List[Any]:
    path = ctx.param("path", "literalpath") or (
        to_string(ctx.arguments[0]) if ctx.arguments else ""
    )
    return [ctx.evaluator.host.has_file(to_string(path))]


def _start_sleep(ctx: CommandContext) -> List[Any]:
    """Record the sleep; really sleep only when the evaluator opts in.

    The blocklist stops this cmdlet for the deobfuscator; the behaviour
    sandbox records it; baseline tools scale it down but do pay it, which
    reproduces their Fig 6 latency fluctuation without multi-second tests.
    """
    seconds = ctx.param("seconds", "s")
    if seconds is None and ctx.arguments:
        seconds = ctx.arguments[0]
    milliseconds = ctx.param("milliseconds", "m")
    if seconds is None and milliseconds is not None:
        seconds = to_int(milliseconds) / 1000.0
    try:
        amount = float(seconds) if seconds is not None else 0.0
    except (TypeError, ValueError):
        amount = 0.0
    ctx.evaluator.host.record("time.sleep", str(amount))
    scale = getattr(ctx.evaluator, "sleep_scale", 0.0)
    if scale > 0 and amount > 0:
        import time as _time

        cap = getattr(ctx.evaluator, "sleep_cap", 0.25)
        _time.sleep(min(amount * scale, cap))
    return []


def _get_random(ctx: CommandContext) -> List[Any]:
    raise UnsupportedOperationError(
        "Get-Random is nondeterministic and not allowed in the sandbox"
    )


def _get_date(ctx: CommandContext) -> List[Any]:
    raise UnsupportedOperationError(
        "Get-Date is nondeterministic and not allowed in the sandbox"
    )


# ---------------------------------------------------------------------------
# Object construction and SecureString
# ---------------------------------------------------------------------------

_NEW_OBJECT_TYPES: Dict[str, Callable] = {}


def _register_new_object_types() -> None:
    def simple(factory):
        return lambda ctx, args: factory(*args)

    _NEW_OBJECT_TYPES.update(
        {
            "net.webclient": lambda ctx, args: WebClient(ctx.evaluator.host),
            "net.sockets.tcpclient": lambda ctx, args: TcpClient(
                ctx.evaluator.host,
                to_string(args[0]) if args else "",
                to_int(args[1]) if len(args) > 1 else 0,
            ),
            "io.memorystream": lambda ctx, args: MemoryStream(
                args[0] if args else None
            ),
            "io.compression.deflatestream": lambda ctx, args: DeflateStream(
                args[0], to_string(args[1]) if len(args) > 1 else "decompress"
            ),
            "io.compression.gzipstream": lambda ctx, args: GzipStream(
                args[0], to_string(args[1]) if len(args) > 1 else "decompress"
            ),
            "io.streamreader": lambda ctx, args: StreamReader(
                args[0], args[1] if len(args) > 1 else None
            ),
            "text.stringbuilder": lambda ctx, args: StringBuilder(
                to_string(args[0]) if args else ""
            ),
            "collections.arraylist": lambda ctx, args: ArrayList(),
            "management.automation.pscredential": lambda ctx, args: (
                PSCredential(
                    to_string(args[0]) if args else "",
                    args[1] if len(args) > 1 else None,
                )
            ),
            "security.securestring": lambda ctx, args: ss.SecureString(""),
            "text.asciiencoding": lambda ctx, args: Encoding("ascii"),
            "text.utf8encoding": lambda ctx, args: Encoding("utf8"),
            "text.unicodeencoding": lambda ctx, args: Encoding("unicode"),
        }
    )


_register_new_object_types()


def _new_object(ctx: CommandContext) -> List[Any]:
    type_name = ctx.param("typename")
    args: List[Any] = []
    if type_name is None:
        if not ctx.arguments:
            raise EvaluationError("New-Object needs a type name")
        type_name = ctx.arguments[0]
        args = list(ctx.arguments[1:])
    argument_list = ctx.param("argumentlist")
    if argument_list is not None:
        args = as_list(argument_list)
    if ctx.param("comobject") is not None:
        raise UnsupportedOperationError("COM objects are not allowed")
    name = to_string(type_name).lower().replace("`", "")
    if name.startswith("system."):
        name = name[len("system."):]
    factory = _NEW_OBJECT_TYPES.get(name)
    if factory is None:
        raise UnsupportedOperationError(f"New-Object {type_name}")
    # `New-Object Type(a, b)` parses as one parenthesized array argument;
    # its elements are the constructor arguments.  The classic `(,$bytes)`
    # idiom wraps a single array argument the same way.
    if len(args) == 1 and isinstance(args[0], list):
        args = list(args[0])
    return [factory(ctx, args)]


def _convertto_securestring(ctx: CommandContext) -> List[Any]:
    text = ctx.param("string")
    if text is None and ctx.arguments:
        text = ctx.arguments[0]
    if text is None and ctx.input_stream:
        text = ctx.input_stream[0]
    if text is None:
        raise EvaluationError("ConvertTo-SecureString needs input")
    text = to_string(text)
    if ctx.param("asplaintext") is not None:
        return [ss.SecureString(text)]
    key = ctx.param("key", "securekey")
    return [ss.SecureString(ss.decrypt_securestring(text, key))]


def _convertfrom_securestring(ctx: CommandContext) -> List[Any]:
    secure = ctx.param("securestring")
    if secure is None and ctx.arguments:
        secure = ctx.arguments[0]
    if secure is None and ctx.input_stream:
        secure = ctx.input_stream[0]
    if not isinstance(secure, ss.SecureString):
        raise EvaluationError("ConvertFrom-SecureString needs a SecureString")
    key = ctx.param("key", "securekey")
    return [ss.encrypt_securestring(secure.plaintext, key)]


# ---------------------------------------------------------------------------
# Script execution cmdlets
# ---------------------------------------------------------------------------


def _invoke_expression(ctx: CommandContext) -> List[Any]:
    source = ctx.param("command")
    if source is None and ctx.arguments:
        source = ctx.arguments[0]
    if source is None and ctx.input_stream:
        source = ctx.input_stream[-1]
    if source is None:
        raise EvaluationError("Invoke-Expression needs a command")
    if isinstance(source, ScriptBlockValue):
        return ctx.evaluator.invoke_scriptblock(source)
    return ctx.evaluator.run_script_text(to_string(source))


def _powershell(ctx: CommandContext) -> List[Any]:
    """The ``powershell``/``pwsh`` child-shell launch, run in-process.

    ``-EncodedCommand`` accepts any unambiguous prefix (``-e``, ``-enc``,
    ...) and the ``-ec`` alias, and carries a Base64(UTF-16LE) script;
    ``-Command`` likewise.
    """
    encoded = None
    command = None
    file_path = None
    for key, value in ctx.parameters.items():
        if key == "ec" or (key and "encodedcommand".startswith(key)):
            encoded = value
        elif key and key not in ("c",) and "command".startswith(key):
            command = value
        elif key == "c":
            command = value
        elif key and key not in ("f",) and "file".startswith(key):
            file_path = value
    if file_path is not None:
        content = ctx.evaluator.host.read_file(to_string(file_path))
        ctx.evaluator.host.record("proc.powershell_file",
                                  to_string(file_path))
        if isinstance(content, (bytes, bytearray)):
            content = bytes(content).decode("utf-8", "replace")
        if content is None:
            return []
        return ctx.evaluator.run_script_text(content)
    if encoded is None and command is None and ctx.arguments:
        candidate = to_string(ctx.arguments[-1])
        if _looks_like_base64(candidate):
            encoded = candidate
        else:
            command = candidate
    if encoded is not None:
        try:
            script = base64.b64decode(to_string(encoded)).decode("utf-16-le")
        except (binascii.Error, UnicodeDecodeError, ValueError) as exc:
            raise EvaluationError(f"bad -EncodedCommand: {exc}") from exc
        return ctx.evaluator.run_script_text(script)
    if command is not None:
        if isinstance(command, ScriptBlockValue):
            return ctx.evaluator.invoke_scriptblock(command)
        return ctx.evaluator.run_script_text(to_string(command))
    if ctx.input_stream:
        return ctx.evaluator.run_script_text(
            "\n".join(to_string(v) for v in ctx.input_stream)
        )
    return []


def _looks_like_base64(text: str) -> bool:
    if len(text) < 8 or len(text) % 4 != 0:
        return False
    import string as _string

    allowed = set(_string.ascii_letters + _string.digits + "+/=")
    return all(ch in allowed for ch in text)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CMDLETS: Dict[str, Callable[[CommandContext], List[Any]]] = {
    "foreach-object": _foreach_object,
    "where-object": _where_object,
    "write-output": _write_output,
    "write-host": _write_host,
    "write-error": _write_silent,
    "write-warning": _write_silent,
    "write-verbose": _write_silent,
    "write-debug": _write_silent,
    "write-progress": _write_silent,
    "write-information": _write_silent,
    "out-null": _out_null,
    "out-string": _out_string,
    "out-host": _write_host,
    "out-default": _write_output,
    "out-file": _out_file,
    "set-content": _out_file,
    "add-content": _out_file,
    "get-content": _get_content,
    "select-object": _select_object,
    "sort-object": _sort_object,
    "measure-object": _measure_object,
    "get-variable": _get_variable,
    "set-variable": _set_variable,
    "new-variable": _set_variable,
    "set-alias": _set_alias,
    "new-alias": _set_alias,
    "get-location": _get_location,
    "join-path": _join_path,
    "split-path": _split_path,
    "test-path": _test_path,
    "get-random": _get_random,
    "get-date": _get_date,
    "start-sleep": _start_sleep,
    "new-object": _new_object,
    "convertto-securestring": _convertto_securestring,
    "convertfrom-securestring": _convertfrom_securestring,
    "invoke-expression": _invoke_expression,
    "powershell": _powershell,
    "powershell.exe": _powershell,
    "pwsh": _powershell,
    "pwsh.exe": _powershell,
    "import-module": _write_silent,
    "add-type": _write_silent,
    "clear-host": _write_silent,
}


def lookup_cmdlet(name: str):
    return CMDLETS.get(name.lower())
