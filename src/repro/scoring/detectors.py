"""Per-technique obfuscation detectors (regex + token + AST based).

Detector names match :mod:`repro.obfuscation.catalog` technique names so
benches can check both directions (applied → detected, removed → clean).
"""

import re
from typing import Callable, Dict, List, Optional, Set

from repro.core.rename import names_look_random
from repro.pslang import ast_nodes as N
from repro.pslang.aliases import ALIASES, canonical_case
from repro.pslang.parser import try_parse_cached as try_parse
from repro.pslang.tokenizer import try_tokenize
from repro.pslang.tokens import PSToken, PSTokenType
from repro.runtime.environment import is_automatic


class ScriptView:
    """Parsed artefacts computed once and shared by all detectors."""

    def __init__(self, script: str):
        self.script = script
        self.tokens, _ = try_tokenize(script)
        self.ast, _ = try_parse(script)
        self.lowered = script.lower()

    def tokens_of(self, *types: PSTokenType) -> List[PSToken]:
        if self.tokens is None:
            return []
        return [t for t in self.tokens if t.type in types]

    def nodes_of(self, node_type) -> List[N.Ast]:
        if self.ast is None:
            return []
        return self.ast.find_all(node_type)


def _count_case_rises(text: str) -> int:
    """lower→UPPER transitions among letters.

    Verb-Noun and CamelCase names have 1-2 rises; random-case mangling
    ("DoWNlOaDsTrIng") has many.
    """
    letters = [ch for ch in text if ch.isalpha()]
    rises = 0
    for previous, current in zip(letters, letters[1:]):
        if previous.islower() and current.isupper():
            rises += 1
    return rises


# -- L1 -----------------------------------------------------------------------


def detect_ticking(view: ScriptView) -> bool:
    for token in view.tokens_of(
        PSTokenType.COMMAND,
        PSTokenType.COMMAND_ARGUMENT,
        PSTokenType.MEMBER,
        PSTokenType.TYPE,
        PSTokenType.COMMAND_PARAMETER,
    ):
        if "`" in token.text:
            return True
    return False


def detect_whitespacing(view: ScriptView) -> bool:
    if "\xa0" in view.script:
        return True
    if view.tokens is None:
        return bool(re.search(r"[^\S\r\n]{3,}", view.script))
    previous: Optional[PSToken] = None
    for token in view.tokens:
        if previous is not None:
            gap = view.script[previous.end:token.start]
            if "\n" not in gap and "\r" not in gap and len(gap) >= 3:
                return True
            if "\t" in gap and token.type is not PSTokenType.COMMENT:
                return True
        previous = token
    return False


def _segment_is_normal(segment: str) -> bool:
    """all-lower, all-UPPER, or Capitalized — normal human casings."""
    letters = [ch for ch in segment if ch.isalpha()]
    if not letters:
        return True
    body = "".join(letters)
    return (
        body == body.lower()
        or body == body.upper()
        or body == body[0].upper() + body[1:].lower()
    )


def detect_random_case(view: ScriptView) -> bool:
    # Commands and keywords: every dash-segment of a normal spelling is
    # all-lower/all-upper/Capitalized ("Write-Host", "WRITE-HOST"...).
    for token in view.tokens_of(PSTokenType.COMMAND, PSTokenType.KEYWORD):
        text = token.text.replace("`", "")
        if not text.isascii():
            continue
        if any(
            not _segment_is_normal(segment)
            for segment in re.split(r"[-._\\/:]", text)
        ):
            return True
    # Members and types legitimately use CamelCase; only heavy
    # alternation ("DoWNlOaDsTrIng") counts as random.
    for token in view.tokens_of(PSTokenType.MEMBER, PSTokenType.TYPE):
        text = token.text.replace("`", "")
        if not text.isascii():
            continue
        if _count_case_rises(text) >= 3:
            return True
    return False


def detect_random_name(view: ScriptView) -> bool:
    names: List[str] = []
    seen: Set[str] = set()
    for node in view.nodes_of(N.VariableExpressionAst):
        name = node.name
        if ":" in name or is_automatic(name) or name in ("_",):
            continue
        if name.lower() not in seen:
            seen.add(name.lower())
            names.append(name)
    for node in view.nodes_of(N.FunctionDefinitionAst):
        if node.name.lower() not in seen:
            seen.add(node.name.lower())
            names.append(node.name)
    if not names:
        return False
    return names_look_random(names)


def detect_alias(view: ScriptView) -> bool:
    for token in view.tokens_of(PSTokenType.COMMAND):
        if token.content.lower() in ALIASES:
            return True
    return False


# -- L2 -----------------------------------------------------------------------


def _string_operand(node: N.Ast) -> bool:
    return isinstance(
        node,
        (N.StringConstantExpressionAst, N.ExpandableStringExpressionAst),
    )


def detect_concat(view: ScriptView) -> bool:
    for node in view.nodes_of(N.BinaryExpressionAst):
        if node.operator == "+" and (
            _string_operand(node.left)
            or (
                isinstance(node.left, N.BinaryExpressionAst)
                and node.left.operator == "+"
                and _string_operand(node.right)
            )
        ) and (_string_operand(node.right) or _string_operand(node.left)):
            if _string_operand(node.left) and _string_operand(node.right):
                return True
            if (
                isinstance(node.left, N.BinaryExpressionAst)
                and _string_operand(node.right)
            ):
                return True
    return False


def detect_reorder(view: ScriptView) -> bool:
    for node in view.nodes_of(N.BinaryExpressionAst):
        if node.operator != "-f":
            continue
        if isinstance(
            node.left,
            (N.StringConstantExpressionAst, N.ExpandableStringExpressionAst),
        ):
            template = node.left.value
            slots = re.findall(r"\{(\d+)\}", template)
            if len(slots) >= 2 and slots != sorted(slots, key=int):
                return True
            if len(slots) >= 3:
                return True
    return False


def detect_replace(view: ScriptView) -> bool:
    for node in view.nodes_of(N.InvokeMemberExpressionAst):
        member = node.member
        if (
            isinstance(member, N.StringConstantExpressionAst)
            and member.value.lower() == "replace"
        ):
            return True
    for node in view.nodes_of(N.BinaryExpressionAst):
        if node.operator in ("-replace", "-ireplace", "-creplace"):
            return True
    return False


def detect_reverse(view: ScriptView) -> bool:
    if re.search(r"\[\s*-\s*1\s*\.\.", view.script):
        return True
    if re.search(r"\[array\]\s*::\s*reverse", view.lowered):
        return True
    return False


# -- L3 -----------------------------------------------------------------------


def detect_encode_numeric(view: ScriptView) -> bool:
    """Binary/octal/hex via [convert]::ToInt32(x, base)."""
    return bool(
        re.search(
            r"toint(?:16|32|64)\s*\(\s*[^,)]+,\s*(?:2|8|16)\s*\)",
            view.lowered,
        )
    )


def detect_encode_ascii(view: ScriptView) -> bool:
    """Char-code assembly: [char]<n> pipelines or casts of numbers."""
    if re.search(r"\[char\]\s*\(?\s*\d{2,3}", view.lowered):
        return True
    if re.search(r"foreach-object\s*\{\s*\[char\]", view.lowered):
        return True
    if re.search(r"%\s*\{\s*\[char\]", view.lowered):
        return True
    return False


_BASE64_BLOB = re.compile(r"[A-Za-z0-9+/]{24,}={0,2}")


def detect_base64(view: ScriptView) -> bool:
    if "frombase64string" in view.lowered:
        return True
    if re.search(r"-[e][ncodema]*\s+[a-z0-9+/=]{16,}", view.lowered):
        return True
    return False


def detect_whitespace_encoding(view: ScriptView) -> bool:
    if view.tokens is None:
        return False
    for token in view.tokens:
        if token.type is PSTokenType.STRING and re.search(
            r" {8,}", token.content
        ):
            return True
    return False


def detect_specialchar(view: ScriptView) -> bool:
    if re.search(r"\[int\]\[char\]", view.lowered):
        return True
    # Scripts that are mostly non-alphanumeric symbols.
    body = view.script.strip()
    if len(body) >= 40:
        specials = sum(
            1 for ch in body if not (ch.isalnum() or ch.isspace())
        )
        if specials / len(body) > 0.55:
            return True
    return False


def detect_bxor(view: ScriptView) -> bool:
    for node in view.nodes_of(N.BinaryExpressionAst):
        if node.operator == "-bxor":
            return True
    return "-bxor" in view.lowered


def detect_securestring(view: ScriptView) -> bool:
    return (
        "securestring" in view.lowered
        or "ptrtostringauto" in view.lowered
        or "securestringtobstr" in view.lowered
    )


def detect_deflate(view: ScriptView) -> bool:
    return (
        "deflatestream" in view.lowered or "gzipstream" in view.lowered
    )


DETECTORS: Dict[str, Callable[[ScriptView], bool]] = {
    "ticking": detect_ticking,
    "whitespacing": detect_whitespacing,
    "random_case": detect_random_case,
    "random_name": detect_random_name,
    "alias": detect_alias,
    "concat": detect_concat,
    "reorder": detect_reorder,
    "replace": detect_replace,
    "reverse": detect_reverse,
    "encode_numeric": detect_encode_numeric,
    "encode_ascii": detect_encode_ascii,
    "base64": detect_base64,
    "whitespace_encoding": detect_whitespace_encoding,
    "specialchar": detect_specialchar,
    "bxor": detect_bxor,
    "securestring": detect_securestring,
    "deflate": detect_deflate,
}

TECHNIQUE_LEVELS: Dict[str, int] = {
    "ticking": 1,
    "whitespacing": 1,
    "random_case": 1,
    "random_name": 1,
    "alias": 1,
    "concat": 2,
    "reorder": 2,
    "replace": 2,
    "reverse": 2,
    "encode_numeric": 3,
    "encode_ascii": 3,
    "base64": 3,
    "whitespace_encoding": 3,
    "specialchar": 3,
    "bxor": 3,
    "securestring": 3,
    "deflate": 3,
}


# Technique tagging re-runs on every exposed layer of every sample, and
# service/batch workloads see the same scripts repeatedly — a bounded
# LRU of views (tokens + AST, both read-only to detectors) removes the
# re-tokenize/re-parse cost.  The cache is this module's own, so
# another language's technique pass can never replay a PowerShell view.
from repro.caching import MAX_SOURCE_CHARS, LRUCache

_view_cache = LRUCache(max_entries=256)


def _view_for(script: str) -> ScriptView:
    return _view_cache.get_or_build(
        script, ScriptView, keep=len(script) <= MAX_SOURCE_CHARS
    )


def detect_techniques(script: str) -> Set[str]:
    """The set of known techniques detected in *script*."""
    view = _view_for(script)
    found: Set[str] = set()
    for name, detector in DETECTORS.items():
        try:
            if detector(view):
                found.add(name)
        except RecursionError:  # pragma: no cover - defensive
            continue
    return found
