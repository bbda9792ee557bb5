"""Recursive-descent parser for the JavaScript subset.

Produces :mod:`repro.frontend.js.ast_nodes` trees whose extents are
byte-precise slices of the source — the invariant the in-place splicing
recovery relies on.  The grammar is the minimal closure of what the
commodity-obfuscator subset needs:

.. code-block:: text

    program    := statement*
    statement  := ('var'|'let'|'const') declarator (',' declarator)* ';'?
                | expression ';'?
    declarator := IDENT ('=' assignment)?
    assignment := conditional ('=' assignment)?
    additive   := multiplicative (('+'|'-') multiplicative)*
    ...        (usual precedence ladder down to)
    primary    := literal | IDENT | array | '(' assignment ')'
    postfix    := primary ('.' IDENT | '[' assignment ']' | call-args)*

Results are memoized in this module's own :class:`~repro.caching.
LRUCache`, mirroring (and isolated from) the PowerShell parse cache.
"""

from typing import List, Optional, Tuple

from repro.caching import MAX_SOURCE_CHARS, LRUCache
from repro.frontend.js import ast_nodes as N
from repro.frontend.js.errors import JsLexError, JsParseError
from repro.frontend.js.lexer import JsToken, JsTokenType, tokenize

_parse_cache = LRUCache(max_entries=1024)

# Binary precedence ladder, loosest first.  Comparison/equality/logical
# operators parse (so real-world guards do not break the tree) even
# though the evaluator only folds a pure subset of them.
_BINARY_LEVELS = (
    ("||",),
    ("&&",),
    ("===", "!==", "==", "!="),
    ("<", ">", "<=", ">="),
    ("+", "-"),
    ("*", "/", "%"),
)

_UNARY_OPERATORS = ("-", "+", "!", "typeof")


class _Parser:
    def __init__(self, source: str, tokens: List[JsToken]):
        self.source = source
        self.tokens = tokens
        self.pos = 0

    # -- token helpers -----------------------------------------------------

    def _peek(self, offset: int = 0) -> Optional[JsToken]:
        index = self.pos + offset
        return self.tokens[index] if index < len(self.tokens) else None

    def _next(self) -> JsToken:
        token = self._peek()
        if token is None:
            raise JsParseError("unexpected end of input")
        self.pos += 1
        return token

    def _at_punct(self, *texts: str) -> bool:
        token = self._peek()
        return (
            token is not None
            and token.type is JsTokenType.PUNCT
            and token.text in texts
        )

    def _at_keyword(self, *texts: str) -> bool:
        token = self._peek()
        return (
            token is not None
            and token.type is JsTokenType.KEYWORD
            and token.text in texts
        )

    def _expect_punct(self, text: str) -> JsToken:
        token = self._peek()
        if token is None:
            raise JsParseError(f"expected {text!r}, found end of input")
        if token.type is not JsTokenType.PUNCT or token.text != text:
            raise JsParseError(
                f"expected {text!r}, found {token.text!r} "
                f"at offset {token.start}"
            )
        return self._next()

    # -- grammar -----------------------------------------------------------

    def parse_program(self) -> N.Program:
        body: List[N.JsNode] = []
        while self._peek() is not None:
            body.append(self.parse_statement())
        start = body[0].start if body else 0
        end = body[-1].end if body else 0
        program = N.Program(start, end, body)
        program.link_parents()
        return program

    def _statement_end(self, end: int) -> int:
        """Fold an optional trailing ``;`` into the statement extent so
        splicing over a statement never strands its terminator."""
        if self._at_punct(";"):
            return self._next().end
        return end

    def parse_statement(self) -> N.JsNode:
        if self._at_keyword("var", "let", "const"):
            return self.parse_declaration()
        expression = self.parse_assignment()
        end = self._statement_end(expression.end)
        return N.ExpressionStatement(expression.start, end, expression)

    def parse_declaration(self) -> N.JsNode:
        keyword = self._next()
        declarations: List[N.VariableDeclaration] = []
        while True:
            name = self._next()
            if name.type is not JsTokenType.IDENT:
                raise JsParseError(
                    f"expected identifier after {keyword.text!r} "
                    f"at offset {name.start}"
                )
            init: Optional[N.JsNode] = None
            end = name.end
            if self._at_punct("="):
                self._next()
                init = self.parse_assignment()
                end = init.end
            declarations.append(N.VariableDeclaration(
                keyword.start, end, keyword.text, name.value, init
            ))
            if not self._at_punct(","):
                break
            self._next()
        end = self._statement_end(declarations[-1].end)
        for declaration in declarations:
            declaration.end = end
        if len(declarations) == 1:
            return declarations[0]
        # Comma lists keep one node per declarator; they share the full
        # statement extent so none of them is individually spliceable.
        block = N.Program(keyword.start, end, list(declarations))
        return block

    def parse_assignment(self) -> N.JsNode:
        left = self.parse_binary(0)
        if self._at_punct("=") and isinstance(
            left, (N.Identifier, N.MemberExpression)
        ):
            self._next()
            value = self.parse_assignment()
            return N.AssignmentExpression(
                left.start, value.end, left, value
            )
        return left

    def parse_binary(self, level: int) -> N.JsNode:
        if level >= len(_BINARY_LEVELS):
            return self.parse_unary()
        operators = _BINARY_LEVELS[level]
        node = self.parse_binary(level + 1)
        while self._at_punct(*operators):
            operator = self._next().text
            right = self.parse_binary(level + 1)
            node = N.BinaryExpression(
                node.start, right.end, operator, node, right
            )
        return node

    def parse_unary(self) -> N.JsNode:
        token = self._peek()
        if token is not None and (
            (token.type is JsTokenType.PUNCT and token.text in ("-", "+", "!"))
            or (token.type is JsTokenType.KEYWORD and token.text == "typeof")
        ):
            self._next()
            operand = self.parse_unary()
            return N.UnaryExpression(
                token.start, operand.end, token.text, operand
            )
        return self.parse_postfix()

    def parse_postfix(self) -> N.JsNode:
        node = self.parse_primary()
        while True:
            if self._at_punct("."):
                self._next()
                name = self._next()
                if name.type not in (JsTokenType.IDENT, JsTokenType.KEYWORD):
                    raise JsParseError(
                        f"expected property name at offset {name.start}"
                    )
                node = N.MemberExpression(
                    node.start, name.end, node, property_=name.text
                )
            elif self._at_punct("["):
                self._next()
                index = self.parse_assignment()
                close = self._expect_punct("]")
                node = N.MemberExpression(
                    node.start, close.end, node, index=index, computed=True
                )
            elif self._at_punct("("):
                self._next()
                arguments: List[N.JsNode] = []
                if not self._at_punct(")"):
                    while True:
                        arguments.append(self.parse_assignment())
                        if not self._at_punct(","):
                            break
                        self._next()
                close = self._expect_punct(")")
                node = N.CallExpression(
                    node.start, close.end, node, arguments
                )
            else:
                return node

    def parse_primary(self) -> N.JsNode:
        token = self._peek()
        if token is None:
            raise JsParseError("unexpected end of input")
        if token.type is JsTokenType.STRING:
            self._next()
            return N.StringLiteral(token.start, token.end, token.value)
        if token.type is JsTokenType.NUMBER:
            self._next()
            return N.NumberLiteral(token.start, token.end, token.value)
        if token.type is JsTokenType.IDENT:
            self._next()
            return N.Identifier(token.start, token.end, token.value)
        if token.type is JsTokenType.KEYWORD and token.text in (
            "true", "false", "null", "undefined"
        ):
            # Value keywords surface as identifiers; the evaluator maps
            # them to constants, and the recoverable predicate skips
            # them the same way it skips every other bare identifier.
            self._next()
            return N.Identifier(token.start, token.end, token.value)
        if token.type is JsTokenType.PUNCT and token.text == "(":
            self._next()
            inner = self.parse_assignment()
            close = self._expect_punct(")")
            return N.ParenExpression(token.start, close.end, inner)
        if token.type is JsTokenType.PUNCT and token.text == "[":
            self._next()
            elements: List[N.JsNode] = []
            if not self._at_punct("]"):
                while True:
                    elements.append(self.parse_assignment())
                    if not self._at_punct(","):
                        break
                    self._next()
            close = self._expect_punct("]")
            return N.ArrayLiteral(token.start, close.end, elements)
        raise JsParseError(
            f"unexpected token {token.text!r} at offset {token.start}"
        )


def parse(source: str) -> N.Program:
    """Parse *source*; raises :class:`JsLexError`/:class:`JsParseError`."""
    parser = _Parser(source, tokenize(source))
    return parser.parse_program()


def parse_cached(source: str) -> N.Program:
    """Parse through the process-wide cache.  Cached trees are shared —
    treat them as read-only."""
    return _parse_cache.get_or_build(
        source, parse, keep=len(source) <= MAX_SOURCE_CHARS
    )


def try_parse(source: str) -> Tuple[Optional[N.Program], Optional[str]]:
    """``(ast, None)`` or ``(None, error_message)``."""
    try:
        return parse_cached(source), None
    except (JsLexError, JsParseError) as exc:
        return None, str(exc)


def clear_parse_cache() -> None:
    _parse_cache.clear()


def parse_cache_info() -> Tuple[int, int, int]:
    """``(entries, hits, misses)`` of the JS parse cache."""
    return len(_parse_cache), _parse_cache.hits, _parse_cache.misses
