"""Recursive-descent parser producing the PowerShell-style AST.

The parser consumes the token stream of :mod:`repro.pslang.lexer` and
builds :mod:`repro.pslang.ast_nodes` trees with byte-precise extents.  It
covers the language subset every obfuscation technique in the paper's
Table II exercises: pipelines, commands with parameters, the full operator
zoo (``-f``, ``-split``, ``-join``, ``-bxor``, ``-replace``...), casts,
member/index/method access, sub/array/paren expressions, hashtables,
script blocks, assignments, and the control-flow statements that matter
for variable tracing (``if``/``while``/``for``/``foreach``...).
"""

from typing import List, Optional, Tuple

from repro.pslang import ast_nodes as N
from repro.pslang import charsets
from repro.pslang.errors import ParseError
from repro.pslang.lexer import lex
from repro.pslang.tokens import PSToken, PSTokenType

# Operator families, loosest-binding first (see about_Operator_Precedence).
_LOGICAL = {"-and", "-or", "-xor"}
_BITWISE = {"-band", "-bor", "-bxor", "-shl", "-shr"}
_COMPARISON = (
    {"-" + op for op in charsets.COMPARISON_OPERATORS}
)
_ADDITIVE = {"+", "-"}
_MULTIPLICATIVE = {"*", "/", "%"}
_FORMAT = {"-f"}
_RANGE = {".."}
_UNARY = {"-", "+", "!", "-not", "-bnot", "-split", "-isplit", "-csplit", "-join", "++", "--"}
_ASSIGNMENT = {"=", "+=", "-=", "*=", "/=", "%="}

_PIPELINE_TERMINATORS = {"|", "&&", "||"}

_PRIMARY_STARTERS = {
    PSTokenType.STRING,
    PSTokenType.NUMBER,
    PSTokenType.VARIABLE,
    PSTokenType.TYPE,
    PSTokenType.GROUP_START,
}


def parse_number(text: str):
    """Parse a PowerShell numeric literal into a Python number."""
    cleaned = text.strip().lower().replace("`", "")
    sign = 1
    if cleaned and cleaned[0] in "+-":
        if cleaned[0] == "-":
            sign = -1
        cleaned = cleaned[1:]
    multiplier = 1
    for suffix, value in charsets.NUMERIC_MULTIPLIERS.items():
        if cleaned.endswith(suffix):
            multiplier = value
            cleaned = cleaned[: -len(suffix)]
            break
    else:
        if cleaned.endswith(("l", "d")):
            cleaned = cleaned[:-1]
    if cleaned.startswith("0x"):
        return sign * int(cleaned, 16) * multiplier
    if any(ch in cleaned for ch in ".e"):
        value = float(cleaned) * multiplier
        return sign * (int(value) if value.is_integer() and "e" not in cleaned else value)
    if cleaned == "":
        raise ParseError(f"bad number literal {text!r}")
    return sign * int(cleaned) * multiplier


class Parser:
    def __init__(self, source: str):
        self.source = source
        self.tokens = [
            t
            for t in lex(source)
            if t.type
            not in (PSTokenType.COMMENT, PSTokenType.LINE_CONTINUATION)
        ]
        self.pos = 0
        self.group_depth = 0
        self._last_paren_end = 0

    # -- token cursor --------------------------------------------------------

    def _peek(self, offset: int = 0) -> Optional[PSToken]:
        index = self.pos + offset
        self._skip_soft_newlines()
        index = self.pos + offset
        if index < len(self.tokens):
            return self.tokens[index]
        return None

    def _peek_raw(self) -> Optional[PSToken]:
        if self.pos < len(self.tokens):
            return self.tokens[self.pos]
        return None

    def _skip_soft_newlines(self) -> None:
        """Inside any grouping construct, newlines are insignificant."""
        if self.group_depth <= 0:
            return
        while (
            self.pos < len(self.tokens)
            and self.tokens[self.pos].type is PSTokenType.NEWLINE
        ):
            self.pos += 1

    def _next(self) -> PSToken:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input", len(self.source))
        self.pos += 1
        return token

    def _at_end(self) -> bool:
        return self._peek() is None

    def _expect_group_end(self, closer: str, opener_offset: int) -> PSToken:
        token = self._peek()
        if (
            token is None
            or token.type is not PSTokenType.GROUP_END
            or token.content != closer
        ):
            raise ParseError(
                f"expected {closer!r} to close group", opener_offset
            )
        return self._next()

    def _is_operator(self, token: Optional[PSToken], *contents: str) -> bool:
        return (
            token is not None
            and token.type is PSTokenType.OPERATOR
            and token.content in contents
        )

    # -- entry points ----------------------------------------------------------

    def parse(self) -> N.ScriptBlockAst:
        statements, param_block = self._parse_statement_list(top=True)
        end = len(self.source)
        root = N.ScriptBlockAst(
            start=0,
            end=end,
            statements=statements,
            param_block=param_block,
            source=self.source,
        )
        N.link_parents(root)
        return root

    # -- statements ------------------------------------------------------------

    def _parse_statement_list(
        self, closer: Optional[str] = None, top: bool = False
    ) -> Tuple[List[N.StatementAst], Optional[N.ParamBlockAst]]:
        statements: List[N.StatementAst] = []
        param_block: Optional[N.ParamBlockAst] = None
        while True:
            token = self._peek_raw() if self.group_depth == 0 else self._peek()
            if token is None:
                if closer is not None:
                    raise ParseError(f"missing closing {closer!r}")
                break
            if token.type in (
                PSTokenType.NEWLINE,
                PSTokenType.STATEMENT_SEPARATOR,
            ):
                self.pos += 1
                continue
            if (
                closer is not None
                and token.type is PSTokenType.GROUP_END
                and token.content == closer
            ):
                break
            if closer is not None and token.type is PSTokenType.GROUP_END:
                raise ParseError(
                    f"unbalanced group: got {token.content!r}, "
                    f"expected {closer!r}",
                    token.start,
                )
            if closer is None and token.type is PSTokenType.GROUP_END:
                raise ParseError(
                    f"unexpected {token.content!r}", token.start
                )
            if (
                token.type is PSTokenType.KEYWORD
                and token.content.lower() == "param"
                and not statements
                and param_block is None
            ):
                param_block = self._parse_param_block()
                continue
            statements.append(self._parse_statement())
        return statements, param_block

    def _parse_statement(self) -> N.StatementAst:
        token = self._peek()
        if token is None:
            raise ParseError("expected a statement", len(self.source))
        if token.type is PSTokenType.KEYWORD:
            return self._parse_keyword_statement(token)
        return self._parse_pipeline_statement()

    def _parse_keyword_statement(self, token: PSToken) -> N.StatementAst:
        keyword = token.content.lower()
        handlers = {
            "if": self._parse_if,
            "while": self._parse_while,
            "do": self._parse_do,
            "for": self._parse_for,
            "foreach": self._parse_foreach,
            "function": self._parse_function,
            "filter": self._parse_function,
            "workflow": self._parse_function,
            "return": self._parse_return,
            "throw": self._parse_throw,
            "exit": self._parse_exit,
            "break": self._parse_break,
            "continue": self._parse_continue,
            "try": self._parse_try,
            "switch": self._parse_switch,
        }
        handler = handlers.get(keyword)
        if handler is None:
            raise ParseError(
                f"unsupported keyword {token.content!r}", token.start
            )
        return handler()

    def _parse_condition_paren(self) -> N.StatementAst:
        token = self._peek()
        if not (
            token is not None
            and token.type is PSTokenType.GROUP_START
            and token.content == "("
        ):
            raise ParseError("expected '(' after keyword",
                             token.start if token else -1)
        self._next()
        self.group_depth += 1
        condition = self._parse_statement()
        self.group_depth -= 1
        closer = self._expect_group_end(")", token.start)
        self._last_paren_end = closer.end
        return condition

    def _parse_block(self) -> N.StatementBlockAst:
        token = self._peek()
        if not (
            token is not None
            and token.type is PSTokenType.GROUP_START
            and token.content == "{"
        ):
            raise ParseError("expected '{' block", token.start if token else -1)
        self._next()
        saved_depth = self.group_depth
        self.group_depth = 0
        try:
            statements, _ = self._parse_statement_list(closer="}")
        finally:
            self.group_depth = saved_depth
        closer = self._expect_group_end("}", token.start)
        return N.StatementBlockAst(
            start=token.start, end=closer.end, statements=statements
        )

    def _parse_if(self) -> N.IfStatementAst:
        first = self._next()  # 'if'
        clauses = []
        condition = self._parse_condition_paren()
        body = self._parse_block()
        clauses.append((condition, body))
        else_body = None
        end = body.end
        while True:
            token = self._peek()
            if token is not None and token.type is PSTokenType.KEYWORD:
                lowered = token.content.lower()
                if lowered == "elseif":
                    self._next()
                    cond = self._parse_condition_paren()
                    blk = self._parse_block()
                    clauses.append((cond, blk))
                    end = blk.end
                    continue
                if lowered == "else":
                    self._next()
                    else_body = self._parse_block()
                    end = else_body.end
            break
        return N.IfStatementAst(
            start=first.start, end=end, clauses=clauses, else_body=else_body
        )

    def _parse_while(self) -> N.WhileStatementAst:
        first = self._next()
        condition = self._parse_condition_paren()
        body = self._parse_block()
        return N.WhileStatementAst(
            start=first.start, end=body.end, condition=condition, body=body
        )

    def _parse_do(self) -> N.DoWhileStatementAst:
        first = self._next()
        body = self._parse_block()
        token = self._peek()
        until = False
        if token is not None and token.type is PSTokenType.KEYWORD:
            lowered = token.content.lower()
            if lowered in ("while", "until"):
                until = lowered == "until"
                self._next()
            else:
                raise ParseError("expected while/until after do", token.start)
        else:
            raise ParseError("expected while/until after do",
                             token.start if token else -1)
        condition = self._parse_condition_paren()
        return N.DoWhileStatementAst(
            start=first.start,
            end=self._last_paren_end,
            body=body,
            condition=condition,
            until=until,
        )

    def _parse_for(self) -> N.ForStatementAst:
        first = self._next()
        token = self._peek()
        if not (
            token is not None
            and token.type is PSTokenType.GROUP_START
            and token.content == "("
        ):
            raise ParseError("expected '(' after for", first.start)
        self._next()
        self.group_depth += 1

        def part(closing: str) -> Optional[N.StatementAst]:
            tok = self._peek()
            if tok is not None and (
                tok.type is PSTokenType.STATEMENT_SEPARATOR
                or (tok.type is PSTokenType.GROUP_END and tok.content == ")")
            ):
                return None
            return self._parse_statement()

        initializer = part(";")
        self._eat_separator()
        condition = part(";")
        self._eat_separator()
        iterator = part(")")
        self.group_depth -= 1
        self._expect_group_end(")", token.start)
        body = self._parse_block()
        return N.ForStatementAst(
            start=first.start,
            end=body.end,
            initializer=initializer,
            condition=condition,
            iterator=iterator,
            body=body,
        )

    def _eat_separator(self) -> None:
        token = self._peek()
        if token is not None and token.type is PSTokenType.STATEMENT_SEPARATOR:
            self._next()

    def _parse_foreach(self) -> N.ForEachStatementAst:
        first = self._next()
        token = self._peek()
        if not (
            token is not None
            and token.type is PSTokenType.GROUP_START
            and token.content == "("
        ):
            raise ParseError("expected '(' after foreach", first.start)
        self._next()
        self.group_depth += 1
        var_token = self._next()
        if var_token.type is not PSTokenType.VARIABLE:
            raise ParseError("expected variable in foreach", var_token.start)
        variable = N.VariableExpressionAst(
            start=var_token.start, end=var_token.end, name=var_token.content
        )
        in_token = self._next()
        if not (
            in_token.type is PSTokenType.KEYWORD
            and in_token.content.lower() == "in"
        ):
            raise ParseError("expected 'in' in foreach", in_token.start)
        expression = self._parse_statement()
        self.group_depth -= 1
        self._expect_group_end(")", token.start)
        body = self._parse_block()
        return N.ForEachStatementAst(
            start=first.start,
            end=body.end,
            variable=variable,
            expression=expression,
            body=body,
        )

    def _parse_function(self) -> N.FunctionDefinitionAst:
        first = self._next()
        is_filter = first.content.lower() == "filter"
        name_token = self._next()
        if name_token.type not in (
            PSTokenType.COMMAND_ARGUMENT,
            PSTokenType.COMMAND,
            PSTokenType.STRING,
        ):
            raise ParseError("expected function name", name_token.start)
        parameters: List[N.ParameterAst] = []
        token = self._peek()
        if (
            token is not None
            and token.type is PSTokenType.GROUP_START
            and token.content == "("
        ):
            self._next()
            self.group_depth += 1
            parameters = self._parse_parameter_list(")")
            self.group_depth -= 1
            self._expect_group_end(")", token.start)
            token = self._peek()
        if not (
            token is not None
            and token.type is PSTokenType.GROUP_START
            and token.content == "{"
        ):
            raise ParseError("expected function body", name_token.start)
        self._next()
        saved_depth = self.group_depth
        self.group_depth = 0
        try:
            statements, param_block = self._parse_statement_list(closer="}")
        finally:
            self.group_depth = saved_depth
        closer = self._expect_group_end("}", token.start)
        body = N.ScriptBlockAst(
            start=token.start,
            end=closer.end,
            statements=statements,
            param_block=param_block,
        )
        return N.FunctionDefinitionAst(
            start=first.start,
            end=closer.end,
            name=name_token.content,
            parameters=parameters,
            body=body,
            is_filter=is_filter,
        )

    def _parse_param_block(self) -> N.ParamBlockAst:
        first = self._next()  # 'param'
        token = self._peek()
        if not (
            token is not None
            and token.type is PSTokenType.GROUP_START
            and token.content == "("
        ):
            raise ParseError("expected '(' after param", first.start)
        self._next()
        self.group_depth += 1
        parameters = self._parse_parameter_list(")")
        self.group_depth -= 1
        closer = self._expect_group_end(")", token.start)
        return N.ParamBlockAst(
            start=first.start, end=closer.end, parameters=parameters
        )

    def _parse_parameter_list(self, closer: str) -> List[N.ParameterAst]:
        parameters: List[N.ParameterAst] = []
        while True:
            token = self._peek()
            if token is None:
                raise ParseError("unterminated parameter list")
            if token.type is PSTokenType.GROUP_END and token.content == closer:
                break
            if token.type is PSTokenType.TYPE:
                self._next()  # attribute/type constraint: skip
                continue
            if token.type is PSTokenType.VARIABLE:
                self._next()
                variable = N.VariableExpressionAst(
                    start=token.start, end=token.end, name=token.content
                )
                default = None
                end = token.end
                if self._is_operator(self._peek(), "="):
                    self._next()
                    default = self._parse_expression()
                    end = default.end
                parameters.append(
                    N.ParameterAst(
                        start=token.start,
                        end=end,
                        variable=variable,
                        default=default,
                    )
                )
                continue
            if self._is_operator(token, ","):
                self._next()
                continue
            raise ParseError(
                f"unexpected token in parameter list: {token.content!r}",
                token.start,
            )
        return parameters

    def _parse_return(self) -> N.ReturnStatementAst:
        first = self._next()
        pipeline = self._parse_optional_pipeline()
        end = pipeline.end if pipeline is not None else first.end
        return N.ReturnStatementAst(
            start=first.start, end=end, pipeline=pipeline
        )

    def _parse_throw(self) -> N.ThrowStatementAst:
        first = self._next()
        pipeline = self._parse_optional_pipeline()
        end = pipeline.end if pipeline is not None else first.end
        return N.ThrowStatementAst(
            start=first.start, end=end, pipeline=pipeline
        )

    def _parse_exit(self) -> N.ExitStatementAst:
        first = self._next()
        pipeline = self._parse_optional_pipeline()
        end = pipeline.end if pipeline is not None else first.end
        return N.ExitStatementAst(
            start=first.start, end=end, pipeline=pipeline
        )

    def _parse_optional_pipeline(self) -> Optional[N.StatementAst]:
        token = self._peek_raw() if self.group_depth == 0 else self._peek()
        if token is None or token.type in (
            PSTokenType.NEWLINE,
            PSTokenType.STATEMENT_SEPARATOR,
            PSTokenType.GROUP_END,
        ):
            return None
        return self._parse_pipeline_statement()

    def _parse_break(self) -> N.BreakStatementAst:
        first = self._next()
        return N.BreakStatementAst(start=first.start, end=first.end)

    def _parse_continue(self) -> N.ContinueStatementAst:
        first = self._next()
        return N.ContinueStatementAst(start=first.start, end=first.end)

    def _parse_try(self) -> N.TryStatementAst:
        first = self._next()
        body = self._parse_block()
        catches: List[N.StatementBlockAst] = []
        finally_body = None
        end = body.end
        while True:
            token = self._peek()
            if token is None or token.type is not PSTokenType.KEYWORD:
                break
            lowered = token.content.lower()
            if lowered == "catch":
                self._next()
                nxt = self._peek()
                while nxt is not None and nxt.type is PSTokenType.TYPE:
                    self._next()
                    nxt = self._peek()
                blk = self._parse_block()
                catches.append(blk)
                end = blk.end
            elif lowered == "finally":
                self._next()
                finally_body = self._parse_block()
                end = finally_body.end
            else:
                break
        return N.TryStatementAst(
            start=first.start,
            end=end,
            body=body,
            catches=catches,
            finally_body=finally_body,
        )

    def _parse_switch(self) -> N.SwitchStatementAst:
        first = self._next()
        # Skip switch flags like -regex.
        token = self._peek()
        while token is not None and token.type in (
            PSTokenType.COMMAND_PARAMETER,
            PSTokenType.OPERATOR,
        ) and token.type is not PSTokenType.GROUP_START:
            if token.type is PSTokenType.OPERATOR and token.content not in (
                "-regex", "-wildcard", "-exact", "-casesensitive",
            ):
                break
            self._next()
            token = self._peek()
        condition = self._parse_condition_paren()
        token = self._peek()
        if not (
            token is not None
            and token.type is PSTokenType.GROUP_START
            and token.content == "{"
        ):
            raise ParseError("expected '{' after switch", first.start)
        self._next()
        self.group_depth += 1
        clauses: List[Tuple[N.Ast, N.StatementBlockAst]] = []
        default = None
        while True:
            tok = self._peek()
            if tok is None:
                raise ParseError("unterminated switch", first.start)
            if tok.type is PSTokenType.GROUP_END and tok.content == "}":
                break
            if tok.type in (
                PSTokenType.NEWLINE,
                PSTokenType.STATEMENT_SEPARATOR,
            ):
                self.pos += 1
                continue
            if (
                tok.type in (PSTokenType.KEYWORD, PSTokenType.COMMAND,
                             PSTokenType.COMMAND_ARGUMENT)
                and tok.content.lower() == "default"
            ):
                self._next()
                default = self._parse_block()
                continue
            test = self._parse_expression()
            body = self._parse_block()
            clauses.append((test, body))
        self.group_depth -= 1
        closer = self._expect_group_end("}", first.start)
        return N.SwitchStatementAst(
            start=first.start,
            end=closer.end,
            condition=condition,
            clauses=clauses,
            default=default,
        )

    # -- pipelines and commands ---------------------------------------------------

    def _parse_pipeline_statement(self) -> N.StatementAst:
        token = self._peek()
        assert token is not None
        first_element: Optional[N.Ast] = None
        if token.type in _PRIMARY_STARTERS or (
            token.type is PSTokenType.OPERATOR
            and token.content in ("-", "+", "!", "-not", "-bnot",
                                  "-split", "-isplit", "-csplit", "-join",
                                  "++", "--", ",")
        ):
            expression = self._parse_expression()
            next_token = self._peek()
            if (
                next_token is not None
                and next_token.type is PSTokenType.OPERATOR
                and next_token.content in _ASSIGNMENT
            ):
                self._next()
                right = self._parse_statement()
                return N.AssignmentStatementAst(
                    start=expression.start,
                    end=right.end,
                    left=expression,
                    operator=next_token.content,
                    right=right,
                )
            first_element = N.CommandExpressionAst(
                start=expression.start,
                end=expression.end,
                expression=expression,
            )
        return self._parse_pipeline(first_element)

    def _parse_pipeline(self, first_element: Optional[N.Ast]) -> N.PipelineAst:
        elements: List[N.Ast] = []
        if first_element is not None:
            elements.append(first_element)
        else:
            elements.append(self._parse_pipeline_element())
        while True:
            token = self._peek()
            if self._is_operator(token, "|"):
                self._next()
                elements.append(self._parse_pipeline_element())
                continue
            if self._is_operator(token, "&&", "||"):
                # Pipeline chain: model as separate elements for simplicity.
                self._next()
                elements.append(self._parse_pipeline_element())
                continue
            break
        return N.PipelineAst(
            start=elements[0].start, end=elements[-1].end, elements=elements
        )

    def _parse_pipeline_element(self) -> N.Ast:
        token = self._peek()
        if token is None:
            raise ParseError("expected a pipeline element", len(self.source))
        if token.type is PSTokenType.COMMAND:
            return self._parse_command(invocation=None)
        if self._is_operator(token, "&", "."):
            self._next()
            return self._parse_command(
                invocation=token.content, start=token.start
            )
        if token.type in _PRIMARY_STARTERS or token.type is PSTokenType.OPERATOR:
            expression = self._parse_expression()
            return N.CommandExpressionAst(
                start=expression.start,
                end=expression.end,
                expression=expression,
            )
        if token.type in (PSTokenType.COMMAND_ARGUMENT, PSTokenType.KEYWORD):
            # Lexer classified a word mid-expression; treat it as a command
            # (e.g. `| iex` classified correctly, but `| %{...}` may vary).
            return self._parse_command(invocation=None)
        raise ParseError(
            f"cannot start pipeline element with {token.content!r}",
            token.start,
        )

    _COMMAND_NAME_TYPES = (
        PSTokenType.COMMAND,
        PSTokenType.COMMAND_ARGUMENT,
        PSTokenType.KEYWORD,
        PSTokenType.MEMBER,
    )

    def _parse_command(
        self, invocation: Optional[str], start: Optional[int] = None
    ) -> N.CommandAst:
        elements: List[N.Ast] = []
        redirections: List[str] = []
        token = self._peek()
        if token is None:
            raise ParseError("expected command name", len(self.source))
        cmd_start = start if start is not None else token.start

        # Command-name element.
        if token.type in self._COMMAND_NAME_TYPES:
            self._next()
            elements.append(
                N.StringConstantExpressionAst(
                    start=token.start,
                    end=token.end,
                    value=token.content,
                    quote="",
                )
            )
        else:
            # Computed command name after & or . : string/var/paren.
            name_expr = self._parse_argument()
            elements.append(name_expr)

        # Arguments until a statement/pipeline terminator.
        while True:
            token = self._peek_raw() if self.group_depth == 0 else self._peek()
            if token is None:
                break
            if token.type in (
                PSTokenType.NEWLINE,
                PSTokenType.STATEMENT_SEPARATOR,
                PSTokenType.GROUP_END,
            ):
                break
            if token.type is PSTokenType.OPERATOR and token.content in (
                "|", "&&", "||",
            ):
                break
            if token.type is PSTokenType.OPERATOR and token.content in (
                ">", ">>",
            ):
                self._next()
                target = self._peek()
                if target is not None and target.type in (
                    PSTokenType.COMMAND_ARGUMENT,
                    PSTokenType.STRING,
                    PSTokenType.NUMBER,
                    PSTokenType.VARIABLE,
                ):
                    self._next()
                    redirections.append(
                        token.content + " " + target.content
                    )
                else:
                    redirections.append(token.content)
                continue
            if token.type is PSTokenType.COMMAND_PARAMETER:
                self._next()
                name = token.content
                argument = None
                end = token.end
                if ":" in name[1:]:
                    # `-Param:value` may lex as a single word; split it.
                    head, _, inline = name.partition(":")
                    name = head
                    if inline:
                        offset = token.start + len(head) + 1
                        argument = N.StringConstantExpressionAst(
                            start=offset,
                            end=token.end,
                            value=inline,
                            quote="",
                        )
                    else:
                        argument = self._parse_argument()
                        end = argument.end
                elements.append(
                    N.CommandParameterAst(
                        start=token.start,
                        end=end,
                        name=name.rstrip(":"),
                        argument=argument,
                    )
                )
                continue
            elements.append(self._parse_argument())

        end = elements[-1].end if elements else cmd_start
        return N.CommandAst(
            start=cmd_start,
            end=end,
            elements=elements,
            invocation_operator=invocation,
            redirections=redirections,
        )

    def _parse_argument(self) -> N.ExpressionAst:
        """One command argument: a postfix-expression, maybe comma-joined."""
        first = self._parse_argument_single()
        token = self._peek()
        if not self._is_operator(token, ","):
            return first
        elements = [first]
        while self._is_operator(self._peek(), ","):
            self._next()
            elements.append(self._parse_argument_single())
        return N.ArrayLiteralAst(
            start=elements[0].start, end=elements[-1].end, elements=elements
        )

    def _parse_argument_single(self) -> N.ExpressionAst:
        token = self._peek()
        if token is None:
            raise ParseError("expected command argument", len(self.source))
        if token.type in (PSTokenType.COMMAND_ARGUMENT, PSTokenType.KEYWORD,
                          PSTokenType.COMMAND, PSTokenType.MEMBER):
            self._next()
            node: N.ExpressionAst = N.StringConstantExpressionAst(
                start=token.start, end=token.end, value=token.content, quote=""
            )
            return self._parse_postfix(node)
        return self._parse_unary()

    # -- expressions ---------------------------------------------------------------

    def _parse_expression(self) -> N.ExpressionAst:
        return self._parse_binary_level(0)

    _LEVELS = (_LOGICAL, _BITWISE, _COMPARISON, _ADDITIVE, _MULTIPLICATIVE,
               _FORMAT, _RANGE)

    def _parse_binary_level(self, level: int) -> N.ExpressionAst:
        if level >= len(self._LEVELS):
            return self._parse_comma_level()
        operators = self._LEVELS[level]
        left = self._parse_binary_level(level + 1)
        while True:
            token = self._peek()
            if (
                token is not None
                and token.type is PSTokenType.OPERATOR
                and token.content.lower() in operators
            ):
                self._next()
                right = self._parse_binary_level(level + 1)
                left = N.BinaryExpressionAst(
                    start=left.start,
                    end=right.end,
                    operator=token.content.lower(),
                    left=left,
                    right=right,
                )
                continue
            break
        return left

    def _parse_comma_level(self) -> N.ExpressionAst:
        token = self._peek()
        if self._is_operator(token, ","):
            # Leading comma: unary array of one element.
            self._next()
            element = self._parse_unary()
            return N.ArrayLiteralAst(
                start=token.start, end=element.end, elements=[element]
            )
        first = self._parse_unary()
        if not self._is_operator(self._peek(), ","):
            return first
        elements = [first]
        while self._is_operator(self._peek(), ","):
            self._next()
            elements.append(self._parse_unary())
        return N.ArrayLiteralAst(
            start=elements[0].start, end=elements[-1].end, elements=elements
        )

    def _parse_unary(self) -> N.ExpressionAst:
        token = self._peek()
        if token is None:
            raise ParseError("expected expression", len(self.source))
        if token.type is PSTokenType.OPERATOR and token.content.lower() in _UNARY:
            self._next()
            child = self._parse_unary()
            return N.UnaryExpressionAst(
                start=token.start,
                end=child.end,
                operator=token.content.lower(),
                child=child,
            )
        if token.type is PSTokenType.TYPE:
            self._next()
            nxt = self._peek()
            if nxt is not None and (
                nxt.type in _PRIMARY_STARTERS
                or (
                    nxt.type is PSTokenType.OPERATOR
                    and nxt.content.lower() in _UNARY
                )
            ):
                # A cast binds to the following unary expression — except
                # when the next token starts a *static member* access of
                # this very type ([Convert]::X) which postfix handles.
                if not self._is_operator(nxt, "::"):
                    child = self._parse_unary()
                    node: N.ExpressionAst = N.ConvertExpressionAst(
                        start=token.start,
                        end=child.end,
                        type_name_str=token.content,
                        child=child,
                    )
                    return self._parse_postfix(node)
            node = N.TypeExpressionAst(
                start=token.start, end=token.end, type_name_str=token.content
            )
            return self._parse_postfix(node)
        primary = self._parse_primary()
        return self._parse_postfix(primary)

    def _parse_primary(self) -> N.ExpressionAst:
        token = self._next()
        if token.type is PSTokenType.STRING:
            if token.quote in ('"', '@"'):
                return N.ExpandableStringExpressionAst(
                    start=token.start,
                    end=token.end,
                    value=token.content,
                    quote=token.quote,
                )
            return N.StringConstantExpressionAst(
                start=token.start,
                end=token.end,
                value=token.content,
                quote=token.quote or "'",
            )
        if token.type is PSTokenType.NUMBER:
            return N.ConstantExpressionAst(
                start=token.start, end=token.end, value=parse_number(token.text)
            )
        if token.type is PSTokenType.VARIABLE:
            return N.VariableExpressionAst(
                start=token.start,
                end=token.end,
                name=token.content,
                splatted=token.text.startswith("@"),
            )
        if token.type is PSTokenType.GROUP_START:
            return self._parse_group(token)
        if token.type in (PSTokenType.COMMAND_ARGUMENT, PSTokenType.KEYWORD,
                          PSTokenType.COMMAND, PSTokenType.MEMBER):
            return N.StringConstantExpressionAst(
                start=token.start, end=token.end, value=token.content, quote=""
            )
        raise ParseError(
            f"unexpected token {token.content!r} in expression", token.start
        )

    def _parse_group(self, opener: PSToken) -> N.ExpressionAst:
        if opener.content == "(":
            # Inside plain parens, newlines are soft (the pipeline may wrap).
            self.group_depth += 1
            try:
                inner = self._parse_statement()
            finally:
                self.group_depth -= 1
            closer = self._expect_group_end(")", opener.start)
            return N.ParenExpressionAst(
                start=opener.start, end=closer.end, pipeline=inner
            )
        # The remaining groups contain *statement lists*, where newlines
        # separate statements and must stay significant.
        saved_depth = self.group_depth
        self.group_depth = 0
        try:
            if opener.content == "$(":
                statements, _ = self._parse_statement_list(closer=")")
                closer = self._expect_group_end(")", opener.start)
                return N.SubExpressionAst(
                    start=opener.start, end=closer.end, statements=statements
                )
            if opener.content == "@(":
                statements, _ = self._parse_statement_list(closer=")")
                closer = self._expect_group_end(")", opener.start)
                return N.ArrayExpressionAst(
                    start=opener.start, end=closer.end, statements=statements
                )
            if opener.content == "@{":
                return self._parse_hashtable(opener)
            if opener.content == "{":
                statements, param_block = self._parse_statement_list(
                    closer="}"
                )
                closer = self._expect_group_end("}", opener.start)
                block = N.ScriptBlockAst(
                    start=opener.start,
                    end=closer.end,
                    statements=statements,
                    param_block=param_block,
                )
                return N.ScriptBlockExpressionAst(
                    start=opener.start, end=closer.end, scriptblock=block
                )
            raise ParseError(
                f"unexpected group opener {opener.content!r}", opener.start
            )
        finally:
            self.group_depth = saved_depth

    def _parse_hashtable(self, opener: PSToken) -> N.HashtableAst:
        pairs: List[Tuple[N.ExpressionAst, N.StatementAst]] = []
        while True:
            token = self._peek_raw()
            if token is None:
                raise ParseError("unterminated hashtable", opener.start)
            if token.type in (
                PSTokenType.NEWLINE,
                PSTokenType.STATEMENT_SEPARATOR,
            ):
                self.pos += 1
                continue
            if token.type is PSTokenType.GROUP_END and token.content == "}":
                break
            key = self._parse_hash_key()
            eq = self._next()
            if not self._is_operator(eq, "="):
                raise ParseError("expected '=' in hashtable", eq.start)
            value = self._parse_statement()
            pairs.append((key, value))
        closer = self._expect_group_end("}", opener.start)
        return N.HashtableAst(start=opener.start, end=closer.end, pairs=pairs)

    def _parse_hash_key(self) -> N.ExpressionAst:
        token = self._next()
        if token.type in (
            PSTokenType.MEMBER,
            PSTokenType.COMMAND_ARGUMENT,
            PSTokenType.COMMAND,
            PSTokenType.KEYWORD,
        ):
            return N.StringConstantExpressionAst(
                start=token.start, end=token.end, value=token.content, quote=""
            )
        if token.type is PSTokenType.STRING:
            return N.StringConstantExpressionAst(
                start=token.start,
                end=token.end,
                value=token.content,
                quote=token.quote,
            )
        if token.type is PSTokenType.NUMBER:
            return N.ConstantExpressionAst(
                start=token.start, end=token.end, value=parse_number(token.text)
            )
        if token.type is PSTokenType.VARIABLE:
            return N.VariableExpressionAst(
                start=token.start, end=token.end, name=token.content
            )
        raise ParseError("bad hashtable key", token.start)

    def _parse_postfix(self, node: N.ExpressionAst) -> N.ExpressionAst:
        while True:
            token = self._peek()
            if token is None:
                return node
            if self._is_operator(token, ".", "::"):
                static = token.content == "::"
                self._next()
                member = self._parse_member_name()
                nxt = self._peek()
                if (
                    nxt is not None
                    and nxt.type is PSTokenType.GROUP_START
                    and nxt.content == "("
                    and nxt.start == member.end
                ):
                    self._next()
                    self.group_depth += 1
                    arguments = self._parse_call_arguments()
                    self.group_depth -= 1
                    closer = self._expect_group_end(")", nxt.start)
                    node = N.InvokeMemberExpressionAst(
                        start=node.start,
                        end=closer.end,
                        expression=node,
                        member=member,
                        static=static,
                        arguments=arguments,
                    )
                else:
                    node = N.MemberExpressionAst(
                        start=node.start,
                        end=member.end,
                        expression=node,
                        member=member,
                        static=static,
                    )
                continue
            if (
                token.type is PSTokenType.GROUP_START
                and token.content == "["
            ):
                self._next()
                self.group_depth += 1
                index = self._parse_expression()
                self.group_depth -= 1
                closer = self._expect_group_end("]", token.start)
                node = N.IndexExpressionAst(
                    start=node.start,
                    end=closer.end,
                    target=node,
                    index=index,
                )
                continue
            if (
                token.type is PSTokenType.GROUP_START
                and token.content == "("
                and isinstance(node, N.MemberExpressionAst)
                and not isinstance(node, N.InvokeMemberExpressionAst)
                and token.start == node.end
            ):
                # Member followed by adjacent parens (after an index, etc.).
                self._next()
                self.group_depth += 1
                arguments = self._parse_call_arguments()
                self.group_depth -= 1
                closer = self._expect_group_end(")", token.start)
                node = N.InvokeMemberExpressionAst(
                    start=node.start,
                    end=closer.end,
                    expression=node.expression,
                    member=node.member,
                    static=node.static,
                    arguments=arguments,
                )
                continue
            if self._is_operator(token, "++", "--"):
                self._next()
                node = N.UnaryExpressionAst(
                    start=node.start,
                    end=token.end,
                    operator=token.content,
                    child=node,
                    postfix=True,
                )
                continue
            return node

    def _parse_member_name(self) -> N.ExpressionAst:
        token = self._next()
        if token.type in (
            PSTokenType.MEMBER,
            PSTokenType.COMMAND_ARGUMENT,
            PSTokenType.COMMAND,
            PSTokenType.KEYWORD,
            PSTokenType.NUMBER,
        ):
            return N.StringConstantExpressionAst(
                start=token.start, end=token.end, value=token.content, quote=""
            )
        if token.type is PSTokenType.STRING:
            return N.StringConstantExpressionAst(
                start=token.start,
                end=token.end,
                value=token.content,
                quote=token.quote,
            )
        if token.type is PSTokenType.VARIABLE:
            return N.VariableExpressionAst(
                start=token.start, end=token.end, name=token.content
            )
        if token.type is PSTokenType.GROUP_START and token.content == "(":
            self.group_depth += 1
            inner = self._parse_statement()
            self.group_depth -= 1
            closer = self._expect_group_end(")", token.start)
            return N.ParenExpressionAst(
                start=token.start, end=closer.end, pipeline=inner
            )
        raise ParseError("expected member name", token.start)

    def _parse_call_arguments(self) -> List[N.ExpressionAst]:
        arguments: List[N.ExpressionAst] = []
        token = self._peek()
        if (
            token is not None
            and token.type is PSTokenType.GROUP_END
            and token.content == ")"
        ):
            return arguments
        while True:
            # Arguments are full expressions, but commas separate them here
            # (not array literals), so parse below the comma level.
            arguments.append(self._parse_method_argument())
            token = self._peek()
            if self._is_operator(token, ","):
                self._next()
                continue
            return arguments

    def _parse_method_argument(self) -> N.ExpressionAst:
        """An argument inside ``f(...)`` — like an expression but commas
        delimit arguments instead of building arrays."""
        saved_levels = self._LEVELS
        left = self._parse_binary_no_comma(0)
        assert self._LEVELS is saved_levels
        return left

    def _parse_binary_no_comma(self, level: int) -> N.ExpressionAst:
        if level >= len(self._LEVELS):
            return self._parse_unary()
        operators = self._LEVELS[level]
        left = self._parse_binary_no_comma(level + 1)
        while True:
            token = self._peek()
            if (
                token is not None
                and token.type is PSTokenType.OPERATOR
                and token.content.lower() in operators
            ):
                self._next()
                right = self._parse_binary_no_comma(level + 1)
                left = N.BinaryExpressionAst(
                    start=left.start,
                    end=right.end,
                    operator=token.content.lower(),
                    left=left,
                    right=right,
                )
                continue
            break
        return left


def parse(source: str) -> N.ScriptBlockAst:
    """Parse *source* into a :class:`~repro.pslang.ast_nodes.ScriptBlockAst`.

    Raises :class:`~repro.pslang.errors.ParseError` (or
    :class:`~repro.pslang.errors.LexError`) on invalid scripts.
    """
    return Parser(source).parse()


# -- read-only parse cache ----------------------------------------------------
#
# Piece recovery parses the same small fragments over and over: every
# fixpoint iteration re-offers still-obfuscated pieces, function
# definitions are re-registered per piece evaluation, and chunked-blob
# samples repeat one decode idiom dozens of times.  A bounded LRU keyed
# by source text removes the repeat parses — but the cached AST is
# SHARED, so ``parse_cached`` is only for callers that never mutate the
# tree (the sandbox evaluator, the technique detectors).  The pipeline's
# reconstruction pass splices nodes in place and must keep using
# ``parse``.  Other front ends keep their own instances, so the same
# source text handed to another language never replays these ASTs.

from repro.caching import MAX_SOURCE_CHARS as _MAX_SOURCE_CHARS
from repro.caching import LRUCache as _LRUCache

_parse_cache = _LRUCache(max_entries=1024)


def parse_cached(source: str) -> N.ScriptBlockAst:
    """Like :func:`parse`, through a process-wide bounded cache.

    The returned AST is shared across callers and MUST be treated as
    read-only.  Parse errors are not cached (they re-raise each call).
    """
    return _parse_cache.get_or_build(
        source, parse, keep=len(source) <= _MAX_SOURCE_CHARS
    )


def try_parse_cached(source: str):
    """Like :func:`try_parse`, through the shared read-only cache.

    Same contract as :func:`parse_cached`: callers must not mutate the
    returned AST.
    """
    from repro.pslang.errors import PSSyntaxError

    try:
        return parse_cached(source), None
    except PSSyntaxError as exc:
        return None, str(exc)
    except RecursionError as exc:  # pragma: no cover - defensive
        return None, f"recursion: {exc}"


def try_parse(source: str):
    """Parse, returning ``(ast, None)`` or ``(None, error_message)``."""
    from repro.pslang.errors import PSSyntaxError

    try:
        return parse(source), None
    except PSSyntaxError as exc:
        return None, str(exc)
    except RecursionError as exc:  # pragma: no cover - defensive
        return None, f"recursion: {exc}"
