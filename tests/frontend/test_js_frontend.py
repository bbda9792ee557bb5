"""The minimal JavaScript front end: lexer, parser, evaluator,
recovery, multi-layer unwrap, rename/reformat, verification,
generator, and the end-to-end pipeline."""

import pytest

from repro import Deobfuscator, PipelineOptions, deobfuscate


class TestLexer:
    def test_tokens_carry_extents(self):
        from repro.frontend.js.lexer import JsTokenType, tokenize

        source = "var x = 'hi';"
        tokens = tokenize(source)
        assert [t.type for t in tokens] == [
            JsTokenType.KEYWORD,
            JsTokenType.IDENT,
            JsTokenType.PUNCT,
            JsTokenType.STRING,
            JsTokenType.PUNCT,
        ]
        for token in tokens:
            assert source[token.start:token.end] == token.text

    def test_string_escapes_decode(self):
        from repro.frontend.js.lexer import tokenize

        (token,) = tokenize(r"'\x68i\n'")
        assert token.value == "hi\n"

    def test_numbers(self):
        from repro.frontend.js.lexer import tokenize

        values = [t.value for t in tokenize("0x10 3.5 7")]
        assert values == [16, 3.5, 7]

    def test_lex_error(self):
        from repro.frontend.js.errors import JsLexError
        from repro.frontend.js.lexer import tokenize, try_tokenize

        with pytest.raises(JsLexError):
            tokenize("'unterminated")
        tokens, error = try_tokenize("'unterminated")
        assert tokens is None and error


class TestParser:
    def test_extents_are_byte_precise(self):
        from repro.frontend.js import ast_nodes as N
        from repro.frontend.js.parser import parse

        source = "console.log('a' + 'b');"
        program = parse(source)
        nodes = list(program.walk_pre_order())
        calls = [n for n in nodes if isinstance(n, N.CallExpression)]
        assert source[calls[0].start:calls[0].end] == (
            "console.log('a' + 'b')"
        )
        binaries = [
            n for n in nodes if isinstance(n, N.BinaryExpression)
        ]
        assert source[binaries[0].start:binaries[0].end] == "'a' + 'b'"

    def test_try_parse_error_path(self):
        from repro.frontend.js.parser import try_parse

        ast, error = try_parse("var = ;")
        assert ast is None and error
        ast, error = try_parse("var x = 1;")
        assert ast is not None and error is None

    def test_parse_cache_hits(self):
        from repro.frontend.js.parser import (
            clear_parse_cache,
            parse_cache_info,
            parse_cached,
        )

        clear_parse_cache()
        _, hits_before, misses_before = parse_cache_info()
        parse_cached("var x = 1;")
        parse_cached("var x = 1;")
        entries, hits, misses = parse_cache_info()
        assert entries == 1
        assert hits - hits_before == 1
        assert misses - misses_before == 1


class TestEvaluator:
    def _eval(self, expression, environment=None):
        from repro.frontend.js import ast_nodes as N
        from repro.frontend.js.evaluator import JsEvaluator
        from repro.frontend.js.parser import parse
        from repro.runtime.limits import ExecutionBudget

        program = parse(expression + ";")
        statement = program.body[0]
        assert isinstance(statement, N.ExpressionStatement)
        evaluator = JsEvaluator(
            environment=dict(environment or {}),
            budget=ExecutionBudget(step_limit=10_000),
        )
        return evaluator.evaluate(statement.expression)

    @pytest.mark.parametrize(
        "expression,expected",
        [
            ("'a' + 'b'", "ab"),
            ("'n=' + 3", "n=3"),
            ("1 + 2 * 3", 7),
            ("7 % 3", 1),
            ("'abc'.length", 3),
            ("'abcdef'.slice(1, 3)", "bc"),
            ("'a-b-c'.split('-')[1]", "b"),
            ("String.fromCharCode(104, 105)", "hi"),
            ("parseInt('2a', 16)", 42),
            ("atob('aGk=')", "hi"),
            ("['a', 'b'].slice(1).concat(['c'])[1]", "c"),
            ("['x', 'y'].join('-')", "x-y"),
            ("'HeLLo'.toLowerCase()", "hello"),
        ],
    )
    def test_subset_semantics(self, expression, expected):
        assert self._eval(expression) == expected

    def test_unknown_variable_raises(self):
        from repro.frontend.js.errors import JsEvalError

        with pytest.raises(JsEvalError):
            self._eval("mystery + 1")

    def test_eval_is_a_layer_boundary_not_a_builtin(self):
        from repro.frontend.js.errors import JsEvalError

        with pytest.raises(JsEvalError):
            self._eval("eval('1')")

    def test_mutating_array_methods_refused(self):
        from repro.frontend.js.errors import JsEvalError

        with pytest.raises(JsEvalError):
            self._eval("['a', 'b'].reverse()")

    def test_step_budget_enforced(self):
        from repro.frontend.js import ast_nodes as N
        from repro.frontend.js.evaluator import JsEvaluator
        from repro.frontend.js.parser import parse
        from repro.runtime.errors import StepLimitError
        from repro.runtime.limits import ExecutionBudget

        program = parse("'a' + 'b' + 'c' + 'd';")
        statement = program.body[0]
        evaluator = JsEvaluator(
            environment={}, budget=ExecutionBudget(step_limit=2)
        )
        with pytest.raises(StepLimitError):
            evaluator.evaluate(statement.expression)


class TestRecoveryPhases:
    def test_string_concat_folds(self):
        from repro.frontend.js.recovery import JsAstDeobfuscator

        engine = JsAstDeobfuscator()
        assert engine.process("console.log('hel' + 'lo');") == (
            "console.log('hello');"
        )

    def test_variable_tracing_through_rotation(self):
        from repro.frontend.js.recovery import JsAstDeobfuscator

        script = (
            "var _0x4f2a = ['wor' + 'ld', 'hel' + 'lo'];\n"
            "_0x4f2a = _0x4f2a.slice(1).concat(_0x4f2a.slice(0, 1));\n"
            "console.log(_0x4f2a[0] + ' ' + _0x4f2a[1]);"
        )
        out = JsAstDeobfuscator().process(script)
        assert "console.log('hello world');" in out

    def test_unwrap_eval_layer(self):
        from repro.frontend.js.recovery import unwrap_js_layers

        outcome = unwrap_js_layers("eval('console.log(1);');")
        assert outcome.script == "console.log(1);"
        assert outcome.count == 1
        assert outcome.kinds == {"eval": 1}

    def test_rename_obfuscated_identifiers(self):
        from repro.frontend.js.recovery import rename_js_identifiers

        renamed = rename_js_identifiers(
            "var _0xab12 = 1; console.log(_0xab12);"
        )
        assert renamed == "var var0 = 1; console.log(var0);"

    def test_reformat_statement_per_line(self):
        from repro.frontend.js.recovery import reformat_js

        assert reformat_js("var a = 1; var b = 2;") == (
            "var a = 1;\nvar b = 2;"
        )

    def test_tag_techniques(self):
        from repro.frontend.js.recovery import tag_js_techniques

        tags = tag_js_techniques(
            "eval('x');\nvar a = 'b' + 'c';", unwrap_kinds={"eval": 1}
        )
        assert tags["js_eval"] == 1
        assert tags["js_string_concat"] == 1
        assert tags["layer_eval"] == 1


class TestVerification:
    def test_equivalent_and_divergent(self):
        from repro.frontend.js.runner import verify_js_equivalence

        verdict = verify_js_equivalence(
            "console.log('hel' + 'lo');", "console.log('hello');"
        )
        assert verdict.verdict == "equivalent"
        verdict = verify_js_equivalence(
            "console.log('hello');", "console.log('goodbye');"
        )
        assert verdict.verdict == "divergent"
        assert verdict.diff == (
            "- console.log(hello)", "+ console.log(goodbye)"
        )

    def test_divergent_diff_is_cut_off_like_powershell(self):
        from repro.frontend.js.runner import verify_js_equivalence

        verdict = verify_js_equivalence(
            "".join(f"console.log({i});" for i in range(6)),
            "console.log('x');",
            max_diff=4,
        )
        assert verdict.reason == "observable event logs differ (6 vs 1 events)"
        assert verdict.diff == (
            "- console.log(0)", "- console.log(1)", "- console.log(2)",
            "- console.log(3)", "… 3 more difference(s)",
        )

    def test_invalid_candidate_is_divergent(self):
        from repro.frontend.js.runner import verify_js_equivalence

        verdict = verify_js_equivalence("console.log(1);", "var = ;")
        assert verdict.verdict == "divergent"

    def test_eval_recursion_observed(self):
        from repro.frontend.js.runner import observe_js

        log = observe_js("eval('console.log(\\'deep\\');');")
        assert [event for event in log.events] == [
            ("console.log", ("deep",))
        ]


class TestGenerator:
    def test_seeded_and_round_trips(self):
        from repro.frontend.js.generator import generate_js_corpus
        from repro.frontend.js.runner import verify_js_equivalence

        first = generate_js_corpus(count=6, seed=3)
        second = generate_js_corpus(count=6, seed=3)
        assert [s.script for s in first] == [s.script for s in second]
        for sample in first:
            assert sample.techniques
            verdict = verify_js_equivalence(
                sample.script, sample.clean_script
            )
            assert verdict.verdict == "equivalent", sample.identifier


class TestEndToEnd:
    def test_pipeline_recovers_the_subset(self):
        script = (
            "var _0x4f2a = ['wor' + 'ld', 'hel' + 'lo'];\n"
            "_0x4f2a = _0x4f2a.slice(1).concat(_0x4f2a.slice(0, 1));\n"
            "eval('conso' + 'le.log(_0x4f2a[0] + \\' \\' "
            "+ _0x4f2a[1]);');"
        )
        result = deobfuscate(
            script, options=PipelineOptions(language="js")
        )
        assert result.valid_input
        assert "console.log('hello world');" in result.script
        assert "_0x" not in result.script
        assert result.layers_unwrapped == 1
        assert result.stats.language == "js"
        assert result.stats.unwrap_kinds.get("eval") == 1
        assert result.stats.techniques["js_string_concat"] == 1
        assert result.stats.techniques["js_array_rotation"] == 1

    def test_invalid_js_input(self):
        result = deobfuscate(
            "var = ;", options=PipelineOptions(language="js")
        )
        assert not result.valid_input
        assert result.script == "var = ;"

    def test_frontend_verify_on_pipeline_result(self):
        from repro.frontend import resolve_frontend

        options = PipelineOptions(language="js")
        result = Deobfuscator(options=options).deobfuscate(
            "console.log('a' + 'b');"
        )
        verdict = resolve_frontend("js").verify(result)
        assert verdict.verdict == "equivalent"

    def test_powershell_text_is_not_valid_js(self):
        result = deobfuscate(
            "I`E`X ('wri'+'te-host hi')",
            options=PipelineOptions(language="js"),
        )
        # PowerShell backticks are a lex error under the JS grammar.
        assert not result.valid_input

    def test_examples_on_disk_recover(self):
        import glob
        import os

        examples = sorted(
            glob.glob(
                os.path.join(
                    os.path.dirname(__file__),
                    "..",
                    "..",
                    "examples",
                    "js",
                    "*.js",
                )
            )
        )
        assert examples, "examples/js/*.js is empty"
        frontend_options = PipelineOptions(language="js")
        from repro.frontend import resolve_frontend

        js = resolve_frontend("js")
        for path in examples:
            with open(path, "r", encoding="utf-8") as handle:
                script = handle.read()
            result = deobfuscate(script, options=frontend_options)
            assert result.valid_input, path
            assert result.changed, path
            verdict = js.verify(result)
            assert verdict.verdict == "equivalent", (path, verdict)
