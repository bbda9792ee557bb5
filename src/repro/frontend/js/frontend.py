"""The JavaScript front end registry entry."""

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.frontend.base import (
    Frontend,
    FrontendCapabilities,
    UnwrapOutcome,
)


class JavaScriptFrontend(Frontend):
    """Minimal JS deobfuscation: string concat, array rotation, eval."""

    id = "js"
    name = "JavaScript"
    aliases = ("javascript", "ecmascript")
    file_extensions = (".js", ".mjs")
    capabilities = FrontendCapabilities(
        recovery=True,
        verify=True,
        generator=True,
        rename=True,
        reformat=True,
        multilayer=True,
    )

    # -- parsing -----------------------------------------------------------

    def try_parse(self, source: str) -> Tuple[Optional[Any], Optional[str]]:
        from repro.frontend.js.parser import try_parse

        return try_parse(source)

    def tokenize(self, source: str) -> Sequence[Any]:
        from repro.frontend.js.lexer import tokenize

        return tokenize(source)

    # -- pipeline phases ---------------------------------------------------

    # token_pass: inherited no-op — the subset has no token-level
    # normalization (no ticks, no case-insensitive keywords).

    def ast_pass(
        self,
        script: str,
        *,
        options: Any,
        policy: Any,
        memo: Any = None,
        audit: Any = None,
        stats: Any = None,
    ) -> str:
        from repro.frontend.js.recovery import JsAstDeobfuscator

        engine = JsAstDeobfuscator(
            step_limit=options.piece_step_limit,
            policy=policy,
            memo=memo,
            audit=audit,
            stats=stats,
            language=self.id,
        )
        return engine.process(script)

    def unwrap_layers(self, script: str) -> UnwrapOutcome:
        from repro.frontend.js.recovery import unwrap_js_layers

        return unwrap_js_layers(script)

    def rename(self, script: str) -> str:
        from repro.frontend.js.recovery import rename_js_identifiers

        return rename_js_identifiers(script)

    def reformat(self, script: str) -> str:
        from repro.frontend.js.recovery import reformat_js

        return reformat_js(script)

    # -- telemetry ---------------------------------------------------------

    def tag_techniques(
        self,
        original: str,
        layers: Sequence[str] = (),
        unwrap_kinds: Optional[Dict[str, int]] = None,
    ) -> Dict[str, int]:
        from repro.frontend.js.recovery import tag_js_techniques

        return tag_js_techniques(
            original, layers=layers, unwrap_kinds=unwrap_kinds
        )

    # -- verification ------------------------------------------------------

    def verify(
        self,
        result: Any,
        step_limit: Optional[int] = None,
        policy: Any = None,
    ) -> Any:
        from repro.frontend.js.runner import (
            DEFAULT_STEP_LIMIT,
            verify_js_equivalence,
        )
        from repro.verify.equivalence import judge_result

        if step_limit is None:
            step_limit = DEFAULT_STEP_LIMIT
        return judge_result(result) or verify_js_equivalence(
            result.original, result.script, step_limit=step_limit,
            policy=policy,
        )

    # -- generation --------------------------------------------------------

    def generate_samples(self, count: int = 10, seed: int = 0) -> List[Any]:
        from repro.frontend.js.generator import generate_js_corpus

        return generate_js_corpus(count=count, seed=seed)
