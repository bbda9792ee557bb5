"""Structure-hash-keyed memoization of subtree evaluation.

Obfuscated scripts repeat themselves *within* one sample: chunked-blob
builders emit the same decode idiom per chunk, generated droppers reuse
one string-assembly pattern dozens of times, and the fixpoint loop
re-offers every still-obfuscated piece on every iteration.  The service
layer already exploits duplication *across* requests with its
content-addressed ``ResultCache``; :class:`SubtreeMemo` applies the same
observation *intra-script*, at the piece-evaluation boundary of
:class:`~repro.core.recovery.RecoveryEngine`.

The key is a structure hash: a digest of the piece's source text (the
subtree's spliced form) together with every binding that could influence
its result — variable values, environment overrides, traced function
definitions, and the engine's execution policy.  Two pieces agree on the
key only when the sandbox would compute the same thing, so replaying the
stored outcome is semantics-preserving by construction:

- only *immutable scalar* results (str/int/float/bool/None/PSChar) are
  stored — a memo must never hand out an aliasable mutable object;
- the stored record replays the original outcome ``reason`` and
  ``steps``, so per-run telemetry (``evaluator_steps``, outcome
  taxonomy, step-limit classification) is byte-identical with the memo
  on or off — the determinism property the acceptance test pins;
- bindings that cannot be digested faithfully (objects, arrays) make
  the piece unmemoizable rather than approximately keyed.

Variable bindings are filtered to names that appear literally in the
piece; pieces that could reach bindings *dynamically* (``Get-Variable``,
``iex``, provider paths...) are detected by marker substrings and digest
the full binding set instead.  False positives only lower the hit rate,
never correctness.

The memo is a :class:`~repro.caching.LRUCache` (entry budget, plus a
per-value size filter in front of ``put``) and lives for one pipeline
run — created in
:meth:`~repro.core.pipeline.Deobfuscator.deobfuscate`, shared across
fixpoint iterations, reported via ``subtree_memo_hits`` /
``subtree_memo_misses`` in :class:`~repro.obs.PipelineStats`.
"""

import hashlib
from typing import Any, Dict, Optional, Tuple

from repro.caching import LRUCache
from repro.runtime.values import PSChar

DEFAULT_MAX_ENTRIES = 4096
# Stored string results above this length are not worth a slot and
# would let one huge decoded blob dominate the budget.
MAX_VALUE_CHARS = 65_536

# A record is (ok, value, reason, steps) — exactly what
# RecoveryEngine._evaluate computed for the piece.
MemoRecord = Tuple[bool, Any, str, int]

# Scalars that are safe to digest as key material and to replay as
# results (immutable, compared by value).
_SCALAR_TYPES = (str, int, float, bool, type(None), PSChar)

# Substrings whose presence means the piece might reach variable or
# environment bindings without naming them literally.
_DYNAMIC_ACCESS_MARKERS = (
    "variable",        # Get-Variable / Set-Variable / variable: drive
    "invoke",          # Invoke-Expression / .Invoke()
    "iex",
    "gv",              # Get-Variable alias
    "gci",             # provider enumeration
    "childitem",
    "executioncontext",
    "env:",            # environment drive
)


def _digest_scalar(value: Any) -> Optional[str]:
    """A stable text form of a scalar binding, or None if not a scalar."""
    if isinstance(value, bool):
        return f"b:{value}"
    if isinstance(value, (int, float)):
        return f"n:{value!r}"
    if isinstance(value, str):
        return f"s:{value}"
    if value is None:
        return "null"
    if isinstance(value, PSChar):
        return f"c:{value.char}"
    return None


class SubtreeMemo(LRUCache):
    """Memo of piece-evaluation outcomes for one run: an
    :class:`~repro.caching.LRUCache` of :data:`MemoRecord` keyed by
    :meth:`make_key`, storing only safely replayable values."""

    __slots__ = ()

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES):
        super().__init__(max_entries)

    # -- keying ------------------------------------------------------------

    def make_key(
        self,
        piece: str,
        variables: Optional[Dict[str, Any]],
        env_overrides: Optional[Dict[str, str]],
        function_defs: Optional[Dict[str, str]],
        salt: Tuple = (),
    ) -> Optional[bytes]:
        """The structure hash for *piece* under these bindings.

        Returns None when the piece's result could depend on state this
        key cannot capture — such pieces are simply not memoized.
        """
        piece_lower = piece.lower()
        digest = hashlib.blake2b(digest_size=16)
        update = digest.update
        update(piece.encode("utf-8", "surrogatepass"))
        for item in salt:
            update(f"|salt:{item!r}".encode("utf-8"))

        dynamic = any(
            marker in piece_lower for marker in _DYNAMIC_ACCESS_MARKERS
        ) or bool(function_defs)
        if variables:
            for name in sorted(variables):
                if not dynamic and name.lower() not in piece_lower:
                    continue  # cannot be referenced literally
                rendered = _digest_scalar(variables[name])
                if rendered is None:
                    return None  # non-scalar binding: not capturable
                update(f"|v:{name.lower()}={rendered}".encode(
                    "utf-8", "surrogatepass"
                ))
        if env_overrides:
            for name in sorted(env_overrides):
                update(f"|e:{name.lower()}={env_overrides[name]}".encode(
                    "utf-8", "surrogatepass"
                ))
        if function_defs:
            for name in sorted(function_defs):
                update(f"|f:{name.lower()}={function_defs[name]}".encode(
                    "utf-8", "surrogatepass"
                ))
        return digest.digest()

    # -- store -------------------------------------------------------------

    def put(
        self, key: bytes, ok: bool, value: Any, reason: str, steps: int
    ) -> bool:
        """Store one outcome if its value is safely replayable."""
        if not isinstance(value, _SCALAR_TYPES):
            return False
        if isinstance(value, str) and len(value) > MAX_VALUE_CHARS:
            return False
        return super().put(key, (ok, value, reason, steps))
