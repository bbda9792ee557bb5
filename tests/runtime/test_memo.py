"""Tests for the subtree-evaluation memo (:mod:`repro.runtime.memo`).

The memo is a speed optimization that must be invisible in every output:
these tests pin (1) key separation — the same piece under different
bindings never shares an entry, (2) the bounded-LRU budget, and (3) the
acceptance property that a memo-on run produces byte-identical scripts
and telemetry to a memo-off run over a generated corpus.
"""

from repro import Deobfuscator
from repro.core.recovery import RecoveryEngine
from repro.dataset.generator import generate_corpus
from repro.options import PipelineOptions
from repro.runtime.memo import (
    DEFAULT_MAX_ENTRIES,
    MAX_VALUE_CHARS,
    SubtreeMemo,
)


class TestKeying:
    def test_same_piece_same_bindings_same_key(self):
        memo = SubtreeMemo()
        k1 = memo.make_key("'a'+'b'", {"x": "1"}, None, None)
        k2 = memo.make_key("'a'+'b'", {"x": "1"}, None, None)
        assert k1 == k2

    def test_different_piece_different_key(self):
        memo = SubtreeMemo()
        assert memo.make_key("'a'+'b'", None, None, None) != (
            memo.make_key("'a'+'c'", None, None, None)
        )

    def test_referenced_binding_separates_keys(self):
        # $x appears in the piece, so its value is key material: two
        # environments must not share an entry.
        memo = SubtreeMemo()
        k1 = memo.make_key("$x + 'b'", {"x": "1"}, None, None)
        k2 = memo.make_key("$x + 'b'", {"x": "2"}, None, None)
        assert k1 != k2

    def test_unreferenced_binding_is_ignored(self):
        # $y cannot be read literally by a piece that never names it, so
        # its value must not fragment the key space.
        memo = SubtreeMemo()
        k1 = memo.make_key("'a'+'b'", {"y": "1"}, None, None)
        k2 = memo.make_key("'a'+'b'", {"y": "2"}, None, None)
        assert k1 == k2

    def test_dynamic_access_digests_all_bindings(self):
        # Get-Variable can reach $y without naming it: the marker forces
        # the full binding set into the key.
        memo = SubtreeMemo()
        piece = "(Get-Variable y).Value"
        k1 = memo.make_key(piece, {"y": "1"}, None, None)
        k2 = memo.make_key(piece, {"y": "2"}, None, None)
        assert k1 != k2

    def test_non_scalar_relevant_binding_is_unmemoizable(self):
        memo = SubtreeMemo()
        assert memo.make_key("$x[0]", {"x": [1, 2]}, None, None) is None

    def test_env_overrides_separate_keys(self):
        memo = SubtreeMemo()
        k1 = memo.make_key("$env:A", None, {"A": "1"}, None)
        k2 = memo.make_key("$env:A", None, {"A": "2"}, None)
        assert k1 != k2

    def test_salt_separates_engine_policies(self):
        memo = SubtreeMemo()
        k1 = memo.make_key("'a'", None, None, None, salt=(True, 100))
        k2 = memo.make_key("'a'", None, None, None, salt=(False, 100))
        assert k1 != k2


class TestCrossEnvironmentCorrectness:
    def test_engine_does_not_leak_values_across_environments(self):
        # One memo, one engine, same piece text, different $x — the
        # classic cache-poisoning shape.  Each environment must see its
        # own result.
        engine = RecoveryEngine(memo=SubtreeMemo())
        ok1, v1 = engine.evaluate_piece("$x + 'b'", variables={"x": "a"})
        ok2, v2 = engine.evaluate_piece("$x + 'b'", variables={"x": "z"})
        assert (ok1, v1) == (True, "ab")
        assert (ok2, v2) == (True, "zb")

    def test_repeated_piece_hits_and_replays_outcome(self):
        memo = SubtreeMemo()
        engine = RecoveryEngine(memo=memo)
        first = engine.recover_piece_detailed("'a'+'b'")
        second = engine.recover_piece_detailed("'a'+'b'")
        assert memo.hits == 1
        assert second.text == first.text == "'ab'"
        assert second.reason == first.reason
        assert second.steps == first.steps  # replayed, not recomputed


class TestBudget:
    def test_lru_eviction_at_entry_budget(self):
        memo = SubtreeMemo(max_entries=2)
        for i in range(4):
            key = memo.make_key(f"'p{i}'", None, None, None)
            memo.put(key, True, f"p{i}", "recovered", 1)
        assert len(memo) == 2
        assert memo.evictions == 2
        # The two most recent survive.
        assert memo.get(memo.make_key("'p3'", None, None, None)) is not None
        assert memo.get(memo.make_key("'p0'", None, None, None)) is None

    def test_oversized_string_value_is_not_stored(self):
        memo = SubtreeMemo()
        key = memo.make_key("'big'", None, None, None)
        memo.put(key, True, "x" * (MAX_VALUE_CHARS + 1), "recovered", 1)
        assert len(memo) == 0

    def test_mutable_value_is_not_stored(self):
        memo = SubtreeMemo()
        key = memo.make_key("@(1,2)", None, None, None)
        memo.put(key, True, [1, 2], "recovered", 1)
        assert len(memo) == 0

    def test_default_budget_is_bounded(self):
        assert SubtreeMemo().max_entries == DEFAULT_MAX_ENTRIES


class TestPipelineDeterminism:
    def test_memo_on_and_off_are_byte_identical_on_corpus(self):
        # The acceptance property: over a generated corpus, a memo-on
        # run differs from a memo-off run only in speed and the memo
        # counters — scripts and telemetry match byte for byte.
        on = Deobfuscator(options=PipelineOptions(subtree_memo=True))
        off = Deobfuscator(options=PipelineOptions(subtree_memo=False))
        total_hits = 0
        for sample in generate_corpus(count=12, seed=77):
            ra = on.deobfuscate(sample.script)
            rb = off.deobfuscate(sample.script)
            assert ra.script == rb.script
            assert ra.layers == rb.layers
            assert ra.iterations == rb.iterations
            da, db = ra.stats.to_dict(), rb.stats.to_dict()
            # Only speed-side telemetry may differ (budget_spent counts
            # sandbox steps actually executed, which the memo avoids).
            for volatile in (
                "phase_seconds",
                "subtree_memo_hits", "subtree_memo_misses",
                "intern_hits", "intern_misses", "budget_spent",
            ):
                da.pop(volatile, None), db.pop(volatile, None)
            assert da == db
            assert rb.stats.subtree_memo_hits == 0
            total_hits += ra.stats.subtree_memo_hits
        # The corpus repeats idioms; the memo must actually fire.
        assert total_hits > 0

    def test_memo_counters_surface_in_stats(self):
        script = "$a = ('x'+'y'); $b = ('x'+'y'); iex ($a + $b)\n"
        result = Deobfuscator().deobfuscate(script)
        stats = result.stats.to_dict()
        assert "subtree_memo_hits" in stats
        assert "intern_hits" in stats
        assert stats["subtree_memo_misses"] >= 1
