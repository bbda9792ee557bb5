"""Unit tests for the typed stats record (:mod:`repro.obs.stats`)."""

import json

import pytest

from repro.obs import (
    RECOVERY_REASONS,
    STATS_SCHEMA_VERSION,
    UNWRAP_KINDS,
    PipelineStats,
)


def populated() -> PipelineStats:
    stats = PipelineStats()
    stats.tokens_rewritten = 4
    stats.pieces_recovered = 3
    stats.variables_traced = 2
    stats.variables_substituted = 1
    stats.trace_hits = 1
    stats.trace_misses = 2
    stats.evaluator_steps = 123
    stats.recovery_cache_hits = 1
    stats.subtree_memo_hits = 5
    stats.subtree_memo_misses = 8
    stats.intern_hits = 40
    stats.intern_misses = 11
    stats.recovery_outcomes["recovered"] = 3
    stats.recovery_outcomes["blocked"] = 1
    stats.unwrap_kinds["iex"] = 2
    stats.phase_seconds = {"token": 0.001, "ast": 0.05}
    return stats


class TestRoundTrip:
    def test_lossless_round_trip(self):
        stats = populated()
        data = stats.to_dict()
        rebuilt = PipelineStats.from_dict(data)
        assert rebuilt == stats
        assert rebuilt.to_dict() == data

    def test_json_serializable(self):
        data = populated().to_dict()
        assert json.loads(json.dumps(data)) == data

    def test_schema_version_pinned(self):
        assert populated().to_dict()["schema_version"] == (
            STATS_SCHEMA_VERSION
        )

    def test_from_dict_tolerates_legacy_three_counter_dict(self):
        legacy = {
            "pieces_recovered": 5,
            "variables_traced": 2,
            "variables_substituted": 1,
        }
        stats = PipelineStats.from_dict(legacy)
        assert stats.pieces_recovered == 5
        assert stats.evaluator_steps == 0
        assert stats.phase_seconds == {}

    def test_from_dict_ignores_a_version_6_spans_list(self):
        old = populated().to_dict()
        old["schema_version"] = 6
        old["spans"] = [{"name": "ast", "seconds": 0.05, "iteration": 0}]
        stats = PipelineStats.from_dict(old)
        assert stats.phase_seconds == {"token": 0.001, "ast": 0.05}
        assert "spans" not in stats.to_dict()

    def test_from_dict_ignores_unknown_keys(self):
        stats = PipelineStats.from_dict({"pieces_recovered": 1,
                                         "future_field": 99})
        assert stats.pieces_recovered == 1

    def test_zero_filled_reason_and_kind_keys(self):
        stats = PipelineStats()
        assert set(stats.recovery_outcomes) == set(RECOVERY_REASONS)
        assert set(stats.unwrap_kinds) == set(UNWRAP_KINDS)
        assert all(v == 0 for v in stats.recovery_outcomes.values())


class TestMerge:
    def test_merge_adds_counters_and_timings(self):
        a, b = populated(), populated()
        a.merge(b)
        assert a.pieces_recovered == 6
        assert a.evaluator_steps == 246
        assert a.subtree_memo_hits == 10
        assert a.intern_misses == 22
        assert a.recovery_outcomes["recovered"] == 6
        assert a.unwrap_kinds["iex"] == 4
        assert a.phase_seconds["ast"] == 0.1


class TestDictCompatShimRetired:
    """PipelineStats is a dataclass, not a mapping."""

    def test_mapping_protocol_is_gone(self):
        stats = populated()
        assert not hasattr(stats, "keys")
        assert not hasattr(stats, "items")
        assert not hasattr(stats, "get")
        with pytest.raises(TypeError):
            stats["pieces_recovered"]
        with pytest.raises(TypeError):
            list(stats)
        with pytest.raises(TypeError):
            "evaluator_steps" in stats

    def test_to_dict_is_the_mapping_form(self):
        mapping = populated().to_dict()
        assert mapping["pieces_recovered"] == 3
        assert mapping["variables_traced"] == 2
