"""Deterministic tests for rolling-window aggregation.

Every test drives a :class:`~repro.obs.window.RollingWindow` with a
fake clock, so minute rollover, pruning, and fleet merges are exact —
no sleeps, no wall-clock flakiness.
"""

import threading

from repro.obs.window import WINDOW_MINUTES, RollingWindow


class FakeClock:
    def __init__(self, start: float = 10_000 * 60.0):
        self.now = start

    def __call__(self) -> float:
        return self.now

    def advance(self, seconds: float) -> None:
        self.now += seconds


def make_window(clock=None) -> RollingWindow:
    return RollingWindow(clock=clock or FakeClock())


class TestFeedingAndSnapshot:
    def test_counters_and_rates(self):
        clock = FakeClock()
        window = RollingWindow(clock=clock)
        for _ in range(6):
            window.incr("requests")
        window.incr("errors", 2)
        window.incr("cache_hits", 3)
        window.incr("verified", 4)
        window.incr("divergent", 1)
        snap = window.snapshot()
        assert set(snap) == {f"{m}m" for m in WINDOW_MINUTES}
        one = snap["1m"]
        assert one["requests"] == 6
        assert one["errors"] == 2
        assert one["request_rate"] == round(6 / 60, 4)
        assert one["error_rate"] == round(2 / 6, 4)
        assert one["cache_hit_ratio"] == round(3 / 6, 4)
        assert one["divergence_rate"] == round(1 / 4, 4)

    def test_empty_window_is_all_zero(self):
        snap = make_window().snapshot()
        assert snap["5m"]["requests"] == 0
        assert snap["5m"]["error_rate"] == 0.0
        assert snap["5m"]["latency_p95_ms"] == 0.0
        assert "exemplar" not in snap["5m"]

    def test_latency_quantiles_and_exemplar(self):
        clock = FakeClock()
        window = RollingWindow(clock=clock)
        for _ in range(99):
            window.observe(0.01, "fast-trace")
        window.observe(4.0, "slow-trace")
        one = window.snapshot()["1m"]
        assert one["observations"] == 100
        assert one["latency_p50_ms"] <= 100
        assert one["latency_p95_ms"] < one["latency_p95_ms"] + 1
        assert one["exemplar"]["trace_id"] == "slow-trace"
        assert one["exemplar"]["value_ms"] >= 1000


class TestRollover:
    def test_old_minutes_leave_the_small_window_first(self):
        clock = FakeClock()
        window = RollingWindow(clock=clock)
        window.incr("requests")
        window.observe(0.5, "early")
        clock.advance(3 * 60)
        window.incr("requests")
        snap = window.snapshot()
        assert snap["1m"]["requests"] == 1  # only the fresh one
        assert snap["5m"]["requests"] == 2  # both
        assert snap["1m"]["observations"] == 0
        assert snap["5m"]["exemplar"]["trace_id"] == "early"

    def test_minutes_beyond_retention_are_pruned(self):
        clock = FakeClock()
        window = RollingWindow(minutes=15, clock=clock)
        window.incr("requests")
        clock.advance(20 * 60)
        window.incr("requests")  # triggers the prune
        assert len(window._slots) == 1
        assert window.snapshot()["15m"]["requests"] == 1

    def test_observations_in_distinct_minutes_accumulate(self):
        clock = FakeClock()
        window = RollingWindow(clock=clock)
        for _ in range(3):
            window.incr("requests")
            clock.advance(60)
        snap = window.snapshot()
        assert snap["5m"]["requests"] == 3
        assert snap["1m"]["requests"] == 0  # just rolled into a new minute


class TestSerializationAndMerge:
    def test_round_trip(self):
        clock = FakeClock()
        window = RollingWindow(clock=clock)
        window.incr("requests", 5)
        window.observe(0.2, "t1")
        restored = RollingWindow.from_dict(window.to_dict(), clock=clock)
        assert restored.snapshot() == window.snapshot()

    def test_merge_sums_minute_by_minute(self):
        clock = FakeClock()
        a = RollingWindow(clock=clock)
        b = RollingWindow(clock=clock)
        a.incr("requests", 2)
        a.observe(0.1, "a-trace")
        b.incr("requests", 3)
        b.observe(2.0, "b-slow")
        a.merge(b)
        one = a.snapshot()["1m"]
        assert one["requests"] == 5
        assert one["observations"] == 2
        # The slowest instance's exemplar survives the merge.
        assert one["exemplar"]["trace_id"] == "b-slow"

    # The fleet-wide window is folded by merge_snapshots from each
    # instance snapshot's ``window_raw``.
    def test_merge_window_dicts_skips_down_instances(self):
        from repro.service.metrics import merge_snapshots

        clock = FakeClock()
        a = RollingWindow(clock=clock)
        a.incr("requests", 1)
        b = RollingWindow(clock=clock)
        b.incr("requests", 4)
        merged = merge_snapshots(
            {
                "a": {"window_raw": a.to_dict()},
                "down": None,
                "b": {"window_raw": b.to_dict()},
            }
        )
        window = RollingWindow.from_dict(merged["window_raw"], clock=clock)
        assert window.snapshot()["1m"]["requests"] == 5

    def test_merge_window_dicts_all_down_is_empty(self):
        from repro.service.metrics import merge_snapshots

        clock = FakeClock()
        merged = merge_snapshots({"a": None, "b": None})
        window = RollingWindow.from_dict(merged["window_raw"], clock=clock)
        assert window.snapshot()["1m"]["requests"] == 0


class TestThreadSafety:
    def test_concurrent_feeders_lose_nothing(self):
        clock = FakeClock()
        window = RollingWindow(clock=clock)

        def feed():
            for _ in range(500):
                window.incr("requests")
                window.observe(0.01, "t")

        threads = [threading.Thread(target=feed) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        one = window.snapshot()["1m"]
        assert one["requests"] == 2000
        assert one["observations"] == 2000
