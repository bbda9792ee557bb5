"""Rolling-window aggregation: what happened in the last 1/5/15 minutes.

The service's counters and histograms are cumulative since process
start — correct for Prometheus scrapes (rates are the scraper's job)
but useless for a human asking "is it slow *right now*".  This module
keeps a per-minute ring of counters plus a latency
:class:`~repro.obs.hist.Histogram` per minute, so ``/statusz`` can
report last-1m/5m/15m request rate, error rate, divergence rate,
cache-hit ratio, and latency p50/p95 — with the worst exemplar
trace_id per window, because the histograms carry their exemplars
through the merge.

Thread-safe (the service's handler threads and dispatcher both feed
it) and deterministic under an injected ``clock``.  Windows serialize
through plain dicts — the service snapshot carries one as
``window_raw`` — and :meth:`RollingWindow.merge` folds one instance's
window into another's minute-by-minute, which is how
:func:`repro.service.metrics.merge_snapshots` builds the fleet-wide
window behind the router's ``/statusz``.
"""

import threading
import time
from typing import Any, Callable, Dict, Sequence, Tuple

from repro.obs.hist import DEFAULT_LATENCY_BUCKETS, Histogram

# The windows /statusz reports, in minutes.  The ring keeps max+1
# minutes so the oldest reported window is never half-evicted.
WINDOW_MINUTES: Tuple[int, ...] = (1, 5, 15)

# Counter names the service feeds; free-form names also work, these
# are just the ones snapshot() derives ratios from.
WINDOW_COUNTERS = (
    "requests", "errors", "divergent", "verified", "cache_hits",
)


class _MinuteSlot:
    """One minute's worth of counters and latency observations."""

    __slots__ = ("minute", "counters", "hist")

    def __init__(self, minute: int, bounds: Sequence[float]):
        self.minute = minute
        self.counters: Dict[str, int] = {}
        self.hist = Histogram(bounds)


class RollingWindow:
    """A ring of per-minute slots, aggregated on demand.

    ``minutes`` bounds retention; ``clock`` is injectable so tests can
    drive rollover deterministically.
    """

    def __init__(
        self,
        minutes: int = max(WINDOW_MINUTES),
        clock: Callable[[], float] = time.time,
        bounds: Sequence[float] = DEFAULT_LATENCY_BUCKETS,
    ):
        self.minutes = max(1, int(minutes))
        self.clock = clock
        self.bounds: Tuple[float, ...] = tuple(sorted(bounds))
        self._slots: Dict[int, _MinuteSlot] = {}
        self._lock = threading.Lock()

    # -- feeding -----------------------------------------------------

    def _slot_locked(self, minute: int) -> _MinuteSlot:
        slot = self._slots.get(minute)
        if slot is None:
            slot = _MinuteSlot(minute, self.bounds)
            self._slots[minute] = slot
            self._prune_locked(minute)
        return slot

    def _prune_locked(self, now_minute: int) -> None:
        # Keep one extra minute beyond the largest window so the edge
        # minute of the 15m view is complete, not freshly truncated.
        horizon = now_minute - self.minutes
        for minute in [m for m in self._slots if m <= horizon]:
            del self._slots[minute]

    def incr(self, name: str, n: int = 1) -> None:
        minute = int(self.clock() // 60)
        with self._lock:
            slot = self._slot_locked(minute)
            slot.counters[name] = slot.counters.get(name, 0) + n

    def observe(self, seconds: float, trace_id: str = "") -> None:
        minute = int(self.clock() // 60)
        with self._lock:
            self._slot_locked(minute).hist.observe(seconds, trace_id)

    # -- reading -----------------------------------------------------

    def _window_locked(
        self, window_minutes: int, now_minute: int
    ) -> Tuple[Dict[str, int], Histogram]:
        counters: Dict[str, int] = {}
        hist = Histogram(self.bounds)
        since = now_minute - window_minutes
        for minute, slot in self._slots.items():
            if minute <= since or minute > now_minute:
                continue
            for name, value in slot.counters.items():
                counters[name] = counters.get(name, 0) + value
            hist.merge(slot.hist)
        return counters, hist

    def snapshot(
        self, windows: Sequence[int] = WINDOW_MINUTES
    ) -> Dict[str, Any]:
        """Aggregated view per window — the ``/statusz`` payload.

        Each ``"1m"``/``"5m"``/``"15m"`` entry reports the raw
        counters, derived rates/ratios, latency p50/p95, and the
        worst exemplar ``trace_id`` observed inside the window.
        """
        now_minute = int(self.clock() // 60)
        result: Dict[str, Any] = {}
        with self._lock:
            for window in windows:
                window = min(int(window), self.minutes)
                counters, hist = self._window_locked(window, now_minute)
                requests = counters.get("requests", 0)
                errors = counters.get("errors", 0)
                verified = counters.get("verified", 0)
                divergent = counters.get("divergent", 0)
                entry: Dict[str, Any] = {
                    "seconds": window * 60,
                    "requests": requests,
                    "errors": errors,
                    "divergent": divergent,
                    "cache_hits": counters.get("cache_hits", 0),
                    "request_rate": round(requests / (window * 60), 4),
                    "error_rate": round(
                        errors / requests if requests else 0.0, 4
                    ),
                    "divergence_rate": round(
                        divergent / verified if verified else 0.0, 4
                    ),
                    "cache_hit_ratio": round(
                        counters.get("cache_hits", 0) / requests
                        if requests else 0.0,
                        4,
                    ),
                    "latency_p50_ms": round(hist.quantile(0.5) * 1000, 3),
                    "latency_p95_ms": round(hist.quantile(0.95) * 1000, 3),
                    "observations": hist.count,
                }
                exemplar = hist.worst_exemplar()
                if exemplar is not None:
                    entry["exemplar"] = {
                        "trace_id": exemplar[0],
                        "value_ms": round(exemplar[1] * 1000, 3),
                    }
                result[f"{window}m"] = entry
        return result

    # -- serialization / fleet merge ---------------------------------

    def to_dict(self) -> Dict[str, Any]:
        with self._lock:
            return {
                "minutes": self.minutes,
                "bounds": list(self.bounds),
                "slots": [
                    {
                        "minute": slot.minute,
                        "counters": dict(slot.counters),
                        "hist": slot.hist.to_dict(),
                    }
                    for slot in sorted(
                        self._slots.values(), key=lambda s: s.minute
                    )
                ],
            }

    @classmethod
    def from_dict(
        cls,
        data: Dict[str, Any],
        clock: Callable[[], float] = time.time,
    ) -> "RollingWindow":
        window = cls(
            minutes=int(data.get("minutes", max(WINDOW_MINUTES))),
            clock=clock,
            bounds=tuple(
                float(b)
                for b in data.get("bounds", DEFAULT_LATENCY_BUCKETS)
            ),
        )
        for payload in data.get("slots", ()):
            minute = int(payload["minute"])
            slot = _MinuteSlot(minute, window.bounds)
            slot.counters = {
                str(k): int(v)
                for k, v in (payload.get("counters") or {}).items()
            }
            slot.hist = Histogram.from_dict(
                payload.get("hist") or {"bounds": list(window.bounds)}
            )
            window._slots[minute] = slot
        return window

    def merge(self, other: "RollingWindow") -> None:
        """Fold *other* into this window minute-by-minute.

        The fleet router merges instance windows this way; because the
        per-minute histograms merge exemplars too, the fleet-wide
        ``/statusz`` still points at the slowest single request.
        """
        with other._lock:
            their = [
                (slot.minute, dict(slot.counters), slot.hist)
                for slot in other._slots.values()
            ]
        with self._lock:
            for minute, counters, hist in their:
                slot = self._slot_locked(minute)
                for name, value in counters.items():
                    slot.counters[name] = slot.counters.get(name, 0) + value
                slot.hist.merge(hist)

