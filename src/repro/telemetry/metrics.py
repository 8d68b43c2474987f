"""Process-wide metrics: counters, gauges, histograms.

The registry is a flat namespace of dotted metric names
(``cache.hits``, ``engine.sse.steps_per_sec``) — get-or-create on first
touch, thread-safe under one lock (every operation is a dict update; the
lock is uncontended in practice because the hot paths record into local
state and fold in bulk).

Snapshots are plain JSON-able dicts: the persistence form ``repro
metrics`` reads back and the campaign service's status reports.
"""

from __future__ import annotations

import threading
from typing import Optional


class HistogramData:
    """Streaming summary of one histogram: count/sum/min/max."""

    __slots__ = ("count", "total", "min", "max")

    def __init__(self) -> None:
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
        }


class MetricsRegistry:
    """Thread-safe counters, gauges, and histograms by dotted name."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, HistogramData] = {}

    # -- recording -------------------------------------------------------
    def inc(self, name: str, amount: float = 1) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + amount

    def set_gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            hist = self._histograms.get(name)
            if hist is None:
                hist = self._histograms[name] = HistogramData()
            hist.observe(value)

    # -- reading ---------------------------------------------------------
    def counter(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def histogram(self, name: str) -> Optional[HistogramData]:
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self) -> dict:
        """JSON-able copy of every metric (the wire/persistence form)."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: hist.to_dict()
                    for name, hist in self._histograms.items()
                },
            }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


def cache_hit_ratio(snapshot: dict) -> Optional[float]:
    """Derived metric: hits / (hits + misses), None before any lookup."""
    counters = snapshot.get("counters", {})
    hits = counters.get("cache.hits", 0)
    misses = counters.get("cache.misses", 0)
    total = hits + misses
    if total <= 0:
        return None
    return hits / total
