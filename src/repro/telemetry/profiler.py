"""Sampling profiler for the interpreted SSE engine.

The paper's §2 argument is that SSE's cost is *interpretation overhead*
— per-step Python dispatch into each actor's semantics.  This profiler
makes that measurable: when enabled, the SSE loop times each actor's
evaluation on a subset of steps (every ``interval``-th step) and
attributes the cost to the actor's *block type*, yielding a hot-actor
table ("Product: 31% of sampled step time") at a bounded overhead —
unsampled steps pay only a per-actor branch test.

The engine accumulates into plain local dicts during the run and folds
them in once at the end (:meth:`add_run`), so the profiler's lock never
sits on the hot path.  ``interval`` defaults to a prime so periodic
model behaviour (enable ducts toggling every 2^k steps) cannot alias
with the sampling grid.
"""

from __future__ import annotations

import threading
from typing import Mapping

DEFAULT_SAMPLE_INTERVAL = 97


class SseProfiler:
    """Hot-actor attribution of sampled SSE step time."""

    def __init__(self, interval: int = DEFAULT_SAMPLE_INTERVAL) -> None:
        if interval < 1:
            raise ValueError("interval must be at least 1")
        self.interval = interval
        self._lock = threading.Lock()
        self._seconds: dict[str, float] = {}
        self._calls: dict[str, int] = {}
        self._sampled_steps = 0
        self._runs = 0

    def add_run(
        self,
        seconds: Mapping[str, float],
        calls: Mapping[str, int],
        sampled_steps: int,
    ) -> None:
        """Fold one engine run's locally-accumulated samples in."""
        with self._lock:
            for block_type, value in seconds.items():
                self._seconds[block_type] = (
                    self._seconds.get(block_type, 0.0) + value
                )
            for block_type, count in calls.items():
                self._calls[block_type] = self._calls.get(block_type, 0) + count
            self._sampled_steps += sampled_steps
            self._runs += 1

    # -- reading ---------------------------------------------------------
    def table(self) -> list[tuple[str, int, float, float]]:
        """Rows of (block_type, calls, seconds, share), hottest first."""
        with self._lock:
            total = sum(self._seconds.values())
            rows = [
                (bt, self._calls.get(bt, 0), secs,
                 secs / total if total > 0 else 0.0)
                for bt, secs in self._seconds.items()
            ]
        rows.sort(key=lambda row: -row[2])
        return rows

    def snapshot(self) -> dict:
        """JSON-able form (persisted with the metrics snapshot)."""
        with self._lock:
            return {
                "interval": self.interval,
                "sampled_steps": self._sampled_steps,
                "runs": self._runs,
                "actors": {
                    bt: {
                        "calls": self._calls.get(bt, 0),
                        "seconds": secs,
                    }
                    for bt, secs in self._seconds.items()
                },
            }

    def merge(self, snapshot: dict) -> None:
        """Fold another profiler's :meth:`snapshot` in (``repro
        metrics`` renders persisted profiles this way)."""
        actors = snapshot.get("actors", {})
        self.add_run(
            {bt: data.get("seconds", 0.0) for bt, data in actors.items()},
            {bt: data.get("calls", 0) for bt, data in actors.items()},
            int(snapshot.get("sampled_steps", 0)),
        )
        with self._lock:
            self._runs -= 1  # merge() is not a run; undo add_run's bump
            self._runs += int(snapshot.get("runs", 0))

    def render(self) -> str:
        rows = self.table()
        with self._lock:
            sampled = self._sampled_steps
        if not rows:
            return "sse profile: no samples recorded"
        lines = [
            f"sse profile: {sampled:,} sampled step(s), "
            f"1-in-{self.interval} sampling",
            f"{'block type':24s} {'calls':>10s} {'seconds':>10s} {'share':>7s}",
        ]
        for block_type, calls, seconds, share in rows:
            lines.append(
                f"{block_type:24s} {calls:10,d} {seconds:10.4f} {share:6.1%}"
            )
        return "\n".join(lines)


def render_profile_snapshot(snapshot: dict) -> str:
    """Render a persisted profile snapshot (``repro metrics``)."""
    profiler = SseProfiler(interval=int(snapshot.get("interval", 1)))
    profiler.merge(snapshot)
    return profiler.render()
