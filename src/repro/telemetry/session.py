"""Global telemetry state and the hooks the pipeline calls.

Telemetry is **off by default**, and the instrumented hot paths are
written against that default: every hook here degrades to one global
read when no session is active — :func:`span` returns a shared null
context manager, the counter/gauge/histogram helpers return
immediately, :func:`sse_profiler` returns ``None`` so the engine skips
its sampling branches entirely.  Enabling costs nothing until the next
instrumented call site runs.

One :class:`TelemetrySession` bundles the three collectors (tracer,
metrics registry, optional SSE profiler).  :func:`enable` installs a
fresh session process-wide.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Optional

from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.profiler import DEFAULT_SAMPLE_INTERVAL, SseProfiler
from repro.telemetry.trace import Span, Tracer


@dataclass
class TelemetrySession:
    """One enabled telemetry epoch: tracer + metrics (+ profiler)."""

    tracer: Tracer
    metrics: MetricsRegistry
    profiler: Optional[SseProfiler] = None

    def snapshot(self) -> dict:
        """The persistence form ``repro metrics`` reads back."""
        snap = self.metrics.snapshot()
        if self.profiler is not None:
            snap["profile_sse"] = self.profiler.snapshot()
        return snap


_lock = threading.Lock()
_session: Optional[TelemetrySession] = None


def enable(
    *,
    profile_sse: bool = False,
    sample_interval: int = DEFAULT_SAMPLE_INTERVAL,
) -> TelemetrySession:
    """Install a fresh process-wide session (replacing any active one)."""
    global _session
    session = TelemetrySession(
        tracer=Tracer(),
        metrics=MetricsRegistry(),
        profiler=SseProfiler(sample_interval) if profile_sse else None,
    )
    with _lock:
        _session = session
    return session


def disable() -> Optional[TelemetrySession]:
    """Deactivate telemetry; returns the session so callers can still
    export what it collected."""
    global _session
    with _lock:
        session, _session = _session, None
    return session


def active() -> Optional[TelemetrySession]:
    """The current session, or None — the single gate every hook uses."""
    return _session


def enabled() -> bool:
    return _session is not None


class _CaptureContext:
    """``with telemetry.capture() as session:`` for tests and embedders."""

    def __init__(self, **enable_kwargs) -> None:
        self._kwargs = enable_kwargs
        self._previous: Optional[TelemetrySession] = None
        self.session: Optional[TelemetrySession] = None

    def __enter__(self) -> TelemetrySession:
        global _session
        with _lock:
            self._previous = _session
        self.session = enable(**self._kwargs)
        return self.session

    def __exit__(self, *exc) -> bool:
        global _session
        with _lock:
            _session = self._previous
        return False


def capture(**enable_kwargs) -> _CaptureContext:
    return _CaptureContext(**enable_kwargs)


# ----------------------------------------------------------------------
# hooks (the fast paths the pipeline calls unconditionally)
# ----------------------------------------------------------------------
class _NullSpan:
    """Shared do-nothing span: what :func:`span` returns when disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **attrs) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


def span(name: str, **attrs):
    """Open a span under the active tracer; a no-op when disabled."""
    session = _session
    if session is None:
        return NULL_SPAN
    return session.tracer.span(name, **attrs)


def current_span() -> Optional[Span]:
    session = _session
    if session is None:
        return None
    return session.tracer.current()


def counter_inc(name: str, amount: float = 1) -> None:
    session = _session
    if session is not None:
        session.metrics.inc(name, amount)


def gauge_set(name: str, value: float) -> None:
    session = _session
    if session is not None:
        session.metrics.set_gauge(name, value)


def observe(name: str, value: float) -> None:
    session = _session
    if session is not None:
        session.metrics.observe(name, value)


def sse_profiler() -> Optional[SseProfiler]:
    """The active session's SSE profiler, or None (engine skips
    sampling entirely)."""
    session = _session
    if session is None:
        return None
    return session.profiler
