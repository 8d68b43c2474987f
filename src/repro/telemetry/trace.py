"""Hierarchical span tracing for the simulation pipeline.

A *span* is one timed region — ``preprocess``, ``codegen``, ``gcc``, one
runner job — with a name, wall-clock bounds, free-form attributes, and a
parent link.  Spans form a tree per thread via a thread-local stack.

Span ids embed the pid, so spans from different processes never
collide in an exported trace.

Timing uses two clocks: ``perf_counter`` deltas for durations (immune to
wall-clock steps) and an epoch timestamp for the start (comparable
across processes — what the Chrome trace exporter aligns on).
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class Span:
    """One finished or in-flight timed region."""

    name: str
    span_id: str
    parent_id: Optional[str]
    start_time: float  # epoch seconds (time.time)
    pid: int
    tid: int
    duration: float = 0.0  # perf_counter delta, set when the span ends
    attrs: dict = field(default_factory=dict)
    _start_perf: float = field(default=0.0, repr=False, compare=False)

    def set(self, **attrs) -> "Span":
        """Attach attributes; chainable inside a ``with`` body."""
        self.attrs.update(attrs)
        return self

    def to_dict(self) -> dict:
        """Wire form for crossing a process boundary or a JSONL line."""
        return {
            "name": self.name,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start_time": self.start_time,
            "duration": self.duration,
            "pid": self.pid,
            "tid": self.tid,
            "attrs": dict(self.attrs),
        }


class _SpanContext:
    """The context manager :meth:`Tracer.span` hands out."""

    __slots__ = ("_tracer", "_span")

    def __init__(self, tracer: "Tracer", span: Span) -> None:
        self._tracer = tracer
        self._span = span

    def __enter__(self) -> Span:
        self._tracer._push(self._span)
        return self._span

    def __exit__(self, exc_type, exc, tb) -> bool:
        if exc_type is not None:
            self._span.attrs.setdefault("error", exc_type.__name__)
        self._tracer._pop(self._span)
        return False


class Tracer:
    """Thread-safe span recorder with per-thread nesting."""

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._finished: list[Span] = []
        self._local = threading.local()
        self._ids = itertools.count(1)

    # -- internals -------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> str:
        return f"{os.getpid():x}.{next(self._ids)}"

    def _push(self, span: Span) -> None:
        span._start_perf = time.perf_counter()
        self._stack().append(span)

    def _pop(self, span: Span) -> None:
        span.duration = time.perf_counter() - span._start_perf
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        with self._lock:
            self._finished.append(span)

    # -- public API ------------------------------------------------------
    def span(self, name: str, **attrs) -> _SpanContext:
        """Open a child span of the thread's current span."""
        stack = self._stack()
        span = Span(
            name=name,
            span_id=self._new_id(),
            parent_id=stack[-1].span_id if stack else None,
            start_time=time.time(),
            pid=os.getpid(),
            tid=threading.get_ident() & 0xFFFFFFFF,
            attrs=dict(attrs),
        )
        return _SpanContext(self, span)

    def current(self) -> Optional[Span]:
        """The innermost open span on this thread, if any."""
        stack = self._stack()
        return stack[-1] if stack else None

    def finished(self) -> list[Span]:
        """Snapshot of all completed spans, in completion order."""
        with self._lock:
            return list(self._finished)

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()


def walk_children(spans: list[Span], parent_id: Optional[str]) -> Iterator[Span]:
    """Children of ``parent_id`` among ``spans``, in start order."""
    children = [s for s in spans if s.parent_id == parent_id]
    children.sort(key=lambda s: s.start_time)
    yield from children


def render_tree(spans: list[Span]) -> str:
    """Indented text rendering of the span forest (for the CLI)."""
    lines: list[str] = []

    def visit(parent_id: Optional[str], depth: int) -> None:
        for span in walk_children(spans, parent_id):
            extra = ""
            if span.attrs:
                pairs = ", ".join(f"{k}={v}" for k, v in sorted(span.attrs.items()))
                extra = f"  [{pairs}]"
            lines.append(
                f"{'  ' * depth}{span.name:<{max(28 - 2 * depth, 8)}s} "
                f"{span.duration * 1e3:10.3f} ms{extra}"
            )
            visit(span.span_id, depth + 1)

    known = {s.span_id for s in spans}
    roots = [s for s in spans if s.parent_id is None or s.parent_id not in known]
    for root in sorted(roots, key=lambda s: s.start_time):
        extra = ""
        if root.attrs:
            pairs = ", ".join(f"{k}={v}" for k, v in sorted(root.attrs.items()))
            extra = f"  [{pairs}]"
        lines.append(f"{root.name:<28s} {root.duration * 1e3:10.3f} ms{extra}")
        visit(root.span_id, 1)
    return "\n".join(lines)
