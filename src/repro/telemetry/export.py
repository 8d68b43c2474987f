"""Exporters: JSONL spans, Chrome ``trace_event`` JSON, text summaries.

The Chrome format (one ``traceEvents`` array of complete ``"ph": "X"``
events, microsecond timestamps) loads directly in ``chrome://tracing``
and Perfetto.  Span start times are epoch-based, so every thread's
spans line up on one timeline.

Metrics snapshots persist as JSON at :func:`default_metrics_path`
(``$ACCMOS_METRICS_FILE``, else ``~/.cache/accmos/metrics.json``) —
written by traced CLI runs, read back by ``repro metrics``.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro.telemetry.metrics import cache_hit_ratio

if TYPE_CHECKING:
    from repro.telemetry.trace import Span

METRICS_FILE_ENV = "ACCMOS_METRICS_FILE"


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
def spans_to_jsonl(spans: "Iterable[Span]") -> str:
    """One JSON object per line, chronological by start time."""
    ordered = sorted(spans, key=lambda s: s.start_time)
    return "\n".join(json.dumps(s.to_dict(), sort_keys=True) for s in ordered)


def write_spans_jsonl(spans: "Iterable[Span]", path: Union[str, Path]) -> int:
    spans = list(spans)
    Path(path).write_text(spans_to_jsonl(spans) + "\n")
    return len(spans)


def chrome_trace(spans: "Iterable[Span]") -> dict:
    """The ``chrome://tracing`` / Perfetto JSON object for these spans."""
    events = []
    for span in sorted(spans, key=lambda s: s.start_time):
        args = {
            str(k): v if isinstance(v, (int, float, bool, str, type(None)))
            else str(v)
            for k, v in span.attrs.items()
        }
        args["span_id"] = span.span_id
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        events.append(
            {
                "name": span.name,
                "cat": "accmos",
                "ph": "X",
                "ts": span.start_time * 1e6,
                "dur": max(span.duration, 1e-7) * 1e6,
                "pid": span.pid,
                "tid": span.tid,
                "args": args,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(spans: "Iterable[Span]", path: Union[str, Path]) -> int:
    trace = chrome_trace(spans)
    Path(path).write_text(json.dumps(trace, indent=1) + "\n")
    return len(trace["traceEvents"])


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def metrics_to_text(snapshot: dict) -> str:
    """Human-readable summary of a metrics snapshot."""
    lines: list[str] = []
    counters = snapshot.get("counters", {})
    gauges = snapshot.get("gauges", {})
    histograms = snapshot.get("histograms", {})

    ratio = cache_hit_ratio(snapshot)
    if ratio is not None:
        hits = counters.get("cache.hits", 0)
        misses = counters.get("cache.misses", 0)
        lines.append(
            f"cache hit ratio : {ratio:.1%} "
            f"({hits:,.0f} hit(s), {misses:,.0f} miss(es))"
        )
    if counters:
        lines.append("counters:")
        for name in sorted(counters):
            lines.append(f"  {name:36s} {counters[name]:>14,.0f}")
    if gauges:
        lines.append("gauges:")
        for name in sorted(gauges):
            lines.append(f"  {name:36s} {gauges[name]:>14,.4f}")
    if histograms:
        lines.append("histograms:")
        lines.append(
            f"  {'name':36s} {'count':>8s} {'mean':>12s} "
            f"{'min':>12s} {'max':>12s}"
        )
        for name in sorted(histograms):
            data = histograms[name]
            count = data.get("count", 0)
            mean = (data.get("sum", 0.0) / count) if count else 0.0
            lines.append(
                f"  {name:36s} {count:8,d} {mean:12.4f} "
                f"{(data.get('min') or 0.0):12.4f} "
                f"{(data.get('max') or 0.0):12.4f}"
            )
    if not lines:
        lines.append("no metrics recorded")
    return "\n".join(lines)


def default_metrics_path() -> Path:
    env = os.environ.get(METRICS_FILE_ENV)
    if env:
        return Path(env)
    return Path.home() / ".cache" / "accmos" / "metrics.json"


def save_metrics(
    snapshot: dict, path: Optional[Union[str, Path]] = None
) -> Optional[Path]:
    """Persist a snapshot for a later ``repro metrics``; None if the
    location is unwritable (telemetry must never fail the run)."""
    target = Path(path) if path is not None else default_metrics_path()
    try:
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(json.dumps(snapshot, indent=2, sort_keys=True) + "\n")
    except OSError:
        return None
    return target


def load_metrics(path: Optional[Union[str, Path]] = None) -> Optional[dict]:
    target = Path(path) if path is not None else default_metrics_path()
    try:
        return json.loads(target.read_text())
    except (OSError, ValueError):
        return None
