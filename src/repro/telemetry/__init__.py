"""Tracing, metrics, and profiling for the simulation pipeline.

Three collectors behind one process-wide switch:

* :mod:`repro.telemetry.trace` — hierarchical span tracer threaded
  through preprocess -> instrument -> codegen -> gcc -> execute -> parse,
  all four engines, and the runner (per-job spans nest under the
  dispatching ``run_jobs`` span, on the calling thread that runs every
  chunk);
* :mod:`repro.telemetry.metrics` — counters/gauges/histograms (cache
  hit/miss, compile seconds, steps/sec per engine, retry/timeout
  counts);
* :mod:`repro.telemetry.profiler` — sampling profiler attributing SSE
  step time to actor block types (the paper's §2 interpretation-overhead
  argument, measured).

Disabled (the default), every hook is a no-op fast path: one global
read.  Enable around a region with::

    from repro import telemetry

    with telemetry.capture(profile_sse=True) as session:
        simulate(model, engine="sse", steps=100_000)
    print(telemetry.render_tree(session.tracer.finished()))
    telemetry.write_chrome_trace(session.tracer.finished(), "t.json")

or process-wide with :func:`enable` / :func:`disable` (what the CLI's
``--trace`` flag does).
"""

from repro.telemetry.export import (
    chrome_trace,
    default_metrics_path,
    load_metrics,
    metrics_to_text,
    save_metrics,
    spans_to_jsonl,
    write_chrome_trace,
    write_spans_jsonl,
)
from repro.telemetry.metrics import (
    HistogramData,
    MetricsRegistry,
    cache_hit_ratio,
)
from repro.telemetry.profiler import (
    DEFAULT_SAMPLE_INTERVAL,
    SseProfiler,
    render_profile_snapshot,
)
from repro.telemetry.session import (
    NULL_SPAN,
    TelemetrySession,
    active,
    capture,
    counter_inc,
    current_span,
    disable,
    enable,
    enabled,
    gauge_set,
    observe,
    span,
    sse_profiler,
)
from repro.telemetry.trace import Span, Tracer, render_tree

__all__ = [
    "TelemetrySession",
    "enable",
    "disable",
    "active",
    "enabled",
    "capture",
    "span",
    "current_span",
    "counter_inc",
    "gauge_set",
    "observe",
    "sse_profiler",
    "NULL_SPAN",
    "Span",
    "Tracer",
    "render_tree",
    "MetricsRegistry",
    "HistogramData",
    "cache_hit_ratio",
    "SseProfiler",
    "DEFAULT_SAMPLE_INTERVAL",
    "render_profile_snapshot",
    "chrome_trace",
    "write_chrome_trace",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "metrics_to_text",
    "save_metrics",
    "load_metrics",
    "default_metrics_path",
]
