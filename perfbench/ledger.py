"""Per-layer attribution of traced requests.

A traced run records the program's own telemetry spans (preprocess,
instrument, codegen, compile, gcc, execute, parse, accmos.stream, the
runner and campaign spans) while the benchmark times each request from
the caller's side.  This module turns the two into a per-request ledger:
the self time of every span is assigned to one layer, the in-binary
simulation loop and the result decode are carved out of the execution
spans with the per-case figures the program reports on its results, and
whatever request time no span covers is reported as ``outside`` (the
HTTP/WebSocket wire and queueing for the service, model construction and
caller glue otherwise).  Work that runs concurrently (C loops on several
threads, a warm server simulating one case while the caller decodes the
previous one) is counted once per layer it keeps busy, and the time so
counted twice is reported as ``overlap``.  No layer is ever negative, and
the layers minus ``overlap`` add up to the traced mean request time by
construction; ``outside`` shows how much of it the program's spans do
not explain.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

# Span name -> layer.  Spans not named here (accmos.run, runner.*,
# campaign, ...) are Python orchestration and land in "dispatch".
LAYER_OF_SPAN = {
    "preprocess": "preprocess",
    "instrument": "codegen",
    "codegen": "codegen",
    "compile": "compile",
    "gcc": "compile",
    # Everything that moves cases into the compiled program and results
    # back out; the C loop and the decode are carved out of this group.
    "execute": "exec",
    "parse": "exec",
    "accmos.stream": "exec",
    "accmos.batch": "exec",
    "accmos.inproc": "exec",
    "accmos.probe": "exec",
    "server.spawn": "exec",
}


@dataclass
class CaseFigures:
    """What the program reports about the cases of one request."""

    c_loop_s: float = 0.0  # in-binary simulation loop (result wall_time)
    decode_s: float = 0.0  # result parse / decode
    steps: int = 0
    cases: int = 0

    def add(self, other: "CaseFigures") -> None:
        self.c_loop_s += other.c_loop_s
        self.decode_s += other.decode_s
        self.steps += other.steps
        self.cases += other.cases


@dataclass
class Ledger:
    """Totals over every traced request of one run."""

    requests: int = 0
    latency_s: float = 0.0
    figures: CaseFigures = field(default_factory=CaseFigures)

    def per_layer(self, spans, counters: dict) -> "dict[str, float]":
        """Per-request layer figures (milliseconds unless named
        otherwise) from the run's finished spans and counters."""
        children = defaultdict(float)
        for span in spans:
            if span.parent_id is not None:
                children[span.parent_id] += span.duration
        layers = defaultdict(float)
        overlap = 0.0
        codegen_runs = 0
        for span in spans:
            # Children that ran concurrently (worker threads under one
            # parent) can add up to more than their parent lasted; the
            # excess is overlap, not negative self time.
            self_time = span.duration - children[span.span_id]
            layers[LAYER_OF_SPAN.get(span.name, "dispatch")] += max(
                0.0, self_time
            )
            overlap += max(0.0, -self_time)
            codegen_runs += span.name == "codegen"

        fig = self.figures
        exec_s = layers.pop("exec", 0.0)
        layers["c_loop"] = fig.c_loop_s
        layers["decode"] = fig.decode_s
        # A warm server runs case k+1 while the caller decodes case k, and
        # threads run C loops side by side, so the loop and decode times
        # can exceed the execution spans that contain them.
        ipc = exec_s - fig.c_loop_s - fig.decode_s
        layers["ipc"] = max(0.0, ipc)
        overlap += max(0.0, -ipc)
        rest = self.latency_s + overlap - sum(layers.values())
        layers["outside"] = max(0.0, rest)
        layers["overlap"] = overlap + max(0.0, -rest)

        n = max(1, self.requests)
        out = {
            f"{name}_ms": layers.get(name, 0.0) / n * 1e3
            for name in (
                "preprocess", "codegen", "compile", "dispatch", "ipc",
                "c_loop", "decode", "outside", "overlap",
            )
        }
        out["traced_request_ms"] = self.latency_s / n * 1e3
        out["c_loop_ns_per_step"] = fig.c_loop_s / max(1, fig.steps) * 1e9
        out["codegen_runs"] = codegen_runs / n
        out["server_spawns"] = counters.get("runner.server.spawns", 0) / n
        return out
