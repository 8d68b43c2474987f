"""Campaign service overhead — what the network front end costs.

The service's contract is that it *wraps* the runner, it doesn't tax
it: a campaign submitted over HTTP and streamed over WebSocket does the
same folds as a direct :func:`repro.campaign.run_campaign` call, plus
framing.  This bench measures both halves of that claim on one
warm-started in-process server:

* **submit-to-first-result latency** — wall time from ``POST
  /campaigns`` returning an id to the first ``case`` event landing on
  the WebSocket.  This is the interactive feel of the service: spec
  validation, admission, thread handoff, one case's simulation, one
  frame.
* **streamed overhead** — end-to-end wall time of a full
  submit→stream→terminal round trip versus the identical campaign run
  directly in-process, best-of-``N`` on both sides.  The service's
  added cost (HTTP parse, event-log append, executor handoff, WS
  framing, loopback TCP) rides on top of real simulation work; the
  asserted bound is that it stays **under 10%** of the direct runtime
  (``ACCMOS_BENCH_SERVICE_MAX_OVERHEAD``, CI may relax on shared
  runners).

Byte-identity of the streamed outcome against the direct run is
asserted along the way — a fast service that streams different bytes
would be measuring the wrong thing.

Knobs: ``ACCMOS_BENCH_SERVICE_STEPS`` (default 5000),
``ACCMOS_BENCH_SERVICE_CASES`` (default 6),
``ACCMOS_BENCH_SERVICE_REPEATS`` (default 2),
``ACCMOS_BENCH_SERVICE_MAX_OVERHEAD`` (default 0.10).
"""

from __future__ import annotations

import asyncio
import os
import threading
import time

from repro.benchmarks import build_benchmark
from repro.campaign import run_campaign
from repro.schedule import preprocess
from repro.service import CampaignServer, CampaignService, encode, outcome_record
from repro.service.client import ServiceClient

from conftest import report_json, report_table

MODEL = "SPV"


def _steps() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SERVICE_STEPS", "5000"))


def _cases() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SERVICE_CASES", "6"))


def _repeats() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SERVICE_REPEATS", "2"))


def _max_overhead() -> float:
    return float(os.environ.get("ACCMOS_BENCH_SERVICE_MAX_OVERHEAD", "0.10"))


def test_service_overhead():
    service = CampaignService(max_concurrent=1)
    server = CampaignServer(service)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def _run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=_run, daemon=True)
    thread.start()
    assert started.wait(10)
    client = ServiceClient(server.host, server.port)

    steps, cases, repeats = _steps(), _cases(), _repeats()
    # The campaign must not saturate early: a plateau would make the
    # direct and streamed runs equally short and the ratio noise.
    spec = {
        "model": f"bench:{MODEL}", "engine": "sse", "steps": steps,
        "max_cases": cases, "plateau_patience": cases,
    }
    prog = preprocess(build_benchmark(MODEL))

    def run_direct():
        return run_campaign(
            prog, engine="sse", steps=steps, max_cases=cases,
            plateau_patience=cases,
        )

    def stream_once():
        """Full round trip; returns (total_s, submit_to_first_case_s,
        terminal_event)."""
        begin = time.perf_counter()
        campaign_id = client.submit(spec)
        submitted = time.perf_counter()
        first_case = None
        final = None
        for event in client.stream(campaign_id):
            if event["type"] == "case" and first_case is None:
                first_case = time.perf_counter() - submitted
            final = event
        total = time.perf_counter() - begin
        assert final is not None and final["type"] == "outcome", final
        return total, first_case, final

    try:
        # Warmup both sides (imports, allocator)...
        reference = run_direct()
        _, _, warm_final = stream_once()
        # ...and pin byte-identity before timing anything.
        assert encode(warm_final["outcome"]) == encode(
            outcome_record(reference)
        ), "streamed outcome diverged from the direct run"

        direct_best = min(
            _timed(run_direct) for _ in range(max(1, repeats))
        )
        streamed_samples = [stream_once() for _ in range(max(1, repeats))]
        streamed_best = min(sample[0] for sample in streamed_samples)
        ttfr_best = min(sample[1] for sample in streamed_samples)
    finally:
        future = asyncio.run_coroutine_threadsafe(server.close(), loop)
        future.result(30)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()

    overhead = streamed_best / direct_best - 1.0
    per_case_direct = direct_best / cases
    lines = [
        f"model {MODEL}, sse, {steps} steps/case, {cases} cases, "
        f"best of {repeats}:",
        f"  {'path':<16s} {'total':>9s} {'per case':>9s}",
        f"  {'direct':<16s} {direct_best * 1e3:8.1f}ms "
        f"{per_case_direct * 1e3:8.1f}ms",
        f"  {'service (WS)':<16s} {streamed_best * 1e3:8.1f}ms "
        f"{streamed_best / cases * 1e3:8.1f}ms",
        f"  streamed overhead: {overhead:+.1%} "
        f"(bound {_max_overhead():.0%})",
        f"  submit-to-first-result: {ttfr_best * 1e3:.1f} ms "
        f"(one case is {per_case_direct * 1e3:.1f} ms of it)",
    ]
    report_table("Campaign service overhead", "\n".join(lines))
    report_json(
        "service_overhead",
        {"model": MODEL, "steps": steps, "cases": cases,
         "repeats": repeats},
        [
            {"path": "direct", "seconds": direct_best},
            {"path": "service_ws", "seconds": streamed_best,
             "overhead": overhead},
            {"path": "submit_to_first_result", "seconds": ttfr_best},
        ],
        "seconds (best of repeats)",
    )

    assert overhead < _max_overhead(), (
        f"service round trip {streamed_best:.3f}s is {overhead:+.1%} over "
        f"the direct run {direct_best:.3f}s "
        f"(bound {_max_overhead():.0%})"
    )


def _timed(fn) -> float:
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start
