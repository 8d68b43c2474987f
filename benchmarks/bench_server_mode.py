"""Warm pooled host vs a private host per batch — the persistent-server
payoff.

With compile-once/run-many, the remaining fixed cost of a batch on the
process rungs is the spawn: fork + exec + ``dlopen`` of the program's
library + handshake + pipe teardown, paid once per batch.  Server mode
amortizes even that — one host process per compiled artifact stays warm
across batches, cases stream through its stdin, and each case's result
frame is decoded as soon as it lands.  This bench measures the two
regimes on a spawn-bound small-step workload (short cases, small
batches — the shape where the spawn is a large share of the wall clock):

* ``private-host``  — ``CompiledModel.run_stream`` with no server: one
  fresh host process per batch of cases (what ``serve=False`` runs);
* ``server-stream`` — ``ServerPool.run_batch``: the same batches
  streamed through one warm host reused across all of them.

It also measures **time-to-first-result** of one larger batch on a warm
host against the full batch on a private host.

Asserted claims: the server-stream regime does **exactly one** process
spawn for the entire run (zero restarts), its results are byte-identical
to the private-host path, and its throughput is at least 1.5x the
private-host regime.

Each regime is timed ``ACCMOS_BENCH_SERVER_REPEATS`` times (default 3)
and the best pass counts — scheduler noise only ever slows a run down,
so the minimum wall clock is the honest estimate of each regime's cost.

Knobs: ``ACCMOS_BENCH_SERVER_BATCHES`` (default 40),
``ACCMOS_BENCH_SERVER_BATCH`` (default 2), ``ACCMOS_BENCH_SERVER_STEPS``
(default 32), ``ACCMOS_BENCH_SERVER_TTFR_CASES`` (default 16),
``ACCMOS_BENCH_SERVER_REPEATS`` (default 3), and
``ACCMOS_BENCH_SERVER_MIN_SPEEDUP`` (default 1.5; CI smoke relaxes it —
shared runners make tight perf ratios flaky).
"""

from __future__ import annotations

import os
import time

from repro import SimulationOptions
from repro.benchmarks import build_benchmark
from repro.engines.accmos import compile_model
from repro.runner.servers import ServerPool
from repro.schedule import preprocess
from repro.stimuli import default_stimuli

from conftest import report_json, report_table
from helpers import assert_results_agree

MODEL = "SPV"


def _n_batches() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SERVER_BATCHES", "40"))


def _batch() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SERVER_BATCH", "2"))


def _steps() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SERVER_STEPS", "32"))


def _ttfr_cases() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SERVER_TTFR_CASES", "16"))


def _repeats() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SERVER_REPEATS", "3"))


def _min_speedup() -> float:
    return float(os.environ.get("ACCMOS_BENCH_SERVER_MIN_SPEEDUP", "1.5"))


def test_server_mode_throughput():
    prog = preprocess(build_benchmark(MODEL))
    steps, batch, n_batches = _steps(), _batch(), _n_batches()
    options = SimulationOptions(steps=steps)
    model = compile_model(prog, options)

    batches = [
        [
            (default_stimuli(prog, seed=1 + b * batch + i), options)
            for i in range(batch)
        ]
        for b in range(n_batches)
    ]
    n_cases = batch * n_batches

    repeats = _repeats()

    def best_rate(run_all) -> float:
        return max(
            n_cases / _timed(run_all) for _ in range(max(1, repeats))
        )

    def _timed(run_all) -> float:
        start = time.perf_counter()
        run_all()
        return time.perf_counter() - start

    # Private-host regime: one fresh host process per batch.  The first
    # batch is an untimed warmup (page cache, allocator, the host build)
    # for both sides.
    spawn_ref = list(model.run_stream(batches[0]))
    spawn_rate = best_rate(
        lambda: [list(model.run_stream(cases)) for cases in batches]
    )

    # Server-stream regime: every batch rides the same warm server.
    # The warmup batch pays the single spawn, so the timed window is
    # pure steady state — exactly what a long campaign sees.
    pool = ServerPool(max_servers=2)
    try:
        serve_ref = pool.run_batch(model, batches[0])
        serve_rate = best_rate(
            lambda: [pool.run_batch(model, cases) for cases in batches]
        )
        stats = pool.stats()
    finally:
        pool.close()

    # Byte-identity between the regimes (spot-checked on one batch).
    for spawn_result, serve_result in zip(spawn_ref, serve_ref):
        assert_results_agree(spawn_result, serve_result)

    # One artifact, one spawn — the whole run reused a single warm
    # process and never restarted it.
    assert stats["spawns"] == 1, stats
    assert stats["restarts"] == 0, stats
    assert stats["reuses"] == n_batches * repeats, stats

    # Time-to-first-result: a warm host yields case 0 as soon as its
    # frame lands; the private-host figure is the whole batch.
    ttfr_batch = [
        (default_stimuli(prog, seed=10_001 + i), options)
        for i in range(_ttfr_cases())
    ]
    server = model.serve()
    try:
        stream = model.run_stream(ttfr_batch, server=server)
        start = time.perf_counter()
        first = next(stream)
        ttfr_stream = time.perf_counter() - start
        list(stream)  # drain the remaining frames before closing
    finally:
        server.close()
    start = time.perf_counter()
    full = list(model.run_stream(ttfr_batch))
    ttfr_spawn = time.perf_counter() - start
    assert_results_agree(full[0], first)

    speedup = serve_rate / spawn_rate
    lines = [
        f"model {MODEL}, {steps} steps/case, {n_batches} batches x "
        f"{batch} cases ({n_cases} cases), best of {repeats}:",
        f"  {'regime':<18s} {'cases/sec':>10s} {'speedup':>8s} "
        f"{'spawns':>7s}",
        f"  {'private-host':<18s} {spawn_rate:10.2f} {'1.0x':>8s} "
        f"{n_batches * repeats + 1:7d}",
        f"  {'server-stream':<18s} {serve_rate:10.2f} "
        f"{f'{speedup:.1f}x':>8s} {stats['spawns']:7d}",
        f"  time to first result ({len(ttfr_batch)}-case batch): "
        f"stream {ttfr_stream * 1e3:.2f} ms vs full batch "
        f"{ttfr_spawn * 1e3:.2f} ms",
    ]
    report_table("Server mode (warm process, streamed cases)",
                 "\n".join(lines))
    report_json(
        "server_mode",
        {
            "model": MODEL, "steps": steps, "batch_size": batch,
            "batches": n_batches, "repeats": repeats,
            "ttfr_cases": len(ttfr_batch),
        },
        [
            {"regime": "private-host", "cases_per_sec": spawn_rate,
             "spawns": n_batches * repeats + 1},
            {"regime": "server-stream", "cases_per_sec": serve_rate,
             "spawns": stats["spawns"], "reuses": stats["reuses"],
             "restarts": stats["restarts"]},
            {"regime": "time-to-first-result",
             "stream_seconds": ttfr_stream, "batch_seconds": ttfr_spawn},
        ],
        "cases/second",
    )

    assert speedup >= _min_speedup(), (
        f"server-stream {serve_rate:.2f} cases/s is only {speedup:.2f}x "
        f"private-host {spawn_rate:.2f} cases/s "
        f"(required {_min_speedup():.2f}x)"
    )
