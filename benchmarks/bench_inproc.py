"""In-process shared library vs warm server vs spawn-per-batch.

The warm-server rung already amortized the process spawn; what remains
per case is the *pipe*: text encoding on the Python side, ``scanf`` on
the C side, frame parsing on the way back, plus two context switches per
line of protocol.  The in-process rung removes all of it — the case
travels as one packed binary record into ``acc_lib_run_case`` via
``ctypes``, and the result comes back as one packed buffer.  This bench
measures the three regimes on a pipe-bound small-case workload (short
cases, tiny batches — the shape where protocol overhead dominates):

* ``spawn-per-batch`` — ``CompiledModel.run_batch``: one fresh process
  per batch of cases;
* ``server-stream``   — ``ServerPool.run_batch``: the same batches
  streamed through one warm ``--serve`` process;
* ``inproc``          — ``CompiledModel.run_inproc``: the same batches
  pushed through the loaded shared library, zero processes.

Asserted claims: the inproc regime's results are byte-identical to both
process regimes, it spawns **zero** simulation processes, and its
throughput is at least 1.5x the server stream's.  A last row splits one
in-process case into the library call (C loop plus ``ctypes``) and the
decode of its packed result buffer, in microseconds per case.

Each regime is timed ``ACCMOS_BENCH_INPROC_REPEATS`` times (default 3)
and the best pass counts — scheduler noise only ever slows a run down.

Knobs: ``ACCMOS_BENCH_INPROC_BATCHES`` (default 40),
``ACCMOS_BENCH_INPROC_BATCH`` (default 2), ``ACCMOS_BENCH_INPROC_STEPS``
(default 32), ``ACCMOS_BENCH_INPROC_REPEATS`` (default 3), and
``ACCMOS_BENCH_INPROC_MIN_SPEEDUP`` (default 1.5; CI smoke relaxes it —
shared runners make tight perf ratios flaky).
"""

from __future__ import annotations

import os
import time

import pytest

from repro import SimulationOptions
from repro.benchmarks import build_benchmark
from repro.codegen.descriptor import descriptors_for
from repro.codegen.driver import supports_shared_objects
from repro.engines.accmos import compile_model
from repro.inproc import encode_case_binary
from repro.runner.servers import ServerPool
from repro.schedule import preprocess
from repro.stimuli import default_stimuli

from conftest import report_json, report_table
from helpers import assert_results_agree

MODEL = "SPV"


def _n_batches() -> int:
    return int(os.environ.get("ACCMOS_BENCH_INPROC_BATCHES", "40"))


def _batch() -> int:
    return int(os.environ.get("ACCMOS_BENCH_INPROC_BATCH", "2"))


def _steps() -> int:
    return int(os.environ.get("ACCMOS_BENCH_INPROC_STEPS", "32"))


def _repeats() -> int:
    return int(os.environ.get("ACCMOS_BENCH_INPROC_REPEATS", "3"))


def _min_speedup() -> float:
    return float(os.environ.get("ACCMOS_BENCH_INPROC_MIN_SPEEDUP", "1.5"))


def test_inproc_throughput():
    if supports_shared_objects() is not True:
        pytest.skip("toolchain cannot build loadable shared objects")

    prog = preprocess(build_benchmark(MODEL))
    steps, batch, n_batches = _steps(), _batch(), _n_batches()
    options = SimulationOptions(steps=steps)
    model = compile_model(prog, options, artifact="shared")
    model.compiled.ensure_binary()  # both forms ready before timing

    batches = [
        [
            (default_stimuli(prog, seed=1 + b * batch + i), options)
            for i in range(batch)
        ]
        for b in range(n_batches)
    ]
    n_cases = batch * n_batches
    repeats = _repeats()

    def _timed(run_all) -> float:
        start = time.perf_counter()
        run_all()
        return time.perf_counter() - start

    def best_rate(run_all) -> float:
        return max(
            n_cases / _timed(run_all) for _ in range(max(1, repeats))
        )

    # Spawn-per-batch regime; the first batch is an untimed warmup
    # (page cache, allocator) for every regime.
    spawn_ref = model.run_batch(batches[0])
    spawn_rate = best_rate(
        lambda: [model.run_batch(cases) for cases in batches]
    )

    # Server-stream regime: every batch rides the same warm server.
    pool = ServerPool(max_servers=2)
    try:
        serve_ref = pool.run_batch(model, batches[0])
        serve_rate = best_rate(
            lambda: [pool.run_batch(model, cases) for cases in batches]
        )
        pool_stats = pool.stats()
    finally:
        pool.close()

    # In-process regime: the warmup batch pays the one dlopen, so the
    # timed window is pure steady state.
    inproc_ref = model.run_inproc(batches[0])
    inproc_rate = best_rate(
        lambda: [model.run_inproc(cases) for cases in batches]
    )

    # Where an in-process case's time goes: the library call (the C
    # loop plus ctypes) against decoding its packed result buffer.
    records = [
        encode_case_binary(descriptors_for(prog, stimuli), steps=steps)
        for cases in batches
        for stimuli, _options in cases
    ]
    lib = model.load()
    try:
        start = time.perf_counter()
        buffers = [lib.run_case(record) for record in records]
        run_case_us = (time.perf_counter() - start) / n_cases * 1e6
        start = time.perf_counter()
        for buf in buffers:
            model.decoder.decode(buf, prog, options)
        decode_us = (time.perf_counter() - start) / n_cases * 1e6
    finally:
        lib.retire()

    # Byte-identity across all three regimes (spot-checked on one batch).
    for spawn_result, serve_result, inproc_result in zip(
        spawn_ref, serve_ref, inproc_ref
    ):
        assert_results_agree(spawn_result, serve_result)
        assert_results_agree(spawn_result, inproc_result)

    # The inproc run never fell back to a process rung.
    assert model.inproc_available

    vs_serve = inproc_rate / serve_rate
    vs_spawn = inproc_rate / spawn_rate
    lines = [
        f"model {MODEL}, {steps} steps/case, {n_batches} batches x "
        f"{batch} cases ({n_cases} cases), best of {repeats}:",
        f"  {'regime':<18s} {'cases/sec':>10s} {'speedup':>8s} "
        f"{'processes':>10s}",
        f"  {'spawn-per-batch':<18s} {spawn_rate:10.2f} {'1.0x':>8s} "
        f"{n_batches * repeats + 1:10d}",
        f"  {'server-stream':<18s} {serve_rate:10.2f} "
        f"{f'{serve_rate / spawn_rate:.1f}x':>8s} "
        f"{pool_stats['spawns']:10d}",
        f"  {'inproc':<18s} {inproc_rate:10.2f} "
        f"{f'{vs_spawn:.1f}x':>8s} {0:10d}",
        f"  inproc vs server-stream: {vs_serve:.1f}x",
        f"  inproc per case: library call {run_case_us:.1f} us, "
        f"result decode {decode_us:.1f} us",
    ]
    report_table("Inproc (shared library, packed binary cases)",
                 "\n".join(lines))
    report_json(
        "inproc",
        {
            "model": MODEL, "steps": steps, "batch_size": batch,
            "batches": n_batches, "repeats": repeats,
        },
        [
            {"regime": "spawn-per-batch", "cases_per_sec": spawn_rate,
             "processes": n_batches * repeats + 1},
            {"regime": "server-stream", "cases_per_sec": serve_rate,
             "processes": pool_stats["spawns"],
             "reuses": pool_stats["reuses"]},
            {"regime": "inproc", "cases_per_sec": inproc_rate,
             "processes": 0, "speedup_vs_serve": vs_serve,
             "speedup_vs_spawn": vs_spawn,
             "run_case_us_per_case": run_case_us,
             "decode_us_per_case": decode_us},
        ],
        "cases/second",
    )

    assert vs_serve >= _min_speedup(), (
        f"inproc {inproc_rate:.2f} cases/s is only {vs_serve:.2f}x "
        f"server-stream {serve_rate:.2f} cases/s "
        f"(required {_min_speedup():.2f}x)"
    )
