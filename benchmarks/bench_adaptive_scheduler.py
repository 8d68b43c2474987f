"""Streaming work-conserving scheduler vs a wave-barrier loop.

The barrier regime ("wave") is built here from the scheduler itself:
one :func:`run_jobs` call per slice of ``workers x batch`` cases, each
call returning only when its slowest case has.  On a cost-skewed
corpus — most cases short, a few 20x longer — every wave containing a
long case parks the whole fleet behind it.  The streaming regime hands
the whole corpus to one :func:`run_jobs` call: the scheduler keeps a
bounded in-flight window topped up as workers free, folds results
through a seed-ordered reorder buffer, and routes predicted-long cases
to capped dedicated slots, so the short tail never queues behind a
long head.

This bench runs the *same* skewed corpus (one compiled unit — per-case
``steps`` is not structural, so both regimes share one cache entry and
exactly one gcc) through both regimes and asserts:

* per-case results are byte-identical (checksums + coverage bitmaps);
* zero additional compiler invocations after the shared warmup;
* streaming throughput is at least
  ``ACCMOS_BENCH_SCHED_MIN_SPEEDUP`` x the wave loop's (default 1.3;
  skipped when the machine has fewer cores than workers).

Knobs: ``ACCMOS_BENCH_SCHED_CASES`` (default 48),
``ACCMOS_BENCH_SCHED_STEPS`` (default 20000, the short-case cost),
``ACCMOS_BENCH_SCHED_BIG_STEPS`` (default 400000, every
``ACCMOS_BENCH_SCHED_SKEW``-th case, default 12),
``ACCMOS_BENCH_SCHED_WORKERS`` (default 4),
``ACCMOS_BENCH_SCHED_REPEATS`` (default 2, best pass counts), and
``ACCMOS_BENCH_SCHED_MIN_SPEEDUP`` (default 1.3).
"""

from __future__ import annotations

import os
import time

import pytest

from repro import SimulationOptions
from repro.benchmarks import build_benchmark
from repro.codegen.driver import find_c_compiler
from repro.runner import ArtifactCache, run_jobs
from repro.runner.costmodel import CostModelStore
from repro.runner.jobs import SimulationJob
from repro.schedule import preprocess

from conftest import report_json, report_table

MODEL = "SPV"


def _cases() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SCHED_CASES", "48"))


def _steps() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SCHED_STEPS", "20000"))


def _big_steps() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SCHED_BIG_STEPS", "400000"))


def _skew() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SCHED_SKEW", "12"))


def _workers() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SCHED_WORKERS", "4"))


def _repeats() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SCHED_REPEATS", "2"))


def _min_speedup() -> float:
    return float(os.environ.get("ACCMOS_BENCH_SCHED_MIN_SPEEDUP", "1.3"))


def _build_jobs(prog) -> list[SimulationJob]:
    """Cost-skewed corpus: every ``skew``-th case is ~20x longer."""
    jobs = []
    for i in range(_cases()):
        steps = _big_steps() if i % _skew() == 0 else _steps()
        jobs.append(
            SimulationJob(
                prog=prog, seed=1 + i, engine="accmos",
                options=SimulationOptions(steps=steps),
            )
        )
    return jobs


def _assert_identical(reference, candidate) -> None:
    assert [r.seed for r in candidate] == [r.seed for r in reference]
    for ref, got in zip(reference, candidate):
        assert ref.ok and got.ok, (ref.error, got.error)
        assert got.result.checksums == ref.result.checksums
        assert got.result.coverage.bitmaps == ref.result.coverage.bitmaps


def test_streaming_beats_wave_loop_on_skewed_costs(tmp_path):
    if find_c_compiler() is None:
        pytest.skip("no C compiler available")

    prog = preprocess(build_benchmark(MODEL))
    jobs = _build_jobs(prog)
    workers, batch = _workers(), 2
    wave_size = workers * batch
    cache = ArtifactCache(tmp_path / "cache")
    store = CostModelStore(tmp_path / "costmodel.json")
    mode_kwargs = dict(
        mode="thread", batch_size=batch, serve=True, inproc=True,
        cache=cache,
    )

    def run_wave_loop():
        results = []
        for lo in range(0, len(jobs), wave_size):  # barrier per wave
            results.extend(
                run_jobs(jobs[lo:lo + wave_size], workers=workers,
                         **mode_kwargs)
            )
        return results

    def run_streaming(sink=None):
        return run_jobs(
            jobs, workers=workers, window=2 * wave_size, adaptive=False,
            cost_store=store, stats_sink=sink, **mode_kwargs,
        )

    # Warmup pays the single gcc and the server/dlopen spin-up; both
    # timed regimes then run from a fully warm cache.
    reference = run_wave_loop()
    assert cache.stats().misses == 1

    def best_rate(run_all):
        best, results = 0.0, None
        for _ in range(max(1, _repeats())):
            start = time.perf_counter()
            out = run_all()
            rate = len(jobs) / (time.perf_counter() - start)
            if rate > best:
                best, results = rate, out
        return best, results

    wave_rate, wave_results = best_rate(run_wave_loop)
    stream_stats: dict = {}
    stream_rate, stream_results = best_rate(
        lambda: run_streaming(stream_stats)
    )

    _assert_identical(reference, wave_results)
    _assert_identical(reference, stream_results)
    # The whole bench — warmup plus every timed pass of both regimes —
    # compiled exactly once.
    assert cache.stats().misses == 1
    assert stream_stats["long_chunks"] >= 1  # skew was seen and routed

    speedup = stream_rate / wave_rate
    cores = os.cpu_count() or 1
    lines = [
        f"model {MODEL}, {len(jobs)} cases ({_steps()} steps, every "
        f"{_skew()}th {_big_steps()}), {workers} workers, "
        f"{cores} core(s), best of {_repeats()}:",
        f"  {'regime':<12s} {'cases/sec':>10s} {'speedup':>8s} "
        f"{'gcc':>5s}",
        f"  {'wave':<12s} {wave_rate:10.2f} {'1.0x':>8s} {0:5d}",
        f"  {'stream':<12s} {stream_rate:10.2f} "
        f"{f'{speedup:.1f}x':>8s} {0:5d}",
    ]
    report_table("Adaptive scheduler (streaming vs wave barrier)",
                 "\n".join(lines))
    report_json(
        "adaptive_scheduler",
        {
            "model": MODEL, "cases": len(jobs), "steps": _steps(),
            "big_steps": _big_steps(), "skew": _skew(),
            "workers": workers, "batch_size": batch,
            "repeats": _repeats(), "cores": cores, "inproc": inproc,
        },
        [
            {"regime": "wave", "cases_per_sec": wave_rate},
            {"regime": "stream", "cases_per_sec": stream_rate,
             "speedup_vs_wave": speedup,
             "max_in_flight": stream_stats.get("max_in_flight"),
             "long_chunks": stream_stats.get("long_chunks")},
        ],
        "cases/second",
    )

    if cores < workers:
        pytest.skip(
            f"{cores} core(s) cannot demonstrate a {workers}-worker "
            f"speedup (identity and one-gcc claims already checked)"
        )
    assert speedup >= _min_speedup(), (
        f"streaming at {stream_rate:.2f} cases/s is only {speedup:.2f}x "
        f"the wave loop's {wave_rate:.2f} cases/s "
        f"(required {_min_speedup():.2f}x)"
    )

