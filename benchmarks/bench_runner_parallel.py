"""Runner subsystem — artifact-cache hit rate and parallel campaign scaling.

Demonstrates the two claims the `repro.runner` subsystem makes:

* a cache *hit* costs ~zero compile time (the gcc invocation vanishes:
  the second simulation of an unchanged model is served straight from
  the content-addressed store);
* a seed-sweep campaign with ``workers > 1`` overlaps its per-seed
  compiles and binary runs, cutting wall time on multi-core hosts while
  producing a bit-identical merged coverage report.

Knobs: ``ACCMOS_BENCH_SEEDS`` (default 8 campaign cases) and
``ACCMOS_BENCH_WORKERS`` (default 4).  Single-core containers will show
speedup ≈ 1x — the merge-identity check still runs.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro import SimulationOptions
from repro.benchmarks import build_benchmark
from repro.campaign import run_campaign
from repro.runner import ArtifactCache
from repro.schedule import preprocess

from conftest import report_json, report_table

MODEL = "SPV"
STEPS = 500


def _seeds() -> int:
    return int(os.environ.get("ACCMOS_BENCH_SEEDS", "8"))


def _workers() -> int:
    return int(os.environ.get("ACCMOS_BENCH_WORKERS", "4"))


def test_cache_hit_compile_time():
    """1 miss then N hits: compile time collapses to a cache lookup."""
    from repro.engines import run_accmos
    from repro.stimuli import default_stimuli

    prog = preprocess(build_benchmark(MODEL))
    with tempfile.TemporaryDirectory() as tmp:
        cache = ArtifactCache(tmp)
        times = []
        stimuli = default_stimuli(prog, seed=1)
        options = SimulationOptions(steps=STEPS)
        for _ in range(4):
            result = run_accmos(prog, stimuli, options, cache=cache)
            times.append(
                (result.extra["compile_seconds"], result.extra["cache_hit"])
            )
        stats = cache.stats()

    assert [hit for _, hit in times] == [False, True, True, True]
    assert stats.misses == 1 and stats.hits == 3
    miss = times[0][0]
    hits = [t for t, _ in times[1:]]
    lines = [
        f"model {MODEL}, {STEPS} steps - compile_seconds per run:",
        f"  run 1 (miss) : {miss:.4f}s  [gcc invoked]",
    ]
    for i, t in enumerate(hits, start=2):
        lines.append(f"  run {i} (hit)  : {t:.6f}s  [cache lookup only]")
    lines.append(
        f"  hit/miss ratio: {min(hits) / miss:.2%} "
        f"(zero compiler invocations after the first run)"
    )
    report_table("Runner: cache-hit compile time", "\n".join(lines))
    report_json(
        "runner_cache_hit",
        {"model": MODEL, "steps": STEPS},
        [
            {"run": i + 1, "cache_hit": hit, "compile_seconds": t}
            for i, (t, hit) in enumerate(times)
        ],
        "seconds",
    )
    assert min(hits) < miss / 10  # a hit must be >10x cheaper than gcc


def test_parallel_campaign_scaling():
    """Same campaign, cold cache each time, workers=1 vs workers=N."""
    prog = preprocess(build_benchmark(MODEL))
    seeds, workers = _seeds(), _workers()

    def timed(n_workers):
        with tempfile.TemporaryDirectory() as tmp:
            cache = ArtifactCache(tmp)
            start = time.perf_counter()
            outcome = run_campaign(
                prog, steps=STEPS, max_cases=seeds,
                plateau_patience=seeds + 1, cache=cache, workers=n_workers,
                threads=1,
            )
            return time.perf_counter() - start, outcome

    t_serial, serial = timed(1)
    t_parallel, parallel = timed(workers)

    assert parallel.merged.bitmaps == serial.merged.bitmaps
    assert [c.seed for c in parallel.cases] == [c.seed for c in serial.cases]

    cores = os.cpu_count() or 1
    lines = [
        f"model {MODEL}, {seeds} seeds x {STEPS} steps "
        f"({cores} core(s) available):",
        f"  workers=1          : {t_serial:.2f}s",
        f"  workers={workers:<2d}         : {t_parallel:.2f}s",
        f"  speedup            : {t_serial / t_parallel:.2f}x",
        "  merged coverage    : bit-identical"
        " (ordered merge, deterministic)",
    ]
    report_table("Runner: parallel campaign scaling", "\n".join(lines))
    report_json(
        "runner_parallel_scaling",
        {"model": MODEL, "steps": STEPS, "seeds": seeds, "workers": workers},
        [
            {"workers": 1, "wall_time": t_serial},
            {"workers": workers, "wall_time": t_parallel},
        ],
        "seconds",
    )
