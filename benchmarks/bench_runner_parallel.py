"""Runner subsystem — artifact-cache hit rate.

A cache *hit* costs ~zero compile time: the gcc invocation vanishes, and
the second simulation of an unchanged model is served straight from the
content-addressed store.
"""

from __future__ import annotations

import tempfile

from repro import SimulationOptions
from repro.benchmarks import build_benchmark
from repro.runner import ArtifactCache
from repro.schedule import preprocess

from conftest import report_json, report_table

MODEL = "SPV"
STEPS = 500


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
