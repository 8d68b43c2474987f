"""Campaign throughput — the compile-once / run-many payoff.

The paper's workflow is many test cases against one model.  Before this
optimization every case paid its own codegen + gcc; now one
stimulus-agnostic library serves the whole campaign (a single compiler
invocation, cold cache), loaded in-process, and each chunk of ``threads
× batch_size`` cases runs on ``threads`` private instances.  This bench
measures cases/second through four regimes:

* ``per-case-compile`` — the old cost model: every case generates and
  compiles its own program (cache disabled);
* ``campaign serial``  — compile once via the artifact cache, one case
  per chunk (``threads=1, batch_size=1``);
* ``campaign threaded`` — chunks of one case per thread
  (``threads=N, batch_size=1``);
* ``campaign batched``  — chunks of ``threads × batch_size`` cases.

Asserted claims: the batched campaign does **exactly one** compiler
invocation from a cold cache, is at least 5x the per-case-compile
throughput, and its results are byte-identical to the interpreted SSE
reference.

Knobs: ``ACCMOS_BENCH_CAMPAIGN_CASES`` (default 100),
``ACCMOS_BENCH_CAMPAIGN_STEPS`` (default 2000), ``ACCMOS_BENCH_THREADS``
(default 4), ``ACCMOS_BENCH_BATCH`` (default 8).  The per-case-compile
baseline is timed over at most 10 cases (its per-case cost is constant —
that's the very pathology being removed) and reported as a rate.
"""

from __future__ import annotations

import os
import tempfile
import time

from repro import SimulationOptions, simulate
from repro.benchmarks import build_benchmark
from repro.campaign import run_campaign
from repro.engines import run_accmos
from repro.runner import ArtifactCache
from repro.schedule import preprocess
from repro.stimuli import default_stimuli

from conftest import report_json, report_table
from helpers import assert_results_agree

MODEL = "SPV"


def _cases() -> int:
    return int(os.environ.get("ACCMOS_BENCH_CAMPAIGN_CASES", "100"))


def _steps() -> int:
    return int(os.environ.get("ACCMOS_BENCH_CAMPAIGN_STEPS", "2000"))


def _threads() -> int:
    return int(os.environ.get("ACCMOS_BENCH_THREADS", "4"))


def _batch() -> int:
    return int(os.environ.get("ACCMOS_BENCH_BATCH", "8"))


def test_campaign_throughput():
    prog = preprocess(build_benchmark(MODEL))
    cases, steps = _cases(), _steps()
    threads, batch = _threads(), _batch()
    campaign_kwargs = dict(
        steps=steps, max_cases=cases, plateau_patience=cases + 1,
    )

    # Baseline: every case compiles its own program (the pre-optimization
    # cost model).  Constant per-case cost, so a small sample suffices.
    baseline_cases = min(cases, 10)
    options = SimulationOptions(steps=steps)
    start = time.perf_counter()
    for seed in range(1, baseline_cases + 1):
        run_accmos(
            prog, default_stimuli(prog, seed=seed), options, cache=False
        )
    baseline_rate = baseline_cases / (time.perf_counter() - start)

    def timed_campaign(n_threads, batch_size):
        with tempfile.TemporaryDirectory() as tmp:
            cache = ArtifactCache(tmp)
            start = time.perf_counter()
            outcome = run_campaign(
                prog, threads=n_threads, batch_size=batch_size,
                cache=cache, **campaign_kwargs,
            )
            elapsed = time.perf_counter() - start
            return outcome, cases / elapsed, cache.stats()

    serial, serial_rate, _ = timed_campaign(1, 1)
    threaded, threaded_rate, _ = timed_campaign(threads, 1)
    batched, batched_rate, batched_stats = timed_campaign(threads, batch)

    # One binary, one gcc: the whole cold-cache campaign misses once.
    assert batched_stats.misses == 1, batched_stats
    # Batching cannot change outcomes, only speed.
    for outcome in (threaded, batched):
        assert outcome.merged.bitmaps == serial.merged.bitmaps
        assert [c.seed for c in outcome.cases] == [
            c.seed for c in serial.cases
        ]

    # Byte-identity against the interpreted reference for a spot seed.
    seed = 1 + cases // 2
    stimuli = default_stimuli(prog, seed=seed)
    assert_results_agree(
        simulate(prog, stimuli, engine="sse", options=options),
        run_accmos(prog, stimuli, options, cache=False),
    )

    rows = [
        ("per-case-compile", 1, 1, baseline_rate),
        ("campaign serial", 1, 1, serial_rate),
        ("campaign threaded", threads, 1, threaded_rate),
        ("campaign batched", threads, batch, batched_rate),
    ]
    lines = [
        f"model {MODEL}, {steps} steps/case, {cases} cases "
        f"(baseline sampled over {baseline_cases}):",
        f"  {'regime':<18s} {'threads':>7s} {'batch':>5s} "
        f"{'cases/sec':>10s} {'vs baseline':>11s}",
    ]
    for name, t, b, rate in rows:
        lines.append(
            f"  {name:<18s} {t:7d} {b:5d} {rate:10.2f} "
            f"{rate / baseline_rate:10.1f}x"
        )
    lines.append(
        f"  compiler invocations, batched cold-cache campaign: "
        f"{batched_stats.misses}"
    )
    report_table("Campaign throughput (compile-once / run-many)",
                 "\n".join(lines))
    report_json(
        "campaign_throughput",
        {
            "model": MODEL, "steps": steps, "cases": cases,
            "threads": threads, "batch_size": batch,
            "baseline_cases": baseline_cases,
        },
        [
            {"regime": name, "threads": t, "batch_size": b,
             "cases_per_sec": rate}
            for name, t, b, rate in rows
        ],
        "cases/second",
    )

    assert batched_rate >= 5.0 * baseline_rate, (
        f"batched campaign {batched_rate:.2f} cases/s is less than 5x the "
        f"per-case-compile baseline {baseline_rate:.2f} cases/s"
    )
