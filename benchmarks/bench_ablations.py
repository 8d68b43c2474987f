"""Ablations — where AccMoS's speed comes from and what instrumentation
costs.

Not tables from the paper, but the design-choice checks DESIGN.md calls
out:

* instrumentation overhead: AccMoS with full coverage+diagnosis vs the
  bare generated loop (the paper's §2 notes Simulink's fast modes *drop*
  these features for speed — AccMoS keeps them; how much do they cost?);
* compiler optimization: the -O sweep, -O0 to -O3, on the generated code
  — gcc seconds, C-loop time, and each level's break-even against the
  shipped level (the paper's Table-2 analysis credits compiler
  optimization for the biggest wins on computation-heavy models; here
  gcc time decides which level ships);
* interpretation overhead decomposition: SSE -> SSE_ac (dispatch
  precompiled) -> SSE_rac (whole-model generated Python) -> AccMoS
  (generated C).

The first two drive the shipped program — :func:`compile_model` with the
test case imported at run time as stimulus descriptors — so gcc cannot
fold compile-time-constant stimuli away, and the times measure
simulation work.
"""

from __future__ import annotations

import pytest

import repro.codegen.driver as driver
from repro import SimulationOptions, simulate
from repro.benchmarks import benchmark_stimuli
from repro.engines.accmos import compile_model

from conftest import bench_steps, report_json, report_table

MODEL = "LANS"  # computation-heavy: the interesting case for both ablations


@pytest.fixture(scope="module")
def lans(programs):
    if MODEL not in programs:
        pytest.skip(f"{MODEL} excluded by ACCMOS_BENCH_MODELS")
    return programs[MODEL]


def _run_accmos_variant(
    prog, *, coverage, diagnostics, flags=None, steps=None, repeats=1
):
    """One case on a freshly compiled program (``flags`` replaces the
    compiler flags; the artifact cache is bypassed so they take
    effect), run ``repeats`` times; the fastest run is returned."""
    steps = steps or max(bench_steps() * 20, 200_000)
    options = SimulationOptions(
        steps=steps, coverage=coverage, diagnostics=diagnostics,
    )
    original = list(driver.CFLAGS)
    if flags is not None:
        driver.CFLAGS[:] = flags
    try:
        model = compile_model(prog, options, cache=False)
    finally:
        driver.CFLAGS[:] = original
    runs = [
        model.run(benchmark_stimuli(prog), options) for _ in range(repeats)
    ]
    return min(runs, key=lambda result: result.wall_time)


def test_instrumentation_overhead(benchmark, lans):
    full = benchmark.pedantic(
        lambda: _run_accmos_variant(lans, coverage=True, diagnostics=True),
        rounds=1, iterations=1,
    )
    no_cov = _run_accmos_variant(lans, coverage=False, diagnostics=True)
    bare = _run_accmos_variant(lans, coverage=False, diagnostics=False)

    assert full.checksums == bare.checksums  # instrumentation is observational
    overhead = full.wall_time / max(bare.wall_time, 1e-9)
    rows = [
        f"model {MODEL}, {full.steps_run:,} steps",
        f"{'variant':32s} {'wall time':>12s} {'relative':>9s}",
        f"{'coverage + diagnosis (AccMoS)':32s} {full.wall_time:11.4f}s "
        f"{full.wall_time / bare.wall_time:8.2f}x",
        f"{'diagnosis only':32s} {no_cov.wall_time:11.4f}s "
        f"{no_cov.wall_time / bare.wall_time:8.2f}x",
        f"{'bare generated loop':32s} {bare.wall_time:11.4f}s {1.0:8.2f}x",
        "(Simulink's fast modes drop these features entirely; AccMoS keeps",
        " them at this cost and still beats the interpreted engine by 100x+)",
    ]
    report_table("Ablation: instrumentation overhead", "\n".join(rows))
    report_json(
        "ablation_instrumentation",
        {"model": MODEL, "steps": full.steps_run},
        [
            {"variant": "coverage+diagnosis", "wall_time": full.wall_time},
            {"variant": "diagnosis_only", "wall_time": no_cov.wall_time},
            {"variant": "bare", "wall_time": bare.wall_time},
        ],
        "seconds",
    )
    assert overhead < 50, "instrumentation must not devour the codegen win"


LEVELS = ("-O0", "-O1", "-O2", "-O3")


def _break_even(level, shipped) -> int | None:
    """Steps per compile at which ``level`` and ``shipped`` cost the same
    end to end (gcc + C loop); past it the faster loop of the two wins.
    None when one of them is better on both counts."""
    gcc_gap = level.extra["compile_seconds"] - shipped.extra["compile_seconds"]
    loop_gap = (shipped.wall_time - level.wall_time) / level.steps_run
    if gcc_gap * loop_gap <= 0:
        return None
    return round(gcc_gap / loop_gap)


def test_compiler_optimization_ablation(benchmark, lans):
    def variant(level):
        return _run_accmos_variant(
            lans, coverage=True, diagnostics=True,
            flags=[level, "-ffp-contract=off", "-std=c11"], repeats=3,
        )

    runs = {"-O3": benchmark.pedantic(
        lambda: variant("-O3"), rounds=1, iterations=1,
    )}
    for level in LEVELS:
        if level not in runs:
            runs[level] = variant(level)
    o0, o3 = runs["-O0"], runs["-O3"]
    assert o0.checksums == o3.checksums
    for run in runs.values():  # results do not depend on the level
        assert run.checksums == o3.checksums
    speedup = o0.wall_time / max(o3.wall_time, 1e-9)
    shipped = next(flag for flag in driver.CFLAGS if flag.startswith("-O"))
    break_even = {
        level: _break_even(run, runs[shipped]) for level, run in runs.items()
    }
    rows = [
        f"model {MODEL}, {o3.steps_run:,} steps, shipped level {shipped}",
        f"{'level':6s} {'gcc':>8s} {'C loop':>9s} {'ns/step':>8s} "
        f"{'break-even vs ' + shipped:>20s}",
    ]
    for level in LEVELS:
        run = runs[level]
        steps = break_even[level]
        rows.append(
            f"{level:6s} {run.extra['compile_seconds']:7.2f}s "
            f"{run.wall_time:8.4f}s "
            f"{run.wall_time / run.steps_run * 1e9:8.0f} "
            f"{'—' if steps is None else f'{steps:,} steps':>20s}"
        )
    rows += [
        f"-O0 -> -O3 optimization gain: {speedup:.1f}x",
        "(break-even: steps per compile past which the level with the",
        " faster loop wins end to end; — = one level wins on both counts)",
    ]
    report_table("Ablation: compiler optimization (-O sweep)", "\n".join(rows))
    report_json(
        "ablation_compiler_opt",
        {"model": MODEL, "steps": o3.steps_run, "shipped": shipped},
        [
            {
                "flags": level,
                "wall_time": runs[level].wall_time,
                "compile_seconds": runs[level].extra["compile_seconds"],
                "break_even_steps": break_even[level],
            }
            for level in LEVELS
        ],
        "seconds",
    )
    assert speedup > 1.2


def test_interpretation_overhead_decomposition(benchmark, lans):
    steps = bench_steps() // 2
    times = {}

    def sweep():
        for engine in ("sse", "sse_ac", "sse_rac", "accmos"):
            result = simulate(
                lans, benchmark_stimuli(lans), engine=engine,
                options=SimulationOptions(steps=steps),
            )
            times[engine] = result.wall_time

    benchmark.pedantic(sweep, rounds=1, iterations=1)
    rows = [
        f"model {MODEL}, {steps:,} steps",
        f"{'stage':44s} {'wall time':>12s}",
        f"{'interpreted, full instrumentation (SSE)':44s} {times['sse']:11.4f}s",
        f"{'precompiled dispatch, per-step sync (ac)':44s} {times['sse_ac']:11.4f}s",
        f"{'generated Python, batched sync (rac)':44s} {times['sse_rac']:11.4f}s",
        f"{'generated C, instrumented (AccMoS)':44s} {times['accmos']:11.4f}s",
    ]
    report_table("Ablation: interpretation overhead decomposition",
                 "\n".join(rows))
    report_json(
        "ablation_interpretation",
        {"model": MODEL, "steps": steps},
        [{"engine": e, "wall_time": t} for e, t in times.items()],
        "seconds",
    )
    assert times["sse"] > times["sse_ac"] > times["sse_rac"] > times["accmos"]
