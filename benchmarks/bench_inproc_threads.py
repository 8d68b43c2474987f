"""Thread-parallel in-process execution vs the sequential inproc rung.

The in-process rung already removed spawns, pipes, and text; what
remains is that one Python thread drives one C simulation loop at a
time.  ``ctypes`` releases the GIL around ``acc_lib_run_case``, so N
worker threads holding N private library instances run N C loops on N
cores — the thread-parallel rung multiplies the inproc rung by the core
count with **zero** additional processes.  This bench measures a
compute-bound workload (long cases, the shape where the C loop dominates
per-case freight) in two regimes:

* ``inproc-1t`` — ``CompiledModel.run_inproc(cases)``: the sequential
  in-process rung;
* ``inproc-Nt`` — ``CompiledModel.run_inproc(cases, threads=N)``: the
  same cases sharded across N pooled instances.

Asserted claims: the threaded regime's results are byte-identical to the
sequential rung's, it spawns **zero** processes (enforced by poisoning
``subprocess.Popen`` once the library is compiled), and — on machines with
at least ``N`` cores — its throughput is at least
``ACCMOS_BENCH_INPROC_MT_MIN_SPEEDUP`` times the sequential rung's
(default 2.0 at 4 threads; CI smoke relaxes it to 1.5 — shared runners
make tight perf ratios flaky).  On smaller machines the identity and
zero-spawn claims still run; only the speedup assertion is skipped.

Each regime is timed ``ACCMOS_BENCH_INPROC_MT_REPEATS`` times (default
3) and the best pass counts — scheduler noise only ever slows a run
down.

Knobs: ``ACCMOS_BENCH_INPROC_MT_CASES`` (default 16),
``ACCMOS_BENCH_INPROC_MT_STEPS`` (default 20000),
``ACCMOS_BENCH_INPROC_MT_THREADS`` (default 4),
``ACCMOS_BENCH_INPROC_MT_REPEATS`` (default 3), and
``ACCMOS_BENCH_INPROC_MT_MIN_SPEEDUP`` (default 2.0).
"""

from __future__ import annotations

import os
import subprocess
import time

import pytest

from repro import SimulationOptions
from repro.benchmarks import build_benchmark
from repro.engines.accmos import compile_model
from repro.schedule import preprocess
from repro.stimuli import default_stimuli

from conftest import report_json, report_table
from helpers import assert_results_agree

MODEL = "SPV"


def _cases() -> int:
    return int(os.environ.get("ACCMOS_BENCH_INPROC_MT_CASES", "16"))


def _steps() -> int:
    return int(os.environ.get("ACCMOS_BENCH_INPROC_MT_STEPS", "20000"))


def _threads() -> int:
    return int(os.environ.get("ACCMOS_BENCH_INPROC_MT_THREADS", "4"))


def _repeats() -> int:
    return int(os.environ.get("ACCMOS_BENCH_INPROC_MT_REPEATS", "3"))


def _min_speedup() -> float:
    return float(
        os.environ.get("ACCMOS_BENCH_INPROC_MT_MIN_SPEEDUP", "2.0")
    )


def test_inproc_threads_throughput(monkeypatch):
    prog = preprocess(build_benchmark(MODEL))
    n_cases, steps, threads = _cases(), _steps(), _threads()
    options = SimulationOptions(steps=steps)
    model = compile_model(prog, options)

    # Poison process creation itself (the library is compiled): the
    # whole bench must stay in-process or fail loudly.
    def no_spawn(*args, **kwargs):
        raise AssertionError("a process was spawned on the inproc path")

    monkeypatch.setattr(subprocess, "Popen", no_spawn)

    cases = [
        (default_stimuli(prog, seed=1 + i), options) for i in range(n_cases)
    ]
    repeats = _repeats()

    def best_rate(run_all) -> float:
        best = 0.0
        for _ in range(max(1, repeats)):
            start = time.perf_counter()
            run_all()
            best = max(best, n_cases / (time.perf_counter() - start))
        return best

    # Warmups pay the dlopen(s) so the timed windows are steady state.
    sequential_ref = model.run_inproc(cases)
    threaded_ref = model.run_inproc(cases, threads=threads)

    sequential_rate = best_rate(lambda: model.run_inproc(cases))
    threaded_rate = best_rate(
        lambda: model.run_inproc(cases, threads=threads)
    )

    # Byte-identity between the regimes.
    for seq_result, par_result in zip(sequential_ref, threaded_ref):
        assert_results_agree(seq_result, par_result)

    speedup = threaded_rate / sequential_rate
    cores = os.cpu_count() or 1
    lines = [
        f"model {MODEL}, {steps} steps/case, {n_cases} cases, "
        f"{cores} core(s), best of {repeats}:",
        f"  {'regime':<12s} {'cases/sec':>10s} {'speedup':>8s} "
        f"{'processes':>10s}",
        f"  {'inproc-1t':<12s} {sequential_rate:10.2f} {'1.0x':>8s} "
        f"{0:10d}",
        f"  {f'inproc-{threads}t':<12s} {threaded_rate:10.2f} "
        f"{f'{speedup:.1f}x':>8s} {0:10d}",
    ]
    report_table("Inproc threads (parallel C loops, zero spawns)",
                 "\n".join(lines))
    report_json(
        "inproc_threads",
        {
            "model": MODEL, "steps": steps, "cases": n_cases,
            "threads": threads, "repeats": repeats, "cores": cores,
        },
        [
            {"regime": "inproc-1t", "cases_per_sec": sequential_rate,
             "processes": 0},
            {"regime": f"inproc-{threads}t", "cases_per_sec": threaded_rate,
             "processes": 0, "speedup_vs_sequential": speedup},
        ],
        "cases/second",
    )

    if cores < threads:
        pytest.skip(
            f"{cores} core(s) cannot demonstrate a {threads}-thread "
            f"speedup (identity and zero-spawn claims already checked)"
        )
    assert speedup >= _min_speedup(), (
        f"threads={threads} at {threaded_rate:.2f} cases/s is only "
        f"{speedup:.2f}x sequential {sequential_rate:.2f} cases/s "
        f"(required {_min_speedup():.2f}x)"
    )
