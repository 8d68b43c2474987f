"""Simulation engines.

Four engines run the same :class:`~repro.schedule.FlatProgram`:

* :mod:`~repro.engines.sse` — the interpreted baseline, modelling
  Simulink's simulation engine (SSE): per-step, per-actor object dispatch
  with full runtime diagnostics and coverage collection;
* :mod:`~repro.engines.sse_ac` — Accelerator-mode analog: actors
  precompiled to closures ("MEX-like"), per-step host synchronization, no
  diagnostics/coverage;
* :mod:`~repro.engines.sse_rac` — Rapid-Accelerator analog: whole-model
  generated Python, batched execution with periodic host data transfer, no
  diagnostics/coverage;
* :mod:`~repro.engines.accmos` — the paper's system: instrumented C code
  generated from the template library, compiled with gcc, executed,
  results parsed back.

All four return a :class:`~repro.engines.base.SimulationResult` with the
same schema; the equivalence test suite pins SSE and AccMoS to identical
outputs, coverage bitmaps, and diagnostics.
"""

from repro.engines.base import SimulationOptions, SimulationResult, signal_bits
from repro.engines.sse import run_sse
from repro.engines.sse_ac import run_sse_ac
from repro.engines.sse_rac import run_sse_rac
from repro.engines.accmos import (
    CompiledModel,
    compile_model,
    run_accmos,
)
from repro.engines.api import ENGINES, simulate

__all__ = [
    "SimulationOptions",
    "SimulationResult",
    "signal_bits",
    "run_sse",
    "run_sse_ac",
    "run_sse_rac",
    "run_accmos",
    "CompiledModel",
    "compile_model",
    "simulate",
    "ENGINES",
]
