"""Simulation code synthesis (paper §3.3).

Turns a preprocessed program plus an instrumentation plan into a complete,
self-contained simulation program:

* :mod:`~repro.codegen.runtime` — the generated C runtime prelude: wrap
  arithmetic with flag reporting (the C mirror of :mod:`repro.dtypes`),
  and the packed case-record reader;
* :mod:`~repro.codegen.templates` — the actor code template library: one C
  emitter per block type, each mirroring the actor's Python reference
  semantics bit for bit;
* :mod:`~repro.codegen.compose` — simulation code composition: the model
  step body in execution order, instrumentation inlined at each actor,
  test-case import, the simulation loop and the library entry points;
* :mod:`~repro.codegen.descriptor` — test-case import: each stimulus as
  runtime descriptor data;
* :mod:`~repro.codegen.driver` — gcc compilation into a shared library;
* :mod:`~repro.codegen.pybackend` — a generated-Python backend with the
  same semantics (used by the Rapid-Accelerator analog engine and as a
  no-compiler fallback).
"""

from repro.codegen.compose import generate_reusable_c_program
from repro.codegen.descriptor import descriptors_for
from repro.codegen.driver import (
    CompiledSimulation,
    compile_c_program,
    find_c_compiler,
)
from repro.codegen.pybackend import generate_py_step

__all__ = [
    "generate_reusable_c_program",
    "descriptors_for",
    "compile_c_program",
    "CompiledSimulation",
    "find_c_compiler",
    "generate_py_step",
]
