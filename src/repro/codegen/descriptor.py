"""Runtime stimulus descriptors: how test cases reach compile-once code.

The program generated by
:func:`repro.codegen.compose.generate_reusable_c_program` reads its test
cases at run time instead of having them compiled in.
:func:`descriptors_for` decides how each stimulus becomes runtime data:
one :class:`StimulusDescriptor` per inport, in port order.
:func:`repro.inproc.abi.encode_case_binary` packs them, with the case's
step count and deadlines, into the record ``acc_lib_run_case`` reads.
"""

from __future__ import annotations

from typing import Mapping

from repro.model.errors import SimulationError
from repro.schedule.program import FlatProgram
from repro.stimuli.base import (
    STIM_KIND_SEQUENCE,
    Stimulus,
    StimulusDescriptor,
)

_U64 = 1 << 64
_I64_MAX = (1 << 63) - 1


def _i64(value: int) -> int:
    """Wrap an arbitrary int into int64 two's complement for the wire."""
    value = int(value) & (_U64 - 1)
    return value - _U64 if value > _I64_MAX else value


def _u64(value: int) -> int:
    return int(value) & (_U64 - 1)


def descriptors_for(
    prog: FlatProgram, stimuli: Mapping[str, Stimulus], *, steps: int
) -> list[StimulusDescriptor]:
    """Per-inport descriptors in port order: the one place a stimulus
    becomes runtime data.

    A built-in generator describes itself in closed form.  Any other
    stimulus is *materialized*: ``reset()``, then ``steps`` calls to
    ``next()``, which become a sequence table.  Every sequence table is
    conformed to its port's dtype with the stimulus's own ``conform`` —
    exactly the values SSE feeds the model, so the C side never converts
    a value SSE would convert differently.
    """
    missing = [b.name for b in prog.inports if b.name not in stimuli]
    if missing:
        raise SimulationError(f"no stimulus for inport(s): {missing}")
    descriptors = []
    for binding in prog.inports:
        stim = stimuli[binding.name]
        descriptor = stim.runtime_descriptor()
        if descriptor is None:
            stim.reset()
            descriptor = StimulusDescriptor(
                kind=STIM_KIND_SEQUENCE,
                table=tuple(stim.next() for _ in range(steps)),
            )
        if descriptor.kind == STIM_KIND_SEQUENCE:
            dtype = binding.dtype
            descriptor = StimulusDescriptor(
                kind=STIM_KIND_SEQUENCE,
                table_is_float=dtype.is_float,
                table=tuple(stim.conform(v, dtype) for v in descriptor.table),
            )
        descriptors.append(descriptor)
    return descriptors

