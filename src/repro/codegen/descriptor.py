"""Runtime stimulus descriptors: the wire format of compile-once codegen.

The program generated by
:func:`repro.codegen.compose.generate_reusable_c_program` reads its test
cases at run time instead of having them compiled in.  This module is
the Python half of that contract: :func:`descriptors_for` decides how
each stimulus becomes runtime data, and :func:`encode_case` turns the
resulting :class:`StimulusDescriptor` records into the
whitespace-separated text the C-side reader
(:func:`repro.codegen.runtime.stimulus_runtime`) parses with ``scanf``.

Wire format, one case at a time::

    case <steps> <time_budget> <deadline> <n_ports>
    <kind> <i0> <i1> <u0> <state> <iv0> <iv1>
        <f0> <f1> <f2> <f3> <fv0> <fv1> <tab_is_float> <tab_len>
    [<table value> ...]          # one record per inport, in port order

``time_budget``/``deadline`` use ``-1`` for "disabled".  Doubles travel
as C99 hex-float literals (``float.hex()`` ↔ ``scanf %la``), which round
trip exactly, and integers as decimals, so 64-bit sequence values beyond
2**53 survive untouched.
A batch is simply the concatenation of case records; the binary loops
until stdin is exhausted.
"""

from __future__ import annotations

import math
from typing import Mapping, Optional, Sequence

from repro.model.errors import SimulationError
from repro.schedule.program import FlatProgram
from repro.stimuli.base import (
    DESCRIPTOR_FIELDS,
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


def _f64(value: float) -> str:
    """An exact textual double: hex-float, or inf/nan spellings glibc's
    ``scanf %la`` accepts."""
    value = float(value)
    if math.isfinite(value):
        return value.hex()
    if math.isnan(value):
        return "nan"
    return "inf" if value > 0 else "-inf"


#: Text formatter per descriptor slot kind (see DESCRIPTOR_FIELDS).
_TEXT_FORMATTERS = {
    "i": lambda v: str(_i64(v)),
    "u": lambda v: str(_u64(v)),
    "f": _f64,
}


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


def encode_case(
    descriptors: Sequence[StimulusDescriptor],
    *,
    steps: int,
    time_budget: Optional[float] = None,
    deadline: Optional[float] = None,
) -> str:
    """One case record for the binary's stdin."""
    parts: list[str] = [
        "case",
        str(int(steps)),
        _f64(-1.0 if time_budget is None else float(time_budget)),
        _f64(-1.0 if deadline is None else float(deadline)),
        str(len(descriptors)),
    ]
    for d in descriptors:
        parts.extend(
            _TEXT_FORMATTERS[kind](getattr(d, attr))
            for attr, _member, kind in DESCRIPTOR_FIELDS
        )
        parts.append(str(len(d.table)))
        if d.table_is_float:
            parts.extend(_f64(v) for v in d.table)
        else:
            parts.extend(str(_i64(v)) for v in d.table)
    return " ".join(parts) + "\n"
