"""The stimulus interface.

A stimulus is a resettable stream: engines call :meth:`reset` once, then
:meth:`next` once per step.  Compiled C never sees the stream itself: it
sees a :class:`StimulusDescriptor`, the stream as runtime data that the
generated interpreter replays bit for bit.  Built-in generators describe
themselves (:meth:`Stimulus.runtime_descriptor`); any other subclass is
*materialized* into a sequence table by
:func:`repro.codegen.descriptor.descriptors_for`.

The C literal helpers below serve the actor templates: float literals
are hex floats (``float.hex()``), which round trip exactly.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from typing import NamedTuple, Optional

from repro.dtypes import DType, coerce_float, wrap

# Runtime-descriptor kind tags, shared with the generated C interpreter
# (codegen.runtime.stimulus_runtime) and the encoder (codegen.descriptor).
STIM_KIND_CONSTANT = 0
STIM_KIND_SEQUENCE = 1
STIM_KIND_RAMP = 2
STIM_KIND_SINE = 3
STIM_KIND_STEP = 4
STIM_KIND_PULSE = 5
STIM_KIND_UNIFORM = 6
STIM_KIND_INT_RANDOM = 7

#: The descriptor record's scalar slots, in wire order — the single
#: source of truth shared by the packed binary encoder (inproc.abi) and
#: the generated C reader (codegen.runtime derives its memcpy sequence
#: from this tuple).  Each entry is ``(descriptor attribute, C struct
#: member, slot kind)`` with kind ``"i"`` = int64, ``"u"`` = uint64,
#: ``"f"`` = double.  The variable-length table (length + values) follows
#: these slots and is handled structurally by the encoder and the reader.
DESCRIPTOR_FIELDS = (
    ("kind", "kind", "i"),
    ("i0", "i0", "i"),
    ("i1", "i1", "i"),
    ("u0", "u0", "u"),
    ("state", "state", "u"),
    ("iv0", "iv0", "i"),
    ("iv1", "iv1", "i"),
    ("f0", "f0", "f"),
    ("f1", "f1", "f"),
    ("f2", "f2", "f"),
    ("f3", "f3", "f"),
    ("fv0", "fv0", "f"),
    ("fv1", "fv1", "f"),
    ("table_is_float", "tab_is_float", "i"),
)


def c_double_literal(value: float) -> str:
    """An exact C literal for a Python float.

    Non-finite values use the ``<math.h>`` macros: expressions like
    ``(0.0/0.0)`` are constant-folded by the compiler and may come out
    with a different NaN bit pattern (x86 folds it to *negative* quiet
    NaN) than the positive quiet NaN Python produces — and checksums
    hash raw IEEE bits, so the sign of NaN is observable.
    """
    if value != value:  # NaN
        return "NAN"
    if value == float("inf"):
        return "INFINITY"
    if value == float("-inf"):
        return "(-INFINITY)"
    if value == int(value) and abs(value) < 1e15:
        return f"{value:.1f}"
    return value.hex()


def c_int_literal(value: int, dtype: DType) -> str:
    """A C literal of ``value`` with the right suffix for ``dtype``."""
    if dtype.is_signed and value == dtype.min_value and dtype.bits == 64:
        # INT64_MIN cannot be written directly.
        return "(-9223372036854775807LL - 1)"
    return f"{value}{dtype.c_literal_suffix}"


class StimulusDescriptor(NamedTuple):
    """A stimulus as runtime data for the stimulus-agnostic program.

    One fixed-width record per inport: a kind tag plus a small bag of
    typed parameter slots the generated C interpreter reads from each
    packed case record.  A named tuple: immutable, and cheap to build
    (every case builds one per inport).
    Integer and float value slots exist side by side (``iv*`` / ``fv*``)
    because the generated per-port switch is specialized on the port's
    dtype at codegen time and reads the matching slot — an int port never
    round-trips a value through double.  Sequence tables are conformed to
    the port dtype by :func:`~repro.codegen.descriptor.descriptors_for`.
    """

    kind: int
    i0: int = 0  # integer params (step at, pulse period, int-random lo)
    i1: int = 0  # pulse duty
    u0: int = 0  # int-random span (uint64)
    state: int = 0  # LCG state (uint64)
    iv0: int = 0  # int value slots (constant / before / high)
    iv1: int = 0  # after / low
    f0: float = 0.0  # float params (ramp start, sine amp, uniform lo)
    f1: float = 0.0  # ramp slope, sine w, uniform hi
    f2: float = 0.0  # sine phase
    f3: float = 0.0  # sine bias
    fv0: float = 0.0  # float value slots (constant / before / high)
    fv1: float = 0.0  # after / low
    table_is_float: bool = False
    table: tuple = ()  # sequence data


class Stimulus(ABC):
    """One input port's value stream."""

    @abstractmethod
    def reset(self) -> None:
        """Rewind to step 0."""

    @abstractmethod
    def next(self):
        """The value for the current step; advances the stream."""

    def runtime_descriptor(self) -> Optional[StimulusDescriptor]:
        """This stream as a closed-form descriptor, or None (custom
        subclasses): such streams are materialized step by step into a
        sequence table instead."""
        return None

    def conform(self, value, dtype: DType):
        """Fit a raw stimulus value to a port dtype (wrap/coerce, no flags) —
        the same implicit conversion a C assignment performs."""
        if dtype.is_float:
            return coerce_float(float(value), dtype)
        if isinstance(value, float):
            return wrap(int(value), dtype)
        return wrap(int(value), dtype)
