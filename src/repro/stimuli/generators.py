"""Concrete stimulus generators."""

from __future__ import annotations

import math
from typing import Sequence

from repro.actors.sources import lcg_next, lcg_uniform
from repro.dtypes import F64
from repro.stimuli.base import (
    STIM_KIND_CONSTANT,
    STIM_KIND_INT_RANDOM,
    STIM_KIND_PULSE,
    STIM_KIND_RAMP,
    STIM_KIND_SEQUENCE,
    STIM_KIND_SINE,
    STIM_KIND_STEP,
    STIM_KIND_UNIFORM,
    Stimulus,
    StimulusDescriptor,
)


def _int_slot(value) -> int:
    """The int-value slot for a descriptor: ``int(v)``, the truncation
    SSE's ``conform`` applies on an integer port.  A descriptor carries
    both slots whatever the port, so a nan/inf value (valid only on a
    float port, whose switch reads the float slot) gets a placeholder."""
    try:
        return int(value)
    except (ValueError, OverflowError):  # nan/inf
        return 0


class ConstantStimulus(Stimulus):
    """The same value every step."""

    def __init__(self, value):
        self.value = value

    def reset(self) -> None:
        pass

    def next(self):
        return self.value

    def runtime_descriptor(self) -> StimulusDescriptor:
        return StimulusDescriptor(
            kind=STIM_KIND_CONSTANT,
            iv0=_int_slot(self.value),
            fv0=float(self.value),
        )


class SequenceStimulus(Stimulus):
    """An explicit vector of values, cycled when exhausted."""

    def __init__(self, values: Sequence):
        if not values:
            raise ValueError("SequenceStimulus needs at least one value")
        self.values = list(values)
        self._i = 0

    def reset(self) -> None:
        self._i = 0

    def next(self):
        value = self.values[self._i]
        self._i = (self._i + 1) % len(self.values)
        return value

    def runtime_descriptor(self) -> StimulusDescriptor:
        # Raw values: descriptors_for conforms the table to the port dtype.
        return StimulusDescriptor(
            kind=STIM_KIND_SEQUENCE, table=tuple(self.values)
        )


class RampStimulus(Stimulus):
    """``start + slope * step`` (double)."""

    def __init__(self, start: float = 0.0, slope: float = 1.0):
        self.start = float(start)
        self.slope = float(slope)
        self._n = 0

    def reset(self) -> None:
        self._n = 0

    def next(self):
        value = self.start + self.slope * float(self._n)
        self._n += 1
        return value

    def runtime_descriptor(self) -> StimulusDescriptor:
        return StimulusDescriptor(
            kind=STIM_KIND_RAMP, f0=self.start, f1=self.slope
        )


class SineStimulus(Stimulus):
    """``amplitude * sin(w*step + phase) + bias`` with ``w`` precomputed."""

    def __init__(self, amplitude=1.0, period_steps=100, phase=0.0, bias=0.0):
        if period_steps <= 0:
            raise ValueError("period_steps must be positive")
        self.amplitude = float(amplitude)
        self.w = 2.0 * math.pi / float(period_steps)
        self.phase = float(phase)
        self.bias = float(bias)
        self._n = 0

    def reset(self) -> None:
        self._n = 0

    def next(self):
        value = self.amplitude * math.sin(self.w * float(self._n) + self.phase) + self.bias
        self._n += 1
        return value

    def runtime_descriptor(self) -> StimulusDescriptor:
        return StimulusDescriptor(
            kind=STIM_KIND_SINE,
            f0=self.amplitude, f1=self.w, f2=self.phase, f3=self.bias,
        )


class StepStimulus(Stimulus):
    """``before`` until step ``at``, then ``after``."""

    def __init__(self, at: int, before=0, after=1):
        self.at = int(at)
        self.before = before
        self.after = after
        self._n = 0

    def reset(self) -> None:
        self._n = 0

    def next(self):
        value = self.before if self._n < self.at else self.after
        self._n += 1
        return value

    def runtime_descriptor(self) -> StimulusDescriptor:
        return StimulusDescriptor(
            kind=STIM_KIND_STEP,
            i0=self.at,
            iv0=_int_slot(self.before), iv1=_int_slot(self.after),
            fv0=float(self.before), fv1=float(self.after),
        )


class PulseStimulus(Stimulus):
    """``high`` while ``step % period < duty``, else ``low``."""

    def __init__(self, period: int, duty: int, high=1, low=0):
        if period < 1 or not (0 <= duty <= period):
            raise ValueError("need period >= 1 and 0 <= duty <= period")
        self.period = int(period)
        self.duty = int(duty)
        self.high = high
        self.low = low
        self._n = 0

    def reset(self) -> None:
        self._n = 0

    def next(self):
        value = self.high if (self._n % self.period) < self.duty else self.low
        self._n += 1
        return value

    def runtime_descriptor(self) -> StimulusDescriptor:
        return StimulusDescriptor(
            kind=STIM_KIND_PULSE,
            i0=self.period, i1=self.duty,
            iv0=_int_slot(self.high), iv1=_int_slot(self.low),
            fv0=float(self.high), fv1=float(self.low),
        )


class _LcgStimulus(Stimulus):
    """Shared LCG plumbing for the random stimuli."""

    def __init__(self, seed: int):
        self.seed = int(seed) & 0xFFFFFFFFFFFFFFFF
        self._state = lcg_next(self.seed)

    def reset(self) -> None:
        self._state = lcg_next(self.seed)

    def _advance(self) -> int:
        state = self._state
        self._state = lcg_next(state)
        return state


class UniformRandomStimulus(_LcgStimulus):
    """Doubles uniform in [lo, hi), bit-identical across engines."""

    def __init__(self, seed: int, lo: float = 0.0, hi: float = 1.0):
        if not lo < hi:
            raise ValueError("need lo < hi")
        super().__init__(seed)
        self.lo = float(lo)
        self.hi = float(hi)

    def next(self):
        u = lcg_uniform(self._advance())
        return self.lo + u * (self.hi - self.lo)

    def runtime_descriptor(self) -> StimulusDescriptor:
        return StimulusDescriptor(
            kind=STIM_KIND_UNIFORM,
            f0=self.lo, f1=self.hi,
            state=lcg_next(self.seed),
        )


class IntRandomStimulus(_LcgStimulus):
    """Integers uniform in [lo, hi], bit-identical across engines."""

    def __init__(self, seed: int, lo: int, hi: int):
        if lo > hi:
            raise ValueError("need lo <= hi")
        super().__init__(seed)
        self.lo = int(lo)
        self.hi = int(hi)
        self.span = self.hi - self.lo + 1

    def next(self):
        return self.lo + ((self._advance() >> 33) % self.span)

    def runtime_descriptor(self) -> StimulusDescriptor:
        return StimulusDescriptor(
            kind=STIM_KIND_INT_RANDOM,
            i0=self.lo, u0=self.span,
            state=lcg_next(self.seed),
        )


class DefaultPortPlan:
    """:func:`default_stimuli`'s rule applied to one program's root
    inports, once: per port its name, its generator class and range.

    Integer ports get ints in [-100, 100] (unsigned: [0, 200]), clamped
    to the dtype's range; bool ports coin flips; float ports (and ports
    without a dtype) uniforms in [0, 1).  Port ``i`` is seeded with
    ``seed * 1_000_003 + i``, so each port is seeded distinctly but
    deterministically from the case seed.  Besides the stimulus objects
    (:meth:`stimuli`) the plan gives each port's descriptor at seed 0
    (:meth:`descriptors`) and its LCG ``state`` slot for a seed
    (:meth:`states`), the one slot a seed changes: together they let a
    case record be packed straight from the seed
    (:class:`repro.inproc.abi.SeedRecords`).
    """

    __slots__ = ("ports",)

    def __init__(self, inports) -> None:
        ports = []
        for binding in inports:
            dtype = binding.dtype or F64
            if dtype.is_bool:
                port = (binding.name, IntRandomStimulus, 0, 1)
            elif dtype.is_integer:
                lo, hi = (-100, 100) if dtype.is_signed else (0, 200)
                port = (
                    binding.name, IntRandomStimulus,
                    max(lo, dtype.min_value), min(hi, dtype.max_value),
                )
            else:
                port = (binding.name, UniformRandomStimulus, 0.0, 1.0)
            ports.append(port)
        self.ports: "tuple[tuple, ...]" = tuple(ports)

    def stimuli(self, seed: int) -> dict[str, Stimulus]:
        """Each port's stimulus object for the case ``seed``."""
        return {
            name: make(seed * 1_000_003 + i, lo, hi)
            for i, (name, make, lo, hi) in enumerate(self.ports)
        }

    def descriptors(self) -> list[StimulusDescriptor]:
        """Each port's runtime descriptor at seed 0."""
        return [
            make(0, lo, hi).runtime_descriptor()
            for _name, make, lo, hi in self.ports
        ]

    def states(self, seed: int) -> list[int]:
        """Each port's descriptor ``state`` slot for the case ``seed``:
        ``lcg_next`` of the port seed, as :class:`_LcgStimulus` sets it."""
        return [
            lcg_next(int(seed * 1_000_003 + i) & 0xFFFFFFFFFFFFFFFF)
            for i in range(len(self.ports))
        ]


def default_port_plan(prog) -> DefaultPortPlan:
    """The :class:`DefaultPortPlan` of a preprocessed program, built on
    first use and kept in ``prog.derived``."""
    plan = prog.derived.get("default_ports")
    if plan is None:
        plan = prog.derived["default_ports"] = DefaultPortPlan(prog.inports)
    return plan


def default_stimuli(prog, *, seed: int = 1) -> dict[str, Stimulus]:
    """Reasonable random stimuli for every root inport of a program,
    built from its :class:`DefaultPortPlan` (the rule is stated there).
    """
    return default_port_plan(prog).stimuli(seed)
