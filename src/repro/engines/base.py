"""Shared option and result schema for all engines."""

from __future__ import annotations

import struct
from dataclasses import dataclass, field
from typing import Optional, Sequence, Union

from repro.coverage.report import CoverageReport
from repro.diagnosis.custom import CustomDiagnosis
from repro.diagnosis.events import DiagnosticEvent, DiagnosticKind
from repro.dtypes import DType

_U64_MASK = 0xFFFFFFFFFFFFFFFF
CHECKSUM_PRIME = 1099511628211  # FNV-1a 64 prime, also used by generated C


def signal_bits(value, dtype: DType) -> int:
    """The 64-bit pattern a value contributes to an output checksum.

    Integers sign-extend to 64 bits and reinterpret unsigned (C:
    ``(uint64_t)(int64_t)v``); doubles take their IEEE bits; f32 takes its
    32-bit pattern zero-extended.  Bit-identical to the generated C.
    """
    if dtype.is_float:
        # NaNs canonicalize to the positive quiet pattern, exactly like
        # the C runtime's acc_bits_* helpers: hardware-generated NaNs
        # (e.g. inf - inf on x86) carry the sign bit, and which payload
        # an operation produces is not pinned down by IEEE 754.
        if dtype is DType.F32:
            if value != value:
                return 0x7FC00000
            return struct.unpack("<I", struct.pack("<f", value))[0]
        if value != value:
            return 0x7FF8000000000000
        return struct.unpack("<Q", struct.pack("<d", value))[0]
    return int(value) & _U64_MASK


def checksum_step(acc: int, bits: int) -> int:
    """One checksum update; same recurrence as the C runtime."""
    return ((acc * CHECKSUM_PRIME) + bits) & _U64_MASK


@dataclass
class SimulationOptions:
    """How to run a simulation (engine-independent)."""

    steps: int = 1000
    coverage: bool = True
    diagnostics: bool = True
    collect: Union[Sequence[str], str] = "outports"
    diagnose: Union[Sequence[str], str] = "all"
    custom: tuple[CustomDiagnosis, ...] = ()
    # Stop at the first diagnostic of one of these kinds (detection-time
    # experiments).  None = never halt.
    halt_on: Optional[frozenset[DiagnosticKind]] = None
    # Stop when this much wall time has elapsed (coverage-vs-time
    # experiments); checked periodically, so runs overshoot slightly.
    time_budget: Optional[float] = None
    # Max recorded samples per monitored signal.
    monitor_limit: int = 256
    # Maintain per-outport checksums over every step (cross-engine
    # equivalence); tiny overhead, on by default.
    checksum: bool = True

    def __post_init__(self) -> None:
        if self.steps < 0:
            raise ValueError("steps must be non-negative")
        if self.halt_on is not None:
            self.halt_on = frozenset(self.halt_on)
        self.custom = tuple(self.custom)

    def __setattr__(self, name: str, value) -> None:
        # A field write may change the structure: drop its fingerprint.
        self.__dict__.pop("_fingerprint", None)
        object.__setattr__(self, name, value)

    def structural_fingerprint(self) -> tuple:
        """The option fields that shape the generated source (and
        therefore the compiled library).  ``steps`` and ``time_budget``
        are runtime inputs of the reusable program and deliberately
        excluded.  Custom diagnoses enter by the fields the C side sees
        (their Python predicates only serve the interpreted engines),
        which keeps the fingerprint hashable.

        Computed once per options object, since every job of a campaign
        shares one: assigning a field drops it, but a list or a
        :class:`CustomDiagnosis` edited in place is not seen.
        """
        fingerprint = self.__dict__.get("_fingerprint")
        if fingerprint is None:
            collect, diagnose = self.collect, self.diagnose
            fingerprint = self.__dict__["_fingerprint"] = (
                self.coverage,
                self.diagnostics,
                collect if isinstance(collect, str) else tuple(collect),
                diagnose if isinstance(diagnose, str) else tuple(diagnose),
                tuple(
                    (diag.actor_path, diag.message, diag.c_predicate)
                    for diag in self.custom
                ),
                self.halt_on,
                self.monitor_limit,
                self.checksum,
            )
        return fingerprint


@dataclass
class SimulationResult:
    """What every engine reports."""

    engine: str
    model_name: str
    steps_requested: int
    steps_run: int
    wall_time: float
    outputs: dict[str, object] = field(default_factory=dict)
    checksums: dict[str, int] = field(default_factory=dict)
    coverage: Optional[CoverageReport] = None
    diagnostics: list[DiagnosticEvent] = field(default_factory=list)
    halted_at: Optional[int] = None
    monitored: dict[str, list[tuple[int, object]]] = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    @property
    def steps_per_second(self) -> float:
        if self.wall_time <= 0:
            return float("inf")
        return self.steps_run / self.wall_time

    def diagnostic(self, path: str, kind: DiagnosticKind) -> Optional[DiagnosticEvent]:
        for event in self.diagnostics:
            if event.path == path and event.kind is kind:
                return event
        return None

    def first_detection_step(self, kind: Optional[DiagnosticKind] = None) -> Optional[int]:
        steps = [
            e.first_step
            for e in self.diagnostics
            if e.first_step >= 0 and (kind is None or e.kind is kind)
        ]
        return min(steps) if steps else None

    def summary(self) -> str:
        parts = [
            f"{self.engine}: {self.steps_run}/{self.steps_requested} steps "
            f"in {self.wall_time:.3f}s"
        ]
        if self.coverage is not None:
            parts.append(self.coverage.summary())
        if self.diagnostics:
            parts.append(f"{len(self.diagnostics)} diagnostic(s)")
        return "; ".join(parts)
