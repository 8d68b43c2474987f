"""The packed binary ABI between Python and a compiled program.

This is the Python half of the contract ``codegen.compose`` emits into
every reusable program as ``acc_lib_*`` exports: a case travels as one
packed binary record, and the library fills a caller-provided result
buffer of fixed layout.  It is the one wire format of every compiled
rung: ``ctypes`` passes the bytes in-process, and the generic host
(:data:`repro.codegen.runtime.HOST_SOURCE`) relays the very same bytes
over a pipe.  Both sides derive the per-port slot sequence from
:data:`repro.stimuli.base.DESCRIPTOR_FIELDS`, so the Python encoder and
the C reader cannot drift apart.

Every slot is 8 bytes.  Layouts (in order):

Case record::

    int64   steps
    float64 time_budget        (-1 = disabled)
    float64 deadline           (-1 = disabled)
    int64   n_ports
    per port, in port order:
        the DESCRIPTOR_FIELDS slots (int64 / uint64 / float64)
        int64   tab_len
        tab_len x (float64 | int64) table values

Result buffer (size is :attr:`ResultDecoder.size`, also exported by the
library as ``acc_lib_result_size()`` for the load-time handshake)::

    int64   steps_run
    int64   halt_step          (-1 = no halt)
    float64 elapsed seconds
    uint64  flags              (bit 0 = per-case deadline tripped)
    [uint64 checksum per outport]            when options.checksum
    uint64  output bits per outport          (floats widened to double,
                                              NaN canonicalized — same
                                              acc_bits_* the checksums use)
    [uint64 coverage words]                  when coverage is planned:
                                             ceil(n/64) words per metric in
                                             actor/condition/decision/mcdc
                                             order, LSB = lowest point
    per diagnosis slot: int64 first (-1 = never), uint64 count
    per monitor: uint64 n, then n x (int64 step, uint64 value bits)

All words are little-endian (every supported target is), which also
makes the record bytes deterministic for content-addressed tests.

Bumping :data:`ABI_VERSION` invalidates every previously built library:
:func:`repro.inproc.library.check_handshake` refuses a mismatched
``acc_lib_abi_version()`` or ``acc_lib_result_size()`` on every rung.
"""

from __future__ import annotations

import struct
from typing import Optional, Sequence

from repro.codegen.descriptor import _i64, _u64
from repro.coverage.bitmap import Bitmap
from repro.coverage.metrics import Metric
from repro.coverage.report import CoverageReport
from repro.diagnosis.events import DiagnosticLog
from repro.engines.base import SimulationOptions, SimulationResult
from repro.model.errors import SimulationError
from repro.stimuli.base import DESCRIPTOR_FIELDS, StimulusDescriptor

#: Bumped whenever the record or result layout changes shape.
ABI_VERSION = 1

_I64 = struct.Struct("<q")
_U64 = struct.Struct("<Q")
_F64 = struct.Struct("<d")


def _pack_slot(kind: str, value) -> bytes:
    if kind == "i":
        return _I64.pack(_i64(value))
    if kind == "u":
        return _U64.pack(_u64(value))
    return _F64.pack(float(value))


def encode_case_binary(
    descriptors: Sequence[StimulusDescriptor],
    *,
    steps: int,
    time_budget: Optional[float] = None,
    deadline: Optional[float] = None,
) -> bytes:
    """One packed case record for ``acc_lib_run_case``: the case header,
    then every port's DESCRIPTOR_FIELDS slots and table."""
    parts: list[bytes] = [
        _I64.pack(int(steps)),
        _F64.pack(-1.0 if time_budget is None else float(time_budget)),
        _F64.pack(-1.0 if deadline is None else float(deadline)),
        _I64.pack(len(descriptors)),
    ]
    for d in descriptors:
        for attr, _member, kind in DESCRIPTOR_FIELDS:
            parts.append(_pack_slot(kind, getattr(d, attr)))
        parts.append(_I64.pack(len(d.table)))
        if d.table_is_float:
            parts.extend(_F64.pack(float(v)) for v in d.table)
        else:
            parts.extend(_I64.pack(_i64(v)) for v in d.table)
    return b"".join(parts)


#: struct code per DESCRIPTOR_FIELDS kind.
_SLOT_CODES = {"i": "q", "u": "Q", "f": "d"}
_PORT_FIELDS = struct.Struct(
    "<" + "".join(_SLOT_CODES[kind] for _a, _m, kind in DESCRIPTOR_FIELDS)
)
_CASE_HEADER = struct.Struct("<qddq")


def decode_case_binary(data: bytes) -> dict:
    """Parse a case record back into plain Python (conformance tests)."""
    pos = 0

    def take(unpacker: struct.Struct) -> tuple:
        nonlocal pos
        if pos + unpacker.size > len(data):
            raise SimulationError("inproc case record truncated")
        values = unpacker.unpack_from(data, pos)
        pos += unpacker.size
        return values

    steps, time_budget, deadline, n_ports = take(_CASE_HEADER)
    record = {
        "steps": steps,
        "time_budget": time_budget,
        "deadline": deadline,
        "ports": [],
    }
    for _ in range(n_ports):
        port = {
            attr: value
            for (attr, _member, _kind), value in zip(
                DESCRIPTOR_FIELDS, take(_PORT_FIELDS)
            )
        }
        (tab_len,) = take(_I64)
        if tab_len < 0:
            raise SimulationError(f"negative table length {tab_len}")
        code = "d" if port["table_is_float"] else "q"
        port["table"] = take(struct.Struct(f"<{tab_len}{code}"))
        record["ports"].append(port)
    if pos != len(data):
        raise SimulationError("trailing bytes after case record")
    return record


def _value_code(dtype) -> str:
    """The struct code of one value word, decoded the way the C side
    encoded it: floats widened to double, integers sign- or
    zero-extended to 64 bits."""
    if dtype.is_float:
        return "d"
    return "q" if dtype.is_signed else "Q"


class ResultDecoder:
    """The packed result layout of one program shape, compiled once.

    Built once per compiled unit and reused for every case it runs.  Everything up to the monitors sits
    at fixed offsets, so one :class:`struct.Struct` unpacks the header,
    checksums, outputs, coverage words and diagnosis slots in a single
    call; each monitor then costs one ``iter_unpack`` over its
    ``(step, value)`` pairs.  :attr:`size` is the exact buffer size,
    monitors reserving their full ``monitor_limit`` (the written prefix
    is shorter when fewer fired).  It must agree word for word with the
    writer ``codegen.compose`` emits (the generated
    ``ACC_LIB_RESULT_SIZE``); the load-time handshake cross-checks the
    two.
    """

    __slots__ = (
        "plan",
        "size",
        "_prefix",
        "_out_names",
        "_checksum_end",
        "_outputs_end",
        "_coverage",
        "_diag_slots",
        "_monitors",
        "_monitor_limit",
    )

    def __init__(self, layout, plan, options: SimulationOptions) -> None:
        self.plan = plan
        n_out = len(layout.outports)
        codes = ["qqdQ"]  # steps_run, halt_step, elapsed, flags
        self._checksum_end = 4 + (n_out if options.checksum else 0)
        codes.append("Q" * (self._checksum_end - 4))
        codes.extend(_value_code(dtype) for _name, dtype in layout.outports)
        self._out_names = [name for name, _dtype in layout.outports]
        self._outputs_end = self._checksum_end + n_out
        # (metric, points, first word index, end word index) per metric.
        self._coverage: "list[tuple[Metric, int, int, int]]" = []
        if plan.coverage_enabled:
            points = plan.points
            start = self._outputs_end
            for metric, n in (
                (Metric.ACTOR, points.n_actor),
                (Metric.CONDITION, points.n_condition),
                (Metric.DECISION, points.n_decision),
                (Metric.MCDC, points.n_mcdc),
            ):
                n_words = (n + 63) // 64
                self._coverage.append((metric, n, start, start + n_words))
                start += n_words
            codes.append("Q" * (start - self._outputs_end))
        codes.append("qQ" * len(layout.diag_slots))
        self._diag_slots = list(layout.diag_slots)
        self._prefix = struct.Struct("<" + "".join(codes))
        self._monitor_limit = max(1, options.monitor_limit)
        self._monitors = [
            (mon.path, struct.Struct("<q" + _value_code(mon.dtype)))
            for mon in layout.monitors
        ]
        self.size = self._prefix.size + len(self._monitors) * (
            8 + 16 * self._monitor_limit
        )

    def _unpack_prefix(self, buf: bytes) -> tuple:
        """The fixed-offset words of a buffer of exactly :attr:`size`
        bytes (both rungs hand over the whole buffer)."""
        if len(buf) < self.size:
            raise SimulationError(
                f"result buffer truncated: {len(buf)} bytes for a "
                f"{self.size}-byte layout"
            )
        if len(buf) > self.size:
            raise SimulationError(
                f"result buffer over-long: {len(buf)} bytes for a "
                f"{self.size}-byte layout"
            )
        return self._prefix.unpack_from(buf)

    def decode(
        self,
        buf: bytes,
        prog,
        options: SimulationOptions,
        *,
        engine: str = "accmos",
    ) -> SimulationResult:
        """Decode one filled result buffer into a :class:`SimulationResult`.

        Seeds the plan's static warnings and rebuilds coverage,
        diagnostics and monitors, so results compare byte-identical to
        the SSE reference's.  A buffer of any length but :attr:`size`, or
        a monitor claiming more samples than ``monitor_limit`` allows,
        raises :class:`SimulationError`.
        """
        words = self._unpack_prefix(buf)
        steps_run, halt_step, elapsed, flags = words[:4]
        checksums = dict(zip(self._out_names, words[4 : self._checksum_end]))
        outputs = dict(
            zip(self._out_names, words[self._checksum_end : self._outputs_end])
        )

        coverage = None
        if self._coverage:
            bitmaps = {
                metric: Bitmap.from_words(n, words[start:end])
                for metric, n, start, end in self._coverage
            }
            coverage = CoverageReport.from_bitmaps(self.plan.points, bitmaps)

        log = DiagnosticLog()
        for event in self.plan.static_warnings:
            log.add_static(event.path, event.kind, event.message)
        base = len(words) - 2 * len(self._diag_slots)
        for (path, kind, message), first, count in zip(
            self._diag_slots, words[base::2], words[base + 1 :: 2]
        ):
            if first >= 0:
                log.set_aggregate(path, kind, first, count, message)

        monitored: dict[str, list] = {}
        pos = self._prefix.size
        for path, pair in self._monitors:
            (n,) = _U64.unpack_from(buf, pos)
            pos += 8
            if n > self._monitor_limit:
                raise SimulationError(
                    f"monitor {path!r} reports {n} samples, more "
                    f"than its monitor_limit of {self._monitor_limit}"
                )
            end = pos + 16 * n
            monitored[path] = list(pair.iter_unpack(buf[pos:end]))
            pos = end

        result = SimulationResult(
            engine=engine,
            model_name=prog.model.name,
            steps_requested=options.steps,
            steps_run=steps_run,
            wall_time=elapsed,
            outputs=outputs,
            checksums=checksums,
            coverage=coverage,
            diagnostics=log.events(),
            halted_at=None if halt_step < 0 else halt_step,
            monitored=monitored,
        )
        if flags & 1:
            result.extra["deadline_exceeded"] = True
        return result
