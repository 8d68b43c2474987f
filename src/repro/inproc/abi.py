"""The packed binary ABI between Python and a compiled program.

This is the Python half of the contract ``codegen.compose`` emits into
every reusable program as ``acc_lib_*`` exports: a case travels as one
packed binary record, and the library fills a caller-provided result
buffer of fixed layout; ``ctypes`` passes the bytes in-process.
Both sides derive the per-port slot sequence from
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
``acc_lib_abi_version()`` or ``acc_lib_result_size()`` at load time.
"""

from __future__ import annotations

import operator
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

_U64 = struct.Struct("<Q")

#: struct code and wire conversion per DESCRIPTOR_FIELDS kind.
_SLOT_CODES = {"i": "q", "u": "Q", "f": "d"}
_SLOT_CONVERT = {"i": _i64, "u": _u64, "f": float}
_PORT_FIELDS = struct.Struct(
    "<" + "".join(_SLOT_CODES[kind] for _a, _m, kind in DESCRIPTOR_FIELDS)
    + "q"  # tab_len
)
_PORT_VALUES = operator.attrgetter(
    *(attr for attr, _m, _kind in DESCRIPTOR_FIELDS)
)
_PORT_CONVERT = [_SLOT_CONVERT[kind] for _a, _m, kind in DESCRIPTOR_FIELDS]
_CASE_HEADER = struct.Struct("<qddq")


# A value the plain pack accepts packs to the same bytes as its wire
# conversion (int64/uint64 wrapping, ``float``), so the conversions run
# only when the plain pack rejects a value.
def _pack_port(d: StimulusDescriptor) -> bytes:
    values = _PORT_VALUES(d)
    try:
        return _PORT_FIELDS.pack(*values, len(d.table))
    except struct.error:
        return _PORT_FIELDS.pack(
            *[convert(v) for convert, v in zip(_PORT_CONVERT, values)],
            len(d.table),
        )


def _pack_table(table, is_float: bool) -> bytes:
    fmt = f"<{len(table)}{'d' if is_float else 'q'}"
    try:
        return struct.pack(fmt, *table)
    except struct.error:
        return struct.pack(fmt, *map(float if is_float else _i64, table))


def _header(
    steps: int, time_budget: Optional[float], deadline: Optional[float],
    n_ports: int,
) -> tuple:
    """The :data:`_CASE_HEADER` values of one case record."""
    return (
        int(steps),
        -1.0 if time_budget is None else float(time_budget),
        -1.0 if deadline is None else float(deadline),
        n_ports,
    )


def encode_case_binary(
    descriptors: Sequence[StimulusDescriptor],
    *,
    steps: int,
    time_budget: Optional[float] = None,
    deadline: Optional[float] = None,
) -> bytes:
    """One packed case record for ``acc_lib_run_case``: the case header,
    then every port's DESCRIPTOR_FIELDS slots and table, one ``pack``
    each."""
    parts: list[bytes] = [
        _CASE_HEADER.pack(
            *_header(steps, time_budget, deadline, len(descriptors))
        )
    ]
    for d in descriptors:
        parts.append(_pack_port(d))
        if d.table:
            parts.append(_pack_table(d.table, d.table_is_float))
    return b"".join(parts)


_STATE_SLOT = [attr for attr, _m, _kind in DESCRIPTOR_FIELDS].index("state")


class SeedRecords:
    """Case records of a program's default stimuli, packed straight from
    the case seed.

    Built once per program from its
    :class:`~repro.stimuli.generators.DefaultPortPlan`: every slot of
    every port's descriptor but the LCG ``state`` is the same for every
    seed, so :meth:`pack` is one :class:`struct.Struct` pack of
    :data:`_CASE_HEADER` followed by one :data:`_PORT_FIELDS` run per
    port, with the header and each port's ``state`` filled in.  The
    bytes equal :func:`encode_case_binary` of
    ``descriptors_for(prog, default_stimuli(prog, seed=seed))``; no
    stimulus or descriptor object is built.
    """

    __slots__ = ("_plan", "_struct", "_values", "_state_at")

    def __init__(self, plan) -> None:
        descriptors = plan.descriptors()
        self._plan = plan
        self._struct = struct.Struct(
            _CASE_HEADER.format
            + _PORT_FIELDS.format.lstrip("<") * len(descriptors)
        )
        values: list = list(_header(0, None, None, len(descriptors)))
        self._state_at: list[int] = []
        for d in descriptors:
            if d.table:
                raise ValueError("a seed record has no sequence tables")
            self._state_at.append(len(values) + _STATE_SLOT)
            values.extend(
                convert(v) for convert, v in zip(_PORT_CONVERT, _PORT_VALUES(d))
            )
            values.append(0)  # tab_len
        self._values = values

    def pack(
        self,
        seed: int,
        *,
        steps: int,
        time_budget: Optional[float] = None,
        deadline: Optional[float] = None,
    ) -> bytes:
        """The record of the case ``seed`` (keywords as
        :func:`encode_case_binary`)."""
        values = self._values.copy()
        values[:4] = _header(steps, time_budget, deadline, values[3])
        for at, state in zip(self._state_at, self._plan.states(seed)):
            values[at] = state
        return self._struct.pack(*values)


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
        *slots, tab_len = take(_PORT_FIELDS)
        port = {
            attr: value
            for (attr, _member, _kind), value in zip(DESCRIPTOR_FIELDS, slots)
        }
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
        "_coverage_bytes",
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
        # The coverage words are read as one little-endian int, in which
        # bit i of the region's word w is bit 64*w + i: (metric, points,
        # bit shift) per metric, and the region's first and end byte
        # (every word is 8 bytes, so word i starts at byte 8*i).
        self._coverage: "list[tuple[Metric, int, int]]" = []
        self._coverage_bytes = (0, 0)
        if plan.coverage_enabled:
            points = plan.points
            start = self._outputs_end
            for metric, n in (
                (Metric.ACTOR, points.n_actor),
                (Metric.CONDITION, points.n_condition),
                (Metric.DECISION, points.n_decision),
                (Metric.MCDC, points.n_mcdc),
            ):
                self._coverage.append(
                    (metric, n, 64 * (start - self._outputs_end))
                )
                start += (n + 63) // 64
            self._coverage_bytes = (8 * self._outputs_end, 8 * start)
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
        bytes (the library hands over the whole buffer)."""
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
            start, end = self._coverage_bytes
            bits = int.from_bytes(buf[start:end], "little")
            bitmaps = {
                metric: Bitmap.from_int(n, bits >> shift)
                for metric, n, shift in self._coverage
            }
            coverage = CoverageReport.from_bitmaps(self.plan.points, bitmaps)

        base = len(words) - 2 * len(self._diag_slots)
        firsts = words[base::2]
        fired = bool(firsts) and max(firsts) >= 0
        diagnostics: list = []
        # Most cases fire no diagnosis, and most plans warn nothing
        # statically: then there is no log to build.
        if fired or self.plan.static_warnings:
            log = DiagnosticLog()
            for event in self.plan.static_warnings:
                log.add_static(event.path, event.kind, event.message)
            if fired:
                for (path, kind, message), first, count in zip(
                    self._diag_slots, firsts, words[base + 1 :: 2]
                ):
                    if first >= 0:
                        log.set_aggregate(path, kind, first, count, message)
            diagnostics = log.events()

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
            diagnostics=diagnostics,
            halted_at=None if halt_step < 0 else halt_step,
            monitored=monitored,
        )
        if flags & 1:
            result.extra["deadline_exceeded"] = True
        return result
