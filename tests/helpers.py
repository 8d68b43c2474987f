"""Shared test utilities: the model zoo, result-comparison helpers and a
threaded campaign-service harness.

The zoo is a set of small models that together exercise every registered
actor type, every dtype family, guards, stores, and merges.  The
cross-engine equivalence tests run each zoo model on every engine and
require bit-identical results, so any semantics/template divergence
anywhere in the library fails loudly here.
"""

from __future__ import annotations

import asyncio
import math
import threading

from repro.dtypes import BOOL, F32, F64, I8, I16, I32, I64, U8, U16, U32, U64
from repro.model.builder import ModelBuilder
from repro.stimuli import (
    ConstantStimulus,
    IntRandomStimulus,
    SequenceStimulus,
    UniformRandomStimulus,
)


def assert_results_agree(reference, other, *, coverage=True, diagnostics=True):
    """Bitwise agreement between two SimulationResults."""
    assert other.steps_run == reference.steps_run, (
        f"steps_run: {other.engine}={other.steps_run} "
        f"{reference.engine}={reference.steps_run}"
    )
    assert other.checksums == reference.checksums, (
        f"checksums differ: {reference.engine}={reference.checksums} "
        f"{other.engine}={other.checksums} "
        f"(outputs {reference.outputs} vs {other.outputs})"
    )
    for name, value in reference.outputs.items():
        other_value = other.outputs[name]
        if isinstance(value, float) and math.isnan(value):
            assert math.isnan(other_value), (name, value, other_value)
        else:
            assert other_value == value, (name, value, other_value)
    assert other.halted_at == reference.halted_at
    if coverage and reference.coverage is not None:
        assert other.coverage is not None
        assert other.coverage.bitmaps == reference.coverage.bitmaps, (
            f"coverage: {reference.engine}=[{reference.coverage.summary()}] "
            f"{other.engine}=[{other.coverage.summary()}]"
        )
    if diagnostics:
        ref = [(e.path, e.kind.value, e.first_step, e.count)
               for e in reference.diagnostics]
        oth = [(e.path, e.kind.value, e.first_step, e.count)
               for e in other.diagnostics]
        assert oth == ref, f"diagnostics differ:\n ref={ref}\n oth={oth}"


# ----------------------------------------------------------------------
# zoo models
# ----------------------------------------------------------------------
def zoo_int_arith():
    """Sum/Product/Gain/Bias/Abs/Neg/Shift/Mod over narrow ints (wraps)."""
    b = ModelBuilder("IntArith")
    x = b.inport("X", dtype=I16)
    y = b.inport("Y", dtype=I16)
    s = b.sum_("S3", [x, y, b.constant("K7", 7, dtype=I16)], signs="+-+", dtype=I16)
    p = b.product("P", [s, x], ops="**", dtype=I16)
    q = b.div("Q", p, b.bias("YOff", y, 3, dtype=I16), dtype=I16)
    g = b.gain("G", q, 3, dtype=I16)
    m = b.mod("M", g, b.constant("K13", 13, dtype=I16), dtype=I16)
    a = b.abs_("A", m, dtype=I16)
    n = b.neg("N", a, dtype=I16)
    sh = b.shift("Sh", "<<", n, 2, dtype=I16)
    sh2 = b.shift("Sh2", ">>", sh, 1, dtype=I16)
    b.outport("Out", sh2)
    return b.build(), lambda: {
        "X": IntRandomStimulus(3, -30000, 30000),
        "Y": IntRandomStimulus(4, -30000, 30000),
    }


def zoo_unsigned():
    """Unsigned arithmetic, bitwise ops, and wide/narrow casts."""
    b = ModelBuilder("Unsigned")
    x = b.inport("X", dtype=U32)
    y = b.inport("Y", dtype=U16)
    wide = b.dtc("Wide", y, U64)
    s = b.add("S", x, wide, dtype=U64)
    m = b.mul("M", s, b.constant("K", 2654435761, dtype=U64), dtype=U64)
    bx = b.bitwise("BX", "XOR", [m, b.constant("Mask", 0x5A5A5A5A, dtype=U64)], dtype=U64)
    sh = b.shift("Sh", ">>", bx, 7, dtype=U64)
    narrow = b.dtc("Narrow", sh, U8)
    nt = b.bitwise("NT", "NOT", [narrow], dtype=U8)
    b.outport("Out", nt)
    b.outport("OutWide", sh)
    return b.build(), lambda: {
        "X": IntRandomStimulus(5, 0, 4_000_000_000),
        "Y": IntRandomStimulus(6, 0, 65535),
    }


def zoo_float_pipeline():
    """Transcendentals, saturation, deadzone, quantizer, rounding, lookup."""
    b = ModelBuilder("FloatPipe")
    x = b.inport("X", dtype=F64)
    scaled = b.gain("Scale", x, 6.0)
    shifted = b.bias("Shift", scaled, -3.0)
    s = b.math("Sin", "sin", shifted)
    e = b.math("Exp", "exp", s)
    lg = b.math("Log", "log", b.abs_("Mag", shifted))
    sq = b.sqrt("Root", b.abs_("Mag2", lg))
    sat = b.saturation("Sat", e, 0.1, 5.0)
    dz = b.dead_zone("Dz", shifted, -0.5, 0.5)
    qz = b.quantizer("Qz", dz, 0.25)
    rd = b.rounding("Rd", "round", qz)
    lut = b.lookup1d("Lut", shifted, [-3.0, -1.0, 0.0, 1.0, 3.0],
                     [9.0, 1.0, 0.0, 1.0, 9.0])
    poly = b.block("Polynomial", "Poly", [lut], params={"coeffs": [0.5, -1.0, 2.0]})
    pw = b.block("Power", "Pw", [sat, b.constant("Half", 0.5)])
    fm = b.mod("Fm", shifted, b.constant("K15", 1.5), dtype=F64)
    total = b.sum_("Total", [sq, rd, poly, pw, fm], dtype=F64)
    b.block("Display", "Show", [total], n_outputs=0)
    b.outport("Out", total)
    return b.build(), lambda: {"X": UniformRandomStimulus(7, 0.0, 1.0)}


def zoo_f32():
    """Single-precision path: per-op rounding discipline."""
    b = ModelBuilder("F32Pipe")
    x = b.inport("X", dtype=F32)
    y = b.inport("Y", dtype=F32)
    s = b.add("S", x, y, dtype=F32)
    m = b.mul("M", s, b.constant("K", 1.2999999523162842, dtype=F32), dtype=F32)
    d = b.div("D", m, b.bias("YOff", y, 0.5, dtype=F32), dtype=F32)
    filt = b.block("DiscreteFilter", "Filt", [d],
                   params={"b0": 0.25, "a1": 0.75})
    sn = b.math("Sin", "sin", filt)
    up = b.dtc("Up", sn, F64)
    b.outport("Out", up)
    b.outport("Out32", filt)
    return b.build(), lambda: {
        "X": UniformRandomStimulus(8, -2.0, 2.0),
        "Y": UniformRandomStimulus(9, -2.0, 2.0),
    }


def zoo_logic_decisions():
    """Relational/Logic/Compare actors: decision + MC/DC coverage."""
    b = ModelBuilder("LogicZoo")
    x = b.inport("X", dtype=I32)
    y = b.inport("Y", dtype=I32)
    a1 = b.relational("GT", ">", x, y)
    a2 = b.relational("EQ", "==", x, b.constant("K5", 5))
    a3 = b.block("CompareToConstant", "CC", [y], operator="<=",
                 params={"constant": -2})
    a4 = b.block("CompareToZero", "CZ", [x], operator="!=")
    and3 = b.logic("And3", "AND", [a1, a2, a3])
    or3 = b.logic("Or3", "OR", [a1, a3, a4])
    xor3 = b.logic("Xor3", "XOR", [a1, a2, a4])
    nand2 = b.logic("Nand2", "NAND", [a2, a3])
    nor2 = b.logic("Nor2", "NOR", [a1, a4])
    not1 = b.not_("Not1", a1)
    total = b.sum_("Total", [and3, or3, xor3, nand2, nor2, not1], dtype=I32)
    b.outport("Out", total)
    return b.build(), lambda: {
        "X": IntRandomStimulus(10, -8, 8),
        "Y": IntRandomStimulus(11, -8, 8),
    }


def zoo_control():
    """Switch/MultiportSwitch/Relay branch coverage, incl. OOB control."""
    b = ModelBuilder("ControlZoo")
    x = b.inport("X", dtype=I32)
    sel = b.inport("Sel", dtype=I32)
    pos = b.relational("Pos", ">", x, b.constant("Z", 0))
    sw = b.switch("Sw", b.gain("Twice", x, 2), pos, b.neg("Neg", x), threshold=1)
    cases = [b.constant(f"C{i}", i * 10) for i in range(3)]
    mp = b.multiport_switch("Mp", sel, [*cases, sw])  # sel may exceed range
    dl = b.direct_lookup("Dl", sel, [5, 6, 7])  # OOB flags expected
    ry = b.relay("Ry", x, on_threshold=10, off_threshold=-10,
                 on_value=100, off_value=-100)
    total = b.sum_("Total", [mp, dl, ry], dtype=I32)
    b.outport("Out", total)
    return b.build(), lambda: {
        "X": IntRandomStimulus(12, -20, 20),
        "Sel": IntRandomStimulus(13, -1, 5),
    }


def zoo_stateful():
    """Delays, integrator, derivative, accumulator, rate limiter, memory."""
    b = ModelBuilder("Stateful")
    x = b.inport("X", dtype=F64)
    ud = b.unit_delay("Ud", x, initial=0.25)
    mem = b.memory("Mem", ud, initial=-1.0)
    dl = b.delay("Dl", x, 3, initial=0.5)
    integ = b.discrete_integrator("Integ", x, gain=0.5, initial=1.0)
    deriv = b.block("DiscreteDerivative", "Deriv", [x], params={})
    rl = b.block("RateLimiter", "Rl", [x], params={"rising": 0.1, "falling": 0.2})
    zoh = b.block("ZeroOrderHold", "Zoh", [rl])
    acc = b.accumulator("Acc", b.quantizer("Qz", x, 0.5), dtype=F64)
    total = b.sum_("Total", [mem, dl, integ, deriv, zoh, acc], dtype=F64)
    b.outport("Out", total)
    return b.build(), lambda: {"X": UniformRandomStimulus(14, -1.0, 1.0)}


def zoo_sources():
    """Every generator source, mixed into one output."""
    b = ModelBuilder("Sources")
    x = b.inport("X", dtype=F64)
    clk = b.block("Clock", "Clk")
    cnt = b.counter("Cnt", limit=7)
    sine = b.block("SineWave", "Sine",
                   params={"frequency": 0.01, "amplitude": 2.0, "phase": 0.3,
                           "bias": 0.1})
    ramp = b.block("RampSource", "Ramp", params={"slope": 0.001, "start": -1.0})
    stp = b.block("StepSource", "Stp", params={"at": 20, "before": 0.0, "after": 2.5})
    pls = b.block("PulseGenerator", "Pls",
                  params={"period": 9, "duty": 3, "amplitude": 1.5})
    rnd = b.block("RandomSource", "Rnd",
                  params={"dist": "uniform", "lo": -1.0, "hi": 1.0, "seed": 42})
    rndi = b.block("RandomSource", "RndI",
                   params={"dist": "int", "lo": -5, "hi": 5, "seed": 43})
    gnd = b.block("Ground", "Gnd")
    cntf = b.gain("CntF", cnt, 1.0)
    rif = b.gain("RiF", rndi, 1.0)
    total = b.sum_("Total", [x, clk, sine, ramp, stp, pls, rnd, gnd, cntf, rif],
                   dtype=F64)
    b.outport("Out", total)
    return b.build(), lambda: {"X": UniformRandomStimulus(15, 0.0, 1.0)}


def zoo_guarded():
    """Enabled subsystems (incl. nested) with Merge combination."""
    b = ModelBuilder("Guarded")
    x = b.inport("X", dtype=I32)
    hot = b.relational("Hot", ">", x, b.constant("K2", 2))
    cold = b.relational("Cold", "<", x, b.constant("Km2", -2))

    s1 = b.subsystem("HotPath", inputs=[x])
    g1 = s1.inner.gain("Boost", s1.input_ref(0), 10)
    o1 = s1.set_output(g1)
    s1.set_enable(hot)

    s2 = b.subsystem("ColdPath", inputs=[x])
    inner2 = s2.inner.gain("Chill", s2.input_ref(0), -10)
    nested = s2.inner.subsystem("Deep", inputs=[inner2])
    deep = nested.inner.bias("DeepOff", nested.input_ref(0), 100)
    nested_out = nested.set_output(deep)
    nested.set_enable(
        s2.inner.relational("VeryCold", "<", s2.input_ref(0),
                            s2.inner.constant("Km5", -5))
    )
    o2 = s2.set_output(nested_out)
    s2.set_enable(cold)

    merged = b.merge("Pick", [o1, o2], dtype=I32)
    b.outport("Out", merged)
    b.outport("RawHot", o1)
    return b.build(), lambda: {"X": IntRandomStimulus(16, -10, 10)}


def zoo_stores():
    """Data stores: read-before-write ordering, checked write casts."""
    b = ModelBuilder("Stores")
    x = b.inport("X", dtype=I32)
    total = b.data_store("total", dtype=I32, initial=100)
    narrow = b.data_store("narrow", dtype=I8, initial=0)
    t = b.ds_read("RdT", total)
    n = b.ds_read("RdN", narrow)
    summed = b.add("Sum", t, x, dtype=I32)
    b.ds_write("WrT", total, summed)
    b.ds_write("WrN", narrow, summed)  # narrowing write: wrap diagnostics
    combined = b.add("Comb", summed, b.dtc("NUp", n, I32), dtype=I32)
    b.outport("Out", combined)
    return b.build(), lambda: {"X": IntRandomStimulus(17, -50, 50)}


def zoo_mixed_types():
    """Casts across the whole dtype lattice, incl. bool and signum/minmax."""
    b = ModelBuilder("MixedTypes")
    x = b.inport("X", dtype=I64)
    f = b.inport("F", dtype=F64)
    to8 = b.dtc("To8", x, I8)
    tou16 = b.dtc("ToU16", x, U16)
    tof = b.dtc("ToF", x, F64)
    fi = b.dtc("FI", b.gain("Big", f, 1e4), I32)
    sg = b.sign("Sg", x, dtype=I64)
    mm = b.min_max("Mm", "max", [to8, b.dtc("U16d", tou16, I8)], dtype=I8)
    bl = b.relational("Bl", ">", f, b.constant("Half", 0.5))
    blu = b.dtc("BlUp", bl, I32)
    t1 = b.dtc("T1", mm, I32)
    t2 = b.dtc("T2", sg, I32)
    t3 = b.dtc("T3", tof, I32)
    total = b.sum_("Total", [fi, blu, t1, t2, t3], dtype=I32)
    b.outport("Out", total)
    return b.build(), lambda: {
        "X": IntRandomStimulus(18, -(2**40), 2**40),
        "F": UniformRandomStimulus(19, -1.0, 1.0),
    }


def zoo_sequence_inputs():
    """Sequence/constant stimuli: deterministic, includes a zero divisor."""
    b = ModelBuilder("SeqIn")
    x = b.inport("X", dtype=I32)
    y = b.inport("Y", dtype=I32)
    d = b.div("D", x, y, dtype=I32)  # hits division by zero
    r = b.block("Math", "Rec", [b.gain("F", y, 1.0)], operator="reciprocal")
    b.outport("Out", d)
    b.outport("OutR", r)
    return b.build(), lambda: {
        "X": SequenceStimulus([10, -7, 3, 0, 22]),
        "Y": SequenceStimulus([2, 0, -3, 5]),
    }


def zoo_continuous():
    """Continuous-model extension: Adams-Bashforth integrators, including
    a closed feedback loop (dy/dt = u - y)."""
    b = ModelBuilder("Continuous")
    u = b.inport("U", dtype=F64)
    eul = b.continuous_integrator("Euler", u, solver="euler", initial=0.5)
    ab2 = b.continuous_integrator("Ab2", u, solver="ab2")
    # Feedback: dy/dt = u - y (first-order lag through AB3).
    err = b.sub("Err", u, ("Lag", 0))
    b.block("ContinuousIntegrator", "Lag", [err],
            params={"solver": "ab3", "initial": 0.0}, out_dtype=F64)
    total = b.sum_("Total", [eul, ab2, ("Lag", 0)], dtype=F64)
    b.outport("Out", total)
    return b.build(), lambda: {"U": UniformRandomStimulus(21, -1.0, 1.0)}


ZOO = {
    "int_arith": zoo_int_arith,
    "continuous": zoo_continuous,
    "unsigned": zoo_unsigned,
    "float_pipeline": zoo_float_pipeline,
    "f32": zoo_f32,
    "logic_decisions": zoo_logic_decisions,
    "control": zoo_control,
    "stateful": zoo_stateful,
    "sources": zoo_sources,
    "guarded": zoo_guarded,
    "stores": zoo_stores,
    "mixed_types": zoo_mixed_types,
    "sequence_inputs": zoo_sequence_inputs,
}


class ServiceThread:
    """A CampaignServer on a background event loop, for blocking tests."""

    def __init__(self, service) -> None:
        from repro.service import CampaignServer
        from repro.service.client import ServiceClient

        self.server = CampaignServer(service)
        self.loop = asyncio.new_event_loop()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._started = threading.Event()
        self._thread.start()
        assert self._started.wait(10), "server failed to start"
        self.client = ServiceClient(self.server.host, self.server.port)

    def _run(self) -> None:
        asyncio.set_event_loop(self.loop)
        self.loop.run_until_complete(self.server.start())
        self._started.set()
        self.loop.run_forever()

    def close(self) -> None:
        future = asyncio.run_coroutine_threadsafe(
            self.server.close(), self.loop
        )
        future.result(30)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self._thread.join(10)
        self.loop.close()
