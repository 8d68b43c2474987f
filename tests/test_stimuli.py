"""Stimuli: generator streams, reset determinism, CSV round trip, and the
cross-language contract with the generated C descriptor interpreter."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dtypes import F64, I16, I32
from repro.stimuli import (
    ConstantStimulus,
    IntRandomStimulus,
    PulseStimulus,
    RampStimulus,
    SequenceStimulus,
    SineStimulus,
    StepStimulus,
    TestCaseTable,
    UniformRandomStimulus,
    default_stimuli,
    load_csv,
    save_csv,
)
from repro.stimuli.base import c_double_literal, c_int_literal


def drain(stim, n):
    stim.reset()
    return [stim.next() for _ in range(n)]


class TestGenerators:
    def test_constant(self):
        assert drain(ConstantStimulus(5), 3) == [5, 5, 5]

    def test_sequence_cycles(self):
        assert drain(SequenceStimulus([1, 2, 3]), 7) == [1, 2, 3, 1, 2, 3, 1]

    def test_sequence_rejects_empty(self):
        with pytest.raises(ValueError):
            SequenceStimulus([])

    def test_ramp(self):
        assert drain(RampStimulus(start=1.0, slope=0.5), 3) == [1.0, 1.5, 2.0]

    def test_step(self):
        assert drain(StepStimulus(at=2, before=0, after=9), 4) == [0, 0, 9, 9]

    def test_pulse(self):
        assert drain(PulseStimulus(period=4, duty=2, high=1, low=0), 6) == [
            1, 1, 0, 0, 1, 1
        ]

    def test_pulse_validation(self):
        with pytest.raises(ValueError):
            PulseStimulus(period=0, duty=0)
        with pytest.raises(ValueError):
            PulseStimulus(period=4, duty=5)

    def test_sine(self):
        values = drain(SineStimulus(amplitude=2.0, period_steps=4), 4)
        assert values[0] == pytest.approx(0.0)
        assert values[1] == pytest.approx(2.0)

    def test_reset_restarts_streams(self):
        for stim in (
            SequenceStimulus([1, 2, 3]),
            RampStimulus(),
            UniformRandomStimulus(1),
            IntRandomStimulus(1, 0, 9),
            StepStimulus(at=1),
            PulseStimulus(period=3, duty=1),
            SineStimulus(),
        ):
            first = [stim.next() for _ in range(5)]
            stim.reset()
            assert [stim.next() for _ in range(5)] == first

    def test_uniform_range(self):
        values = drain(UniformRandomStimulus(3, lo=-2.0, hi=2.0), 200)
        assert all(-2.0 <= v < 2.0 for v in values)
        assert len(set(values)) > 150

    def test_uniform_rejects_bad_range(self):
        with pytest.raises(ValueError):
            UniformRandomStimulus(1, lo=1.0, hi=1.0)

    def test_int_random_range(self):
        values = drain(IntRandomStimulus(4, -3, 3), 300)
        assert set(values) == {-3, -2, -1, 0, 1, 2, 3}

    def test_int_random_rejects_bad_range(self):
        with pytest.raises(ValueError):
            IntRandomStimulus(1, 5, 4)

    def test_seeds_give_distinct_streams(self):
        a = drain(IntRandomStimulus(1, 0, 1000), 20)
        b = drain(IntRandomStimulus(2, 0, 1000), 20)
        assert a != b

    def test_conform_wraps_ints(self):
        stim = ConstantStimulus(300)
        assert stim.conform(300, I16) == 300
        from repro.dtypes import I8

        assert stim.conform(300, I8) == 44

    def test_conform_coerces_floats(self):
        from repro.dtypes import F32

        stim = ConstantStimulus(0.1)
        assert stim.conform(0.1, F32) != 0.1


class TestLiterals:
    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_double_literal_roundtrips(self, value):
        text = c_double_literal(value)
        if text.lstrip("-").startswith("0x"):
            parsed = float.fromhex(text)
        else:
            parsed = float(text)
        assert parsed == value

    def test_special_literals(self):
        # The <math.h> macros, not folded-division expressions: gcc
        # constant-folds (0.0/0.0) to a NaN whose sign bit differs from
        # Python's, and checksums hash raw bits.
        assert c_double_literal(float("inf")) == "INFINITY"
        assert c_double_literal(float("-inf")) == "(-INFINITY)"
        assert c_double_literal(float("nan")) == "NAN"

    def test_int64_min_literal(self):
        from repro.dtypes import I64

        assert "9223372036854775807" in c_int_literal(-(2**63), I64)


class TestDefaultStimuli:
    def test_covers_every_inport(self):
        from repro.model import ModelBuilder
        from repro.schedule import preprocess

        b = ModelBuilder("M")
        x = b.inport("X", dtype=I32)
        f = b.inport("F", dtype=F64)
        b.outport("Y", b.add("S", x, b.dtc("C", f, I32), dtype=I32))
        prog = preprocess(b.build())
        stimuli = default_stimuli(prog)
        assert set(stimuli) == {"X", "F"}

    def test_seed_changes_streams(self):
        from repro.model import ModelBuilder
        from repro.schedule import preprocess

        b = ModelBuilder("M")
        x = b.inport("X", dtype=I32)
        b.outport("Y", x)
        prog = preprocess(b.build())
        s1 = default_stimuli(prog, seed=1)["X"]
        s2 = default_stimuli(prog, seed=2)["X"]
        assert drain(s1, 10) != drain(s2, 10)


class TestTestCaseTable:
    def test_columns_must_align(self):
        with pytest.raises(ValueError, match="differ in length"):
            TestCaseTable({"A": [1, 2], "B": [1]})

    def test_from_rows(self):
        table = TestCaseTable.from_rows(["A", "B"], [(1, 2), (3, 4)])
        assert table.columns == {"A": [1, 3], "B": [2, 4]}
        assert table.row(1) == {"A": 3, "B": 4}

    def test_from_rows_ragged_rejected(self):
        with pytest.raises(ValueError):
            TestCaseTable.from_rows(["A", "B"], [(1,)])

    def test_to_stimuli(self):
        table = TestCaseTable({"A": [5, 6]})
        stim = table.to_stimuli()["A"]
        assert drain(stim, 4) == [5, 6, 5, 6]

    def test_csv_roundtrip(self, tmp_path):
        table = TestCaseTable({"A": [1, -2, 3], "B": [0.5, 1.5, -2.5]})
        path = tmp_path / "cases.csv"
        save_csv(table, path)
        again = load_csv(path)
        assert again.columns == table.columns
        # ints stay ints, floats stay floats
        assert isinstance(again.columns["A"][0], int)
        assert isinstance(again.columns["B"][0], float)


@pytest.mark.usefixtures("cc_available")
class TestCrossLanguageStreams:
    """Each stimulus, fed through the generated descriptor interpreter
    into a pass-through program, produces the same stream as next()."""

    @pytest.mark.parametrize("stim,dtype", [
        (ConstantStimulus(7), I32),
        (ConstantStimulus(0.3), F64),
        (SequenceStimulus([3, -1, 4, 1, -5]), I32),
        (SequenceStimulus([0.25, -1.5]), F64),
        (RampStimulus(start=-2.0, slope=0.125), F64),
        (SineStimulus(amplitude=1.5, period_steps=7, phase=0.2, bias=-0.1), F64),
        (StepStimulus(at=3, before=-1, after=6), I32),
        (PulseStimulus(period=5, duty=2, high=9, low=-9), I32),
        (UniformRandomStimulus(11, lo=-1.0, hi=4.0), F64),
        (IntRandomStimulus(12, -50, 50), I32),
    ])
    def test_c_stream_matches_python(self, stim, dtype, cc_available):
        if not cc_available:
            pytest.skip("no C compiler")
        from repro import SimulationOptions
        from repro.engines.accmos import compile_model
        from repro.model import ModelBuilder
        from repro.schedule import preprocess

        n = 64
        assert stim.runtime_descriptor() is not None
        b = ModelBuilder("Pass")
        b.outport("Y", b.inport("X", dtype=dtype))
        prog = preprocess(b.build())
        result = compile_model(
            prog, SimulationOptions(steps=n), cache=False
        ).run({"X": stim})
        (samples,) = result.monitored.values()
        assert [step for step, _ in samples] == list(range(n))
        c_values = [value for _, value in samples]
        py_values = [stim.conform(v, dtype) for v in drain(stim, n)]
        assert c_values == py_values
