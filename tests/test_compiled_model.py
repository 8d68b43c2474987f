"""Compile-once / run-many equivalence: the stimulus-agnostic program
against the interpreted SSE reference.

The library reads its stimuli, step count, and deadline at run time
instead of having them compiled in; these tests pin the invariant that
this changes *nothing* about the results — byte-identical outputs,
checksums, coverage bitmaps, and diagnostics, whether a stimulus reaches
C as a closed-form descriptor or materialized into a sequence table,
single-case and batched, including mid-batch halts and timeouts.
"""

from __future__ import annotations

import pytest

from repro import SimulationOptions, simulate
from repro.engines.accmos import compile_model, run_accmos
from repro.model.errors import SimulationError, SimulationTimeout
from repro.runner.cache import ArtifactCache
from repro.schedule import preprocess
from repro.stimuli import (
    ConstantStimulus,
    IntRandomStimulus,
    PulseStimulus,
    RampStimulus,
    SequenceStimulus,
    SineStimulus,
    StepStimulus,
    UniformRandomStimulus,
    default_stimuli,
)
from repro.stimuli.base import Stimulus

from conftest import requires_cc
from helpers import ZOO, assert_results_agree

STEPS = 300


class OpaqueStimulus(Stimulus):
    """A custom stimulus: only ``reset()``/``next()``, no runtime
    descriptor — so AccMoS materializes its stream into a table."""

    def __init__(self, inner: Stimulus):
        self.inner = inner

    def reset(self):
        self.inner.reset()

    def next(self):
        return self.inner.next()


def _opaque(stimuli):
    return {name: OpaqueStimulus(s) for name, s in stimuli.items()}


@pytest.fixture(scope="module")
def zoo_programs():
    programs = {}
    for name, factory in ZOO.items():
        model, stimuli = factory()
        programs[name] = (preprocess(model), stimuli)
    return programs


@requires_cc
@pytest.mark.parametrize("name", sorted(ZOO))
def test_reusable_matches_sse_and_baked(zoo_programs, name):
    """Byte identity on every zoo model between SSE, the descriptor path,
    and the same streams baked into materialized tables (opaque custom
    stimuli), through ``run_accmos`` and a batch on the library."""
    prog, stimuli = zoo_programs[name]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)
    assert_results_agree(sse, run_accmos(prog, stimuli(), opts, cache=False))
    assert_results_agree(
        sse, run_accmos(prog, _opaque(stimuli()), opts, cache=False)
    )
    model = compile_model(prog, opts, cache=False)
    cases = [_opaque(stimuli()), stimuli(), _opaque(stimuli())]
    outcomes = model.run_inproc(cases)
    assert len(outcomes) == len(cases)
    for got in outcomes:
        assert_results_agree(sse, got)


@requires_cc
@pytest.mark.parametrize("name", ["mixed_types", "stateful", "guarded"])
def test_batch_matches_individual_runs(zoo_programs, name):
    """M cases through one library instance == M single-case runs,
    including the per-case reset of actor state, coverage, and
    diagnostics."""
    prog, _ = zoo_programs[name]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    cases = [default_stimuli(prog, seed=s) for s in (3, 1, 9, 1)]
    batch = model.run_inproc([(c, None) for c in cases])
    for stimuli, got in zip(cases, batch):
        assert_results_agree(model.run(stimuli), got)
        assert_results_agree(
            simulate(prog, stimuli, engine="sse", options=opts), got
        )


@requires_cc
def test_source_is_stimulus_and_steps_agnostic(zoo_programs, tmp_path):
    """Different seeds and step counts map to one cache key: a campaign
    of heterogeneous cases costs exactly one compile."""
    prog, _ = zoo_programs["stateful"]
    cache = ArtifactCache(tmp_path / "cache")
    for seed, steps in [(1, 50), (2, 400), (3, 7), (4, 50)]:
        run_accmos(
            prog, default_stimuli(prog, seed=seed),
            SimulationOptions(steps=steps), cache=cache,
        )
    stats = cache.stats()
    assert stats.misses == 1 and stats.hits == 3


@requires_cc
def test_every_stimulus_kind_roundtrips(zoo_programs):
    """Each descriptor kind reads the same values from its record as SSE
    consumes — including int sequences above 2^53, which would corrupt
    if the interpreter unified the table through double.

    The mixed_types model has an I64 port (X) and an F64 port (F), so
    every kind is exercised against both dtype families.
    """
    prog, _ = zoo_programs["mixed_types"]
    int_kinds = [
        ConstantStimulus(41),
        SequenceStimulus([2**60 + 7, -(2**61) + 3, 5, 2**63 - 1]),
        StepStimulus(at=7, before=-5, after=11),
        PulseStimulus(period=6, duty=2, high=9, low=-2),
        IntRandomStimulus(78, -100, 100),
    ]
    float_kinds = [
        ConstantStimulus(2.75),
        SequenceStimulus([0.5, -3.25, float("inf"), 2.0]),
        RampStimulus(start=-2.0, slope=0.125),
        SineStimulus(amplitude=3.5, period_steps=17, phase=0.5, bias=-1.0),
        StepStimulus(at=4, before=-0.5, after=1.5),
        PulseStimulus(period=5, duty=3, high=2.5, low=-1.25),
        UniformRandomStimulus(77, -4.0, 4.0),
    ]
    opts = SimulationOptions(steps=100)
    model = compile_model(prog, opts, cache=False)
    pairs = [(ik, float_kinds[i % len(float_kinds)])
             for i, ik in enumerate(int_kinds)]
    pairs += [(int_kinds[i % len(int_kinds)], fk)
              for i, fk in enumerate(float_kinds)]
    for x_stim, f_stim in pairs:
        stimuli = {"X": x_stim, "F": f_stim}
        sse = simulate(prog, stimuli, engine="sse", options=opts)
        assert_results_agree(sse, model.run(stimuli))


@requires_cc
def test_mixed_step_counts_in_one_batch(zoo_programs):
    """Per-case step counts ride in the descriptor stream."""
    prog, _ = zoo_programs["stateful"]
    base = SimulationOptions(steps=100)
    model = compile_model(prog, base, cache=False)
    per_case = [
        SimulationOptions(steps=n) for n in (10, 250, 1, 100)
    ]
    stimuli = default_stimuli(prog, seed=4)
    batch = model.run_inproc([(stimuli, o) for o in per_case])
    for opts, got in zip(per_case, batch):
        ref = simulate(prog, stimuli, engine="sse", options=opts)
        assert_results_agree(ref, got)
        assert got.steps_run == opts.steps


@requires_cc
def test_mid_batch_halt_resets_state():
    """A case halting early must not leak state, coverage, or
    diagnostics into the next case of the same batch."""
    from repro import DiagnosticKind
    from repro.dtypes import I32
    from repro.model import ModelBuilder

    b = ModelBuilder("HaltBatch")
    x = b.inport("X", dtype=I32)
    y = b.inport("Y", dtype=I32)
    b.outport("Q", b.div("Div", x, y, dtype=I32))
    prog = preprocess(b.build())

    opts = SimulationOptions(
        steps=20, coverage=True, diagnostics=True,
        halt_on=frozenset({DiagnosticKind.DIV_BY_ZERO}),
    )
    model = compile_model(prog, opts, cache=False)
    cases = [
        {"X": ConstantStimulus(6), "Y": SequenceStimulus([3, 2, 0, 1])},
        {"X": ConstantStimulus(6), "Y": ConstantStimulus(2)},
        {"X": ConstantStimulus(6), "Y": SequenceStimulus([0])},
        {"X": ConstantStimulus(6), "Y": ConstantStimulus(3)},
    ]
    batch = model.run_inproc([(c, None) for c in cases])
    halts = [r.halted_at for r in batch]
    assert halts == [2, None, 0, None]
    for stimuli, got in zip(cases, batch):
        ref = simulate(prog, stimuli, engine="sse", options=opts)
        assert_results_agree(ref, got)


@requires_cc
def test_mid_batch_timeout_recovers(zoo_programs):
    """A case blowing its deadline yields a SimulationTimeout entry; the
    library resets and the following case is still byte-correct."""
    prog, _ = zoo_programs["stateful"]
    opts = SimulationOptions(steps=100)
    model = compile_model(prog, opts, cache=False)
    huge = SimulationOptions(steps=2_000_000_000)
    out = model.run_inproc(
        [
            (default_stimuli(prog, seed=1), huge),
            (default_stimuli(prog, seed=2), None),
        ],
        timeout_seconds=0.2,
    )
    assert isinstance(out[0], SimulationTimeout)
    assert "wall-clock" in str(out[0])
    ref = simulate(
        prog, default_stimuli(prog, seed=2), engine="sse", options=opts
    )
    assert_results_agree(ref, out[1])


@requires_cc
def test_single_run_timeout_raises(zoo_programs):
    prog, _ = zoo_programs["stateful"]
    model = compile_model(prog, SimulationOptions(steps=100), cache=False)
    with pytest.raises(SimulationTimeout, match="wall-clock"):
        model.run(
            default_stimuli(prog, seed=1),
            SimulationOptions(steps=2_000_000_000),
            timeout_seconds=0.2,
        )


@requires_cc
def test_structural_option_change_rejected(zoo_programs):
    """Per-case options may vary steps/time_budget only; anything that
    reshapes the binary must go through a fresh compile_model."""
    prog, _ = zoo_programs["stateful"]
    model = compile_model(
        prog, SimulationOptions(steps=100, coverage=True), cache=False
    )
    with pytest.raises(SimulationError, match="structure"):
        model.run(
            default_stimuli(prog, seed=1),
            SimulationOptions(steps=100, coverage=False),
        )


@requires_cc
def test_opaque_stimulus_materialized_by_compiled_model(zoo_programs):
    """A custom stimulus becomes a table of exactly ``steps`` conformed
    values, per case: mixed step counts in one batch each get their own
    materialization, identical to SSE."""
    prog, _ = zoo_programs["stateful"]
    model = compile_model(prog, SimulationOptions(steps=50), cache=False)
    stimuli = default_stimuli(prog, seed=1)
    per_case = [SimulationOptions(steps=n) for n in (50, 7, 0, 130)]
    batch = model.run_inproc([(_opaque(stimuli), o) for o in per_case])
    for opts, got in zip(per_case, batch):
        assert got.steps_run == opts.steps
        assert_results_agree(
            simulate(prog, stimuli, engine="sse", options=opts), got
        )


@requires_cc
def test_missing_inport_is_typed_error(zoo_programs):
    prog, _ = zoo_programs["stateful"]
    model = compile_model(prog, SimulationOptions(steps=50), cache=False)
    with pytest.raises(SimulationError, match="no stimulus for inport"):
        model.run({})


@requires_cc
def test_mixed_int_float_sequence_matches_sse(zoo_programs):
    """A sequence mixing floats and large ints on an integer port: the
    table is conformed to the port dtype (as SSE conforms each value),
    not promoted to double, which would round 2**60 + 1."""
    prog, _ = zoo_programs["mixed_types"]
    opts = SimulationOptions(steps=4)

    def stimuli():
        return {
            "X": SequenceStimulus([0.5, 2**60 + 1]),
            "F": ConstantStimulus(1.0),
        }

    sse = simulate(prog, stimuli(), engine="sse", options=opts)
    assert sse.outputs == {"Out": 10003}
    model = compile_model(prog, opts, cache=False)
    assert_results_agree(sse, model.run(stimuli()))
    (inproc,) = model.run_inproc([stimuli()])
    assert_results_agree(sse, inproc)
