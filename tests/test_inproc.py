"""The in-process shared-library rung: packed ABI, identity, quarantine.

Pins the in-process rung's core invariant: loading the program's shared
library and driving it through the packed binary case/result protocol is
a pure throughput lever — byte-identical results to the SSE reference
and the host-process rung across the zoo and every stimulus kind, with a
fault-quarantine ladder that drops back to a host process without
changing a single bit.
"""

from __future__ import annotations

import math
from dataclasses import replace

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import SimulationOptions, simulate, telemetry
from repro.codegen.descriptor import descriptors_for
from repro.codegen import driver as driver_mod
from repro.dtypes import F64, I32
from repro.engines.accmos import compile_model
from repro.engines.base import SimulationResult
from repro.inproc import (
    ABI_VERSION,
    LibraryFault,
    LoadedModel,
    decode_case_binary,
    encode_case_binary,
)
from repro.model.builder import ModelBuilder
from repro.model.errors import SimulationTimeout
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
)
from repro.stimuli.base import DESCRIPTOR_FIELDS

from conftest import requires_cc
from helpers import ZOO, assert_results_agree

STEPS = 200


@pytest.fixture(scope="module")
def zoo_programs():
    programs = {}
    for name, factory in ZOO.items():
        model, stimuli = factory()
        programs[name] = (preprocess(model), stimuli)
    return programs


# ----------------------------------------------------------------------
# byte identity: SSE vs the in-process library (vs a private host batch)
# ----------------------------------------------------------------------
@requires_cc
@pytest.mark.parametrize("name", sorted(ZOO))
def test_inproc_matches_sse_and_batch(zoo_programs, name):
    """Every in-process case is byte-identical to SSE, and to the same
    batch run on a private host process."""
    prog, stimuli = zoo_programs[name]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)
    batch = list(model.run_stream([(stimuli(), None) for _ in range(3)]))
    inproc = model.run_inproc([(stimuli(), None) for _ in range(3)])
    assert len(inproc) == 3
    for via_batch, via_inproc in zip(batch, inproc):
        assert_results_agree(sse, via_inproc)
        assert_results_agree(via_batch, via_inproc)
    # The whole batch ran in-process (no fallback kicked in).
    assert model.inproc_available
    assert all(isinstance(r, SimulationResult) for r in inproc)


def _kinds_model():
    b = ModelBuilder("Kinds")
    x = b.inport("X", dtype=F64)
    n = b.inport("N", dtype=I32)
    total = b.sum_("Total", [x, b.dtc("NF", n, F64)], dtype=F64)
    b.outport("Out", total)
    return preprocess(b.build())


KIND_CASES = {
    "constant": lambda: {
        "X": ConstantStimulus(2.5), "N": ConstantStimulus(3),
    },
    "sequence": lambda: {
        "X": SequenceStimulus([0.5, -1.25, 3.0]),
        "N": SequenceStimulus([7, 0, -2, 9]),
    },
    "ramp": lambda: {
        "X": RampStimulus(start=-1.0, slope=0.125),
        "N": ConstantStimulus(1),
    },
    "sine": lambda: {
        "X": SineStimulus(amplitude=2.0, period_steps=37, phase=0.5, bias=0.25),
        "N": ConstantStimulus(0),
    },
    "step": lambda: {
        "X": StepStimulus(at=40, before=-0.5, after=1.5),
        "N": StepStimulus(at=90, before=0, after=4),
    },
    "pulse": lambda: {
        "X": PulseStimulus(period=11, duty=4, high=1.25, low=-0.25),
        "N": PulseStimulus(period=7, duty=2, high=3, low=1),
    },
    "uniform_random": lambda: {
        "X": UniformRandomStimulus(23, -2.0, 2.0), "N": ConstantStimulus(2),
    },
    "int_random": lambda: {
        "X": ConstantStimulus(0.5), "N": IntRandomStimulus(31, -100, 100),
    },
}


@requires_cc
@pytest.mark.parametrize("kind", sorted(KIND_CASES))
def test_inproc_identity_every_stimulus_kind(kind):
    """Each descriptor kind round-trips the packed binary protocol."""
    prog = _kinds_model()
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    make = KIND_CASES[kind]
    sse = simulate(prog, make(), engine="sse", options=opts)
    (inproc,) = model.run_inproc([(make(), None)])
    assert_results_agree(sse, inproc)


# ----------------------------------------------------------------------
# encoder conformance: the packed record carries every descriptor field
# ----------------------------------------------------------------------
def _expected_record(descriptors, *, steps, time_budget, deadline) -> dict:
    """What ``decode_case_binary`` must return for ``descriptors``, built
    straight from the descriptor objects and the shared field table."""
    return {
        "steps": steps,
        "time_budget": -1.0 if time_budget is None else time_budget,
        "deadline": -1.0 if deadline is None else deadline,
        "ports": [
            {
                **{attr: getattr(d, attr) for attr, _m, _k in DESCRIPTOR_FIELDS},
                "table": tuple(d.table),
            }
            for d in descriptors
        ],
    }


def _assert_same_value(a, b, context):
    if isinstance(a, float) and math.isnan(a):
        assert isinstance(b, float) and math.isnan(b), context
    else:
        assert a == b, context


@pytest.mark.parametrize("kind", sorted(KIND_CASES))
def test_text_and_binary_encodings_agree(kind):
    """The packed record is derived from DESCRIPTOR_FIELDS; every
    stimulus kind's descriptor values (as the Python objects state them)
    must come back identical from ``decode_case_binary``."""
    prog = _kinds_model()
    descriptors = descriptors_for(prog, KIND_CASES[kind](), steps=77)
    binary = encode_case_binary(
        descriptors, steps=77, time_budget=1.5, deadline=None
    )
    via_text = _expected_record(
        descriptors, steps=77, time_budget=1.5, deadline=None
    )
    via_binary = decode_case_binary(binary)
    assert via_text["steps"] == via_binary["steps"] == 77
    _assert_same_value(via_text["time_budget"], via_binary["time_budget"], kind)
    _assert_same_value(via_text["deadline"], via_binary["deadline"], kind)
    assert len(via_text["ports"]) == len(via_binary["ports"])
    for t_port, b_port in zip(via_text["ports"], via_binary["ports"]):
        for attr, _member, _kind in DESCRIPTOR_FIELDS:
            _assert_same_value(t_port[attr], b_port[attr], (kind, attr))
        assert len(t_port["table"]) == len(b_port["table"])
        for tv, bv in zip(t_port["table"], b_port["table"]):
            _assert_same_value(tv, bv, (kind, "table"))


def test_binary_record_rejects_truncation_and_trailing():
    prog = _kinds_model()
    descriptors = descriptors_for(prog, KIND_CASES["sequence"](), steps=10)
    record = encode_case_binary(descriptors, steps=10)
    assert decode_case_binary(record)["steps"] == 10
    from repro.model.errors import SimulationError

    with pytest.raises(SimulationError, match="truncated"):
        decode_case_binary(record[:-4])
    with pytest.raises(SimulationError, match="trailing"):
        decode_case_binary(record + b"\x00" * 8)


# ----------------------------------------------------------------------
# the C-side reader: status codes and the load-time handshake
# ----------------------------------------------------------------------
@requires_cc
def test_library_rejects_malformed_records():
    """The C reader returns -1 for truncated/trailing bytes, -2 for a
    port-count mismatch, -3 for an undersized result buffer — and any
    nonzero status retires the instance."""
    import ctypes

    prog = _kinds_model()
    opts = SimulationOptions(steps=20)
    model = compile_model(prog, opts, cache=False)
    descriptors = descriptors_for(prog, KIND_CASES["constant"](), steps=20)
    record = encode_case_binary(descriptors, steps=20)

    lib = model.load()
    try:
        assert lib._invoke(record[:-8]) == -1  # truncated
        assert lib._invoke(record + b"\x00" * 8) == -1  # trailing bytes
        assert lib._invoke(encode_case_binary(descriptors[:1], steps=20)) == -2
        small = ctypes.create_string_buffer(8)
        assert lib._lib.acc_lib_run_case(record, len(record), small, 8) == -3
        # A good record still runs after the rejected ones.
        assert lib._invoke(record) == 0

        with pytest.raises(LibraryFault, match="-1"):
            lib.run_case(record[:-8])
        assert not lib.healthy  # run_case faults retire the instance
        with pytest.raises(LibraryFault, match="retired"):
            lib.run_case(record)
    finally:
        lib.retire()


@requires_cc
def test_handshake_rejects_abi_and_size_mismatch(monkeypatch):
    prog = _kinds_model()
    opts = SimulationOptions(steps=20)
    model = compile_model(prog, opts, cache=False)
    shared = model.compiled.shared

    with pytest.raises(LibraryFault, match="result size"):
        LoadedModel(shared, result_size=8)

    import repro.inproc.library as library_mod

    monkeypatch.setattr(library_mod, "ABI_VERSION", ABI_VERSION + 1)
    with pytest.raises(LibraryFault, match="ABI version"):
        model.load()


# ----------------------------------------------------------------------
# per-case deadlines, enforced inside the library
# ----------------------------------------------------------------------
@requires_cc
def test_inproc_deadline_trips_as_timeout():
    prog = _kinds_model()
    opts = SimulationOptions(steps=50_000_000, coverage=False, checksum=False)
    model = compile_model(prog, opts, cache=False)
    make = KIND_CASES["sine"]
    outcomes = model.run_inproc(
        [(make(), None), (make(), None)], timeout_seconds=1e-6
    )
    assert len(outcomes) == 2
    assert all(isinstance(o, SimulationTimeout) for o in outcomes)
    # A deadline trip is not a fault: the library stays in service.
    assert model.inproc_available


# ----------------------------------------------------------------------
# fault quarantine: induced library fault falls back to a host process
# ----------------------------------------------------------------------
@requires_cc
def test_induced_fault_quarantines_and_falls_back(zoo_programs):
    prog, stimuli = zoo_programs[sorted(ZOO)[0]]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)

    lib = model.load()
    calls = {"n": 0}
    real_invoke = lib._invoke

    def flaky_invoke(record):
        calls["n"] += 1
        if calls["n"] == 2:
            return -1  # induced in-library fault on the second case
        return real_invoke(record)

    lib._invoke = flaky_invoke
    with telemetry.capture() as session:
        outcomes = model.run_inproc(
            [(stimuli(), None) for _ in range(3)], library=lib
        )
    assert len(outcomes) == 3
    # The fallback is on the record, with the fault that caused it.
    (span,) = [
        s for s in session.tracer.finished() if s.name == "accmos.inproc"
    ]
    assert span.attrs["fallback"] is True
    assert span.attrs["reason"].startswith("LibraryFault: ")
    # Every case — before and after the fault — is byte-identical to SSE.
    for outcome in outcomes:
        assert isinstance(outcome, SimulationResult)
        assert_results_agree(sse, outcome)
    # The fault quarantined the in-process rung for this model…
    assert not lib.healthy
    assert not model.inproc_available
    # …and later batches go straight to the process rungs, still equal.
    again = model.run_inproc([(stimuli(), None)])
    assert_results_agree(sse, again[0])


def _varied_cases(stimuli, opts):
    """Three cases of unequal length, so their bitmaps can differ."""
    return [
        (stimuli(), replace(opts, steps=steps))
        for steps in (STEPS // 4, STEPS, STEPS // 2)
    ]


@requires_cc
@pytest.mark.parametrize("name", sorted(ZOO))
def test_probe_coverage_matches_run_inproc(zoo_programs, name):
    prog, stimuli = zoo_programs[name]
    opts = SimulationOptions(steps=STEPS, coverage=True)
    model = compile_model(prog, opts, cache=False)
    cases = _varied_cases(stimuli, opts)
    expected = [r.coverage.bitmaps for r in model.run_inproc(cases)]
    assert model.probe_coverage(cases) == expected
    assert model.inproc_available


@requires_cc
def test_probe_fault_quarantines_and_falls_back(zoo_programs, monkeypatch):
    """A fault on the second probe quarantines the model; the probes
    left over finish on a host process with the same bitmaps."""
    prog, stimuli = zoo_programs[sorted(ZOO)[0]]
    opts = SimulationOptions(steps=STEPS, coverage=True)
    model = compile_model(prog, opts, cache=False)
    cases = _varied_cases(stimuli, opts)
    expected = [r.coverage.bitmaps for r in model.run_inproc(cases)]

    calls = {"n": 0}
    real_invoke = LoadedModel._invoke

    def flaky_invoke(self, record):
        calls["n"] += 1
        if calls["n"] == 2:
            return -1  # induced in-library fault on the second case
        return real_invoke(self, record)

    monkeypatch.setattr(LoadedModel, "_invoke", flaky_invoke)
    assert model.probe_coverage(cases) == expected
    assert calls["n"] == 2  # the third probe never reached the library
    assert not model.inproc_available


@requires_cc
def test_load_failure_quarantines(zoo_programs, monkeypatch):
    prog, stimuli = zoo_programs[sorted(ZOO)[0]]
    opts = SimulationOptions(steps=STEPS)
    model = compile_model(prog, opts, cache=False)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)

    def broken_load():
        raise LibraryFault("induced load failure")

    monkeypatch.setattr(model, "load", broken_load)
    outcomes = model.run_inproc([(stimuli(), None) for _ in range(2)])
    assert len(outcomes) == 2
    for outcome in outcomes:
        assert_results_agree(sse, outcome, coverage=False, diagnostics=False)
    assert not model.inproc_available


# ----------------------------------------------------------------------
# campaign integration: one gcc, zero process spawns
# ----------------------------------------------------------------------
@requires_cc
def test_campaign_inproc_one_gcc_zero_spawns(zoo_programs, tmp_path, monkeypatch):
    """A cold-cache inproc campaign compiles exactly once (the shared
    object) and never spawns a simulation process."""
    from repro.campaign import run_campaign

    prog, _ = zoo_programs[sorted(ZOO)[0]]
    cache = ArtifactCache(tmp_path / "cache")

    gcc_calls = {"n": 0}
    real_run_compiler = driver_mod._run_compiler

    def counting_compiler(*args, **kwargs):
        gcc_calls["n"] += 1
        return real_run_compiler(*args, **kwargs)

    monkeypatch.setattr(driver_mod, "_run_compiler", counting_compiler)

    def no_spawn(*args, **kwargs):
        raise AssertionError("simulation process spawned on the inproc path")

    monkeypatch.setattr(driver_mod.SimulationServer, "__init__", no_spawn)

    outcome = run_campaign(
        prog, steps=STEPS, max_cases=6, batch_size=3, cache=cache, threads=1,
    )
    assert outcome.n_cases >= 1
    assert gcc_calls["n"] == 1
    assert cache.stats().misses == 1


@requires_cc
def test_campaign_inproc_matches_host_path(zoo_programs):
    """A batched in-process campaign folds exactly like one private host
    run per seed (the per-job path)."""
    from repro.campaign import run_campaign
    from test_scheduler import _serial_oracle

    prog, _ = zoo_programs[sorted(ZOO)[0]]
    kwargs = dict(steps=STEPS, max_cases=4, plateau_patience=3, cache=False)
    via_inproc = run_campaign(prog, batch_size=2, threads=1, **kwargs)
    via_spawn = _serial_oracle(prog, **kwargs)
    assert via_inproc.n_cases == via_spawn.n_cases
    assert via_inproc.saturated == via_spawn.saturated
    assert via_inproc.merged.bitmaps == via_spawn.merged.bitmaps
    for a, b in zip(via_inproc.cases, via_spawn.cases):
        assert (a.seed, a.steps_run, a.new_points) == (
            b.seed, b.steps_run, b.new_points
        )


# ----------------------------------------------------------------------
# validation errors (satellite: reject unknown rungs/engines clearly)
# ----------------------------------------------------------------------
def test_run_fuzz_rejects_unknown_rungs():
    from repro.fuzz import ALL_RUNGS, FuzzConfig, run_fuzz

    with pytest.raises(ValueError) as excinfo:
        run_fuzz(FuzzConfig(cases=1, rungs=["accmos", "warp_drive"]))
    message = str(excinfo.value)
    assert "warp_drive" in message
    for rung in ALL_RUNGS:
        assert rung in message
    assert "accmos_inproc_mt" in ALL_RUNGS


def test_run_campaign_rejects_unknown_engine():
    from repro.campaign import run_campaign
    from repro.engines.api import ENGINES

    b = ModelBuilder("Tiny")
    x = b.inport("X", dtype=I32)
    b.outport("Y", x)
    prog = preprocess(b.build())
    with pytest.raises(ValueError) as excinfo:
        run_campaign(prog, engine="warp", steps=10)
    message = str(excinfo.value)
    assert "warp" in message
    for engine in ENGINES:
        assert engine in message


def test_available_rungs_gates_inproc(monkeypatch):
    """The in-process rungs need exactly what every C rung needs — a
    compiler — since every compiled rung runs the same shared library."""
    import repro.fuzz.oracle as oracle_mod

    monkeypatch.setattr(oracle_mod, "find_c_compiler", lambda: None)
    rungs = oracle_mod.available_rungs()
    assert "accmos_inproc_mt" not in rungs
    assert "accmos" not in rungs
    monkeypatch.setattr(oracle_mod, "find_c_compiler", lambda: "/usr/bin/cc")
    rungs = oracle_mod.available_rungs()
    assert "accmos_inproc_mt" in rungs
    assert "accmos" in rungs


# ----------------------------------------------------------------------
# fuzz oracle rung
# ----------------------------------------------------------------------
@requires_cc
def test_fuzz_oracle_inproc_rung_agrees():
    """The ``accmos`` rung runs its case in-process; it agrees with the
    host stream rung."""
    from repro.fuzz.generate import generate_case
    from repro.fuzz.oracle import run_case

    for index in range(3):
        case = generate_case(1000 + index, max_actors=6, steps=24)
        report = run_case(case, rungs=("accmos", "accmos_stream"))
        assert report.agreed, report.divergences


# ----------------------------------------------------------------------
# one artifact: one cache entry and one gcc per program, every rung
# ----------------------------------------------------------------------
@requires_cc
def test_one_cache_entry_one_gcc_per_program(tmp_path, monkeypatch):
    """The in-process and the host rungs run the same library: one
    cache entry, one program gcc, plus one host build for the cache."""
    prog = _kinds_model()
    opts = SimulationOptions(steps=20)
    cache = ArtifactCache(tmp_path / "cache")
    builds = []
    real_run_compiler = driver_mod._run_compiler

    def counting_compiler(compiler, c_path, out_path, artifact):
        builds.append(artifact)
        return real_run_compiler(compiler, c_path, out_path, artifact)

    monkeypatch.setattr(driver_mod, "_run_compiler", counting_compiler)

    model = compile_model(prog, opts, cache=cache)
    (inproc,) = model.run_inproc([(KIND_CASES["ramp"](), None)])
    (via_host,) = model.run_stream([(KIND_CASES["ramp"](), None)])
    assert_results_agree(inproc, via_host)
    again = compile_model(prog, opts, cache=cache)
    assert again.compiled.cache_hit
    assert again.compiled.shared == model.compiled.shared
    (via_host,) = again.run_stream([(KIND_CASES["ramp"](), None)])
    assert_results_agree(inproc, via_host)
    assert builds == ["shared", "host"]
    stats = cache.stats()
    assert (stats.misses, stats.hits, stats.entries) == (1, 1, 2)


# ----------------------------------------------------------------------
# the precompiled result decoder: typed errors on malformed buffers
# ----------------------------------------------------------------------
def _region_ends(model) -> "dict[str, int]":
    """Byte offset at which each result-buffer region ends, derived from
    the layout independently of the decoder."""
    layout, plan = model.layout, model.plan
    n_out = len(layout.outports)
    ends = {"header": 32}
    words_per_outport = 2 if model.options.checksum else 1
    ends["outputs"] = ends["header"] + 8 * n_out * words_per_outport
    p = plan.points
    cov_words = sum(
        (n + 63) // 64
        for n in (p.n_actor, p.n_condition, p.n_decision, p.n_mcdc)
    )
    ends["coverage"] = ends["outputs"] + 8 * cov_words
    ends["diagnostics"] = ends["coverage"] + 16 * len(layout.diag_slots)
    ends["monitor count"] = ends["diagnostics"] + 8
    return ends


@pytest.fixture(scope="module")
def decoded_case(zoo_programs):
    """One filled result buffer from a model with every region present."""
    prog, stimuli = zoo_programs["logic_decisions"]
    opts = SimulationOptions(steps=40, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    lib = model.load()
    try:
        record = encode_case_binary(
            descriptors_for(prog, stimuli(), steps=40), steps=40
        )
        buf = lib.run_case(record)
    finally:
        lib.retire()
    return model, opts, buf


@requires_cc
def test_decoder_rejects_truncation_at_every_region(decoded_case):
    import struct

    from repro.model.errors import SimulationError

    model, opts, buf = decoded_case
    assert len(buf) == model.decoder.size
    ends = _region_ends(model)
    assert model.layout.diag_slots and model.layout.monitors
    (n_first,) = struct.unpack_from("<Q", buf, ends["diagnostics"])
    assert n_first > 0
    ends["monitor samples"] = ends["monitor count"] + 16 * n_first
    # The full buffer decodes; every cut just short of a region's end
    # raises the typed error, never a bare struct.error.
    model.decoder.decode(buf, model.prog, opts)
    for region, end in ends.items():
        with pytest.raises(SimulationError, match="truncated"):
            model.decoder.decode(buf[: end - 1], model.prog, opts)
        with pytest.raises(SimulationError, match="truncated"):
            model.decoder.decode(buf[: end - 8], model.prog, opts)


@requires_cc
def test_decoder_rejects_monitor_count_above_limit(decoded_case):
    import struct

    from repro.model.errors import SimulationError

    model, opts, buf = decoded_case
    at = _region_ends(model)["diagnostics"]
    forged = bytearray(buf)
    struct.pack_into("<Q", forged, at, opts.monitor_limit + 1)
    with pytest.raises(SimulationError, match="monitor_limit"):
        model.decoder.decode(bytes(forged), model.prog, opts)


@requires_cc
def test_coverage_probe_matches_full_decode(decoded_case):
    model, opts, buf = decoded_case
    full = model.decoder.decode(buf, model.prog, opts)
    assert model.decoder.decode_coverage(buf) == full.coverage.bitmaps


# ----------------------------------------------------------------------
# property: both rungs' binary decode equals the SSE reference
# ----------------------------------------------------------------------
def _canonical(result) -> tuple:
    """Every decoded field, NaN- and sign-exact (``repr`` of floats)."""
    return (
        result.steps_run,
        result.halted_at,
        repr(sorted(result.outputs.items())),
        sorted(result.checksums.items()),
        None if result.coverage is None else result.coverage.bitmaps,
        [(e.path, e.kind.value, e.first_step, e.count, e.message)
         for e in result.diagnostics],
        repr(result.monitored),
    )


@pytest.fixture(scope="module")
def property_cache(tmp_path_factory):
    return ArtifactCache(tmp_path_factory.mktemp("property-cache"))


@requires_cc
@settings(
    max_examples=24,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    name=st.sampled_from(sorted(ZOO)),
    checksum=st.booleans(),
    coverage=st.booleans(),
    diagnostics=st.booleans(),
    monitor_limit=st.sampled_from([1, 3, 7, 256]),
    steps=st.integers(min_value=0, max_value=60),
)
def test_binary_decode_equals_sse(
    zoo_programs, property_cache, name, checksum, coverage, diagnostics,
    monitor_limit, steps,
):
    """Across option shapes, the in-process and the host decodes agree
    field for field, and both agree with SSE."""
    prog, stimuli = zoo_programs[name]
    opts = SimulationOptions(
        steps=steps, checksum=checksum, coverage=coverage,
        diagnostics=diagnostics, monitor_limit=monitor_limit,
    )
    model = compile_model(prog, opts, cache=property_cache)
    (via_host,) = model.run_stream([(stimuli(), None)])
    (via_inproc,) = model.run_inproc([(stimuli(), None)])
    assert model.inproc_available
    assert _canonical(via_inproc) == _canonical(via_host)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)
    assert_results_agree(sse, via_inproc, coverage=coverage,
                         diagnostics=diagnostics)
