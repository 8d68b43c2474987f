"""Host processes: streaming submission, incremental decoding.

Every AccMoS case starts in-process; a host serving the program's shared
library is the quarantine rung under a faulted library.  Pins its core
invariant: byte-identical results to the SSE reference across the zoo
and every stimulus kind, surviving crashes mid-stream (respawn +
resubmit), and finishing per job when the host keeps dying.  Host
failures are injected through the one name the engine spawns hosts by,
``repro.engines.accmos.SimulationServer``.
"""

from __future__ import annotations

import os
import subprocess

import pytest

from repro import SimulationOptions, simulate, telemetry
from repro.codegen.descriptor import descriptors_for
from repro.codegen.driver import ServerError, SimulationServer
from repro.dtypes import F64, I32
from repro.engines import accmos as accmos_mod
from repro.engines.accmos import CompiledModel, compile_model
from repro.inproc import LibraryFault, encode_case_binary
from repro.model.builder import ModelBuilder
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

from conftest import requires_cc
from helpers import ZOO, assert_results_agree
from test_inproc import _canonical

STEPS = 200


@pytest.fixture(scope="module")
def zoo_programs():
    programs = {}
    for name, factory in ZOO.items():
        model, stimuli = factory()
        programs[name] = (preprocess(model), stimuli)
    return programs


def _counters(session) -> dict:
    return session.metrics.snapshot()["counters"]


def _spawn_seam(monkeypatch, dead: int = 0) -> list:
    """Record every host the engine spawns; the first ``dead`` of them
    come up already SIGKILLed."""
    real = accmos_mod.SimulationServer
    spawned: list = []

    def spawn(*args, **kwargs):
        server = real(*args, **kwargs)
        if len(spawned) < dead:
            os.kill(server.pid, 9)
        spawned.append(server)
        return server

    monkeypatch.setattr(accmos_mod, "SimulationServer", spawn)
    return spawned


# ----------------------------------------------------------------------
# byte identity: SSE vs a private host per stream
# ----------------------------------------------------------------------
@requires_cc
@pytest.mark.parametrize("name", sorted(ZOO))
def test_stream_matches_sse_and_batch(zoo_programs, name):
    """Every case of three streams, each on its own private host, is
    byte-identical to SSE, and no host needed a respawn."""
    prog, stimuli = zoo_programs[name]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)
    with telemetry.capture() as session:
        got = [
            outcome
            for _ in range(3)
            for outcome in model.run_stream(
                [(stimuli(), None) for _ in range(3)]
            )
        ]
    counters = _counters(session)
    assert counters["runner.server.spawns"] == 3
    assert "runner.server.restarts" not in counters
    assert len(got) == 9
    for outcome in got:
        assert_results_agree(sse, outcome)


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
def test_stream_identity_every_stimulus_kind(kind):
    """Each descriptor kind round-trips the host's wire protocol."""
    prog = _kinds_model()
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    make = KIND_CASES[kind]
    sse = simulate(prog, make(), engine="sse", options=opts)
    assert_results_agree(sse, model.run(make()))
    (stream,) = list(model.run_stream([(make(), None)]))
    assert_results_agree(sse, stream)


# ----------------------------------------------------------------------
# crash recovery and the fallback ladder
# ----------------------------------------------------------------------
def _record(prog, stimuli):
    return encode_case_binary(
        descriptors_for(prog, stimuli, steps=STEPS), steps=STEPS
    )


def _server(model, **kwargs) -> SimulationServer:
    return SimulationServer(
        model.compiled.ensure_host(), model.compiled.shared,
        result_size=model.decoder.size, **kwargs,
    )


@requires_cc
def test_crash_restarts_and_matches(zoo_programs, monkeypatch):
    """Killing the host process externally loses nothing: the stream
    respawns it, resubmits the unfinished cases, and every result is
    byte-identical to SSE.  The kill lands before the first submission
    so exactly one restart is guaranteed."""
    prog, stimuli = zoo_programs["stateful"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    cases = [(stimuli(), None) for _ in range(5)]
    sse = simulate(prog, stimuli(), engine="sse", options=opts)

    spawned = _spawn_seam(monkeypatch, dead=1)
    with telemetry.capture() as session:
        got = list(model.run_stream(cases))
    assert len(got) == 5
    assert len(spawned) == 2
    assert _counters(session)["runner.server.restarts"] == 1
    assert not any(server.alive for server in spawned)
    for via_stream in got:
        assert_results_agree(sse, via_stream)


@requires_cc
def test_crash_mid_stream_matches(zoo_programs, monkeypatch):
    """A host SIGKILLed *mid-stream* is respawned and the unfinished
    cases are resubmitted, byte-identical to SSE.  Whether a restart is
    needed depends on how many frames were already buffered when the
    kill landed (at most one restart either way)."""
    prog, stimuli = zoo_programs["stateful"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    cases = [(stimuli(), None) for _ in range(5)]
    sse = simulate(prog, stimuli(), engine="sse", options=opts)

    spawned = _spawn_seam(monkeypatch)
    it = model.run_stream(cases)
    first = next(it)
    os.kill(spawned[0].pid, 9)
    got = [first] + list(it)
    assert len(got) == 5
    assert len(spawned) <= 2
    for via_stream in got:
        assert_results_agree(sse, via_stream)


@requires_cc
def test_double_crash_finishes_per_job(zoo_programs, monkeypatch):
    """Two host failures in a row: the stream raises ServerError, and the
    batched dispatcher retries each job on its own on the chunk's
    compiled model — every job still byte-identical to SSE.  In the
    dispatcher the host is the rung under a quarantined in-process
    library, so the library is made to fail first."""
    from repro.runner.jobs import SimulationJob, run_job_batch

    prog, stimuli = zoo_programs["guarded"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)

    spawned = _spawn_seam(monkeypatch, dead=2)
    with pytest.raises(ServerError):
        list(model.run_stream([(stimuli(), None)] * 4))
    assert len(spawned) == 2

    def no_library(self):
        raise LibraryFault("induced load failure")

    def no_recompile(*args, **kwargs):
        raise AssertionError("a per-job retry recompiled")

    # The chunk's first two hosts (its stream and that stream's respawn)
    # come up dead; each job's own retry then gets a live one.
    spawned = _spawn_seam(monkeypatch, dead=2)
    monkeypatch.setattr(CompiledModel, "_acquire_instance", no_library)
    real_compile = accmos_mod.compile_model
    compiles = []

    def compile_once(*args, **kwargs):
        monkeypatch.setattr(accmos_mod, "compile_model", no_recompile)
        compiles.append(args)
        return real_compile(*args, **kwargs)

    monkeypatch.setattr(accmos_mod, "compile_model", compile_once)
    jobs = [
        SimulationJob(prog=prog, options=opts, stimuli=stimuli(), seed=s)
        for s in range(4)
    ]
    with telemetry.capture() as session:
        results = run_job_batch(jobs, cache=False)
    assert _counters(session)["runner.batch_fallbacks"] == 1
    assert len(compiles) == 1
    assert len(spawned) == 2 + 4
    assert [r.outcome for r in results] == ["ok"] * 4
    for result in results:
        assert_results_agree(sse, result.result)


@requires_cc
def test_server_error_on_dead_process(zoo_programs):
    prog, stimuli = zoo_programs["int_arith"]
    opts = SimulationOptions(steps=STEPS)
    model = compile_model(prog, opts, cache=False)
    server = _server(model)
    assert server.alive
    os.kill(server.pid, 9)
    with pytest.raises(ServerError):
        # The record may or may not make it into the dying pipe; the
        # frame read definitely cannot complete.
        server.submit(_record(prog, stimuli()))
        server.read_frame(timeout=5.0)
    server.kill()
    assert not server.alive


@requires_cc
def test_frame_desync_raises(zoo_programs):
    """A frame whose case index is not the next one expected is a
    desync: the stream is killed, not trusted."""
    prog, stimuli = zoo_programs["int_arith"]
    opts = SimulationOptions(steps=STEPS)
    model = compile_model(prog, opts, cache=False)
    server = _server(model)
    try:
        server.completed = 7  # simulate lost frames
        server.submit(_record(prog, stimuli()))
        with pytest.raises(ServerError, match="desync"):
            server.read_frame(timeout=10.0)
    finally:
        server.kill()


@requires_cc
def test_handshake_mismatch_raises_the_loaders_error(zoo_programs, monkeypatch):
    """A library whose ABI version or result size disagrees with this
    side fails the host's handshake with the very error an in-process
    load raises, and leaves no process behind."""
    from repro.inproc import ABI_VERSION, LoadedModel
    import repro.inproc.library as library_mod

    prog, stimuli = zoo_programs["int_arith"]
    model = compile_model(prog, SimulationOptions(steps=STEPS), cache=False)
    host, shared = model.compiled.ensure_host(), model.compiled.shared
    wrong = model.decoder.size + 8
    with pytest.raises(LibraryFault) as via_host:
        SimulationServer(host, shared, result_size=wrong)
    with pytest.raises(LibraryFault) as via_load:
        LoadedModel(shared, result_size=wrong)
    assert str(via_host.value) == str(via_load.value)
    assert "result size" in str(via_host.value)

    monkeypatch.setattr(library_mod, "ABI_VERSION", ABI_VERSION + 1)
    with pytest.raises(LibraryFault) as via_host:
        list(model.run_stream([(stimuli(), None)]))
    with pytest.raises(LibraryFault) as via_load:
        model.load()
    assert str(via_host.value) == str(via_load.value)
    assert "ABI version" in str(via_host.value)


@requires_cc
def test_missing_library_exits_nonzero_with_stderr(zoo_programs, tmp_path):
    prog, _ = zoo_programs["int_arith"]
    model = compile_model(prog, SimulationOptions(steps=STEPS), cache=False)
    missing = tmp_path / "gone.so"
    with pytest.raises(ServerError) as excinfo:
        SimulationServer(
            model.compiled.ensure_host(), missing,
            result_size=model.decoder.size,
        )
    message = str(excinfo.value)
    assert "exit 3" in message
    assert "gone.so" in message


def test_cli_serve_flag():
    """The warm-host pool is gone, and so are ``--serve``/``--no-serve``:
    argparse rejects them (exit 2) instead of ignoring them."""
    from repro.cli import build_parser

    parser = build_parser()
    assert not hasattr(parser.parse_args(["campaign", "m.xml"]), "serve")
    for flag in ("--serve", "--no-serve"):
        with pytest.raises(SystemExit) as excinfo:
            parser.parse_args(["campaign", "m.xml", flag])
        assert excinfo.value.code == 2


# ----------------------------------------------------------------------
# frame decoding
# ----------------------------------------------------------------------
@requires_cc
def test_decoder_accepts_host_frames(zoo_programs):
    """A host frame (a view into the received bytes) decodes exactly
    like the same bytes copied out, and like the in-process buffer."""
    prog, stimuli = zoo_programs["int_arith"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    record = _record(prog, stimuli())
    server = _server(model)
    try:
        server.submit(record)
        frame = server.read_frame(timeout=10.0)
    finally:
        server.close()
    assert len(frame) == model.decoder.size
    lib = model.load()
    try:
        inproc = lib.run_case(record)
    finally:
        lib.retire()
    from_view = model.decoder.decode(frame, prog, opts)
    assert_results_agree(from_view, model.decoder.decode(bytes(frame), prog, opts))
    assert_results_agree(from_view, model.decoder.decode(inproc, prog, opts))


@requires_cc
def test_execute_records_stdout_bytes(zoo_programs):
    prog, stimuli = zoo_programs["int_arith"]
    opts = SimulationOptions(steps=STEPS)
    session = telemetry.enable()
    try:
        model = compile_model(prog, opts, cache=False)
        list(model.run_stream([(stimuli(), None)]))
    finally:
        telemetry.disable()
    snap = session.metrics.snapshot()
    hist = snap["histograms"]["engine.accmos.stdout_bytes"]
    assert hist["count"] == 1
    assert hist["sum"] > 0


# ----------------------------------------------------------------------
# single runs: in-process first, one host only under a faulted library
# ----------------------------------------------------------------------
def _single_runs(prog, stimuli, opts, cache):
    """The same case through ``simulate`` and ``run_job``."""
    from repro.runner import SimulationJob, run_job

    via_simulate = simulate(prog, stimuli(), engine="accmos", options=opts)
    job = run_job(
        SimulationJob(prog=prog, options=opts, stimuli=stimuli()),
        cache=cache,
    )
    assert job.ok, job.error
    return via_simulate, job.result


@requires_cc
def test_single_runs_spawn_no_process(zoo_programs, tmp_path, monkeypatch):
    """With a warm cache, ``simulate(engine="accmos")`` and ``run_job``
    on an AccMoS job run in-process: process creation is poisoned, and
    both still equal SSE."""
    from repro.runner import ArtifactCache, set_default_cache

    prog, stimuli = zoo_programs["guarded"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    cache = ArtifactCache(tmp_path / "cache")
    previous = set_default_cache(cache)
    try:
        _single_runs(prog, stimuli, opts, cache)  # warm the cache

        def no_spawn(*args, **kwargs):
            raise AssertionError("a single run spawned a process")

        monkeypatch.setattr(subprocess, "Popen", no_spawn)
        via_simulate, via_job = _single_runs(prog, stimuli, opts, cache)
    finally:
        set_default_cache(previous)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)
    assert_results_agree(sse, via_simulate)
    assert_results_agree(sse, via_job)


@requires_cc
def test_single_run_under_library_fault_uses_one_host(
    zoo_programs, tmp_path, monkeypatch
):
    """A faulted in-process library sends each kind of single run —
    ``CompiledModel.run``, ``simulate`` and ``run_job`` — to exactly one
    host, with byte-identical results; the in-process span names the
    fault it fell back on."""
    from repro.runner import (
        ArtifactCache, SimulationJob, run_job, set_default_cache,
    )

    prog, stimuli = zoo_programs["guarded"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    cache = ArtifactCache(tmp_path / "cache")
    inproc = compile_model(prog, opts, cache=cache).run(stimuli())

    def no_library(self):
        raise LibraryFault("induced load failure")

    monkeypatch.setattr(CompiledModel, "_acquire_instance", no_library)
    single_runs = {
        "run": lambda: compile_model(prog, opts, cache=cache).run(stimuli()),
        "simulate": lambda: simulate(
            prog, stimuli(), engine="accmos", options=opts
        ),
        "run_job": lambda: run_job(
            SimulationJob(prog=prog, options=opts, stimuli=stimuli()),
            cache=cache,
        ).result,
    }
    previous = set_default_cache(cache)
    try:
        for name, single_run in single_runs.items():
            with telemetry.capture() as session:
                got = single_run()
            assert _counters(session)["runner.server.spawns"] == 1, name
            assert _canonical(got) == _canonical(inproc), name
            (span,) = [
                s for s in session.tracer.finished()
                if s.name == "accmos.inproc"
            ]
            assert span.attrs["fallback"] is True, name
            assert span.attrs["reason"] == (
                "LibraryFault: induced load failure"
            ), name
    finally:
        set_default_cache(previous)
