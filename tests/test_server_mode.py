"""Host processes: streaming submission, incremental decoding.

Pins the core invariant of the process rungs: a host serving the
program's shared library is a pure throughput lever — byte-identical
results to the SSE reference across the zoo and every stimulus kind,
whether the host is private to one batch or pooled and warm, surviving
crashes mid-stream (restart + resubmit), finishing per job when the host
keeps dying, and bounded by the pool's idle-TTL/LRU lifecycle.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import SimulationOptions, simulate, telemetry
from repro.codegen.descriptor import descriptors_for
from repro.codegen.driver import ServerError, SimulationServer
from repro.dtypes import F64, I32
from repro.engines.accmos import ModelServer, compile_model
from repro.inproc import LibraryFault, encode_case_binary
from repro.model.builder import ModelBuilder
from repro.runner.cache import ArtifactCache
from repro.runner.costmodel import FLAP_PENALTY, CostModelStore
from repro.runner.servers import (
    FLAP_RESTART_THRESHOLD,
    ServerPool,
    merge_server_stats,
)
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

STEPS = 200


@pytest.fixture(scope="module")
def zoo_programs():
    programs = {}
    for name, factory in ZOO.items():
        model, stimuli = factory()
        programs[name] = (preprocess(model), stimuli)
    return programs


# ----------------------------------------------------------------------
# byte identity: SSE vs a private host per batch vs a pooled warm host
# ----------------------------------------------------------------------
@requires_cc
@pytest.mark.parametrize("name", sorted(ZOO))
def test_stream_matches_sse_and_batch(zoo_programs, name):
    """Every case of a batch on a private host, and of a batch streamed
    through a pooled warm host, is byte-identical to SSE."""
    prog, stimuli = zoo_programs[name]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)
    batch = list(model.run_stream([(stimuli(), None) for _ in range(3)]))
    with ServerPool() as pool:
        pooled = pool.run_batch(model, [(stimuli(), None) for _ in range(3)])
    assert len(batch) == len(pooled) == 3
    for got in batch + pooled:
        assert_results_agree(sse, got)


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
def test_crash_restarts_and_matches(zoo_programs):
    """Killing the host process externally loses nothing: the handle
    respawns, unfinished cases are resubmitted, and every result is
    byte-identical to SSE.  The kill lands before the first submission
    so exactly one restart is guaranteed."""
    prog, stimuli = zoo_programs["stateful"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    cases = [(stimuli(), None) for _ in range(5)]
    sse = simulate(prog, stimuli(), engine="sse", options=opts)

    server = model.serve()
    try:
        os.kill(server.pid, 9)
        got = list(model.run_stream(cases, server=server))
    finally:
        server.close()
    assert len(got) == 5
    assert server.restarts == 1
    for via_stream in got:
        assert_results_agree(sse, via_stream)


@requires_cc
def test_crash_mid_stream_matches(zoo_programs):
    """A host SIGKILLed *mid-stream* is restarted and the unfinished
    cases are resubmitted, byte-identical to SSE.  Whether a restart is
    needed depends on how many frames were already buffered when the
    kill landed (at most one restart either way)."""
    prog, stimuli = zoo_programs["stateful"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    cases = [(stimuli(), None) for _ in range(5)]
    sse = simulate(prog, stimuli(), engine="sse", options=opts)

    server = model.serve()
    try:
        it = model.run_stream(cases, server=server)
        first = next(it)
        os.kill(server.pid, 9)
        rest = list(it)
    finally:
        server.close()
    got = [first] + rest
    assert len(got) == 5
    assert server.restarts <= 1
    for via_stream in got:
        assert_results_agree(sse, via_stream)


@requires_cc
def test_double_crash_finishes_per_job(zoo_programs, monkeypatch):
    """Two host failures in a row: the stream raises ServerError, and the
    batched dispatcher finishes the group per job — every job still
    byte-identical to SSE."""
    from repro.runner.jobs import SimulationJob, run_job_batch

    prog, stimuli = zoo_programs["guarded"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)

    def no_respawn(self):
        raise ServerError("no respawn")

    monkeypatch.setattr(ModelServer, "restart", no_respawn)
    server = model.serve()
    try:
        os.kill(server.pid, 9)
        with pytest.raises(ServerError, match="no respawn"):
            list(model.run_stream([(stimuli(), None)] * 4, server=server))
    finally:
        server.kill()

    class DeadPool(ServerPool):
        """Hands out a host that is already dead."""

        def acquire(self, model):
            server = super().acquire(model)
            os.kill(server.pid, 9)
            return server

    jobs = [
        SimulationJob(prog=prog, options=opts, stimuli=stimuli(), seed=s)
        for s in range(4)
    ]
    with DeadPool() as pool, telemetry.capture() as session:
        results = run_job_batch(jobs, cache=False, server_pool=pool)
    assert session.metrics.snapshot()["counters"]["runner.batch_fallbacks"] == 1
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

    prog, _ = zoo_programs["int_arith"]
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
        model.serve()
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


# ----------------------------------------------------------------------
# warm-server pool lifecycle
# ----------------------------------------------------------------------
@requires_cc
def test_pool_reuses_warm_server(zoo_programs):
    prog, stimuli = zoo_programs["int_arith"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    with ServerPool(max_servers=2) as pool:
        first = pool.run_batch(model, [(stimuli(), None) for _ in range(2)])
        second = pool.run_batch(model, [(stimuli(), None) for _ in range(2)])
        stats = pool.stats()
    assert stats["spawns"] == 1
    assert stats["reuses"] == 1
    sse = simulate(prog, stimuli(), engine="sse", options=opts)
    for via_pool in first + second:
        assert_results_agree(sse, via_pool)


@requires_cc
def test_pool_lru_bound_retires_oldest(zoo_programs):
    prog_a, stim_a = zoo_programs["int_arith"]
    prog_b, stim_b = zoo_programs["unsigned"]
    opts = SimulationOptions(steps=STEPS)
    model_a = compile_model(prog_a, opts, cache=False)
    model_b = compile_model(prog_b, opts, cache=False)
    with ServerPool(max_servers=1) as pool:
        pool.run_batch(model_a, [(stim_a(), None)])
        assert pool.active == 1
        pool.run_batch(model_b, [(stim_b(), None)])
        assert pool.active == 1  # a's server was evicted, LRU-first
        stats = pool.stats()
        assert stats["retired_lru"] == 1
        # b is warm, a needs a respawn
        pool.run_batch(model_b, [(stim_b(), None)])
        pool.run_batch(model_a, [(stim_a(), None)])
        stats = pool.stats()
    assert stats["spawns"] == 3
    assert stats["reuses"] == 1


@requires_cc
def test_pool_idle_ttl_retires(zoo_programs):
    prog, stimuli = zoo_programs["int_arith"]
    opts = SimulationOptions(steps=STEPS)
    model = compile_model(prog, opts, cache=False)
    now = [0.0]
    pool = ServerPool(max_servers=4, idle_ttl_seconds=10.0,
                      _clock=lambda: now[0])
    try:
        pool.run_batch(model, [(stimuli(), None)])
        assert pool.active == 1
        now[0] = 11.0  # past the TTL: the sweep on next acquire retires it
        pool.run_batch(model, [(stimuli(), None)])
        stats = pool.stats()
        assert stats["retired_idle"] == 1
        assert stats["spawns"] == 2
        assert stats["reuses"] == 0
    finally:
        pool.close()


@requires_cc
def test_pool_retires_dead_server_and_respawns(zoo_programs):
    prog, stimuli = zoo_programs["int_arith"]
    opts = SimulationOptions(steps=STEPS)
    model = compile_model(prog, opts, cache=False)
    with ServerPool() as pool:
        handle = pool.acquire(model)
        pid = handle.pid
        pool.release(model, handle)
        os.kill(pid, 9)
        time.sleep(0.05)  # let the process die
        again = pool.acquire(model)
        assert again.pid != pid
        assert again.alive
        pool.release(model, again)
        stats = pool.stats()
    assert stats["retired_error"] == 1
    assert stats["spawns"] == 2


def test_merge_server_stats():
    assert merge_server_stats(None, None) is None
    acc = merge_server_stats(None, {"spawns": 2, "reuses": 1})
    acc = merge_server_stats(acc, {"spawns": 1, "restarts": 3})
    assert acc["spawns"] == 3
    assert acc["reuses"] == 1
    assert acc["restarts"] == 3


# ----------------------------------------------------------------------
# flap detection: restart counters feed cost admission
# ----------------------------------------------------------------------
class TestFlapDetection:
    """Counter-driven: note_restarts is the same entry point run_batch
    calls after a stream restarts its server, so these tests exercise
    the full admission-feedback path without needing a compiler."""

    def test_below_threshold_no_penalty(self):
        store = CostModelStore(None)
        with ServerPool(cost_store=store, flap_restart_threshold=3) as pool:
            assert pool.note_restarts("art", 2, cost_key="k") is False
            assert pool.restart_count("art") == 2
            assert store.model("k").penalty == 1.0
            assert store.generation == 0
            assert pool.stats()["flapped_artifacts"] == 0

    def test_threshold_crossing_penalizes_once(self):
        store = CostModelStore(None)
        baseline = store.predict("k", 10_000, 10)
        with ServerPool(cost_store=store, flap_restart_threshold=3) as pool:
            assert pool.note_restarts("art", 1, cost_key="k") is False
            # Restarts accumulate across streams; the third one trips it.
            assert pool.note_restarts("art", 2, cost_key="k") is True
            assert pool.restart_count("art") == 3
            assert store.model("k").penalty == FLAP_PENALTY
            assert store.predict("k", 10_000, 10) == pytest.approx(
                baseline * FLAP_PENALTY
            )
            assert store.generation == 1
            assert pool.stats()["flapped_artifacts"] == 1
            # Fires once per artifact: more flapping neither re-counts
            # nor multiplies the penalty forever.
            assert pool.note_restarts("art", 5, cost_key="k") is False
            assert pool.restart_count("art") == 8
            assert store.model("k").penalty == FLAP_PENALTY
            assert store.generation == 1
            assert pool.stats()["flapped_artifacts"] == 1

    def test_zero_restarts_never_counted(self):
        with ServerPool() as pool:
            assert pool.note_restarts("art", 0, cost_key="k") is False
            assert pool.note_restarts("art", -1, cost_key="k") is False
            assert pool.restart_count("art") == 0
            assert pool.artifact_stats() == {}

    def test_custom_penalty_and_threshold(self):
        store = CostModelStore(None)
        with ServerPool(
            cost_store=store, flap_restart_threshold=1, flap_penalty=16.0
        ) as pool:
            assert pool.note_restarts("art", 1, cost_key="k") is True
            assert store.model("k").penalty == 16.0

    def test_flap_without_store_or_key_still_detected(self):
        """Detection is independent of the demotion plumbing: a pool
        without a cost store (or a caller without a key) still counts."""
        with ServerPool(flap_restart_threshold=2) as pool:
            assert pool.note_restarts("art", 2, cost_key=None) is True
            assert pool.stats()["flapped_artifacts"] == 1
        store = CostModelStore(None)
        with ServerPool(cost_store=store, flap_restart_threshold=2) as pool:
            assert pool.note_restarts("art", 2, cost_key=None) is True
            assert store.generation == 0  # no key, no demotion

    def test_per_artifact_isolation(self):
        store = CostModelStore(None)
        with ServerPool(cost_store=store, flap_restart_threshold=3) as pool:
            pool.note_restarts("a", 2, cost_key="ka")
            pool.note_restarts("b", 2, cost_key="kb")
            assert pool.stats()["flapped_artifacts"] == 0
            assert pool.note_restarts("a", 1, cost_key="ka") is True
            assert store.model("ka").penalty == FLAP_PENALTY
            assert store.model("kb").penalty == 1.0
            stats = pool.artifact_stats()
            assert stats["a"]["restarts"] == 3
            assert stats["b"]["restarts"] == 2

    def test_default_threshold_sane(self):
        assert FLAP_RESTART_THRESHOLD >= 2
        with pytest.raises(ValueError):
            ServerPool(flap_restart_threshold=0)


@requires_cc
def test_pool_artifact_counters_track_reuse(zoo_programs):
    prog, stimuli = zoo_programs["int_arith"]
    opts = SimulationOptions(steps=STEPS)
    model = compile_model(prog, opts, cache=False)
    with ServerPool(max_servers=2) as pool:
        pool.run_batch(model, [(stimuli(), None)])
        pool.run_batch(model, [(stimuli(), None)])
        key = ServerPool.artifact_key(model)
        stats = pool.artifact_stats()
    assert stats[key] == {"spawns": 1, "reuses": 1, "restarts": 0}


# ----------------------------------------------------------------------
# campaign: spawn bound + identity
# ----------------------------------------------------------------------
@requires_cc
def test_campaign_server_mode_spawn_bound(zoo_programs, tmp_path):
    """Cold-cache N-case single-artifact campaign in server mode: exactly
    one compiler invocation, at most ``workers`` process spawns, and a
    byte-identical outcome to serial non-server execution."""
    from repro.campaign import run_campaign

    prog, _ = zoo_programs["guarded"]
    workers = 2
    common = dict(steps=STEPS, max_cases=12, plateau_patience=12)
    serial = run_campaign(prog, workers=1, batch_size=1, cache=False,
                          serve=False, **common)
    cache = ArtifactCache(tmp_path / "cache")
    served = run_campaign(prog, workers=workers, batch_size=3, cache=cache,
                          serve=True, **common)

    assert cache.stats().misses == 1  # exactly one gcc for the campaign
    assert served.server_stats is not None
    assert 1 <= served.server_stats["spawns"] <= workers
    assert served.server_stats["restarts"] == 0

    assert [c.seed for c in served.cases] == [c.seed for c in serial.cases]
    for a, b in zip(serial.cases, served.cases):
        assert (a.steps_run, a.new_points, a.n_diagnostics,
                a.new_points_by_metric) == (
            b.steps_run, b.new_points, b.n_diagnostics,
            b.new_points_by_metric)
    assert served.merged.bitmaps == serial.merged.bitmaps
    assert [(str(e), s) for e, s in served.diagnostics] == [
        (str(e), s) for e, s in serial.diagnostics
    ]
    assert served.saturated == serial.saturated


@requires_cc
def test_campaign_no_serve_has_no_server_stats(zoo_programs):
    from repro.campaign import run_campaign

    prog, _ = zoo_programs["int_arith"]
    outcome = run_campaign(prog, steps=STEPS, max_cases=2,
                           plateau_patience=2, batch_size=2,
                           cache=False, serve=False)
    assert outcome.server_stats is None


def test_cli_serve_flag():
    from repro.cli import build_parser

    parser = build_parser()
    assert parser.parse_args(["campaign", "m.xml"]).serve is True
    assert parser.parse_args(["campaign", "m.xml", "--no-serve"]).serve is False


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
        model.run(stimuli())
    finally:
        telemetry.disable()
    snap = session.metrics.snapshot()
    hist = snap["histograms"]["engine.accmos.stdout_bytes"]
    assert hist["count"] == 1
    assert hist["sum"] > 0
