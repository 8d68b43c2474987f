"""Persistent --serve servers: streaming submission, incremental parsing.

Pins the PR's core invariant: the warm-server path is a pure throughput
lever — byte-identical results to the SSE reference and the spawn-per-
batch path across the zoo and every stimulus kind, surviving crashes
mid-stream (restart + resubmit), degrading to spawn-per-batch when the
server keeps dying, and bounded by the pool's idle-TTL/LRU lifecycle.
"""

from __future__ import annotations

import os
import time

import pytest

from repro import SimulationOptions, simulate, telemetry
from repro.codegen.driver import (
    ParseTables,
    ServerError,
    SimulationServer,
    split_case_frames,
)
from repro.dtypes import F64, I32
from repro.engines.accmos import ModelServer, compile_model
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
# three-way byte identity: SSE vs run_batch vs server-mode stream
# ----------------------------------------------------------------------
@requires_cc
@pytest.mark.parametrize("name", sorted(ZOO))
def test_stream_matches_sse_and_batch(zoo_programs, name):
    prog, stimuli = zoo_programs[name]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)
    batch = model.run_batch([(stimuli(), None) for _ in range(3)])
    stream = list(model.run_stream([(stimuli(), None) for _ in range(3)]))
    assert len(stream) == 3
    assert_results_agree(sse, stream[0])
    for via_batch, via_stream in zip(batch, stream):
        assert_results_agree(via_batch, via_stream)


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
    """Each descriptor kind round-trips the serve-mode wire protocol."""
    prog = _kinds_model()
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    make = KIND_CASES[kind]
    sse = simulate(prog, make(), engine="sse", options=opts)
    (batch,) = model.run_batch([(make(), None)])
    (stream,) = list(model.run_stream([(make(), None)]))
    assert_results_agree(sse, batch)
    assert_results_agree(sse, stream)


# ----------------------------------------------------------------------
# crash recovery and the fallback ladder
# ----------------------------------------------------------------------
@requires_cc
def test_crash_restarts_and_matches(zoo_programs):
    """Killing the server process externally loses nothing: the handle
    respawns, unfinished cases are resubmitted, and every result is
    byte-identical to the spawn-per-batch path.  The kill lands before
    the first submission so exactly one restart is guaranteed."""
    prog, stimuli = zoo_programs["stateful"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    cases = [(stimuli(), None) for _ in range(5)]
    batch = model.run_batch([(stimuli(), None) for _ in range(5)])

    server = model.serve()
    try:
        os.kill(server.pid, 9)
        got = list(model.run_stream(cases, server=server))
    finally:
        server.close()
    assert len(got) == 5
    assert server.restarts == 1
    for via_batch, via_stream in zip(batch, got):
        assert_results_agree(via_batch, via_stream)


@requires_cc
def test_crash_mid_stream_matches(zoo_programs):
    """An external kill *mid-stream* also preserves identity.  Whether a
    restart is needed depends on how many frames were already buffered
    when the kill landed (at most one restart either way)."""
    prog, stimuli = zoo_programs["stateful"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    cases = [(stimuli(), None) for _ in range(5)]
    batch = model.run_batch([(stimuli(), None) for _ in range(5)])

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
    for via_batch, via_stream in zip(batch, got):
        assert_results_agree(via_batch, via_stream)


@requires_cc
def test_double_crash_falls_back_to_batch(zoo_programs, monkeypatch):
    """When even the restart fails, the stream drops a rung on the
    ladder (server -> spawn-per-batch) and still yields identical
    results for every case."""
    prog, stimuli = zoo_programs["guarded"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    batch = model.run_batch([(stimuli(), None) for _ in range(4)])

    monkeypatch.setattr(
        ModelServer, "restart",
        lambda self: (_ for _ in ()).throw(RuntimeError("no respawn")),
    )
    server = model.serve()
    try:
        os.kill(server.pid, 9)
        got = list(model.run_stream([(stimuli(), None) for _ in range(4)],
                                    server=server))
    finally:
        server.kill()
    assert len(got) == 4
    for via_batch, via_stream in zip(batch, got):
        assert_results_agree(via_batch, via_stream)


@requires_cc
def test_server_error_on_dead_process(zoo_programs):
    prog, stimuli = zoo_programs["int_arith"]
    opts = SimulationOptions(steps=STEPS)
    model = compile_model(prog, opts, cache=False)
    server = SimulationServer(model.compiled)
    assert server.alive
    os.kill(server.pid, 9)
    with pytest.raises(ServerError):
        # The record may or may not make it into the dying pipe; the
        # frame read definitely cannot complete.
        from repro.codegen.descriptor import encode_case
        from repro.codegen.descriptor import descriptors_for

        record = encode_case(
            descriptors_for(prog, stimuli(), steps=STEPS),
            steps=STEPS, deadline=None,
        )
        server.submit(record)
        server.read_frame(timeout=5.0)
    server.kill()
    assert not server.alive


@requires_cc
def test_frame_desync_raises(zoo_programs):
    """A stream whose indices stop matching is killed, not trusted."""
    prog, stimuli = zoo_programs["int_arith"]
    opts = SimulationOptions(steps=STEPS)
    model = compile_model(prog, opts, cache=False)
    server = SimulationServer(model.compiled)
    try:
        server.completed = 7  # simulate lost frames
        from repro.codegen.descriptor import descriptors_for, encode_case

        server.submit(encode_case(
            descriptors_for(prog, stimuli(), steps=STEPS),
            steps=STEPS, deadline=None,
        ))
        with pytest.raises(ServerError, match="desync"):
            server.read_frame(timeout=10.0)
    finally:
        server.kill()


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
    batch = model.run_batch([(stimuli(), None) for _ in range(2)])
    for via_batch, via_pool in zip(batch, first):
        assert_results_agree(via_batch, via_pool)
    for via_batch, via_pool in zip(batch, second):
        assert_results_agree(via_batch, via_pool)


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
# parse satellites
# ----------------------------------------------------------------------
def test_split_case_frames_yields_line_lists():
    stdout = (
        "case 0\nsteps_run 10\nchecksum Out 5\n"
        "case 1\nsteps_run 20\n"
    )
    frames = split_case_frames(stdout)
    assert frames == [
        ["steps_run 10", "checksum Out 5"],
        ["steps_run 20"],
    ]


@requires_cc
def test_parse_result_accepts_line_iterable(zoo_programs):
    """String stdout and its line list parse to the same result; hoisted
    ParseTables change nothing."""
    from repro.codegen.driver import parse_result

    prog, stimuli = zoo_programs["int_arith"]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    from repro.codegen.descriptor import descriptors_for, encode_case

    payload = encode_case(
        descriptors_for(prog, stimuli(), steps=STEPS),
        steps=STEPS, deadline=None,
    )
    stdout = model.compiled.execute(input_text=payload)
    frame = split_case_frames(stdout)[0]
    from_str = parse_result(
        "\n".join(frame), prog, model.plan, model.layout, opts
    )
    tables = ParseTables.for_layout(model.layout)
    from_lines = parse_result(
        frame, prog, model.plan, model.layout, opts, tables=tables
    )
    assert_results_agree(from_str, from_lines)


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
