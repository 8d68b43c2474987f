"""The per-program codegen memo behind ``compile_model``.

Codegen runs once per (program, structural options); every later
``compile_model`` call reuses the generated source, layout and result
decoder, yet still goes through the artifact-cache lookup and still
returns a handle of its own.  These tests pin each half of that
contract, plus the memo's lifetime rules: entries die with their
program, and a recycled ``id`` never aliases a dead program's source.
"""

from __future__ import annotations

import gc

import pytest

from repro import SimulationOptions, telemetry
from repro.campaign import run_campaign
from repro.codegen import driver as driver_mod
from repro.dtypes import F64
from repro.engines import accmos as accmos_mod
from repro.engines.accmos import compile_model
from repro.inproc import LibraryFault
from repro.model.builder import ModelBuilder
from repro.runner import cache as cache_mod
from repro.runner.cache import ArtifactCache
from repro.schedule import preprocess
from repro.stimuli import default_stimuli

from conftest import requires_cc
from helpers import assert_results_agree



def _gain_program(gain: float):
    """Same model name, same actor count: only a parameter differs."""
    b = ModelBuilder("MemoTwin")
    x = b.inport("X", dtype=F64)
    b.outport("Y", b.gain("G", x, gain, dtype=F64))
    return preprocess(b.build())


def _codegen_spans(session) -> int:
    return sum(1 for span in session.tracer.finished() if span.name == "codegen")


@pytest.fixture
def gcc_calls(monkeypatch):
    calls = {"n": 0}
    real = driver_mod._run_compiler

    def counting(*args, **kwargs):
        calls["n"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(driver_mod, "_run_compiler", counting)
    return calls


@requires_cc
def test_twin_programs_never_share_an_entry(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    opts = SimulationOptions(steps=10)
    first = _gain_program(2.0)
    second = _gain_program(3.0)
    assert first.model.name == second.model.name
    assert len(first.actors) == len(second.actors)

    a = compile_model(first, opts, cache=cache)
    b = compile_model(second, opts, cache=cache)
    assert a.source != b.source
    assert a.compiled.cache_key != b.compiled.cache_key
    stimuli = default_stimuli(first, seed=4)
    assert a.run(stimuli).outputs != b.run(stimuli).outputs


@requires_cc
def test_each_call_returns_a_fresh_handle(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    prog = _gain_program(2.0)
    opts = SimulationOptions(steps=10)
    with telemetry.capture() as session:
        first = compile_model(prog, opts, cache=cache)
        second = compile_model(prog, opts, cache=cache)
    assert _codegen_spans(session) == 1
    assert first is not second
    # The memo hit reused the codegen product and spent no codegen time.
    assert second.source is first.source
    assert second.decoder is first.decoder
    assert second.generate_seconds == 0.0
    assert second.cache_hit

    first._quarantine_inproc(LibraryFault("induced"))
    assert not first.inproc_available
    assert second.inproc_available
    assert compile_model(prog, opts, cache=cache).inproc_available


@requires_cc
def test_evicted_entry_recompiles_on_a_memo_hit(tmp_path, gcc_calls):
    cache = ArtifactCache(tmp_path / "cache")
    prog = _gain_program(2.0)
    opts = SimulationOptions(steps=10)
    compile_model(prog, opts, cache=cache)
    assert (gcc_calls["n"], cache.stats().misses) == (1, 1)

    compile_model(prog, opts, cache=cache)
    assert (gcc_calls["n"], cache.stats().hits) == (1, 1)

    assert cache.clear() == 1
    again = compile_model(prog, opts, cache=cache)
    assert not again.cache_hit
    assert (gcc_calls["n"], cache.stats().misses) == (2, 2)

    # A damaged entry (artifact gone, source kept) is a miss as well.
    again.compiled.shared.unlink()
    compile_model(prog, opts, cache=cache)
    assert (gcc_calls["n"], cache.stats().misses) == (3, 3)


@requires_cc
@pytest.mark.parametrize("bypass", ["no-cache", "default-cache-off"])
def test_uncached_compiles_bypass_the_memo(monkeypatch, bypass):
    """``cache=False`` and a disabled default cache both regenerate the
    source on every call."""
    cache = False
    if bypass == "default-cache-off":
        cache = None
        monkeypatch.setenv(cache_mod.CACHE_DISABLE_ENV, "1")
        monkeypatch.setattr(cache_mod, "_default_cache", None)
        monkeypatch.setattr(cache_mod, "_default_resolved", False)
    prog = _gain_program(2.0)
    opts = SimulationOptions(steps=10)
    with telemetry.capture() as session:
        for _ in range(2):
            model = compile_model(prog, opts, cache=cache)
            assert model.generate_seconds > 0.0
            assert not model.cache_hit
    assert _codegen_spans(session) == 2


@requires_cc
def test_entries_die_with_their_program(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    opts = SimulationOptions(steps=10)
    programs = accmos_mod._CODEGEN_MEMO._programs
    gc.collect()
    before = len(programs)
    for gain in (2.0, 3.0, 4.0):
        compile_model(_gain_program(gain), opts, cache=cache)
    gc.collect()
    assert len(programs) == before

    prog = _gain_program(5.0)
    compile_model(prog, opts, cache=cache)
    assert len(programs) == before + 1
    del prog
    gc.collect()
    assert len(programs) == before


def test_memo_holds_a_bounded_number_of_shapes_per_program():
    memo = accmos_mod._CodegenMemo()
    prog = _gain_program(2.0)
    builds = []

    def build(tag):
        builds.append(tag)
        return tag

    for tag in range(memo.PER_PROGRAM + 3):
        assert memo.get(prog, (tag,), lambda: build(tag)) == (tag, False)
    assert memo.get(prog, (memo.PER_PROGRAM + 2,), lambda: build(-1)) == (
        memo.PER_PROGRAM + 2, True,
    )
    # The oldest shapes were evicted and rebuild on demand.
    assert memo.get(prog, (0,), lambda: build("again")) == ("again", False)
    assert -1 not in builds


def test_recycled_id_never_aliases_a_dead_program():
    """A stale slot whose program died (its weakref is dead) under the
    same ``id`` must rebuild, never serve the dead program's entry."""
    memo = accmos_mod._CodegenMemo()
    prog = _gain_program(2.0)
    memo.get(prog, ("fp",), lambda: "live")

    class _Dead:
        def __call__(self):
            return None

    memo._programs[id(prog)] = (_Dead(), {("fp",): "dead"})
    assert memo.get(prog, ("fp",), lambda: "rebuilt") == ("rebuilt", False)


@requires_cc
def test_cold_campaign_runs_one_codegen_and_one_gcc(tmp_path, gcc_calls):
    prog = _gain_program(2.0)
    cache = ArtifactCache(tmp_path / "cache")
    with telemetry.capture() as session:
        outcome = run_campaign(
            prog, steps=32, max_cases=64, plateau_patience=64,
            cache=cache, threads=2,
        )
    assert outcome.n_cases == 64
    assert _codegen_spans(session) == 1
    assert gcc_calls["n"] == 1

    reference = run_campaign(
        prog, engine="sse", steps=32, max_cases=64, plateau_patience=64,
    )
    for via_accmos, via_sse in zip(outcome.cases, reference.cases):
        assert (via_accmos.seed, via_accmos.new_points) == (
            via_sse.seed, via_sse.new_points,
        )


@requires_cc
def test_server_then_threaded_campaign_share_one_gcc(tmp_path):
    """One artifact per program: a cold-cache sweep of single runs (one
    ``run_job`` per seed), then an in-process threaded campaign on the
    same cache, compile the program once between them.  Single runs
    start in-process too, so no host is built or spawned."""
    from test_scheduler import _serial_oracle

    prog = _gain_program(2.0)
    cache = ArtifactCache(tmp_path / "cache")
    common = dict(steps=32, max_cases=16, plateau_patience=16, cache=cache)
    with telemetry.capture() as session:
        served = _serial_oracle(prog, **common)
        threaded = run_campaign(prog, threads=2, **common)
    spans = session.tracer.finished()
    gcc = [span.attrs.get("artifact") for span in spans if span.name == "gcc"]
    assert gcc == ["shared"]
    assert not any(span.name == "server.spawn" for span in spans)
    assert threaded.merged.bitmaps == served.merged.bitmaps
    assert [c.new_points for c in threaded.cases] == [
        c.new_points for c in served.cases
    ]


@requires_cc
def test_memo_hit_results_match_a_fresh_codegen(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    prog = _gain_program(2.5)
    opts = SimulationOptions(steps=40)
    compile_model(prog, opts, cache=cache)
    memoized = compile_model(prog, opts, cache=cache)
    fresh = compile_model(prog, opts, cache=False)
    stimuli = default_stimuli(prog, seed=9)
    assert_results_agree(fresh.run(stimuli), memoized.run(stimuli))
    assert memoized.run(stimuli).extra["source_lines"] == (
        fresh.source.count("\n") + 1
    )


@requires_cc
def test_campaign_derives_each_case_stimuli_once(tmp_path, monkeypatch):
    """Keying a job never builds its stimuli, and the scheduler's keys
    travel down to the threaded dispatcher: one stimulus build and one
    descriptor derivation per case."""
    import repro.codegen.descriptor as descriptor_mod
    import repro.stimuli.generators as generators_mod

    counts = {"stimuli": 0, "descriptors": 0}
    real_stimuli = generators_mod.default_stimuli
    real_descriptors = descriptor_mod.descriptors_for

    def counting_stimuli(*args, **kwargs):
        counts["stimuli"] += 1
        return real_stimuli(*args, **kwargs)

    def counting_descriptors(*args, **kwargs):
        counts["descriptors"] += 1
        return real_descriptors(*args, **kwargs)

    monkeypatch.setattr(generators_mod, "default_stimuli", counting_stimuli)
    monkeypatch.setattr(
        descriptor_mod, "descriptors_for", counting_descriptors
    )
    monkeypatch.setattr(accmos_mod, "descriptors_for", counting_descriptors)
    outcome = run_campaign(
        _gain_program(2.0), steps=16, max_cases=24, plateau_patience=24,
        cache=ArtifactCache(tmp_path / "cache"), threads=2,
    )
    assert outcome.n_cases == 24
    assert counts == {"stimuli": 24, "descriptors": 24}


@requires_cc
def test_campaign_compiles_once_across_its_chunks(tmp_path):
    """One chunk per case (64 chunks), yet one ``compile`` span and one
    cache miss: the group's compile is resolved once and shared."""
    cache = ArtifactCache(tmp_path / "cache")
    with telemetry.capture() as session:
        outcome = run_campaign(
            _gain_program(2.0), steps=32, max_cases=64, plateau_patience=64,
            cache=cache, threads=1, batch_size=1,
        )
    assert outcome.n_cases == 64
    assert outcome.scheduler_stats["chunks"] == 64
    compiles = [s for s in session.tracer.finished() if s.name == "compile"]
    assert len(compiles) == 1
    assert cache.stats().misses == 1
    # Only the first case carries the compile; the rest reuse it.
    assert not outcome.cases[0].cache_hit
    assert all(case.cache_hit for case in outcome.cases[1:])
    assert all(
        case.timings["compile"] == 0.0 for case in outcome.cases[1:]
    )


@requires_cc
def test_compile_failure_is_retried_once_per_group(
    tmp_path, monkeypatch, gcc_calls
):
    """A deterministic gcc failure over 4 chunks runs gcc ``retries + 1``
    times in all, and every job reports the compiler's error."""
    from repro.runner.jobs import SimulationJob
    from repro.runner.pool import run_jobs

    monkeypatch.setattr(
        driver_mod, "CFLAGS", [*driver_mod.CFLAGS, "-fno-such-flag-anywhere"]
    )
    prog = _gain_program(2.0)
    jobs = [
        SimulationJob(prog=prog, seed=seed, options=SimulationOptions(steps=8))
        for seed in range(16)
    ]
    stats: dict = {}
    results = run_jobs(
        jobs, threads=1, batch_size=4, stats_sink=stats,
        cache=ArtifactCache(tmp_path / "cache"),
    )
    assert stats["chunks"] == 4
    assert gcc_calls["n"] == 2
    assert all(result.outcome == "failed" for result in results)
    assert all(result.attempts == 2 for result in results)
    assert all("CompilationError" in result.error for result in results)
