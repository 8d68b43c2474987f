"""Thread-parallel in-process execution: pool, packing, determinism.

Pins the contract: running N private library instances on N threads
(``run_inproc(threads=N)``, ``run_jobs(threads=N)``,
``run_campaign(threads=N)``) is a pure throughput lever — byte-identical
to ``threads=1`` and to the SSE reference on every zoo model, zero
process spawns, with a mid-batch fault on one thread falling down the
existing ladder without changing a single bit.  The shard packer (LPT on
step counts) is pinned to never predict a worse makespan than naive
round-robin.
"""

from __future__ import annotations

import itertools
import os
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimulationOptions, simulate, telemetry
from repro.benchmarks import build_benchmark
from repro.codegen import driver as driver_mod
from repro.codegen.driver import find_c_compiler
from repro.engines.accmos import compile_model
from repro.engines.base import SimulationResult
from repro.inproc import InstancePool, LibraryFault, LoadedModel
from repro.inproc.library import _dlclose
from repro.inproc.parallel import makespan, pack_shards
from repro.runner.cache import ArtifactCache
from repro.runner.jobs import SimulationJob
from repro.runner.pool import run_jobs
from repro.schedule import preprocess

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


def _varied_cases(stimuli, n):
    """n cases with differing step counts, so shards carry unequal work."""
    return [
        (
            stimuli(),
            SimulationOptions(
                steps=STEPS + 37 * k, coverage=True, diagnostics=True
            ),
        )
        for k in range(n)
    ]


# ----------------------------------------------------------------------
# zoo-wide byte identity: threads=4 vs threads=1 vs SSE
# ----------------------------------------------------------------------
@requires_cc
@pytest.mark.parametrize("name", sorted(ZOO))
def test_threaded_matches_sequential_and_sse(zoo_programs, name):
    prog, stimuli = zoo_programs[name]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    cases = _varied_cases(stimuli, 6)
    sequential = model.run_inproc(cases)
    threaded = model.run_inproc(cases, threads=4)
    assert len(threaded) == len(cases)
    for case, seq, par in zip(cases, sequential, threaded):
        assert isinstance(par, SimulationResult)
        assert_results_agree(seq, par)
        sse = simulate(prog, case[0], engine="sse", options=case[1])
        assert_results_agree(sse, par)
    assert model.inproc_available


@requires_cc
def test_explicit_shards_identity(zoo_programs):
    """LPT-packed shards (unequal steps, so not the round-robin stride)
    produce the same bytes as one thread: shard membership never
    matters."""
    prog, stimuli = zoo_programs[sorted(ZOO)[0]]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    cases = _varied_cases(stimuli, 8)
    steps = [o.steps for _, o in cases]
    assert pack_shards(steps, 3) != [[0, 3, 6], [1, 4, 7], [2, 5]]
    packed = model.run_inproc(cases, threads=3)
    sequential = model.run_inproc(cases)
    for a, b in zip(packed, sequential):
        assert_results_agree(a, b)


# ----------------------------------------------------------------------
# induced mid-batch fault on one thread: byte-identical ladder fallback
# ----------------------------------------------------------------------
@requires_cc
def test_threaded_fault_falls_back_byte_identical(zoo_programs, monkeypatch):
    prog, stimuli = zoo_programs[sorted(ZOO)[0]]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)

    real_load = model.load
    loaded = []

    def load_with_fault():
        lib = real_load()
        if not loaded:
            # Only the first instance (one worker thread) is flaky: it
            # faults on its second case, mid-batch.
            real_invoke = lib._invoke
            calls = {"n": 0}

            def flaky_invoke(record):
                calls["n"] += 1
                if calls["n"] == 2:
                    return -1
                return real_invoke(record)

            lib._invoke = flaky_invoke
        loaded.append(lib)
        return lib

    monkeypatch.setattr(model, "load", load_with_fault)
    outcomes = model.run_inproc([(stimuli(), None) for _ in range(9)], threads=3)
    assert len(outcomes) == 9
    for outcome in outcomes:
        assert isinstance(outcome, SimulationResult)
        assert_results_agree(sse, outcome)
    # The fault quarantined the in-process rung for this model…
    assert not model.inproc_available
    # …and later batches (threaded or not) still agree bit-for-bit.
    again = model.run_inproc([(stimuli(), None) for _ in range(2)], threads=2)
    for outcome in again:
        assert_results_agree(sse, outcome)


@requires_cc
def test_threaded_load_failure_falls_back(zoo_programs, monkeypatch):
    prog, stimuli = zoo_programs[sorted(ZOO)[0]]
    opts = SimulationOptions(steps=STEPS)
    model = compile_model(prog, opts, cache=False)
    sse = simulate(prog, stimuli(), engine="sse", options=opts)

    def broken_load():
        raise LibraryFault("induced load failure")

    monkeypatch.setattr(model, "load", broken_load)
    outcomes = model.run_inproc([(stimuli(), None) for _ in range(4)], threads=2)
    assert len(outcomes) == 4
    for outcome in outcomes:
        assert_results_agree(sse, outcome, coverage=False, diagnostics=False)
    assert not model.inproc_available


@requires_cc
def test_threaded_fault_under_thread_churn(zoo_programs, monkeypatch):
    """More shard threads than cores, a tiny switch interval and a
    fault mid-run: every slot still ends up holding the sequential
    run's bytes, so no write was lost or misplaced."""
    prog, stimuli = zoo_programs[sorted(ZOO)[0]]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    cases = _varied_cases(stimuli, 24)
    reference = model.run_inproc(cases)

    # Whichever instance makes the fifth library call overall faults
    # (warm pooled instances from other tests included).
    real_invoke = LoadedModel._invoke
    calls = itertools.count(1)

    def flaky_invoke(self, record):
        if next(calls) == 5:
            return -1
        return real_invoke(self, record)

    monkeypatch.setattr(LoadedModel, "_invoke", flaky_invoke)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        outcomes = model.run_inproc(cases, threads=8)
    finally:
        sys.setswitchinterval(interval)
    assert len(outcomes) == len(cases)
    for expected, outcome in zip(reference, outcomes):
        assert isinstance(outcome, SimulationResult)
        assert_results_agree(expected, outcome)
    assert not model.inproc_available


# ----------------------------------------------------------------------
# instance pool semantics (no compiler needed)
# ----------------------------------------------------------------------
class FakeLib:
    def __init__(self):
        self.healthy = True
        self.retired = 0

    def retire(self):
        self.healthy = False
        self.retired += 1


class TestInstancePool:
    def test_reuse_over_reload(self):
        pool = InstancePool(max_idle=4)
        lib = FakeLib()
        got = pool.acquire("k", lambda: lib)
        assert got is lib
        pool.release("k", lib)
        assert pool.acquire("k", lambda: FakeLib()) is lib
        assert pool.stats()["loads"] == 1
        assert pool.stats()["reuses"] == 1

    def test_miss_loads_fresh(self):
        pool = InstancePool(max_idle=4)
        a = pool.acquire("a", FakeLib)
        b = pool.acquire("b", FakeLib)
        assert a is not b
        assert pool.stats()["loads"] == 2
        assert pool.stats()["reuses"] == 0

    def test_unhealthy_release_retires(self):
        pool = InstancePool(max_idle=4)
        lib = pool.acquire("k", FakeLib)
        lib.healthy = False
        pool.release("k", lib)
        assert pool.active == 0
        assert pool.stats()["retired_error"] == 1

    def test_lru_bound_evicts_oldest(self):
        pool = InstancePool(max_idle=2)
        libs = [FakeLib() for _ in range(3)]
        for i, lib in enumerate(libs):
            pool.release(f"k{i}", lib)
        assert pool.active == 2
        assert libs[0].retired == 1  # oldest evicted
        assert pool.stats()["retired_lru"] == 1

    def test_mru_handed_out_first(self):
        pool = InstancePool(max_idle=4)
        first, second = FakeLib(), FakeLib()
        pool.release("k", first)
        pool.release("k", second)
        assert pool.acquire("k", FakeLib) is second

    def test_close_retires_idle_and_late_releases(self):
        pool = InstancePool(max_idle=4)
        idle, held = FakeLib(), FakeLib()
        pool.release("k", idle)
        pool.close()
        assert idle.retired == 1
        pool.release("k", held)  # holder returns after close
        assert held.retired == 1
        with pytest.raises(RuntimeError):
            pool.acquire("k", FakeLib)

    def test_retired_while_idle_not_handed_out(self):
        pool = InstancePool(max_idle=4)
        lib = FakeLib()
        pool.release("k", lib)
        lib.healthy = False  # retired behind the pool's back
        fresh = pool.acquire("k", FakeLib)
        assert fresh is not lib
        assert fresh.healthy


# ----------------------------------------------------------------------
# shard packing: LPT on step counts
# ----------------------------------------------------------------------
def _rr_makespan(costs, n_shards):
    shards = [list(range(s, len(costs), n_shards)) for s in range(n_shards)]
    return makespan(shards, costs)


class TestPackShards:
    def test_partition_is_exact(self):
        steps = [3, 1, 4, 1, 5, 9, 2]
        shards = pack_shards(steps, 3)
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(len(steps)))

    def test_single_shard_keeps_order(self):
        assert pack_shards([1, 2, 3], 1) == [[0, 1, 2]]

    def test_lpt_balances_obvious_case(self):
        # One long case + shorts: LPT isolates the long one.
        steps = [10, 1, 1, 1, 1, 1]
        shards = pack_shards(steps, 2)
        assert makespan(shards, steps) == 10

    def test_deterministic(self):
        # Equal steps (every campaign chunk) deal out round-robin.
        steps = [2, 2, 2, 2, 2]
        assert pack_shards(steps, 2) == pack_shards(steps, 2)
        assert pack_shards(steps, 2) == [[0, 2, 4], [1, 3]]

    @settings(max_examples=200, deadline=None)
    @given(
        steps=st.lists(
            st.integers(min_value=0, max_value=10**6),
            min_size=1, max_size=40,
        ),
        n_shards=st.integers(min_value=1, max_value=8),
    )
    def test_never_worse_than_round_robin(self, steps, n_shards):
        shards = pack_shards(steps, n_shards)
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(len(steps)))
        assert len(shards) <= max(1, n_shards)
        effective = min(n_shards, len(steps))
        assert makespan(shards, steps) <= _rr_makespan(steps, effective)


# ----------------------------------------------------------------------
# runner and campaigns: grouping, zero spawns, identity
# ----------------------------------------------------------------------
def test_run_jobs_inproc_threads_routes_non_accmos_jobs(zoo_programs=None):
    """Non-batchable jobs (interpreted engines) take the per-job path."""
    model, _ = ZOO[sorted(ZOO)[0]]()
    prog = preprocess(model)
    opts = SimulationOptions(steps=50)
    jobs = [
        SimulationJob(prog=prog, seed=seed, engine="sse", options=opts)
        for seed in (1, 2)
    ]
    results = run_jobs(jobs, threads=2, cache=False)
    assert all(r.ok for r in results)
    ref = run_jobs(jobs, threads=1, cache=False)
    for a, b in zip(ref, results):
        assert_results_agree(a.result, b.result)


def test_run_jobs_rejects_unknown_mode():
    # One route: there is no mode (nor workers/serve/inproc) to pick.
    for knob, value in (
        ("mode", "inproc-threads"), ("mode", "process"), ("workers", 2),
        ("serve", True), ("inproc", True),
    ):
        with pytest.raises(TypeError, match=knob):
            run_jobs([], **{knob: value})


@requires_cc
def test_threaded_campaign_one_gcc_zero_spawns(
    zoo_programs, tmp_path, monkeypatch
):
    """A cold-cache threaded campaign compiles exactly once (the shared
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
        raise AssertionError("simulation process spawned on the threaded path")

    monkeypatch.setattr(driver_mod.SimulationServer, "__init__", no_spawn)

    outcome = run_campaign(
        prog, steps=STEPS, max_cases=6, cache=cache, threads=3,
    )
    assert outcome.n_cases >= 1
    assert gcc_calls["n"] == 1
    assert cache.stats().misses == 1


@requires_cc
def test_threaded_campaign_matches_serial(zoo_programs):
    from repro.campaign import run_campaign

    prog, _ = zoo_programs[sorted(ZOO)[0]]
    kwargs = dict(steps=STEPS, max_cases=6, cache=False)
    serial = run_campaign(prog, threads=1, **kwargs)
    threaded = run_campaign(prog, threads=4, **kwargs)
    assert threaded.n_cases == serial.n_cases
    assert threaded.saturated == serial.saturated
    assert threaded.merged.bitmaps == serial.merged.bitmaps
    for a, b in zip(serial.cases, threaded.cases):
        assert (a.seed, a.steps_run, a.new_points) == (
            b.seed, b.steps_run, b.new_points
        )


def test_resolve_threads_auto():
    """Auto is sized by one case's predicted C work; explicit counts
    pass through unchanged."""
    from repro.runner.campaign import AUTO_THREAD_WORK, resolve_threads

    spv = preprocess(build_benchmark("SPV"))
    short = 32 * len(spv.actors)  # the 32-step SPV campaign
    for work in (0, short, AUTO_THREAD_WORK):
        for threads in (1, 2, 5):
            assert resolve_threads(
                threads, engine="accmos", case_work=work
            ) == threads
        assert resolve_threads(None, engine="sse", case_work=work) == 1
    assert resolve_threads(None, engine="accmos", case_work=short) == 1
    assert resolve_threads(0, engine="accmos", case_work=short) == 1
    assert resolve_threads(None, engine="accmos") == 1

    cores = min(4, os.cpu_count() or 1)
    auto = resolve_threads(None, engine="accmos", case_work=AUTO_THREAD_WORK)
    if find_c_compiler() is None:
        assert auto == 1
        return
    if cores == 1:
        pytest.skip("one core: auto has no second thread to choose")
    assert auto == cores
    assert resolve_threads(0, engine="accmos", case_work=10**9) == cores
    assert resolve_threads(
        None, engine="accmos", case_work=AUTO_THREAD_WORK - 1
    ) == 1


def test_campaign_rejects_negative_threads(zoo_programs=None):
    from repro.campaign import run_campaign

    model, _ = ZOO[sorted(ZOO)[0]]()
    prog = preprocess(model)
    with pytest.raises(ValueError, match="threads"):
        run_campaign(prog, steps=10, max_cases=1, threads=-1)


# ----------------------------------------------------------------------
# satellite fixes: init return code honored, dlclose errors counted
# ----------------------------------------------------------------------
_STUB_C = """
int acc_lib_abi_version(void) { return %(abi)d; }
long long acc_lib_result_size(void) { return 64; }
int acc_lib_init(void) { return %(init_rc)d; }
void acc_lib_reset(void) {}
int acc_lib_run_case(const unsigned char *record, long long record_len,
                     unsigned char *result, long long result_len) {
    return 0;
}
"""


def _build_stub(tmp_path, *, init_rc):
    from repro.inproc import ABI_VERSION

    cc = find_c_compiler()
    source = tmp_path / "stub.c"
    shared = tmp_path / "stub.so"
    source.write_text(_STUB_C % {"abi": ABI_VERSION, "init_rc": init_rc})
    subprocess.run(
        [cc, "-shared", "-fPIC", "-O0", str(source), "-o", str(shared)],
        check=True, capture_output=True,
    )
    return shared


@requires_cc
def test_nonzero_init_raises_and_unloads(tmp_path):
    shared = _build_stub(tmp_path, init_rc=-7)
    with pytest.raises(LibraryFault, match="acc_lib_init returned -7"):
        LoadedModel(shared, result_size=64)


@requires_cc
def test_zero_init_accepted(tmp_path):
    shared = _build_stub(tmp_path, init_rc=0)
    lib = LoadedModel(shared, result_size=64)
    assert lib.healthy
    lib.retire()


def test_dlclose_error_counted(monkeypatch):
    import _ctypes

    def failing_dlclose(handle):
        raise OSError("dlclose failed")

    monkeypatch.setattr(_ctypes, "dlclose", failing_dlclose)
    with telemetry.capture() as session:
        _dlclose(12345)  # must swallow the failure, not crash the host
    counters = session.metrics.snapshot()["counters"]
    assert counters.get("engine.inproc.dlclose_errors", 0) == 1
