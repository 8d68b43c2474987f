"""Thread-parallel in-process execution: pool, packing, determinism.

Pins the PR's contract: running N private library instances on N threads
(``run_inproc(threads=N)``, ``run_jobs(mode="inproc-threads")``,
``run_campaign(threads=N)``) is a pure throughput lever — byte-identical
to ``threads=1`` and to the SSE reference on every zoo model, zero
process spawns, with a mid-batch fault on one thread falling down the
existing ladder without changing a single bit.  The cost-model packer is
pinned to never predict a worse makespan than naive round-robin.
"""

from __future__ import annotations

import subprocess

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import SimulationOptions, simulate, telemetry
from repro.codegen import driver as driver_mod
from repro.codegen.driver import find_c_compiler
from repro.engines.accmos import compile_model
from repro.engines.base import SimulationResult
from repro.inproc import InstancePool, LibraryFault, LoadedModel
from repro.inproc.library import _dlclose
from repro.runner.cache import ArtifactCache
from repro.runner.costmodel import (
    CaseCostModel,
    CostModelStore,
    cost_key,
    default_cost_store,
    makespan,
    pack_shards,
)
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
    """Cost-model-packed shards produce the same bytes as the default
    round-robin stride (shard membership must never matter)."""
    prog, stimuli = zoo_programs[sorted(ZOO)[0]]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    model = compile_model(prog, opts, cache=False)
    cases = _varied_cases(stimuli, 8)
    costs = [float(o.steps) for _, o in cases]
    shards = pack_shards(costs, 3)
    packed = model.run_inproc(cases, threads=3, shards=shards)
    default = model.run_inproc(cases, threads=3)
    for a, b in zip(packed, default):
        assert_results_agree(a, b)


@requires_cc
def test_bad_shards_rejected(zoo_programs):
    prog, stimuli = zoo_programs[sorted(ZOO)[0]]
    opts = SimulationOptions(steps=STEPS)
    model = compile_model(prog, opts, cache=False)
    cases = [(stimuli(), None) for _ in range(3)]
    with pytest.raises(ValueError, match="partition"):
        model.run_inproc(cases, threads=2, shards=[[0, 1], [1, 2]])
    with pytest.raises(ValueError, match="partition"):
        model.run_inproc(cases, threads=2, shards=[[0], [2]])


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
# cost model + packing
# ----------------------------------------------------------------------
class TestCostModel:
    def test_predict_monotone(self):
        m = CaseCostModel()
        assert m.predict(1000, 4) > m.predict(100, 4) > 0
        assert m.predict(100, 8) > m.predict(100, 2)

    def test_observe_converges_on_rate(self):
        m = CaseCostModel()
        for _ in range(50):
            m.observe(10_000, 10, seconds=m.base_seconds + 1.0)
        # 100k step-actor units took 1s beyond base -> 1e-5 s/unit.
        assert m.predict(10_000, 10) == pytest.approx(
            m.base_seconds + 1.0, rel=0.05
        )

    def test_observe_rejects_nonpositive(self):
        m = CaseCostModel()
        before = m.predict(100, 1)
        m.observe(100, 1, seconds=0.0)
        m.observe(100, 1, seconds=-1.0)
        assert m.predict(100, 1) == before
        assert m.observations == 0

    def test_default_model_is_shared(self):
        key = "accmos:SPV:a88"
        assert default_cost_store().model(key) is default_cost_store().model(
            key
        )


def _rr_makespan(costs, n_shards):
    shards = [list(range(s, len(costs), n_shards)) for s in range(n_shards)]
    return makespan(shards, costs)


class TestPackShards:
    def test_partition_is_exact(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0]
        shards = pack_shards(costs, 3)
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(len(costs)))

    def test_single_shard_keeps_order(self):
        assert pack_shards([1.0, 2.0, 3.0], 1) == [[0, 1, 2]]

    def test_lpt_balances_obvious_case(self):
        # One long case + shorts: LPT isolates the long one.
        costs = [10.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        shards = pack_shards(costs, 2)
        assert makespan(shards, costs) == 10.0

    def test_deterministic(self):
        costs = [2.0, 2.0, 2.0, 2.0, 2.0]
        assert pack_shards(costs, 2) == pack_shards(costs, 2)

    @settings(max_examples=200, deadline=None)
    @given(
        costs=st.lists(
            st.floats(
                min_value=0.0, max_value=1e6,
                allow_nan=False, allow_infinity=False,
            ),
            min_size=1, max_size=40,
        ),
        n_shards=st.integers(min_value=1, max_value=8),
    )
    def test_never_worse_than_round_robin(self, costs, n_shards):
        shards = pack_shards(costs, n_shards)
        flat = sorted(i for shard in shards for i in shard)
        assert flat == list(range(len(costs)))
        assert len(shards) <= max(1, n_shards)
        effective = min(n_shards, len(costs))
        assert makespan(shards, costs) <= _rr_makespan(costs, effective) + 1e-9


# ----------------------------------------------------------------------
# runner mode="inproc-threads": identity, grouping, zero spawns
# ----------------------------------------------------------------------
@requires_cc
def test_run_jobs_inproc_threads_matches_thread_mode(zoo_programs):
    prog, _ = zoo_programs[sorted(ZOO)[0]]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    jobs = [
        SimulationJob(prog=prog, seed=seed, options=opts)
        for seed in range(1, 7)
    ]
    baseline = run_jobs(
        jobs, workers=1, mode="thread", cache=False,
        batch_size=3, serve=False,
    )
    threaded = run_jobs(jobs, workers=3, mode="inproc-threads", cache=False)
    assert [r.seed for r in threaded] == [r.seed for r in baseline]
    for a, b in zip(baseline, threaded):
        assert a.ok and b.ok
        assert_results_agree(a.result, b.result)


def test_run_jobs_inproc_threads_routes_non_accmos_jobs(zoo_programs=None):
    """Non-batchable jobs (interpreted engines) take the per-job path."""
    model, _ = ZOO[sorted(ZOO)[0]]()
    prog = preprocess(model)
    opts = SimulationOptions(steps=50)
    jobs = [
        SimulationJob(prog=prog, seed=seed, engine="sse", options=opts)
        for seed in (1, 2)
    ]
    results = run_jobs(jobs, workers=2, mode="inproc-threads", cache=False)
    assert all(r.ok for r in results)
    ref = run_jobs(jobs, workers=1, mode="thread", cache=False)
    for a, b in zip(ref, results):
        assert_results_agree(a.result, b.result)


def test_run_jobs_rejects_unknown_mode():
    with pytest.raises(ValueError, match="inproc-threads"):
        run_jobs([], mode="bogus")
    # Process pools are gone: chunks run on threads or in-process.
    with pytest.raises(ValueError, match="inproc-threads"):
        run_jobs([], mode="process")


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
def test_threaded_campaign_observes_into_injected_cost_store(zoo_programs):
    """Shard packing reads from, and observes into, the store the
    campaign was given — never the process default."""
    from repro.campaign import iter_campaign

    prog, _ = zoo_programs[sorted(ZOO)[0]]
    store = CostModelStore(None)
    default = default_cost_store()
    key = cost_key("accmos", prog, SimulationOptions(steps=STEPS))
    before = default.model(key).observations
    run = iter_campaign(
        prog, steps=STEPS, max_cases=4, plateau_patience=100,
        cache=False, threads=2, cost_store=store,
    )
    assert len(list(run)) == 4
    assert store.model(key).observations > 0
    assert default.model(key).observations == before


@requires_cc
def test_threaded_campaign_matches_serial(zoo_programs):
    from repro.campaign import run_campaign

    prog, _ = zoo_programs[sorted(ZOO)[0]]
    kwargs = dict(steps=STEPS, max_cases=6, cache=False)
    serial = run_campaign(prog, threads=1, workers=1, **kwargs)
    threaded = run_campaign(prog, threads=4, **kwargs)
    assert threaded.n_cases == serial.n_cases
    assert threaded.saturated == serial.saturated
    assert threaded.merged.bitmaps == serial.merged.bitmaps
    for a, b in zip(serial.cases, threaded.cases):
        assert (a.seed, a.steps_run, a.new_points) == (
            b.seed, b.steps_run, b.new_points
        )


def test_resolve_threads_auto():
    from repro.runner.campaign import resolve_threads

    assert resolve_threads(1, engine="accmos") == 1
    assert resolve_threads(5, engine="accmos") == 5
    assert resolve_threads(None, engine="sse") == 1
    auto = resolve_threads(None, engine="accmos")
    assert 1 <= auto <= 4
    if find_c_compiler() is None:
        assert auto == 1


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
