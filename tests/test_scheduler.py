"""Streaming work-conserving campaign scheduler.

Pins the three invariants :mod:`repro.runner.scheduler` promises:

* **Seed-order delivery** — the reorder buffer turns *any* completion
  order back into submission order (hypothesis property), so streaming
  campaigns fold exactly like serial ones;
* **Byte-identity** — streaming vs a serial oracle (one ``run_job`` per
  seed, folded in seed order, no scheduler) across the model zoo and
  every dispatch mode (spawn / serve / inproc / inproc-threads): merged
  bitmaps, per-case new points, diagnostic attribution, coverage
  curves, saturation verdict all equal;
* **Bounded, counted speculation** — a mid-stream saturation stops
  submission immediately; the waste is reported in
  ``CampaignOutcome.speculated_cases`` and never exceeds the window.

Plus the satellite pieces: the throughput controller's hill-climb /
hysteresis behavior, ``CaseCostModel`` base-term recalibration from
small cases, and the persistent per-(engine, compile key)
:class:`CostModelStore` with warm-start.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import build_benchmark
from repro.campaign import CampaignOutcome, run_campaign
from repro.engines.base import SimulationOptions
from repro.model.errors import SimulationError
from repro.runner.cache import ArtifactCache
from repro.runner.costmodel import (
    FLAP_PENALTY,
    CaseCostModel,
    CostModelStore,
    cost_key,
    default_cost_model,
    makespan,
    pack_shards,
    plan_chunks,
    set_default_cost_store,
)
from repro.runner.campaign import _CampaignFold
from repro.runner.jobs import SimulationJob, run_job
from repro.runner.pool import run_jobs
from repro.runner.scheduler import (
    ReorderBuffer,
    StreamScheduler,
    ThroughputController,
)
from repro.schedule import preprocess

from conftest import requires_cc
from test_runner_campaign import _assert_outcomes_identical



@pytest.fixture(autouse=True)
def _isolated_cost_store(tmp_path):
    """Campaigns observe into (and persist) the process-wide cost store;
    point it at a throwaway file so tests neither read nor pollute the
    user's cache directory."""
    previous = set_default_cost_store(CostModelStore(tmp_path / "cm.json"))
    yield
    set_default_cost_store(previous)


# ----------------------------------------------------------------------
# reorder buffer
# ----------------------------------------------------------------------
class TestReorderBuffer:
    def test_in_order_passthrough(self):
        buf = ReorderBuffer()
        for i in range(5):
            released = buf.push(i, f"r{i}")
            assert released == [(i, f"r{i}")]
        assert buf.depth == 0 and buf.max_depth == 1

    def test_out_of_order_held_until_frontier(self):
        buf = ReorderBuffer()
        assert buf.push(2, "c") == []
        assert buf.push(1, "b") == []
        assert buf.depth == 2
        assert buf.push(0, "a") == [(0, "a"), (1, "b"), (2, "c")]
        assert buf.depth == 0
        assert buf.max_depth == 3
        assert buf.next_index == 3

    def test_duplicate_push_rejected(self):
        buf = ReorderBuffer()
        buf.push(1, "x")
        with pytest.raises(ValueError, match="pushed twice"):
            buf.push(1, "y")

    def test_stale_push_below_frontier_distinct_message(self):
        """A released index is *stale*, not duplicated: the error names
        the frontier so service users can tell the two apart."""
        buf = ReorderBuffer()
        buf.push(1, "x")
        buf.push(0, "a")  # releases 0 and 1; frontier is now 2
        with pytest.raises(ValueError, match=r"below the frontier 2"):
            buf.push(0, "again")
        with pytest.raises(ValueError, match="already released"):
            buf.push(1, "again")
        # A genuine duplicate still reads "pushed twice".
        buf.push(3, "held")
        with pytest.raises(ValueError, match="pushed twice"):
            buf.push(3, "held-dup")

    @given(st.permutations(list(range(12))))
    @settings(max_examples=60, deadline=None)
    def test_any_completion_order_releases_seed_order(self, order):
        """The property the byte-identity contract rests on: whatever
        order results complete in, the consumer sees submission order,
        and every release is the contiguous frontier run."""
        buf = ReorderBuffer()
        delivered = []
        for index in order:
            released = buf.push(index, index)
            if released:
                assert released[0][0] == len(delivered)
            delivered.extend(item for _, item in released)
            assert delivered == list(range(len(delivered)))
        assert delivered == list(range(len(order)))
        assert buf.depth == 0


# ----------------------------------------------------------------------
# throughput controller
# ----------------------------------------------------------------------
class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestThroughputController:
    def _drive_epoch(self, ctl, clock, *, folded, seconds, busy):
        """Advance one epoch: `folded` more cases over `seconds`."""
        clock.now += seconds
        ctl.on_fold(folded, busy)

    def test_fixed_knobs_never_touched(self):
        clock = _Clock()
        ctl = ThroughputController(
            batch_size=4, window=8, workers=2,
            tune_batch=False, tune_window=False,
            epoch_cases=2, clock=clock,
        )
        folded, busy = 0, 0.0
        for _ in range(20):
            folded += 2
            busy += 0.1
            self._drive_epoch(ctl, clock, folded=folded, seconds=1.0, busy=busy)
        assert (ctl.batch_size, ctl.window) == (4, 8)
        assert ctl.window_adjustments == ctl.batch_adjustments == 0

    def test_short_campaign_finishes_before_first_adjustment(self):
        """The default epoch is big enough that small deterministic runs
        (the test suite's campaigns) never see a knob move."""
        clock = _Clock()
        ctl = ThroughputController(
            batch_size=4, window=8, workers=4, clock=clock
        )
        for folded in range(1, 9):  # an 8-case campaign
            clock.now += 0.01
            ctl.on_fold(folded, busy_seconds=0.0)
        assert (ctl.batch_size, ctl.window) == (4, 8)
        assert ctl.window_adjustments == ctl.batch_adjustments == 0

    def test_low_utilization_grows_window(self):
        clock = _Clock()
        ctl = ThroughputController(
            batch_size=1, window=4, workers=4,
            tune_batch=False, tune_window=True,
            epoch_cases=2, clock=clock,
        )
        folded = 0
        for _ in range(3):
            folded += 2
            # busy stays 0: workers are starving for in-flight work.
            self._drive_epoch(ctl, clock, folded=folded, seconds=1.0, busy=0.0)
        assert ctl.window > 4
        assert ctl.window_adjustments >= 1

    def test_regressing_change_reverted_and_direction_flipped(self):
        clock = _Clock()
        ctl = ThroughputController(
            batch_size=1, window=8, workers=2,
            tune_batch=False, tune_window=True,
            epoch_cases=2, hysteresis=0.1, clock=clock,
        )
        folded, busy = 0, 0.0

        # Epoch 1 establishes the baseline; utilization is kept at 1.0
        # so the idle-workers branch never fires and the round-robin
        # climb proposes a window step.
        folded += 2
        busy += 2.0
        self._drive_epoch(ctl, clock, folded=folded, seconds=1.0, busy=busy)
        # Epoch 2: good throughput; a window change is proposed.
        folded += 2
        busy += 2.0
        self._drive_epoch(ctl, clock, folded=folded, seconds=1.0, busy=busy)
        changed = ctl.window
        assert changed != 8 and ctl.window_adjustments == 1

        # Epoch 3: throughput collapses (same cases over 10x the time):
        # the pending change is reverted and the search direction flips.
        folded += 2
        busy += 20.0
        self._drive_epoch(ctl, clock, folded=folded, seconds=10.0, busy=busy)
        assert ctl.window == 8
        assert ctl.reverts == 1

    def test_batch_stays_inside_bounds(self):
        clock = _Clock()
        ctl = ThroughputController(
            batch_size=2, window=64, workers=1,
            tune_batch=True, tune_window=False,
            epoch_cases=1, min_batch=1, max_batch=8, clock=clock,
        )
        folded, busy = 0, 0.0
        for _ in range(50):
            folded += 1
            busy += 1.0  # full utilization, improving throughput
            self._drive_epoch(ctl, clock, folded=folded, seconds=1.0, busy=busy)
            assert 1 <= ctl.batch_size <= 8


# ----------------------------------------------------------------------
# cost model: base recalibration + persistent store
# ----------------------------------------------------------------------
class TestCostModelBase:
    def test_base_recalibrates_from_small_cases(self):
        """Tiny cases are dominated by per-case freight; observing them
        must fit the base term, not poison the rate."""
        true_base, true_rate = 0.01, 1e-6
        model = CaseCostModel(small_units=4096)
        for _ in range(60):
            model.observe(50, 2, true_base + 100 * true_rate)  # small
            model.observe(1_000_000, 1, true_base + 1e6 * true_rate)  # large
        assert model.base_seconds == pytest.approx(true_base, rel=0.3)
        assert model.rate_seconds == pytest.approx(true_rate, rel=0.3)
        # And predictions converge at both ends of the size spectrum.
        assert model.predict(50, 2) == pytest.approx(
            true_base + 100 * true_rate, rel=0.3
        )
        assert model.predict(1_000_000, 1) == pytest.approx(
            true_base + 1e6 * true_rate, rel=0.3
        )

    def test_tiny_only_corpus_does_not_over_predict(self):
        """Before base recalibration, a corpus of sub-millisecond cases
        kept the cold 2e-4 base forever; now the base converges onto the
        observed per-case cost."""
        model = CaseCostModel()
        for _ in range(30):
            model.observe(10, 4, 5e-5)
        assert model.predict(10, 4) == pytest.approx(5e-5, rel=0.5)

    def test_nonpositive_observation_ignored(self):
        model = CaseCostModel()
        model.observe(10, 4, 0.0)
        model.observe(10, 4, -1.0)
        assert model.observations == 0 and model.base_observations == 0

    def test_penalty_multiplies_predictions_and_ratchets(self):
        model = CaseCostModel()
        baseline = model.predict(1000, 10)
        model.set_penalty(4.0)
        assert model.predict(1000, 10) == pytest.approx(baseline * 4.0)
        # Ratchet: a smaller multiplier never undoes a larger one.
        model.set_penalty(2.0)
        assert model.predict(1000, 10) == pytest.approx(baseline * 4.0)
        model.set_penalty(8.0)
        assert model.predict(1000, 10) == pytest.approx(baseline * 8.0)
        with pytest.raises(ValueError, match=">= 1.0"):
            model.set_penalty(0.5)

    def test_penalty_is_runtime_only(self, tmp_path):
        """Flapping is a condition of *this* process's servers; the
        demotion must not poison future campaigns through persistence."""
        path = tmp_path / "cm.json"
        store = CostModelStore(path)
        store.observe("k", 100_000, 10, 0.5)
        store.penalize("k")
        assert store.generation == 1
        assert store.save() == path
        fresh = CostModelStore(path)
        assert fresh.model("k").penalty == 1.0
        assert fresh.generation == 0
        assert fresh.predict("k", 100_000, 10) < store.predict(
            "k", 100_000, 10
        )


class TestCostModelStore:
    def test_persist_and_warm_start(self, tmp_path):
        path = tmp_path / "costmodel.json"
        store = CostModelStore(path)
        store.observe("accmos:SPV:a88", 100_000, 88, 0.5)
        store.observe("accmos:SPV:a88", 100_000, 88, 0.5)
        learned = store.model("accmos:SPV:a88")
        assert store.save() == path

        fresh = CostModelStore(path)
        warm = fresh.model("accmos:SPV:a88")
        assert warm.rate_seconds == pytest.approx(learned.rate_seconds)
        assert warm.base_seconds == pytest.approx(learned.base_seconds)
        assert warm.observations == learned.observations
        # Warm-started models EMA-blend new observations instead of
        # hard-resetting the rate like a cold first observation would.
        before = warm.rate_seconds
        warm.observe(100_000, 88, 5.0)
        assert warm.rate_seconds != pytest.approx(before)
        assert warm.rate_seconds < 5.0 / (100_000 * 88) + before

    def test_unobserved_models_not_persisted(self, tmp_path):
        store = CostModelStore(tmp_path / "cm.json")
        store.model("cold-key")  # predicted from, never observed
        assert store.save() is None
        assert not (tmp_path / "cm.json").exists()

    def test_corrupt_file_tolerated(self, tmp_path):
        path = tmp_path / "cm.json"
        path.write_text("{not json")
        store = CostModelStore(path)
        assert store.keys() == []
        store.observe("k", 10_000, 10, 0.1)
        assert store.save() == path
        assert "k" in json.loads(path.read_text())["models"]

    def test_save_merges_with_concurrent_writer(self, tmp_path):
        path = tmp_path / "cm.json"
        a, b = CostModelStore(path), CostModelStore(path)
        a.observe("key-a", 10_000, 10, 0.1)
        b.observe("key-b", 10_000, 10, 0.2)
        a.save()
        b.save()
        models = json.loads(path.read_text())["models"]
        assert set(models) == {"key-a", "key-b"}

    def test_cost_key_stable_across_instances(self):
        prog_a = preprocess(build_benchmark("SPV"))
        prog_b = preprocess(build_benchmark("SPV"))
        opts = SimulationOptions(steps=100)
        assert cost_key("accmos", prog_a, opts) == cost_key(
            "accmos", prog_b, opts
        )
        # Steps are per-case, not structural: same compiled unit.
        assert cost_key("accmos", prog_a, SimulationOptions(steps=999)) == (
            cost_key("accmos", prog_a, opts)
        )
        # Structural options change the compiled unit and the key.
        assert cost_key(
            "accmos", prog_a, SimulationOptions(steps=100, coverage=False)
        ) != cost_key("accmos", prog_a, opts)
        assert cost_key("sse", prog_a, opts) != cost_key("accmos", prog_a, opts)

    def test_default_cost_model_is_store_backed_singleton(self):
        assert default_cost_model() is default_cost_model()


# ----------------------------------------------------------------------
# cost-packed chunk forming (ROADMAP leftover: greedy arrival packing)
# ----------------------------------------------------------------------
def _greedy_arrival(n: int, size: int) -> "list[list[int]]":
    """The old chunk former: consecutive runs of ``size`` arrivals."""
    return [list(range(i, min(i + size, n))) for i in range(0, n, size)]


def _worker_makespan(chunks, costs, workers: int) -> float:
    """Wall-clock of dispatching ``chunks``, in order, onto the least-
    loaded of ``workers`` pooled slots — one chunk occupies one slot."""
    loads = [0.0] * workers
    for chunk in chunks:
        slot = loads.index(min(loads))
        loads[slot] += sum(costs[i] for i in chunk)
    return max(loads)


class TestPlanChunks:
    def test_skewed_corpus_beats_greedy_arrival(self):
        """The regression claim from the issue: on a skewed-cost corpus
        the cost packer's predicted worker makespan is never worse than
        greedy-by-arrival chunking — and strictly better when the
        arrival order clusters the expensive tail."""
        workers, size = 3, 4
        for costs in (
            [8.0, 8.0, 8.0] + [1.0] * 9,  # longs arrive first
            [1.0] * 9 + [8.0, 8.0, 8.0],  # longs arrive last
            [8.0, 1.0, 8.0, 1.0, 8.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0],
        ):
            planned = plan_chunks(costs, workers, size)
            greedy = _greedy_arrival(len(costs), size)
            assert _worker_makespan(planned, costs, workers) <= (
                _worker_makespan(greedy, costs, workers)
            )
        # The clustered cases are the motivating ones: greedy arrival
        # rides all three longs on one worker (makespan 25); packing
        # spreads them (makespan 11).
        clustered = [8.0, 8.0, 8.0] + [1.0] * 9
        assert _worker_makespan(
            plan_chunks(clustered, workers, size), clustered, workers
        ) < _worker_makespan(
            _greedy_arrival(12, size), clustered, workers
        )

    def test_partition_is_exact_capped_and_frontier_first(self):
        costs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0]
        chunks = plan_chunks(costs, 2, 3)
        flat = sorted(i for chunk in chunks for i in chunk)
        assert flat == list(range(10))
        assert all(len(chunk) <= 3 for chunk in chunks)
        assert chunks[0][0] == 0  # the frontier chunk comes first
        assert [c[0] for c in chunks] == sorted(c[0] for c in chunks)
        # Deterministic: equal inputs, equal partition.
        assert chunks == plan_chunks(costs, 2, 3)

    def test_infeasible_cap_rejected(self):
        with pytest.raises(ValueError, match="cannot hold"):
            pack_shards([1.0, 1.0, 1.0], 2, max_size=1)
        with pytest.raises(ValueError, match="max_size"):
            plan_chunks([1.0, 1.0], 2, 0)
        # plan_chunks raises the chunk count instead of failing.
        chunks = plan_chunks([1.0] * 7, 2, 2)
        assert all(len(chunk) <= 2 for chunk in chunks)
        assert sorted(i for c in chunks for i in c) == list(range(7))

    @given(
        st.lists(
            st.floats(min_value=0.001, max_value=10.0),
            min_size=1,
            max_size=40,
        ),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=120, deadline=None)
    def test_never_worse_than_round_robin_chunking(
        self, costs, n_chunks, max_size
    ):
        """The by-construction guarantee packing inherits from
        pack_shards: the planned partition never predicts a worse
        makespan than round-robin dealing into the same chunk count."""
        n = len(costs)
        chunks = plan_chunks(costs, n_chunks, max_size)
        assert sorted(i for c in chunks for i in c) == list(range(n))
        assert all(len(chunk) <= max_size for chunk in chunks)
        effective = min(max(n_chunks, -(-n // max_size)), n)
        rr = [list(range(slot, n, effective)) for slot in range(effective)]
        assert makespan(chunks, costs) <= makespan(rr, costs) * (1 + 1e-9)


# ----------------------------------------------------------------------
# streaming dispatch: pool-level identity (no compiler needed)
# ----------------------------------------------------------------------
class TestRunJobsStreaming:
    def _jobs(self, n=10):
        prog = preprocess(build_benchmark("SPV"))
        # Varied step counts -> varied costs -> real reorder pressure.
        return [
            SimulationJob(
                prog=prog, seed=1 + i, engine="sse",
                options=SimulationOptions(steps=100 + 40 * (i % 4)),
            )
            for i in range(n)
        ]

    def test_matches_serial_run_job(self):
        jobs = self._jobs()
        reference = [run_job(job) for job in jobs]
        stats: dict = {}
        streamed = run_jobs(
            jobs, workers=4, batch_size=3, window=5, stats_sink=stats
        )
        assert [r.seed for r in streamed] == [r.seed for r in reference]
        for ref, got in zip(reference, streamed):
            assert got.ok and ref.ok
            assert got.result.checksums == ref.result.checksums
            assert got.result.coverage.bitmaps == ref.result.coverage.bitmaps
        assert stats["submitted"] == stats["folded"] == len(jobs)
        assert stats["speculated"] == 0
        assert stats["max_in_flight"] <= 5

    def test_failures_reported_not_raised(self, monkeypatch):
        import repro.runner.jobs as jobs_mod

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(jobs_mod, "_run_once", boom)
        results = run_jobs(self._jobs(4), workers=2)
        assert [r.ok for r in results] == [False] * 4
        assert all("engine exploded" in r.error for r in results)


# ----------------------------------------------------------------------
# scheduler-level cost packing + flap-driven re-classification
# ----------------------------------------------------------------------
class TestCostAwareScheduling:
    def test_flap_penalty_reroutes_cases_to_long_slots(self):
        """A penalized cost key's cases re-classify as long mid-run (the
        generation watch), route through the capped long slots, and
        still deliver in seed order."""
        store = CostModelStore(None)
        spv = preprocess(build_benchmark("SPV"))
        rac = preprocess(build_benchmark("RAC"))
        opts = SimulationOptions(steps=100)
        progs = [spv, spv, spv, rac, spv, spv, spv, rac]
        jobs = [
            SimulationJob(prog=prog, seed=1 + i, engine="sse", options=opts)
            for i, prog in enumerate(progs)
        ]
        # Pin both keys to identical coefficients so the *only* cost
        # difference in play is the flap penalty (actor counts differ
        # between the two models and would otherwise skew predictions).
        for prog in (spv, rac):
            model = store.model(cost_key("sse", prog, opts))
            model.base_seconds = 1e-3
            model.rate_seconds = 0.0
        scheduler = StreamScheduler(
            jobs, workers=4, window=4, cost_store=store
        )
        # Equal predictions: nothing classifies long.
        assert not any(scheduler._is_long)

        # The warm-server pool reports RAC's artifact flapping: its key
        # is demoted far past the long-classification ratio.
        store.penalize(cost_key("sse", rac, opts), 100.0)
        scheduler._refresh_costs()
        for index, prog in enumerate(progs):
            assert scheduler._is_long[index] == (prog is rac)

        try:
            seeds = [r.seed for r in scheduler.results()]
        finally:
            stats = scheduler.finish()
        assert seeds == list(range(1, 9))
        assert stats["long_chunks"] == 2
        assert stats["folded"] == 8

    def test_refresh_drops_stale_chunk_plans(self):
        """A generation bump invalidates cost-packed plans built from
        the old predictions."""
        store = CostModelStore(None)
        prog = preprocess(build_benchmark("SPV"))
        jobs = [
            SimulationJob(
                prog=prog, seed=1 + i, engine="sse",
                options=SimulationOptions(steps=100),
            )
            for i in range(4)
        ]
        scheduler = StreamScheduler(jobs, workers=2, cost_store=store)
        scheduler._planned_chunks[2] = [2, 3]
        store.penalize(cost_key("sse", prog, SimulationOptions(steps=100)))
        scheduler._refresh_costs()
        assert scheduler._planned_chunks == {}
        try:
            seeds = [r.seed for r in scheduler.results()]
        finally:
            scheduler.finish()
        assert seeds == [1, 2, 3, 4]


@requires_cc
def test_cost_packed_chunks_preserve_identity(tmp_path):
    """Pooled accmos chunks are cost-packed when predictions vary inside
    a compile-key group: chunk membership changes, per-case results and
    delivery order do not, and the stats dict counts the packed chunks."""
    cache = ArtifactCache(tmp_path / "cache")
    prog = preprocess(build_benchmark("SPV"))
    jobs = [
        SimulationJob(
            prog=prog, seed=1 + i, engine="accmos",
            options=SimulationOptions(steps=100 + 500 * (i % 3)),
        )
        for i in range(9)
    ]
    reference = [run_job(job, cache=cache) for job in jobs]
    stats: dict = {}
    streamed = run_jobs(
        jobs, workers=3, batch_size=3, cache=cache, stats_sink=stats
    )
    assert [r.seed for r in streamed] == [r.seed for r in reference]
    for ref, got in zip(reference, streamed):
        assert got.ok and ref.ok
        assert got.result.checksums == ref.result.checksums
        assert got.result.coverage.bitmaps == ref.result.coverage.bitmaps
    # Predicted costs vary with steps, so the chunk former cost-packs.
    assert stats["cost_packed_chunks"] >= 1
    assert stats["folded"] == len(jobs)


# ----------------------------------------------------------------------
# campaign identity: streaming vs a serial oracle, all modes
# ----------------------------------------------------------------------
def _serial_oracle(
    prog, *, steps: int, max_cases: int, plateau_patience: int, cache
) -> CampaignOutcome:
    """The reference campaign without the scheduler: one ``run_job`` per
    seed, folded through the campaign merge in seed order, stopping at
    saturation."""
    outcome = CampaignOutcome(merged=None)  # type: ignore[arg-type]
    fold = _CampaignFold(
        outcome, engine="accmos", plateau_patience=plateau_patience
    )
    options = SimulationOptions(steps=steps)
    for seed in range(1, max_cases + 1):
        job = SimulationJob(prog=prog, seed=seed, options=options)
        if fold.fold(run_job(job, cache=cache)):
            break
    outcome.merged = fold.merged
    return outcome


def _campaign_kwargs(mode: str) -> dict:
    """Streaming-fleet knobs for each dispatch mode under test."""
    if mode == "spawn":
        return dict(workers=3, batch_size=2, serve=False, threads=1)
    if mode == "serve":
        return dict(workers=3, batch_size=2, serve=True, threads=1)
    if mode == "inproc":
        return dict(workers=3, batch_size=2, inproc=True, threads=1)
    if mode == "inproc-threads":
        return dict(threads=3)
    raise AssertionError(mode)


ALL_MODES = ["spawn", "serve", "inproc", "inproc-threads"]


@requires_cc
@pytest.mark.parametrize("mode", ALL_MODES)
@pytest.mark.parametrize("name", ["SPV", "RAC", "CSEV"])
def test_streaming_identical_to_serial(name, mode, tmp_path):
    """The acceptance criterion: streaming == the serial oracle, for
    every dispatch mode, on the benchmark zoo — merged bitmaps,
    per-case new points, diagnostics, curves, saturation verdict."""
    cache = ArtifactCache(tmp_path / "cache")
    prog = preprocess(build_benchmark(name))
    kwargs = dict(steps=300, max_cases=6, plateau_patience=100, cache=cache)

    serial = _serial_oracle(prog, **kwargs)
    stream = run_campaign(prog, **_campaign_kwargs(mode), **kwargs)
    assert stream.n_cases == serial.n_cases == 6
    _assert_outcomes_identical(serial, stream)
    assert stream.scheduler_stats is not None
    assert stream.scheduler_stats["folded"] == 6


@requires_cc
def test_mid_stream_saturation_cutoff(tmp_path):
    """Saturation lands mid-stream: the scheduler stops submitting at
    once, the outcome equals the serial verdict, and the discarded
    speculation is counted, bounded by what was in flight."""
    cache = ArtifactCache(tmp_path / "cache")
    prog = preprocess(build_benchmark("SPV"))
    kwargs = dict(steps=2000, max_cases=12, plateau_patience=3, cache=cache)

    serial = _serial_oracle(prog, **kwargs)
    assert serial.saturated and serial.n_cases < 12

    stream = run_campaign(
        prog, workers=2, batch_size=1, window=2, serve=False, threads=1,
        **kwargs,
    )
    _assert_outcomes_identical(serial, stream)
    stats = stream.scheduler_stats
    # Never submitted past the window once saturation folded...
    assert stream.speculated_cases <= 2
    assert stats["speculated"] == stream.speculated_cases
    # ...and never got anywhere near the case budget.
    assert stats["submitted"] <= serial.n_cases + 2


@requires_cc
def test_threaded_streaming_campaign_matches_serial(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    prog = preprocess(build_benchmark("SPV"))
    kwargs = dict(steps=1000, max_cases=8, plateau_patience=100, cache=cache)
    serial = _serial_oracle(prog, **kwargs)
    threaded = run_campaign(prog, threads=4, **kwargs)
    _assert_outcomes_identical(serial, threaded)
    assert threaded.scheduler_stats["mode"] == "inproc-threads"


# ----------------------------------------------------------------------
# campaign failure path: original traceback chained
# ----------------------------------------------------------------------
def test_failed_case_chains_worker_exception(monkeypatch):
    import repro.runner.jobs as jobs_mod

    original = RuntimeError("segfault in generated code")

    def boom(*args, **kwargs):
        raise original

    monkeypatch.setattr(jobs_mod, "_run_once", boom)
    prog = preprocess(build_benchmark("SPV"))
    with pytest.raises(SimulationError) as excinfo:
        run_campaign(prog, engine="sse", steps=100, max_cases=2)
    assert "seed=1" in str(excinfo.value)
    assert excinfo.value.__cause__ is original


# ----------------------------------------------------------------------
# scheduler internals: no deadlock, explicit knobs honored
# ----------------------------------------------------------------------
class TestStreamScheduler:
    def _jobs(self, n):
        prog = preprocess(build_benchmark("SPV"))
        return [
            SimulationJob(
                prog=prog, seed=1 + i, engine="sse",
                options=SimulationOptions(steps=60),
            )
            for i in range(n)
        ]

    def test_window_one_never_deadlocks(self):
        scheduler = StreamScheduler(self._jobs(5), workers=3, window=1)
        try:
            seeds = [r.seed for r in scheduler.results()]
        finally:
            stats = scheduler.finish()
        assert seeds == [1, 2, 3, 4, 5]
        assert stats["speculated"] == 0

    def test_stop_midway_counts_speculation(self):
        scheduler = StreamScheduler(
            self._jobs(8), workers=2, window=4, batch_size=1
        )
        folded = 0
        try:
            for _ in scheduler.results():
                folded += 1
                if folded == 2:
                    scheduler.stop()
                    break
        finally:
            stats = scheduler.finish()
        assert stats["folded"] == 2
        assert stats["speculated"] == stats["submitted"] - 2
        assert stats["speculated"] <= 4  # never past the window

    def test_explicit_knobs_not_tuned(self):
        scheduler = StreamScheduler(
            self._jobs(4), workers=2, window=3, batch_size=2, adaptive=True
        )
        try:
            list(scheduler.results())
        finally:
            stats = scheduler.finish()
        # Explicit window and batch: the controller must not touch them.
        assert stats["window"] == stats["initial_window"] == 3
        assert stats["batch_size"] == stats["initial_batch"] == 2

    def test_finish_is_idempotent(self):
        scheduler = StreamScheduler(self._jobs(2), workers=1)
        list(scheduler.results())
        first = scheduler.finish()
        second = scheduler.finish()
        assert first["folded"] == second["folded"] == 2


# ----------------------------------------------------------------------
# pre-warm compile failures: reported per job by the chunk path
# ----------------------------------------------------------------------
class TestPrewarmFailures:
    def _jobs(self, n=4):
        prog = preprocess(build_benchmark("SPV"))
        return [
            SimulationJob(
                prog=prog, seed=1 + i, options=SimulationOptions(steps=20)
            )
            for i in range(n)
        ]

    @requires_cc
    def test_failing_prewarm_compile_surfaces_as_typed_outcome(
        self, tmp_path, monkeypatch
    ):
        from repro.codegen import driver as driver_mod
        from repro.model.errors import CompilationError

        calls = {"n": 0}

        def failing_compiler(*args, **kwargs):
            calls["n"] += 1
            raise CompilationError("induced gcc failure")

        monkeypatch.setattr(driver_mod, "_run_compiler", failing_compiler)
        results = run_jobs(
            self._jobs(), workers=2, batch_size=2,
            cache=ArtifactCache(tmp_path / "cache"), backoff_seconds=0.0,
        )
        assert calls["n"] > 1  # the pre-warm and the chunk path both tried
        assert [r.ok for r in results] == [False] * 4
        assert all(
            r.error == "CompilationError: induced gcc failure"
            for r in results
        )

    def test_unexpected_prewarm_error_propagates(self, tmp_path, monkeypatch):
        from repro.engines import accmos as accmos_mod

        def broken(*args, **kwargs):
            raise RuntimeError("bug in compile_model")

        monkeypatch.setattr(accmos_mod, "compile_model", broken)
        with pytest.raises(RuntimeError, match="bug in compile_model"):
            run_jobs(
                self._jobs(), workers=2, batch_size=2,
                cache=ArtifactCache(tmp_path / "cache"),
            )
