"""Streaming campaign scheduler: one same-key chunk at a time.

Pins the invariants :mod:`repro.runner.scheduler` promises:

* **Seed-order delivery** — the reorder buffer turns *any* completion
  order back into submission order (hypothesis property), so a chunk
  that skips over another key's jobs still folds like a serial loop;
* **Byte-identity** — streaming vs a serial oracle (one ``run_job`` per
  seed, folded in seed order, no scheduler): merged bitmaps, per-case
  new points, diagnostic attribution, coverage curves, saturation
  verdict all equal;
* **Bounded, counted speculation** — a mid-stream saturation stops at
  once; the waste (the rest of the open chunk) is reported in
  ``CampaignOutcome.speculated_cases``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.benchmarks import build_benchmark
from repro.campaign import CampaignOutcome, run_campaign
from repro.engines.base import SimulationOptions
from repro.model.errors import SimulationError
from repro.runner.cache import ArtifactCache
from repro.runner.campaign import _CampaignFold
from repro.runner.jobs import SimulationJob, run_job
from repro.runner.pool import run_jobs
from repro.runner.scheduler import ReorderBuffer, StreamScheduler
from repro.schedule import preprocess

from conftest import requires_cc
from test_runner_campaign import _assert_outcomes_identical


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
# streaming dispatch: run_jobs identity
# ----------------------------------------------------------------------
class TestRunJobsStreaming:
    def _jobs(self, n=10):
        prog = preprocess(build_benchmark("SPV"))
        # Varied step counts: cases of unequal cost.
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
            jobs, threads=4, batch_size=3, stats_sink=stats
        )
        assert [r.seed for r in streamed] == [r.seed for r in reference]
        for ref, got in zip(reference, streamed):
            assert got.ok and ref.ok
            assert got.result.checksums == ref.result.checksums
            assert got.result.coverage.bitmaps == ref.result.coverage.bitmaps
        assert stats["submitted"] == stats["folded"] == len(jobs)
        assert stats["speculated"] == 0
        assert (stats["threads"], stats["batch_size"]) == (4, 3)
        # Interpreted jobs have no batch key: one chunk per job.
        assert stats["chunks"] == len(jobs)

    @requires_cc
    def test_interleaved_keys_deliver_seed_order(self, tmp_path):
        """A chunk takes its key's successors past another key's jobs;
        the reorder buffer still hands results back in seed order."""
        progs = [preprocess(build_benchmark(n)) for n in ("SPV", "RAC")]
        options = SimulationOptions(steps=50)
        jobs = [
            SimulationJob(prog=progs[i % 2], seed=1 + i, options=options)
            for i in range(8)
        ]
        reference = [run_job(job, cache=False) for job in jobs]
        stats: dict = {}
        streamed = run_jobs(
            jobs, threads=2, batch_size=2, stats_sink=stats,
            cache=ArtifactCache(tmp_path / "cache"),
        )
        assert [r.seed for r in streamed] == list(range(1, 9))
        for ref, got in zip(reference, streamed):
            assert got.ok and ref.ok
            assert got.result.checksums == ref.result.checksums
        assert stats["chunks"] == 2  # one per key, each of 4 jobs

    def test_failures_reported_not_raised(self, monkeypatch):
        import repro.runner.jobs as jobs_mod

        def boom(*args, **kwargs):
            raise RuntimeError("engine exploded")

        monkeypatch.setattr(jobs_mod, "_run_once", boom)
        results = run_jobs(self._jobs(4), threads=2)
        assert [r.ok for r in results] == [False] * 4
        assert all("engine exploded" in r.error for r in results)


# ----------------------------------------------------------------------
# campaign identity: streaming vs a serial oracle
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


@requires_cc
def test_mid_stream_saturation_cutoff(tmp_path):
    """Saturation lands mid-stream: the scheduler stops at once, the
    outcome equals the serial verdict, and the discarded speculation is
    counted, bounded by the open chunk."""
    cache = ArtifactCache(tmp_path / "cache")
    prog = preprocess(build_benchmark("SPV"))
    kwargs = dict(steps=2000, max_cases=12, plateau_patience=3, cache=cache)

    serial = _serial_oracle(prog, **kwargs)
    assert serial.saturated and serial.n_cases < 12

    stream = run_campaign(prog, threads=2, batch_size=2, **kwargs)
    _assert_outcomes_identical(serial, stream)
    stats = stream.scheduler_stats
    # Chunks of threads x batch = 4: at most the rest of the open chunk
    # is discarded once saturation folds...
    assert stream.speculated_cases <= 3
    assert stats["speculated"] == stream.speculated_cases
    # ...and the scheduler never got anywhere near the case budget.
    assert stats["submitted"] <= serial.n_cases + 3


@requires_cc
def test_threaded_streaming_campaign_matches_serial(tmp_path):
    cache = ArtifactCache(tmp_path / "cache")
    prog = preprocess(build_benchmark("SPV"))
    kwargs = dict(steps=1000, max_cases=8, plateau_patience=100, cache=cache)
    serial = _serial_oracle(prog, **kwargs)
    threaded = run_campaign(prog, threads=4, **kwargs)
    _assert_outcomes_identical(serial, threaded)
    assert threaded.scheduler_stats["threads"] == 4


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
# scheduler internals: speculation, idempotent finish
# ----------------------------------------------------------------------
class TestStreamScheduler:
    def _jobs(self, n, engine="sse"):
        prog = preprocess(build_benchmark("SPV"))
        return [
            SimulationJob(
                prog=prog, seed=1 + i, engine=engine,
                options=SimulationOptions(steps=60),
            )
            for i in range(n)
        ]

    @requires_cc
    def test_stop_midway_counts_speculation(self):
        scheduler = StreamScheduler(
            self._jobs(8, engine="accmos"), threads=2, batch_size=2,
            cache=False,
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
        assert stats["chunks"] == 1  # chunks of 2 x 2; the next never ran
        assert stats["submitted"] == 4
        assert stats["speculated"] == 2

    def test_finish_is_idempotent(self):
        scheduler = StreamScheduler(self._jobs(2))
        list(scheduler.results())
        first = scheduler.finish()
        second = scheduler.finish()
        assert first["folded"] == second["folded"] == 2


# ----------------------------------------------------------------------
# chunk compile failures: reported per job (the pre-warm that used to
# compile ahead of the chunks is gone; the chunk's compile is the one
# that fails now)
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
            self._jobs(), threads=2, batch_size=2,
            cache=ArtifactCache(tmp_path / "cache"), backoff_seconds=0.0,
        )
        assert calls["n"] > 1  # the chunk and the per-job path both tried
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
                self._jobs(), threads=2, batch_size=2,
                cache=ArtifactCache(tmp_path / "cache"),
            )
