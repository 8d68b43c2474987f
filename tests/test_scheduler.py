"""The chunk loop: one same-key chunk at a time.

Pins the invariants :func:`repro.runner.pool.run_chunks` promises:

* **Key-grouped chunks** — whatever the interleaving of keys, every job
  runs exactly once, in a chunk of its own key no larger than
  ``threads × batch_size``, groups in first-appearance order and
  indices ascending within a group (hypothesis property); so a
  one-key campaign folds in seed order like a serial loop, and
  :func:`run_jobs` hands every result back in its submission slot;
* **Byte-identity** — streaming vs a serial oracle (one ``run_job`` per
  seed, folded in seed order, no scheduler): merged bitmaps, per-case
  new points, diagnostic attribution, coverage curves, saturation
  verdict all equal;
* **Bounded, counted speculation** — a mid-stream saturation stops at
  once; the waste (the rest of the open chunk) is reported in
  ``CampaignOutcome.speculated_cases``.
"""

from __future__ import annotations

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.runner.pool as pool_mod

from repro.benchmarks import build_benchmark
from repro.campaign import CampaignOutcome, run_campaign
from repro.engines.base import SimulationOptions
from repro.model.errors import SimulationError
from repro.runner.cache import ArtifactCache
from repro.runner.campaign import _CampaignFold, campaign_options
from repro.runner.jobs import SimulationJob, run_job
from repro.runner.pool import run_chunks, run_jobs
from repro.schedule import preprocess

from conftest import requires_cc
from test_runner_campaign import _assert_outcomes_identical


# ----------------------------------------------------------------------
# chunk formation
# ----------------------------------------------------------------------
@given(
    keys=st.lists(st.sampled_from([None, "a", "b", "c"]), max_size=16),
    threads=st.integers(min_value=1, max_value=3),
    batch_size=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_any_key_interleaving_chunks_by_key(keys, threads, batch_size):
    """Each job stands for its own key; a fake batch runner records the
    chunks.  Keyless jobs are one-job chunks; keyed ones are cut from
    their key's group in index order."""
    chunks = []

    def fake_batch(jobs, **kwargs):
        chunks.append(list(jobs))
        return list(jobs)

    indices = list(range(len(keys)))
    stats: dict = {}
    with mock.patch.object(pool_mod, "batch_key", lambda job: keys[job]), \
            mock.patch.object(pool_mod, "run_job_batch", fake_batch):
        delivered = list(run_chunks(
            indices, threads=threads, batch_size=batch_size, stats=stats,
        ))
    assert all(index == result for index, result in delivered)
    assert sorted(index for index, _ in delivered) == indices
    assert [i for chunk in chunks for i in chunk] == [i for i, _ in delivered]
    for chunk in chunks:
        assert len({keys[i] for i in chunk}) == 1
        assert chunk == sorted(chunk)
        limit = 1 if keys[chunk[0]] is None else threads * batch_size
        assert len(chunk) <= limit
    # Groups run whole, one after another, in first-appearance order.
    def group(i):
        return i if keys[i] is None else keys[i]

    order = [group(chunk[0]) for chunk in chunks]
    runs = [g for n, g in enumerate(order) if n == 0 or order[n - 1] != g]
    assert len(runs) == len(set(runs))
    firsts = [min(i for i in indices if group(i) == g) for g in runs]
    assert firsts == sorted(firsts)
    assert stats["chunks"] == len(chunks)
    assert stats["submitted"] == stats["folded"] == len(keys)
    assert stats["speculated"] == 0


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
        """A chunk takes its key's jobs past another key's; run_jobs
        still hands results back in seed order."""
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
    options = campaign_options(steps)
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
# the stream's internals: speculation, idempotent finish
# ----------------------------------------------------------------------
class TestStreamScheduler:
    """:func:`run_chunks` is the stream scheduler (its stats say
    ``"scheduler": "stream"``)."""

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
        stats: dict = {}
        folded = 0
        stream = run_chunks(
            self._jobs(8, engine="accmos"), threads=2, batch_size=2,
            stats=stats, stop=lambda: folded >= 2, cache=False,
        )
        try:
            for _ in stream:
                folded += 1
        finally:
            stream.close()
        assert stats["folded"] == 2
        assert stats["chunks"] == 1  # chunks of 2 x 2; the next never ran
        assert stats["submitted"] == 4
        assert stats["speculated"] == 2

    def test_finish_is_idempotent(self):
        """The stats are filled once, when the stream ends; closing it
        again changes nothing."""
        stats: dict = {}
        stream = run_chunks(self._jobs(2), threads=1, batch_size=1,
                            stats=stats)
        list(stream)
        first = dict(stats)
        stream.close()
        assert stats == first
        assert stats["folded"] == 2


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
            cache=ArtifactCache(tmp_path / "cache"),
        )
        # One chunk of four jobs: its compile and one retry (retries=1),
        # and no job recompiles on its own.
        assert calls["n"] == 2
        assert [r.ok for r in results] == [False] * 4
        assert all(
            r.error == "CompilationError: induced gcc failure"
            for r in results
        )

    @requires_cc
    def test_failing_compile_of_one_job_runs_gcc_twice(
        self, tmp_path, monkeypatch
    ):
        """One AccMoS job, through ``run_job`` or ``run_jobs``, is a
        one-job chunk: its compile and one retry, then a typed failure
        (no per-job recompile on top)."""
        from repro.codegen import driver as driver_mod
        from repro.model.errors import CompilationError

        calls = {"n": 0}

        def failing_compiler(*args, **kwargs):
            calls["n"] += 1
            raise CompilationError("induced gcc failure")

        monkeypatch.setattr(driver_mod, "_run_compiler", failing_compiler)
        (job,) = self._jobs(1)
        cache = ArtifactCache(tmp_path / "cache")
        for run in (
            lambda: run_job(job, cache=cache, backoff_seconds=0.0),
            lambda: run_jobs([job], threads=1, cache=cache)[0],
        ):
            calls["n"] = 0
            result = run()
            assert calls["n"] == 2
            assert result.outcome == "failed"
            assert result.error == "CompilationError: induced gcc failure"

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
