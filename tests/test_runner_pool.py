"""Job runner: outcomes, retries, timeouts, pool ordering."""

from __future__ import annotations

import pytest

import repro.engines.api as engines_api
from repro.dtypes import I32
from repro.engines.base import SimulationOptions
from repro.model import ModelBuilder
from repro.model.errors import SimulationError, SimulationTimeout
from repro.runner import (
    ArtifactCache,
    JobResult,
    SimulationJob,
    run_job,
    run_jobs,
)
from repro.runner import jobs as jobs_mod
from repro.schedule import preprocess
from repro.stimuli import default_stimuli

from conftest import requires_cc


def _prog():
    b = ModelBuilder("Jobs")
    x = b.inport("X", dtype=I32)
    acc = b.accumulator("Acc", x, dtype=I32)
    b.outport("Y", acc)
    return preprocess(b.build())


class TestRunJob:
    def test_sse_job_ok(self):
        result = run_job(
            SimulationJob(prog=_prog(), seed=3, engine="sse",
                          options=SimulationOptions(steps=25))
        )
        assert result.ok and result.outcome == "ok"
        assert result.attempts == 1
        assert result.result.steps_run == 25
        assert result.timings["execute"] > 0
        assert result.total_seconds > 0

    @requires_cc
    def test_accmos_job_phase_timings_and_cache(self, tmp_path):
        cache = ArtifactCache(tmp_path / "cache")
        job = SimulationJob(prog=_prog(), seed=3,
                            options=SimulationOptions(steps=25))
        first = run_job(job, cache=cache)
        assert first.ok and not first.cache_hit
        assert set(first.timings) == {"codegen", "compile", "execute", "parse"}
        second = run_job(job, cache=cache)
        assert second.ok and second.cache_hit
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 1)
        assert second.result.checksums == first.result.checksums

    @requires_cc
    def test_timeout_reported_not_retried(self, tmp_path):
        job = SimulationJob(prog=_prog(),
                            options=SimulationOptions(steps=500_000_000))
        result = run_job(job, cache=ArtifactCache(tmp_path / "cache"),
                         timeout_seconds=0.05, retries=3)
        assert result.outcome == "timeout"
        assert result.attempts == 1  # a retry would burn the same budget
        assert isinstance(result.exception, SimulationTimeout)
        assert "wall-clock" in result.error

    def test_transient_failure_retried_with_backoff(self, monkeypatch):
        calls = {"n": 0}
        real = engines_api.simulate

        def flaky(*args, **kwargs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise SimulationError("transient: child OOM-killed")
            return real(*args, **kwargs)

        monkeypatch.setattr(engines_api, "simulate", flaky)
        sleeps = []
        result = run_job(
            SimulationJob(prog=_prog(), engine="sse",
                          options=SimulationOptions(steps=5)),
            retries=2, backoff_seconds=0.01, _sleep=sleeps.append,
        )
        assert result.ok and result.attempts == 2
        assert sleeps == [0.01]

    def test_retries_exhausted_reports_failed(self, monkeypatch):
        def always_broken(*args, **kwargs):
            raise SimulationError("persistent")

        monkeypatch.setattr(engines_api, "simulate", always_broken)
        sleeps = []
        result = run_job(
            SimulationJob(prog=_prog(), engine="sse",
                          options=SimulationOptions(steps=5)),
            retries=2, backoff_seconds=0.01, _sleep=sleeps.append,
        )
        assert result.outcome == "failed"
        assert result.attempts == 3
        assert sleeps == [0.01, 0.02]  # exponential backoff

    def test_non_transient_failure_not_retried(self, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("a bug, not bad luck")

        monkeypatch.setattr(engines_api, "simulate", broken)
        result = run_job(
            SimulationJob(prog=_prog(), engine="sse",
                          options=SimulationOptions(steps=5)),
            retries=5, _sleep=lambda s: pytest.fail("must not sleep"),
        )
        assert result.outcome == "failed" and result.attempts == 1
        assert "ValueError" in result.error

    def test_rejects_negative_retries(self):
        with pytest.raises(ValueError, match="retries"):
            run_job(SimulationJob(prog=_prog(), engine="sse"), retries=-1)


class TestRunJobs:
    def _jobs(self, n=4, steps=10):
        prog = _prog()
        return [
            SimulationJob(prog=prog, seed=seed, engine="sse",
                          options=SimulationOptions(steps=steps))
            for seed in range(1, n + 1)
        ]

    def test_results_in_submission_order(self):
        results = run_jobs(self._jobs(6), threads=3)
        assert [r.seed for r in results] == [1, 2, 3, 4, 5, 6]
        assert all(isinstance(r, JobResult) and r.ok for r in results)

    def test_single_worker_runs_inline(self, monkeypatch):
        import threading

        import repro.runner.jobs as jobs_mod

        seen = []
        real = jobs_mod._run_once

        def recording(*args, **kwargs):
            seen.append(threading.current_thread())
            return real(*args, **kwargs)

        monkeypatch.setattr(jobs_mod, "_run_once", recording)
        results = run_jobs(self._jobs(2), threads=1)
        assert [r.seed for r in results] == [1, 2]
        assert seen == [threading.current_thread()] * 2

    def test_validation(self):
        with pytest.raises(ValueError, match="threads"):
            run_jobs(self._jobs(2), threads=0)
        with pytest.raises(ValueError, match="batch_size"):
            run_jobs(self._jobs(2), batch_size=0)
        with pytest.raises(TypeError, match="mode"):
            run_jobs(self._jobs(2), mode="process")

    @requires_cc
    def test_one_compile_serves_identical_jobs(self, tmp_path):
        """Identical (source, flags) jobs across a wave: 1 miss, N-1 hits."""
        cache = ArtifactCache(tmp_path / "cache")
        prog = _prog()
        opts = SimulationOptions(steps=10)
        jobs = [
            SimulationJob(prog=prog, seed=7, options=opts)
            for _ in range(4)
        ]
        results = run_jobs(jobs, threads=1, cache=cache)
        assert all(r.ok for r in results)
        stats = cache.stats()
        assert (stats.misses, stats.hits) == (1, 3)


@requires_cc
class TestExecuteTimeout:
    def test_execute_timeout_kills_and_raises(self, tmp_path):
        """The per-case deadline stops a case inside the library; the
        single-case path raises it as a SimulationTimeout."""
        model = self._compiled(tmp_path)
        with pytest.raises(SimulationTimeout, match="wall-clock"):
            model.run(
                default_stimuli(model.prog),
                SimulationOptions(steps=500_000_000),
                timeout_seconds=0.05,
            )

    def test_execute_without_timeout_still_works(self, tmp_path):
        model = self._compiled(tmp_path)
        result = model.run(default_stimuli(model.prog))
        assert result.steps_run == 10

    @staticmethod
    def _compiled(tmp_path):
        """The pool test program compiled into a cache in ``tmp_path``."""
        from repro.engines.accmos import compile_model
        from repro.runner.cache import ArtifactCache

        return compile_model(
            _prog(), SimulationOptions(steps=10),
            cache=ArtifactCache(tmp_path),
        )
