"""Parallel campaigns produce byte-identical outcomes to serial runs."""

from __future__ import annotations

import pytest

from repro.benchmarks import build_benchmark
from repro.campaign import CampaignOutcome, run_campaign
from repro.coverage import Metric
from repro.runner import ArtifactCache
from repro.schedule import preprocess

from conftest import requires_cc


def _assert_outcomes_identical(serial: CampaignOutcome, parallel: CampaignOutcome):
    assert parallel.merged.bitmaps == serial.merged.bitmaps
    assert parallel.saturated == serial.saturated
    assert [
        (c.seed, c.steps_run, c.new_points, c.n_diagnostics,
         c.new_points_by_metric)
        for c in parallel.cases
    ] == [
        (c.seed, c.steps_run, c.new_points, c.n_diagnostics,
         c.new_points_by_metric)
        for c in serial.cases
    ]
    assert [
        (e.path, e.kind.value, e.first_step, e.count, seed)
        for e, seed in parallel.diagnostics
    ] == [
        (e.path, e.kind.value, e.first_step, e.count, seed)
        for e, seed in serial.diagnostics
    ]
    for metric in Metric:
        assert parallel.coverage_curve(metric) == serial.coverage_curve(metric)


@requires_cc
class TestParallelIdentity:
    @pytest.mark.parametrize("name", ["SPV", "RAC"])
    def test_table1_model_workers4_equals_workers1(self, name, tmp_path):
        """≥8 seeds, no early stop: merged bitmaps, diagnostics with
        first-exposing seeds, and the saturation flag all match."""
        cache = ArtifactCache(tmp_path / "cache")
        prog = preprocess(build_benchmark(name))
        kwargs = dict(steps=400, max_cases=8, plateau_patience=100,
                      cache=cache, threads=1)
        serial = run_campaign(prog, workers=1, **kwargs)
        parallel = run_campaign(prog, workers=4, **kwargs)
        assert serial.n_cases == parallel.n_cases == 8
        _assert_outcomes_identical(serial, parallel)
        # The stimulus-agnostic program gives every case one cache key:
        # the 16 runs across both sweeps cost exactly one gcc invocation.
        # (The exact hit count depends on auto-batching — each chunk
        # resolves the key once, not each case — so only the miss count
        # is pinned.)
        stats = cache.stats()
        assert stats.misses == 1
        assert stats.hits >= 1

    @pytest.mark.parametrize("workers,batch_size,mode", [
        (1, 4, "thread"),
        (3, 4, "thread"),
        (2, 3, "inproc-threads"),
    ])
    def test_batched_campaign_identical_one_compile(
        self, workers, batch_size, mode, tmp_path
    ):
        """batch_size > 1 runs many cases per process on one reused
        binary: outcomes stay byte-identical to the serial sweep, and a
        cold cache sees exactly one compiler invocation."""
        prog = preprocess(build_benchmark("SPV"))
        kwargs = dict(steps=400, max_cases=10, plateau_patience=100)
        serial = run_campaign(
            prog, workers=1, threads=1, cache=False, **kwargs
        )
        cache = ArtifactCache(tmp_path / "cache")
        threads = workers if mode == "inproc-threads" else 1
        batched = run_campaign(
            prog, workers=workers, batch_size=batch_size, threads=threads,
            cache=cache, **kwargs,
        )
        _assert_outcomes_identical(serial, batched)
        assert cache.stats().misses == 1

    def test_saturation_parity_mid_wave(self, tmp_path):
        """Saturation landing mid-stream discards the cases in flight."""
        cache = ArtifactCache(tmp_path / "cache")
        prog = preprocess(build_benchmark("SPV"))
        kwargs = dict(steps=2_000, max_cases=12, plateau_patience=2,
                      cache=cache, threads=1)
        serial = run_campaign(prog, workers=1, **kwargs)
        parallel = run_campaign(prog, workers=5, **kwargs)
        assert serial.saturated
        assert parallel.n_cases == serial.n_cases
        _assert_outcomes_identical(serial, parallel)


class TestParallelSse:
    """The pool also drives interpreted engines (no compiler needed)."""

    def test_sse_campaign_workers_equal(self):
        prog = preprocess(build_benchmark("SPV"))
        kwargs = dict(engine="sse", steps=30, max_cases=6,
                      plateau_patience=100)
        serial = run_campaign(prog, workers=1, **kwargs)
        parallel = run_campaign(prog, workers=3, **kwargs)
        _assert_outcomes_identical(serial, parallel)
