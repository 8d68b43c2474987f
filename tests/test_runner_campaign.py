"""Parallel campaigns produce byte-identical outcomes to serial runs."""

from __future__ import annotations

import pytest

from repro.benchmarks import build_benchmark
from repro.campaign import CampaignOutcome, run_campaign
from repro.coverage import Metric
from repro.runner import ArtifactCache
from repro.schedule import preprocess
from repro.service.codec import encode, outcome_record

from conftest import requires_cc
from helpers import ZOO


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
        """≥8 seeds, no early stop, 4 threads vs 1: merged bitmaps,
        diagnostics with first-exposing seeds, and the saturation flag
        all match."""
        cache = ArtifactCache(tmp_path / "cache")
        prog = preprocess(build_benchmark(name))
        kwargs = dict(steps=400, max_cases=8, plateau_patience=100,
                      cache=cache)
        serial = run_campaign(prog, threads=1, **kwargs)
        parallel = run_campaign(prog, threads=4, **kwargs)
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

    @pytest.mark.parametrize("threads,batch_size", [(1, 4), (3, 4), (2, 3)])
    def test_batched_campaign_identical_one_compile(
        self, threads, batch_size, tmp_path
    ):
        """batch_size > 1 runs many cases per thread on one reused
        library: outcomes stay byte-identical to the case-by-case sweep,
        and a cold cache sees exactly one compiler invocation."""
        prog = preprocess(build_benchmark("SPV"))
        kwargs = dict(steps=400, max_cases=10, plateau_patience=100)
        serial = run_campaign(
            prog, threads=1, batch_size=1, cache=False, **kwargs
        )
        cache = ArtifactCache(tmp_path / "cache")
        batched = run_campaign(
            prog, batch_size=batch_size, threads=threads, cache=cache,
            **kwargs,
        )
        _assert_outcomes_identical(serial, batched)
        assert cache.stats().misses == 1

    def test_saturation_parity_mid_wave(self, tmp_path):
        """Saturation landing mid-stream discards the cases in flight."""
        cache = ArtifactCache(tmp_path / "cache")
        prog = preprocess(build_benchmark("SPV"))
        kwargs = dict(steps=2_000, max_cases=12, plateau_patience=2,
                      cache=cache)
        serial = run_campaign(prog, threads=1, batch_size=1, **kwargs)
        parallel = run_campaign(prog, threads=5, **kwargs)
        assert serial.saturated
        assert parallel.n_cases == serial.n_cases
        _assert_outcomes_identical(serial, parallel)


class TestParallelSse:
    """Interpreted engines run case by case whatever ``threads`` says
    (no compiler needed)."""

    def test_sse_campaign_workers_equal(self):
        prog = preprocess(build_benchmark("SPV"))
        kwargs = dict(engine="sse", steps=30, max_cases=6,
                      plateau_patience=100)
        serial = run_campaign(prog, threads=1, **kwargs)
        parallel = run_campaign(prog, threads=3, **kwargs)
        _assert_outcomes_identical(serial, parallel)


# ----------------------------------------------------------------------
# the one route: every thread count and batch size, bytes equal SSE's
# ----------------------------------------------------------------------
IDENTITY = dict(steps=150, max_cases=7, plateau_patience=3)


@pytest.fixture(scope="module")
def identity_cache(tmp_path_factory):
    return ArtifactCache(tmp_path_factory.mktemp("identity") / "cache")


@pytest.fixture(scope="module")
def sse_bytes():
    """Canonical SSE outcome bytes per zoo model, computed once."""
    memo: dict = {}

    def get(name, prog):
        if name not in memo:
            memo[name] = encode(
                outcome_record(run_campaign(prog, engine="sse", **IDENTITY))
            )
        return memo[name]

    return get


@requires_cc
@pytest.mark.parametrize("batch_size", [1, 3, None])
@pytest.mark.parametrize("threads", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(ZOO))
def test_one_route_matches_sse(
    name, threads, batch_size, identity_cache, sse_bytes
):
    """Every AccMoS campaign runs one way — same-key chunks of
    ``threads × batch_size`` cases, in-process on ``threads`` threads —
    and its canonical outcome bytes (the ones ``repro campaign --json``
    prints and the service streams) equal the SSE interpreter's, for
    every thread count and batch size, saturation included."""
    prog = preprocess(ZOO[name]()[0])
    outcome = run_campaign(
        prog, threads=threads, batch_size=batch_size, cache=identity_cache,
        **IDENTITY,
    )
    assert outcome.scheduler_stats["threads"] == threads
    assert encode(outcome_record(outcome)) == sse_bytes(name, prog)
