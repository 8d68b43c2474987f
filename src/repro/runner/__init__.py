"""Simulation-job runner with a compiled-artifact cache.

The pieces:

* :mod:`repro.runner.cache` — persistent, content-addressed cache of
  compiled AccMoS libraries (key: SHA-256 of source + compiler + flags);
  repeated simulations of an unchanged model skip gcc entirely, and
  concurrent compiles of one key in one process run gcc once;
* :mod:`repro.runner.jobs` — seeded :class:`SimulationJob` specs with
  per-job timeout, bounded retry with backoff, and structured
  :class:`JobResult` records (outcome, attempts, per-phase timings);
* :mod:`repro.runner.pool` — the one chunk loop,
  :func:`~repro.runner.pool.run_chunks`: jobs grouped by key, one chunk
  at a time in-process on ``threads`` private library instances,
  behind both :func:`run_jobs` and every campaign;
* :mod:`repro.runner.campaign` — the campaign core whose parallel
  merges are byte-identical to serial runs.
"""

from repro.runner.cache import (
    ArtifactCache,
    CacheEntry,
    CacheStats,
    cache_key,
    default_cache,
    default_cache_dir,
    set_default_cache,
)
from repro.runner.jobs import (
    OUTCOME_FAILED,
    OUTCOME_OK,
    OUTCOME_TIMEOUT,
    JobResult,
    SimulationJob,
    run_job,
)
from repro.runner.pool import run_jobs

__all__ = [
    "ArtifactCache",
    "CacheEntry",
    "CacheStats",
    "cache_key",
    "default_cache",
    "default_cache_dir",
    "set_default_cache",
    "SimulationJob",
    "JobResult",
    "run_job",
    "run_jobs",
    "OUTCOME_OK",
    "OUTCOME_TIMEOUT",
    "OUTCOME_FAILED",
]
