"""Simulation-job runner with a compiled-artifact cache.

The pieces:

* :mod:`repro.runner.cache` — persistent, content-addressed cache of
  compiled AccMoS libraries (key: SHA-256 of source + compiler + flags);
  repeated simulations of an unchanged model skip gcc entirely, and
  concurrent compiles of one key in one process run gcc once;
* :mod:`repro.runner.jobs` / :mod:`repro.runner.pool` — seeded
  :class:`SimulationJob` specs with per-job timeout, bounded retry with
  backoff, and structured :class:`JobResult` records (outcome,
  attempts, per-phase timings); :func:`run_jobs` runs a list of them;
* :mod:`repro.runner.scheduler` — the one dispatch loop: a FIFO
  scheduler that runs one same-key chunk at a time, in-process on
  ``threads`` private library instances, and delivers results in seed
  order, behind both :func:`run_jobs` and every campaign;
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
from repro.runner.scheduler import ReorderBuffer, StreamScheduler

__all__ = [
    "ReorderBuffer",
    "StreamScheduler",
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
