"""Parallel simulation-job runner with a compiled-artifact cache.

The pieces:

* :mod:`repro.runner.cache` — persistent, content-addressed cache of
  compiled AccMoS binaries (key: SHA-256 of source + compiler + flags);
  repeated simulations of an unchanged model skip gcc entirely;
* :mod:`repro.runner.jobs` / :mod:`repro.runner.pool` — seeded
  :class:`SimulationJob` specs with per-job timeout, bounded retry with
  backoff, and structured :class:`JobResult` records (outcome,
  attempts, per-phase timings); :func:`run_jobs` runs a list of them;
* :mod:`repro.runner.servers` — warm-process pool of persistent host
  processes serving compiled libraries, keyed by artifact, reused
  across batches and chunks (idle-TTL / LRU retirement);
* :mod:`repro.runner.inproc_threads` / :mod:`repro.runner.costmodel` —
  the thread-parallel in-process dispatcher behind
  ``run_jobs(mode="inproc-threads")``, which packs each group's cases
  into per-thread shards by LPT on predicted ``steps × actors`` cost
  (coefficients persisted per (engine, compile key) and warm-started
  across campaigns);
* :mod:`repro.runner.scheduler` — the one dispatch loop: a FIFO
  streaming scheduler (same-key chunks, fixed in-flight window,
  seed-ordered reorder buffer) running chunks on worker threads or
  in-process library instances, behind both :func:`run_jobs` and every
  campaign;
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
from repro.runner.costmodel import (
    CaseCostModel,
    CostModelStore,
    cost_key,
    default_cost_store,
    pack_shards,
    set_default_cost_store,
)
from repro.runner.pool import default_workers, run_jobs
from repro.runner.scheduler import ReorderBuffer, StreamScheduler
from repro.runner.servers import ServerPool

__all__ = [
    "ServerPool",
    "CaseCostModel",
    "CostModelStore",
    "cost_key",
    "default_cost_store",
    "set_default_cost_store",
    "pack_shards",
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
    "default_workers",
    "OUTCOME_OK",
    "OUTCOME_TIMEOUT",
    "OUTCOME_FAILED",
]
