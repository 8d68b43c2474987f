"""Run a list of simulation jobs: the entry point over the scheduler.

:func:`run_jobs` hands a job list to the one dispatch loop,
:class:`~repro.runner.scheduler.StreamScheduler`, and collects its
results, one :class:`JobResult` per job in submission order regardless
of completion order — the property the deterministic campaign merge
builds on.  The scheduler runs chunks in one of three modes:

* ``"thread"`` (the default) — worker threads sharing one in-process
  :class:`~repro.runner.cache.ArtifactCache` (hit/miss counters
  included).  The heavy phases of an AccMoS job — the gcc invocation
  and the compiled binary's run — happen in child processes, during
  which CPython releases the GIL, so threads already use every core.
* ``"process"`` — worker processes, for full interpreter isolation.
  Chunks cross the process boundary by pickling into
  :func:`_run_chunk_in_process`, which rebuilds the cache from its root
  path and ships back what the workers cannot share: artifact-cache
  counter deltas (folded into the parent's handle, so ``cache.stats()``
  counts the whole pool's traffic), warm-server counters and — when
  telemetry is enabled — the worker's spans and metrics, absorbed into
  the parent session under this dispatch's ``runner.run_jobs`` span.
* ``"inproc-threads"`` — no pool: each chunk runs on one shared
  compiled model by private library instances inside this process
  (:mod:`repro.runner.inproc_threads`).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro import telemetry
from repro.runner.costmodel import CostModelStore, default_cost_store
from repro.runner.jobs import JobResult, SimulationJob, run_job_batch
from repro.runner.scheduler import StreamScheduler

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache


def default_workers() -> int:
    return min(32, os.cpu_count() or 1)


def _run_chunk_in_process(
    chunk: "list[SimulationJob]",
    cache_root: Optional[str],
    max_bytes: Optional[int],
    timeout_seconds: Optional[float],
    retries: int,
    backoff_seconds: float,
    telemetry_on: bool = False,
    serve: bool = False,
    inproc: bool = False,
) -> "list[JobResult]":
    """Process-pool entry point for a batched chunk of same-key jobs.

    The chunk's cache-counter deltas and telemetry payload ride back on
    its first result (the chunk is folded as one unit by the parent).
    With ``serve``, the chunk streams through the worker process's
    module-global warm-server pool — servers survive between chunks of
    the same worker — and the pool's counter deltas ride back the same
    way (``JobResult.server_stats``).
    """
    session = telemetry.enable() if telemetry_on else None
    cache: "Union[ArtifactCache, None, bool]" = False
    if cache_root is not None:
        from repro.runner.cache import ArtifactCache

        cache = ArtifactCache(cache_root, max_bytes=max_bytes)
    server_pool = None
    if serve:
        from repro.runner.servers import worker_pool

        server_pool = worker_pool()
    try:
        results = run_job_batch(
            chunk,
            cache=cache,
            timeout_seconds=timeout_seconds,
            retries=retries,
            backoff_seconds=backoff_seconds,
            server_pool=server_pool,
            inproc=inproc,
        )
    finally:
        if session is not None:
            telemetry.disable()
    if cache_root is not None and results:
        results[0].cache_stats = cache.counters()
    if session is not None and results:
        results[0].telemetry = session.export()
    if server_pool is not None and results:
        results[0].server_stats = server_pool.pop_stats()
    return results


def run_jobs(
    jobs: Sequence[SimulationJob],
    *,
    workers: Optional[int] = None,
    mode: str = "thread",
    cache: "Union[ArtifactCache, None, bool]" = None,
    timeout_seconds: Optional[float] = None,
    retries: int = 1,
    backoff_seconds: float = 0.05,
    batch_size: int = 1,
    serve: bool = False,
    server_pool=None,
    inproc: bool = False,
    window: Optional[int] = None,
    adaptive: bool = False,
    cost_store: Optional[CostModelStore] = None,
    stats_sink: Optional[dict] = None,
) -> list[JobResult]:
    """Execute every job; returns one :class:`JobResult` per job, in order.

    The jobs are dispatched by a
    :class:`~repro.runner.scheduler.StreamScheduler`: a bounded
    in-flight ``window`` of cases (default ``workers × batch_size``)
    refilled the moment capacity frees, with cost-aware admission and —
    with ``adaptive`` — auto-tuned batching.  ``workers=None`` picks
    ``min(32, cpu_count)``; ``workers=1`` runs every chunk inline on the
    calling thread.  Individual job failures are *reported*, not raised
    — check ``JobResult.outcome``.

    ``batch_size > 1`` groups AccMoS jobs that share a program and
    structural options into multi-case chunks of up to that many jobs,
    each served by one compiled library and one multi-case run (see
    :func:`repro.runner.jobs.run_job_batch`); results are still one per
    job, in submission order.

    ``serve`` streams batched chunks through warm host processes instead
    of spawning a private host per chunk.  ``server_pool`` supplies a
    caller-owned :class:`~repro.runner.servers.ServerPool` that outlives
    this call; without it (and with ``serve``) a dispatch-local pool is
    created and closed on return.  In process mode each worker process
    keeps its own pool.  ``inproc`` runs batched chunks inside the
    loaded shared library — the rung above ``serve`` on the ladder.

    ``mode="inproc-threads"`` skips worker pools entirely: each chunk of
    ``workers × batch_size`` same-key jobs runs on one shared
    :class:`CompiledModel` by ``workers`` threads holding private
    library instances inside *this* process (see
    :mod:`repro.runner.inproc_threads`).

    Observed execute timings feed ``cost_store`` (default: the
    process-wide persistent store, not saved here).  ``stats_sink``, if
    given, receives the scheduler's stats dict.
    """
    workers = default_workers() if workers is None else workers
    jobs = list(jobs)
    with telemetry.span(
        "runner.run_jobs", jobs=len(jobs), workers=workers, mode=mode,
        batch_size=batch_size,
    ):
        # Built inside the span: the scheduler adopts the current span
        # as the parent of every job span, across threads and processes.
        # Its constructor validates mode, workers, batch_size and window.
        scheduler = StreamScheduler(
            jobs,
            workers=workers,
            mode=mode,
            window=window,
            batch_size=batch_size,
            adaptive=adaptive,
            cache=cache,
            timeout_seconds=timeout_seconds,
            retries=retries,
            backoff_seconds=backoff_seconds,
            serve=serve,
            inproc=inproc,
            server_pool=server_pool,
            cost_store=(
                default_cost_store() if cost_store is None else cost_store
            ),
        )
        try:
            results = list(scheduler.results())
        finally:
            stats = scheduler.finish()
            if stats_sink is not None:
                stats_sink.update(stats)
    return results
