"""Run a list of simulation jobs: the entry point over the scheduler.

:func:`run_jobs` hands a job list to the one dispatch loop,
:class:`~repro.runner.scheduler.StreamScheduler`, and collects its
results, one :class:`JobResult` per job in submission order regardless
of completion order — the property the deterministic campaign merge
builds on.  The scheduler runs chunks in one of two modes:

* ``"thread"`` (the default) — worker threads sharing one in-process
  :class:`~repro.runner.cache.ArtifactCache` (hit/miss counters
  included).  The heavy phases of an AccMoS job — the gcc invocation
  and the compiled binary's run — happen in child processes, during
  which CPython releases the GIL, so threads already use every core.
* ``"inproc-threads"`` — no pool: each chunk runs on one shared
  compiled model by private library instances inside this process
  (:mod:`repro.runner.inproc_threads`).
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro import telemetry
from repro.runner.jobs import JobResult, SimulationJob
from repro.runner.scheduler import StreamScheduler

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache


def default_workers() -> int:
    return min(32, os.cpu_count() or 1)


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
    stats_sink: Optional[dict] = None,
) -> list[JobResult]:
    """Execute every job; returns one :class:`JobResult` per job, in order.

    The jobs are dispatched by a
    :class:`~repro.runner.scheduler.StreamScheduler`: FIFO chunks of
    same-key jobs, a fixed in-flight window of ``2 × workers ×
    batch_size`` cases refilled the moment capacity frees.
    ``workers=None`` picks ``min(32, cpu_count)``; ``workers=1`` runs
    every chunk inline on the calling thread.  Individual job failures are *reported*, not raised
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
    created and closed on return.  ``inproc`` runs batched chunks inside
    the loaded shared library — the rung above ``serve`` on the ladder.

    ``mode="inproc-threads"`` skips worker pools entirely: each chunk of
    ``workers × batch_size`` same-key jobs runs on one shared
    :class:`CompiledModel` by ``workers`` threads holding private
    library instances inside *this* process (see
    :mod:`repro.runner.inproc_threads`), its shards packed from the
    process-wide cost store.  ``stats_sink``, if given, receives the
    scheduler's stats dict.
    """
    workers = default_workers() if workers is None else workers
    jobs = list(jobs)
    with telemetry.span(
        "runner.run_jobs", jobs=len(jobs), workers=workers, mode=mode,
        batch_size=batch_size,
    ):
        # Built inside the span: the scheduler adopts the current span
        # as the parent of every job span on its worker threads.  Its
        # constructor validates mode, workers and batch_size.
        scheduler = StreamScheduler(
            jobs,
            workers=workers,
            mode=mode,
            batch_size=batch_size,
            cache=cache,
            timeout_seconds=timeout_seconds,
            retries=retries,
            backoff_seconds=backoff_seconds,
            serve=serve,
            inproc=inproc,
            server_pool=server_pool,
        )
        try:
            results = list(scheduler.results())
        finally:
            stats = scheduler.finish()
            if stats_sink is not None:
                stats_sink.update(stats)
    return results
