"""Run a list of simulation jobs: the entry point over the scheduler.

:func:`run_jobs` hands a job list to the one dispatch loop,
:class:`~repro.runner.scheduler.StreamScheduler`, and collects its
results, one :class:`JobResult` per job in submission order — the
property the deterministic campaign merge builds on.  Same-key AccMoS
jobs run in chunks, in-process on ``threads`` private library
instances; every other job runs on its own.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Sequence, Union

from repro import telemetry
from repro.runner.jobs import JobResult, SimulationJob
from repro.runner.scheduler import StreamScheduler

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache


def run_jobs(
    jobs: Sequence[SimulationJob],
    *,
    threads: Optional[int] = None,
    cache: "Union[ArtifactCache, None, bool]" = None,
    timeout_seconds: Optional[float] = None,
    retries: int = 1,
    backoff_seconds: float = 0.05,
    batch_size: int = 1,
    stats_sink: Optional[dict] = None,
) -> list[JobResult]:
    """Execute every job; returns one :class:`JobResult` per job, in order.

    Same-key AccMoS jobs (:func:`~repro.runner.jobs.batch_key`) run in
    chunks of up to ``threads × batch_size``, each on one compiled
    library, in-process on ``threads`` threads.  ``threads=None`` picks
    the campaign's auto count
    (:func:`~repro.runner.campaign.resolve_threads`).  Individual job
    failures are *reported*, not raised — check ``JobResult.outcome``.
    ``stats_sink``, if given, receives the scheduler's stats dict.
    """
    from repro.runner.campaign import resolve_threads

    if threads is None:
        # Only AccMoS chunks run threaded, so auto resolves as for AccMoS.
        threads = resolve_threads(None, engine="accmos")
    jobs = list(jobs)
    with telemetry.span(
        "runner.run_jobs", jobs=len(jobs), threads=threads,
        batch_size=batch_size,
    ):
        # The constructor validates threads and batch_size.
        scheduler = StreamScheduler(
            jobs,
            threads=threads,
            batch_size=batch_size,
            cache=cache,
            timeout_seconds=timeout_seconds,
            retries=retries,
            backoff_seconds=backoff_seconds,
        )
        try:
            results = list(scheduler.results())
        finally:
            stats = scheduler.finish()
            if stats_sink is not None:
                stats_sink.update(stats)
    return results
