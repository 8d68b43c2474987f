"""Run a list of simulation jobs: the one chunk loop.

Every job list — a campaign's seed sweep or a :func:`run_jobs` call —
is dispatched by :func:`run_chunks`, one chunk at a time on the calling
thread.  Jobs are grouped by :func:`~repro.runner.jobs.batch_key`, and
each group is cut into chunks of ``threads × batch_size`` that run
in-process on ``threads`` private library instances
(:func:`~repro.runner.jobs.run_job_batch`), so the parallelism lives
inside the chunk and no pool of worker threads is needed.  A group
compiles once (:class:`~repro.runner.jobs.GroupCompile`): its chunks
share the compiled model, or the compile failure.  Jobs without
a key (the interpreted engines) run one at a time: they hold the GIL.

Byte-identity: chunk membership, thread count and batch size change
*scheduling* only; each case's result is produced by the same per-case
execution ladder.  A campaign has one key, so its results come out in
seed order and fold exactly as a serial loop would; :func:`run_jobs`
returns every result in its submission slot whatever order the groups
ran in.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

from repro import telemetry
from repro.runner.jobs import (
    GroupCompile,
    JobResult,
    SimulationJob,
    batch_key,
    run_job_batch,
)

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache


def run_chunks(
    jobs: Sequence[SimulationJob],
    *,
    threads: int,
    batch_size: int,
    stats: dict,
    stop: Callable[[], bool] = lambda: False,
    cache: "Union[ArtifactCache, None, bool]" = None,
    timeout_seconds: Optional[float] = None,
) -> Iterator["tuple[int, JobResult]"]:
    """Yield ``(index, result)`` for every job, one chunk at a time.

    Job indices are grouped by key in first-appearance order; a keyless
    job is a chunk of its own.  Within a chunk results come out in
    index order.  The generator is lazy: a chunk runs only when the
    consumer asks for its first result, and ``stop()`` turning true
    ends the stream before the next result, so a consumer that stops
    early (saturation, cancel) wastes only the rest of the open chunk.
    Per-case simulation failures come back as failed
    :class:`JobResult`\\ s; anything else a chunk raises propagates.

    ``stats`` receives the run report — ``scheduler``, ``threads``,
    ``batch_size``, ``submitted``, ``folded`` (results handed out),
    ``speculated`` (run but never handed out), ``chunks``,
    ``elapsed_seconds``, ``throughput`` — once the generator ends or is
    closed; speculation also lands in the ``campaign.speculated_cases``
    counter.
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    if batch_size < 1:
        raise ValueError("batch_size must be at least 1")
    started = time.perf_counter()
    stats.update(
        scheduler="stream", threads=threads, batch_size=batch_size,
        submitted=0, folded=0, chunks=0,
    )
    groups: "dict[object, list[int]]" = {}
    for index, job in enumerate(jobs):
        key = batch_key(job)
        groups.setdefault(index if key is None else key, []).append(index)
    size = threads * batch_size
    try:
        for group in groups.values():
            # One compile per group, resolved by its first chunk.
            compiled = GroupCompile(jobs[group[0]], cache=cache)
            for start in range(0, len(group), size):
                if stop():
                    return
                chunk = group[start:start + size]
                stats["submitted"] += len(chunk)
                stats["chunks"] += 1
                results = run_job_batch(
                    [jobs[i] for i in chunk],
                    threads=threads,
                    cache=cache,
                    timeout_seconds=timeout_seconds,
                    compiled=compiled,
                )
                for index, result in zip(chunk, results):
                    if stop():
                        return
                    stats["folded"] += 1
                    yield index, result
    finally:
        elapsed = time.perf_counter() - started
        speculated = stats["submitted"] - stats["folded"]
        stats.update(
            speculated=speculated,
            elapsed_seconds=elapsed,
            throughput=stats["folded"] / elapsed if elapsed > 0 else 0.0,
        )
        if speculated:
            telemetry.counter_inc("campaign.speculated_cases", speculated)


def run_jobs(
    jobs: Sequence[SimulationJob],
    *,
    threads: Optional[int] = None,
    cache: "Union[ArtifactCache, None, bool]" = None,
    timeout_seconds: Optional[float] = None,
    batch_size: int = 1,
    stats_sink: Optional[dict] = None,
) -> list[JobResult]:
    """Execute every job; returns one :class:`JobResult` per job, in order.

    Same-key AccMoS jobs (:func:`~repro.runner.jobs.batch_key`) run in
    chunks of up to ``threads × batch_size``, each on one compiled
    library, in-process on ``threads`` threads.  ``threads=None`` picks
    the campaign's auto count
    (:func:`~repro.runner.campaign.resolve_threads`) for the costliest
    job.  Individual job failures are *reported*, not raised — check
    ``JobResult.outcome``.
    ``stats_sink``, if given, receives :func:`run_chunks`' stats dict.
    """
    from repro.runner.campaign import resolve_threads

    jobs = list(jobs)
    if threads is None:
        # Only AccMoS chunks run threaded, so auto resolves as for AccMoS,
        # sized by the costliest job.
        threads = resolve_threads(None, engine="accmos", case_work=max(
            (job.resolved_options().steps * len(job.prog.actors)
             for job in jobs),
            default=0,
        ))
    results: "list[JobResult]" = [None] * len(jobs)  # type: ignore[list-item]
    stats: dict = {}
    with telemetry.span(
        "runner.run_jobs", jobs=len(jobs), threads=threads,
        batch_size=batch_size,
    ):
        try:
            for index, result in run_chunks(
                jobs,
                threads=threads,
                batch_size=batch_size,
                stats=stats,
                cache=cache,
                timeout_seconds=timeout_seconds,
            ):
                results[index] = result
        finally:
            if stats_sink is not None:
                stats_sink.update(stats)
    return results
