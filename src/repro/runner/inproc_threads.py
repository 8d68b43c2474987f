"""Thread-parallel dispatch: same-key jobs on one shared CompiledModel.

When every job in a chunk shares one compiled library and the
in-process rung is available, no worker pool or host process is needed:
``ctypes`` releases the GIL around ``acc_lib_run_case``, so N private
library instances inside *this* process run N C simulation loops on N
cores with zero spawns.

The scheduler's ``inproc-threads`` mode routes each chunk here.  The
dispatcher groups the chunk by :func:`~repro.runner.jobs.batch_key` (no
further ``batch_size`` cap — the threaded executor wants the largest
possible group to pack), compiles each group's shared object once,
predicts per-case cost with the campaign's
:class:`~repro.runner.costmodel.CostModelStore` (seeded by observed
execute timings), packs cases into per-thread shards by LPT, and hands
the group to :meth:`CompiledModel.run_inproc` with those shards.
Measured execute times are folded back into the same store, so the next
chunk packs on real rates.  Unbatchable jobs (non-AccMoS
engines, descriptor-less stimuli) take the ordinary per-job path.

Fault behavior is the existing ladder, untouched: a library fault inside
the threaded executor quarantines the model and finishes the affected
cases on a host process serving the same library; a failure around the
executor drops the group to :func:`~repro.runner.jobs.run_job_batch`'s
host-process rung (and from there to the per-job path).  Either way
results are byte-identical and one :class:`JobResult` per job comes back in
submission order.
"""

from __future__ import annotations

import time
from typing import TYPE_CHECKING, Optional, Union

from repro import telemetry
from repro.model.errors import CodegenError, CompilationError, SimulationError
from repro.runner.costmodel import (
    CostModelStore,
    cost_key,
    default_cost_store,
    makespan,
    pack_shards,
)
from repro.runner.jobs import (
    JobResult,
    SimulationJob,
    _transient,
    batch_key,
    results_from_outcomes,
    run_job,
    run_job_batch,
)

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache


def _case_size(job: SimulationJob) -> "tuple[int, int]":
    """(steps, actors): the two cost drivers known before running."""
    return job.resolved_options().steps, len(job.prog.actors)


def run_jobs_inproc_threads(
    jobs: "list[SimulationJob]",
    *,
    threads: int,
    keys: "Optional[list[Optional[tuple]]]" = None,
    cache: "Union[ArtifactCache, None, bool]" = None,
    timeout_seconds: Optional[float] = None,
    retries: int = 1,
    backoff_seconds: float = 0.05,
    cost_store: Optional[CostModelStore] = None,
    _sleep=time.sleep,
) -> "list[JobResult]":
    """Execute every job; one :class:`JobResult` per job, in order.

    ``keys`` holds each job's :func:`~repro.runner.jobs.batch_key` when
    the caller already has them (the streaming scheduler keys every job
    once up front); without them each job is keyed here.  Shards are
    packed from, and observed timings fed into, ``cost_store`` (default:
    the process-wide store).
    """
    if threads < 1:
        raise ValueError("threads must be at least 1")
    jobs = list(jobs)
    if keys is None:
        keys = [batch_key(job) for job in jobs]
    ordered: "list[Optional[JobResult]]" = [None] * len(jobs)

    groups: "dict[tuple, list[int]]" = {}
    singles: "list[int]" = []
    for index, key in enumerate(keys):
        if key is None:
            singles.append(index)
        else:
            groups.setdefault(key, []).append(index)

    with telemetry.span(
        "runner.run_jobs",
        jobs=len(jobs),
        workers=threads,
        mode="inproc-threads",
        groups=len(groups),
    ):
        for index in singles:
            ordered[index] = run_job(
                jobs[index],
                cache=cache,
                timeout_seconds=timeout_seconds,
                retries=retries,
                backoff_seconds=backoff_seconds,
                _sleep=_sleep,
            )
        for indices in groups.values():
            results = _run_group(
                [jobs[i] for i in indices],
                threads=threads,
                cache=cache,
                timeout_seconds=timeout_seconds,
                retries=retries,
                backoff_seconds=backoff_seconds,
                cost_store=cost_store,
                _sleep=_sleep,
            )
            for index, result in zip(indices, results):
                ordered[index] = result
    return ordered  # type: ignore[return-value]


def _run_group(
    group: "list[SimulationJob]",
    *,
    threads: int,
    cache: "Union[ArtifactCache, None, bool]",
    timeout_seconds: Optional[float],
    retries: int,
    backoff_seconds: float,
    cost_store: Optional[CostModelStore],
    _sleep,
) -> "list[JobResult]":
    """One same-key group: compile once, pack, run threaded, observe."""
    from repro.engines.accmos import compile_model

    # Per-(engine, compile key) model from the persistent store: packing
    # starts from the coefficients earlier campaigns measured for this
    # same compiled unit, and this group's observations flow back to
    # benefit the next one.
    store = default_cost_store() if cost_store is None else cost_store
    cost_model = store.model(
        cost_key(group[0].engine, group[0].prog, group[0].resolved_options())
    )

    def _fallback() -> "list[JobResult]":
        # Drop a rung: the batched dispatcher owns the rest of the
        # ladder (host process → restart once → per-job).
        telemetry.counter_inc("runner.inproc_threads.fallbacks")
        return run_job_batch(
            group,
            cache=cache,
            timeout_seconds=timeout_seconds,
            retries=retries,
            backoff_seconds=backoff_seconds,
            inproc=False,
        )

    with telemetry.span(
        "runner.inproc_threads",
        jobs=len(group),
        threads=threads,
        seeds=[job.seed for job in group],
    ) as span:
        model = None
        for attempt in range(retries + 1):
            try:
                model = compile_model(
                    group[0].prog, group[0].resolved_options(), cache=cache
                )
                break
            except (CodegenError, OSError) as exc:
                if not _transient(exc) or attempt == retries:
                    span.set(outcome="compile_failed")
                    return _fallback()
                _sleep(backoff_seconds * (2**attempt))

        sizes = [_case_size(job) for job in group]
        costs = [cost_model.predict(steps, actors) for steps, actors in sizes]
        shards = pack_shards(costs, threads)
        shards = [shard for shard in shards if shard]
        predicted = makespan(shards, costs)
        if predicted > 0 and len(shards) > 1:
            telemetry.gauge_set(
                "engine.inproc.pack_efficiency_predicted",
                sum(costs) / (len(shards) * predicted),
            )
        case_list = [
            (job.resolved_stimuli(), job.resolved_options())
            for job in group
        ]
        try:
            outcomes = model.run_inproc(
                case_list,
                timeout_seconds=timeout_seconds,
                threads=len(shards),
                shards=shards,
            )
        except (CompilationError, SimulationError, OSError):
            # The quarantine fallback's host failed twice, or a case
            # input was rejected: the batched dispatcher takes over.
            span.set(outcome="fallback")
            return _fallback()
        span.set(outcome="ok", cache_hit=model.cache_hit)
        telemetry.counter_inc("runner.inproc_threads.groups")

    for (steps, actors), outcome in zip(sizes, outcomes):
        seconds = getattr(outcome, "extra", {}).get("execute_seconds", 0.0)
        if seconds:
            cost_model.observe(steps, actors, seconds)
    return results_from_outcomes(group, outcomes, model)
