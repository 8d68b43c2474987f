"""Simulation jobs: one seeded run, executed with timeout and retry.

A :class:`SimulationJob` is the unit of work the parallel runner fans
out: a preprocessed program, a stimuli seed, and the simulation options.
:func:`run_job` executes one job and always returns a structured
:class:`JobResult` — outcome (``ok``/``timeout``/``failed``), the number
of attempts it took, and per-phase wall timings (codegen / compile /
execute / parse for the AccMoS engine) — instead of letting exceptions
tear down a whole campaign.

Retry policy: transient failures (a compiler race on a shared tmpfs, an
OOM-killed child — anything raising ``CompilationError`` or
``SimulationError``) are retried up to ``retries`` times with
exponential backoff.  A wall-clock timeout is *not* transient — the next
attempt would burn the same budget — so it is reported immediately as
``timeout``.

Batching: AccMoS jobs that share a program and structural options run
*many cases* on one reused library (the compile-once / run-many path).
:func:`batch_key` names the group a job may share (the scheduler forms
chunks from it) and :func:`run_job_batch` executes one group — one
``compile_model`` + one in-process run of every case on N threads —
still returning one :class:`JobResult` per job.  Anything that breaks
mid-batch falls back to the per-job path, so batching can only change
speed, not outcomes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Mapping, Optional, Union

from repro import telemetry
from repro.engines.base import SimulationOptions, SimulationResult
from repro.model.errors import (
    CodegenError,
    CompilationError,
    SimulationError,
    SimulationTimeout,
)
from repro.schedule.program import FlatProgram
from repro.stimuli.base import Stimulus

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache

OUTCOME_OK = "ok"
OUTCOME_TIMEOUT = "timeout"
OUTCOME_FAILED = "failed"

# Phase keys every JobResult.timings may carry.
PHASES = ("codegen", "compile", "execute", "parse")


@dataclass(frozen=True)
class SimulationJob:
    """One seeded simulation to run."""

    prog: FlatProgram
    seed: int = 1
    engine: str = "accmos"
    options: Optional[SimulationOptions] = None
    # Explicit stimuli override the seed-derived default streams.
    stimuli: Optional[Mapping[str, Stimulus]] = None
    label: str = ""

    def resolved_stimuli(self) -> Mapping[str, Stimulus]:
        if self.stimuli is not None:
            return self.stimuli
        from repro.stimuli.generators import default_stimuli

        return default_stimuli(self.prog, seed=self.seed)

    def resolved_options(self) -> SimulationOptions:
        return self.options if self.options is not None else SimulationOptions()


@dataclass
class JobResult:
    """What one job's execution produced, success or not."""

    seed: int
    label: str = ""
    outcome: str = OUTCOME_FAILED
    attempts: int = 0
    timings: dict[str, float] = field(default_factory=dict)
    result: Optional[SimulationResult] = None
    error: Optional[str] = None
    exception: Optional[BaseException] = field(default=None, repr=False)
    cache_hit: bool = False

    @property
    def ok(self) -> bool:
        return self.outcome == OUTCOME_OK

    @property
    def total_seconds(self) -> float:
        return sum(self.timings.values())


def _transient(exc: BaseException) -> bool:
    """Worth another attempt?  Timeouts are not — same budget, same end."""
    if isinstance(exc, SimulationTimeout):
        return False
    return isinstance(exc, (CompilationError, SimulationError, OSError))


def run_job(
    job: SimulationJob,
    *,
    cache: "Union[ArtifactCache, None, bool]" = None,
    timeout_seconds: Optional[float] = None,
    retries: int = 1,
    backoff_seconds: float = 0.05,
    _sleep=time.sleep,
) -> JobResult:
    """Execute one job; never raises for run failures.

    ``retries`` bounds the *extra* attempts after the first; backoff
    doubles per retry starting at ``backoff_seconds``.
    """
    if retries < 0:
        raise ValueError("retries must be non-negative")
    out = JobResult(seed=job.seed, label=job.label or f"seed-{job.seed}")
    options = job.resolved_options()
    stimuli = job.resolved_stimuli()

    with telemetry.span(
        "runner.job", seed=job.seed, engine=job.engine, label=out.label,
        timeout_seconds=timeout_seconds,
    ) as job_span:
        _attempt_loop(
            job, stimuli, options, out,
            cache=cache, timeout_seconds=timeout_seconds,
            retries=retries, backoff_seconds=backoff_seconds, _sleep=_sleep,
        )
        job_span.set(
            outcome=out.outcome, attempts=out.attempts,
            cache_hit=out.cache_hit,
        )
    telemetry.counter_inc(f"runner.jobs.{out.outcome}")
    if out.attempts > 1:
        telemetry.counter_inc("runner.retries", out.attempts - 1)
    if out.outcome == OUTCOME_TIMEOUT:
        telemetry.counter_inc("runner.timeouts")
    return out


def _attempt_loop(
    job: SimulationJob,
    stimuli: Mapping[str, Stimulus],
    options: SimulationOptions,
    out: JobResult,
    *,
    cache: "Union[ArtifactCache, None, bool]",
    timeout_seconds: Optional[float],
    retries: int,
    backoff_seconds: float,
    _sleep,
) -> None:
    """Mutate ``out`` through up to ``retries + 1`` attempts."""
    for attempt in range(retries + 1):
        out.attempts = attempt + 1
        try:
            out.result = _run_once(
                job, stimuli, options, out.timings,
                cache=cache, timeout_seconds=timeout_seconds,
            )
            out.outcome = OUTCOME_OK
            out.error = None
            out.exception = None
            out.cache_hit = bool(out.result.extra.get("cache_hit", False))
            return
        except Exception as exc:  # recorded, classified below
            out.error = f"{type(exc).__name__}: {exc}"
            out.exception = exc
            if isinstance(exc, SimulationTimeout):
                out.outcome = OUTCOME_TIMEOUT
                return
            if not _transient(exc) or attempt == retries:
                out.outcome = OUTCOME_FAILED
                return
            _sleep(backoff_seconds * (2**attempt))


def _run_once(
    job: SimulationJob,
    stimuli: Mapping[str, Stimulus],
    options: SimulationOptions,
    timings: dict[str, float],
    *,
    cache: "Union[ArtifactCache, None, bool]",
    timeout_seconds: Optional[float],
) -> SimulationResult:
    if job.engine == "accmos":
        from repro.engines.accmos import run_accmos

        result = run_accmos(
            job.prog, stimuli, options,
            cache=cache,
            timeout_seconds=timeout_seconds,
        )
        timings.update(
            codegen=result.extra.get("generate_seconds", 0.0),
            compile=result.extra.get("compile_seconds", 0.0),
            execute=result.extra.get("execute_seconds", 0.0),
            parse=result.extra.get("parse_seconds", 0.0),
        )
        return result

    # Interpreted engines run in-process: one "execute" phase, and the
    # wall-clock timeout cannot be enforced from outside the GIL.
    from repro.engines.api import simulate

    start = time.perf_counter()
    result = simulate(job.prog, stimuli, engine=job.engine, options=options)
    timings["execute"] = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# batched execution (compile-once / run-many)
# ----------------------------------------------------------------------
def batch_key(job: SimulationJob) -> Optional[tuple]:
    """The grouping key under which jobs may share one compiled library,
    or None for a non-AccMoS job, which runs on the per-job path.

    Jobs with equal keys have the same program and the same *structural*
    options — the two inputs the compiled program is specialized on; the
    per-case inputs (stimuli, steps, time budget) are free to differ.
    Keying a job never builds its stimuli.
    """
    if job.engine != "accmos":
        return None
    from repro.engines.accmos import _structural_fingerprint

    return (id(job.prog), _structural_fingerprint(job.resolved_options()))


def run_job_batch(
    jobs: "list[SimulationJob]",
    *,
    threads: int = 1,
    cache: "Union[ArtifactCache, None, bool]" = None,
    timeout_seconds: Optional[float] = None,
    retries: int = 1,
    backoff_seconds: float = 0.05,
    _sleep=time.sleep,
) -> "list[JobResult]":
    """Execute one same-key group of jobs on a single compiled library.

    One ``compile_model`` (retried on transient compiler failures) serves
    the whole group, whose cases run in-process on ``threads`` private
    library instances (:meth:`CompiledModel.run_inproc
    <repro.engines.accmos.CompiledModel.run_inproc>`; a library fault
    finishes the affected cases on a host process).  Any compile,
    simulation or OS error around that run sends the whole group down to
    the per-job :func:`run_job` path, so batching can change throughput,
    never results.  Per-case deadline trips become ``timeout`` outcomes
    without disturbing the other cases.  Non-AccMoS jobs always take the
    per-job path.
    """
    from repro.engines.accmos import compile_model

    def _fallback() -> "list[JobResult]":
        return [
            run_job(
                job, cache=cache, timeout_seconds=timeout_seconds,
                retries=retries, backoff_seconds=backoff_seconds,
                _sleep=_sleep,
            )
            for job in jobs
        ]

    if batch_key(jobs[0]) is None:
        return _fallback()

    with telemetry.span(
        "runner.job_batch", jobs=len(jobs), threads=threads,
        seeds=[job.seed for job in jobs],
    ) as batch_span:
        model = None
        for attempt in range(retries + 1):
            try:
                model = compile_model(
                    jobs[0].prog, jobs[0].resolved_options(), cache=cache,
                )
                break
            except (CodegenError, OSError) as exc:
                if not _transient(exc) or attempt == retries:
                    batch_span.set(outcome="compile_failed")
                    return _fallback()
                _sleep(backoff_seconds * (2**attempt))

        case_list = [
            (job.resolved_stimuli(), job.resolved_options())
            for job in jobs
        ]
        try:
            outcomes = model.run_inproc(
                case_list, timeout_seconds=timeout_seconds, threads=threads,
            )
        except (CompilationError, SimulationError, OSError):
            # The quarantine host failed twice in a row (ServerError),
            # would not build or spawn, or a case input was rejected:
            # re-run the group case by case, which reports each job on
            # its own.
            batch_span.set(outcome="fallback")
            telemetry.counter_inc("runner.batch_fallbacks")
            return _fallback()
        batch_span.set(outcome="ok", cache_hit=model.cache_hit)

    return results_from_outcomes(jobs, outcomes, model)


def results_from_outcomes(
    jobs: "list[SimulationJob]", outcomes, model
) -> "list[JobResult]":
    """Convert one group's batch outcomes into per-job
    :class:`JobResult`\\ s.  The group compiled (or cache-resolved)
    exactly once, so the first successful case carries the codegen /
    compile cost and the rest reuse the library — a cache hit by
    construction."""
    results: list[JobResult] = []
    first_ok = True
    for job, outcome in zip(jobs, outcomes):
        out = JobResult(seed=job.seed, label=job.label or f"seed-{job.seed}")
        out.attempts = 1
        if isinstance(outcome, SimulationTimeout):
            out.outcome = OUTCOME_TIMEOUT
            out.error = f"{type(outcome).__name__}: {outcome}"
            out.exception = outcome
            telemetry.counter_inc("runner.timeouts")
        else:
            out.outcome = OUTCOME_OK
            out.result = outcome
            if first_ok:
                out.timings.update(
                    codegen=model.generate_seconds,
                    compile=model.compile_seconds,
                )
                out.cache_hit = model.cache_hit
                first_ok = False
            else:
                out.timings.update(codegen=0.0, compile=0.0)
                out.cache_hit = True
            out.timings.update(
                execute=outcome.extra.get("execute_seconds", 0.0),
                parse=outcome.extra.get("parse_seconds", 0.0),
            )
        telemetry.counter_inc(f"runner.jobs.{out.outcome}")
        results.append(out)
    return results
