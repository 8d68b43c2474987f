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
exponential backoff, by one loop (``_retry``) that every attempt —
an interpreted run, a group's compile, a per-job AccMoS retry — goes
through.  A wall-clock timeout is *not* transient — the next attempt
would burn the same budget — so it is reported immediately as
``timeout``.

AccMoS jobs that share a program and structural options run *many
cases* on one reused library (the compile-once / run-many path).
:func:`batch_key` names the group a job may share (the chunk loop forms
chunks from it) and :func:`run_job_batch` executes one group — one
``compile_model`` + one in-process run of every case on N threads —
still returning one :class:`JobResult` per job.  It is the one AccMoS
job path: :func:`run_job` on an AccMoS job is a one-job group.
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


def _retry(attempt, *, retries, backoff_seconds, _sleep, catch=Exception):
    """The one retry loop: call ``attempt()`` up to ``retries + 1`` times.

    Returns ``(value, None, attempts)`` on success, or ``(None, exc,
    attempts)`` once a failure is final — at once for a timeout or a
    non-transient error, after the last retry for a transient one.
    Backoff doubles per retry starting at ``backoff_seconds``.
    Exceptions outside ``catch`` propagate.
    """
    if retries < 0:
        raise ValueError("retries must be non-negative")
    for n in range(retries + 1):
        try:
            return attempt(), None, n + 1
        except catch as exc:  # recorded by the caller
            if not _transient(exc) or n == retries:
                return None, exc, n + 1
            _sleep(backoff_seconds * (2**n))


def _settle(out: JobResult, outcome, attempts: int) -> JobResult:
    """Record ``outcome`` — a result, or the exception that ended the
    job — on ``out`` and count it."""
    out.attempts = attempts
    if isinstance(outcome, BaseException):
        out.error = f"{type(outcome).__name__}: {outcome}"
        out.exception = outcome
        timeout = isinstance(outcome, SimulationTimeout)
        out.outcome = OUTCOME_TIMEOUT if timeout else OUTCOME_FAILED
    else:
        out.outcome = OUTCOME_OK
        out.result = outcome
    telemetry.counter_inc(f"runner.jobs.{out.outcome}")
    if attempts > 1:
        telemetry.counter_inc("runner.retries", attempts - 1)
    if out.outcome == OUTCOME_TIMEOUT:
        telemetry.counter_inc("runner.timeouts")
    return out


def _new_result(job: "SimulationJob") -> JobResult:
    return JobResult(seed=job.seed, label=job.label or f"seed-{job.seed}")


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

    An AccMoS job is a one-job :func:`run_job_batch`.  ``retries``
    bounds the *extra* attempts after the first; backoff doubles per
    retry starting at ``backoff_seconds``.
    """
    policy = dict(
        retries=retries, backoff_seconds=backoff_seconds, _sleep=_sleep
    )
    if batch_key(job) is not None:
        (out,) = run_job_batch(
            [job], cache=cache, timeout_seconds=timeout_seconds, **policy
        )
        return out
    out = _new_result(job)
    options = job.resolved_options()
    stimuli = job.resolved_stimuli()
    with telemetry.span(
        "runner.job", seed=job.seed, engine=job.engine, label=out.label,
        timeout_seconds=timeout_seconds,
    ) as job_span:
        result, exc, attempts = _retry(
            lambda: _run_once(job, stimuli, options, out.timings), **policy
        )
        _settle(out, result if exc is None else exc, attempts)
        job_span.set(outcome=out.outcome, attempts=out.attempts)
    return out


def _run_once(
    job: SimulationJob,
    stimuli: Mapping[str, Stimulus],
    options: SimulationOptions,
    timings: dict[str, float],
) -> SimulationResult:
    """One attempt of an interpreted-engine job.  These run in-process:
    one "execute" phase, and the wall-clock timeout cannot be enforced
    from outside the GIL."""
    from repro.engines.api import simulate

    start = time.perf_counter()
    result = simulate(job.prog, stimuli, engine=job.engine, options=options)
    timings["execute"] = time.perf_counter() - start
    return result


# ----------------------------------------------------------------------
# AccMoS jobs (compile-once / run-many)
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


class GroupCompile:
    """One key group's ``compile_model``, run on first use and shared by
    every chunk of the group, so a campaign of any number of chunks
    compiles (or cache-resolves) once."""

    def __init__(
        self,
        job: SimulationJob,
        *,
        cache: "Union[ArtifactCache, None, bool]" = None,
    ) -> None:
        self._job = job
        self._cache = cache
        self._outcome: Optional[tuple] = None
        # Whether a result already carries the compile cost.
        self.charged = False

    def resolve(self, **policy) -> tuple:
        """``(model, attempts)`` — or ``(exception, attempts)`` once the
        compile failed for good; retried on transient compiler failures
        under ``policy`` the first time only."""
        if self._outcome is None:
            from repro.engines.accmos import compile_model

            job = self._job
            model, exc, attempts = _retry(
                lambda: compile_model(
                    job.prog, job.resolved_options(), cache=self._cache,
                ),
                catch=(CodegenError, OSError), **policy,
            )
            self._outcome = (model if exc is None else exc, attempts)
        return self._outcome


def run_job_batch(
    jobs: "list[SimulationJob]",
    *,
    threads: int = 1,
    cache: "Union[ArtifactCache, None, bool]" = None,
    timeout_seconds: Optional[float] = None,
    compiled: Optional[GroupCompile] = None,
    retries: int = 1,
    backoff_seconds: float = 0.05,
    _sleep=time.sleep,
) -> "list[JobResult]":
    """Execute one same-key group of jobs on a single compiled library:
    the one AccMoS job path.

    One ``compile_model`` (a :class:`GroupCompile`; ``compiled`` shares
    one across the chunks of a group) serves the whole group; if it
    failed, every job is ``failed`` with the compiler's error and
    nothing is recompiled.  The cases run
    in-process on ``threads`` private library instances
    (:meth:`CompiledModel.run_inproc
    <repro.engines.accmos.CompiledModel.run_inproc>`; a library fault
    finishes the affected cases on a host process).  If that run raises
    — the host failed twice, would not build or spawn, or a case input
    was rejected — each job is retried on its own on the same compiled
    model, so one bad case fails alone and batching never changes
    results.  Per-case deadline trips become ``timeout`` outcomes
    without disturbing the other cases.  Non-AccMoS jobs take the
    per-job :func:`run_job` path.
    """
    policy = dict(
        retries=retries, backoff_seconds=backoff_seconds, _sleep=_sleep
    )
    if batch_key(jobs[0]) is None:
        return [
            run_job(job, cache=cache, timeout_seconds=timeout_seconds, **policy)
            for job in jobs
        ]

    with telemetry.span(
        "runner.job_batch", jobs=len(jobs), threads=threads,
        seeds=[job.seed for job in jobs],
    ) as batch_span:
        if compiled is None:
            compiled = GroupCompile(jobs[0], cache=cache)
        model, attempts = compiled.resolve(**policy)
        if isinstance(model, BaseException):
            batch_span.set(outcome="compile_failed")
            return [_settle(_new_result(job), model, attempts) for job in jobs]

        case_list = [
            (job.resolved_stimuli(), job.resolved_options())
            for job in jobs
        ]
        try:
            outcomes = model.run_inproc(
                case_list, timeout_seconds=timeout_seconds, threads=threads,
            )
            attempts = [1] * len(jobs)
        except (CompilationError, SimulationError, OSError):
            batch_span.set(outcome="fallback")
            telemetry.counter_inc("runner.batch_fallbacks")
            outcomes, attempts = [], []
            for stimuli, options in case_list:
                result, exc, n = _retry(
                    lambda: model.run(
                        stimuli, options, timeout_seconds=timeout_seconds
                    ),
                    **policy,
                )
                outcomes.append(result if exc is None else exc)
                attempts.append(n)
        else:
            batch_span.set(outcome="ok", cache_hit=model.cache_hit)

    return results_from_outcomes(jobs, outcomes, compiled, attempts)


def results_from_outcomes(
    jobs: "list[SimulationJob]", outcomes, compiled: GroupCompile, attempts
) -> "list[JobResult]":
    """Convert one chunk's outcomes (a result or the exception that
    ended the case, each after ``attempts`` tries) into per-job
    :class:`JobResult`\\ s.  The group compiled (or cache-resolved)
    exactly once, so its first successful case carries the codegen /
    compile cost and the rest reuse the library — a cache hit by
    construction."""
    model, _attempts = compiled.resolve()
    results: list[JobResult] = []
    for job, outcome, tries in zip(jobs, outcomes, attempts):
        out = _settle(_new_result(job), outcome, tries)
        if out.ok:
            if not compiled.charged:
                out.timings.update(
                    codegen=model.generate_seconds,
                    compile=model.compile_seconds,
                )
                out.cache_hit = model.cache_hit
                compiled.charged = True
            else:
                out.timings.update(codegen=0.0, compile=0.0)
                out.cache_hit = True
            out.timings.update(
                execute=outcome.extra.get("execute_seconds", 0.0),
                parse=outcome.extra.get("parse_seconds", 0.0),
            )
        results.append(out)
    return results
