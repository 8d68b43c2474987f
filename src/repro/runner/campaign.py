"""Campaign execution: streamed seeded jobs, deterministic merge.

This is the engine room behind :func:`repro.campaign.run_campaign`.
Results are always folded into the outcome **in seed order** — that is
what makes the merged coverage report, the per-case new-point counts,
the first-exposing-seed attribution of every diagnostic, and the
saturation verdict byte-identical between ``threads=1`` and
``threads=N`` — the plateau criterion is evaluated on the ordered
merge, exactly as the serial loop would.

The ordered stream comes from the chunk loop
:func:`~repro.runner.pool.run_chunks`, which runs one chunk of
``threads × batch_size`` cases at a time, in-process on ``threads``
threads; a campaign's jobs share one key, so they come out in seed
order.  On saturation or cancel only the rest of the open chunk is
wasted, and it is *counted*, not silently burned:
``CampaignOutcome.speculated_cases`` and the
``campaign.speculated_cases`` telemetry counter report the waste.
"""

from __future__ import annotations

import os
from typing import TYPE_CHECKING, Optional, Union

from repro import telemetry
from repro.coverage.metrics import ALL_METRICS
from repro.coverage.report import CoverageReport
from repro.engines.base import SimulationOptions
from repro.model.errors import SimulationError
from repro.runner.jobs import JobResult, SimulationJob
from repro.runner.pool import run_chunks
from repro.schedule.program import FlatProgram

if TYPE_CHECKING:
    from repro.campaign import CampaignConfig
    from repro.runner.cache import ArtifactCache

# Auto batch size for batch-capable (AccMoS) campaigns; bounded by the
# per-thread share of the case budget so small parallel campaigns still
# fan out.
AUTO_BATCH_CAP = 8

# Predicted C work of one case, in actor-steps (steps × flattened
# actors), from which auto threads pay: below it a second thread's
# executor and GIL hand-offs cost more than the C loop they overlap.
# Crossover sweep (2 vCPUs, chunks of 16 cases, two threads against
# one): SPV 0.92 at 264k, 1.08 at 176k; CPUT 0.96 at 197k; LEDLC 0.98
# at 172k.
AUTO_THREAD_WORK = 250_000


def resolve_threads(
    threads: Optional[int], *, engine: str, case_work: int = 0
) -> int:
    """Resolve the campaign ``threads`` knob to a concrete count.

    ``None``/``0`` means auto, sized by the work: 1 unless the engine is
    AccMoS, a C compiler is available and one case's predicted C work
    ``case_work`` (steps × actors) reaches :data:`AUTO_THREAD_WORK`;
    then the core count capped at 4 (the shard merge and decode are
    serial Python, so returns diminish past a handful of C loops).  An
    explicit count is returned as is.
    """
    if threads:
        return max(1, int(threads))
    if engine != "accmos" or case_work < AUTO_THREAD_WORK:
        return 1
    from repro.codegen.driver import find_c_compiler

    if find_c_compiler() is None:
        return 1
    return max(1, min(4, os.cpu_count() or 1))


def resolve_batch_size(
    batch_size: Optional[int], *, engine: str, max_cases: int, threads: int
) -> int:
    """Resolve ``batch_size=None`` (auto) to a concrete size.

    Auto batching engages only where batches exist at all (the AccMoS
    engine) and never starves the threads: the size is the per-thread
    share of the case budget, capped at :data:`AUTO_BATCH_CAP` so a cold
    first chunk is never disastrously large.
    """
    if batch_size is not None:
        return batch_size
    if engine != "accmos":
        return 1
    per_thread = -(-max_cases // max(1, threads))  # ceil division
    return max(1, min(AUTO_BATCH_CAP, per_thread))


def campaign_options(steps: int) -> SimulationOptions:
    """The options every campaign case runs with: the defaults at
    ``steps``, but no monitored signals.  The fold reads coverage and
    diagnostics only, so the generated step stores no monitor samples
    and the decoder builds none (:func:`repro.simulate` still traces
    signals)."""
    return SimulationOptions(steps=steps, collect=())


class _CampaignFold:
    """The seed-ordered merge.

    One :meth:`fold` call per job result, strictly in seed order; the
    fold mutates ``outcome`` (cases, diagnostics, saturation) and
    returns True once the plateau criterion fires.  It depends only on
    the results and their order, never on how they were dispatched —
    which is what makes every thread/batch combination
    byte-identical to a serial loop over the same seeds.
    """

    def __init__(
        self, outcome, *, engine: str, plateau_patience: int
    ) -> None:
        self.outcome = outcome
        self.engine = engine
        self.plateau_patience = plateau_patience
        self.merged: Optional[CoverageReport] = None
        self.seen_diagnostics: "set[tuple[str, str]]" = set()
        self.dry_streak = 0

    def fold(self, job_result: JobResult) -> bool:
        from repro.campaign import CaseOutcome

        if not job_result.ok:
            # Chain the worker-side traceback: the original exception
            # (compile error, timeout, crash) stays attached as
            # __cause__, so scheduler-era failures remain debuggable.
            raise SimulationError(
                f"campaign case seed={job_result.seed} "
                f"{job_result.outcome}: {job_result.error}"
            ) from job_result.exception
        result = job_result.result
        if result.coverage is None:
            raise ValueError(f"engine {self.engine!r} collects no coverage")

        if self.merged is None:
            self.merged = CoverageReport.empty(result.coverage.points)
        hits, merged = result.coverage.bitmaps, self.merged.bitmaps
        by_metric = {m: hits[m].or_into(merged[m]) for m in ALL_METRICS}
        new_points = sum(by_metric.values())

        fresh = 0
        for event in result.diagnostics:
            key = (event.path, event.kind.value)
            if key not in self.seen_diagnostics:
                self.seen_diagnostics.add(key)
                self.outcome.diagnostics.append((event, job_result.seed))
                fresh += 1

        self.outcome.cases.append(
            CaseOutcome(
                seed=job_result.seed,
                steps_run=result.steps_run,
                wall_time=result.wall_time,
                new_points=new_points,
                n_diagnostics=fresh,
                new_points_by_metric=by_metric,
                timings=dict(job_result.timings),
                cache_hit=job_result.cache_hit,
            )
        )

        self.dry_streak = self.dry_streak + 1 if new_points == 0 else 0
        if self.dry_streak >= self.plateau_patience:
            self.outcome.saturated = True
        return self.outcome.saturated


class CampaignRun:
    """One campaign as an embeddable, cancellable iteration.

    The fold loop behind :func:`repro.campaign.run_campaign`, decoupled
    from both the CLI and any event loop: iterating a ``CampaignRun``
    yields one :class:`~repro.campaign.CaseOutcome` per folded case,
    strictly in seed order, and :attr:`outcome` holds the merged
    :class:`~repro.campaign.CampaignOutcome` once iteration ends —
    normally (budget / saturation), via :meth:`cancel`, or because the
    consumer abandoned the iterator (``close()``/GC finishes the run
    exactly like a normal end, so speculation stays counted).

    ``cancel()`` is thread-safe and cooperative: the iterator ends after
    the current fold, and the discarded rest of the open chunk is
    reported in ``outcome.speculated_cases``.

    Every case runs with :func:`campaign_options`: it collects coverage
    and diagnostics but no monitor samples, so its results'
    ``monitored`` is empty.  Use :func:`repro.simulate` for signal
    traces.
    """

    def __init__(
        self,
        prog: FlatProgram,
        config: "CampaignConfig",
        *,
        cache: "Union[ArtifactCache, None, bool]" = None,
    ) -> None:
        from repro.campaign import CampaignOutcome

        self._prog = prog
        self._config = config
        self._cache = cache
        self._threads = resolve_threads(
            config.threads, engine=config.engine,
            case_work=config.steps * len(prog.actors),
        )
        self._batch_size = resolve_batch_size(
            config.batch_size, engine=config.engine,
            max_cases=config.max_cases, threads=self._threads,
        )

        self.outcome = CampaignOutcome(merged=None)  # type: ignore[arg-type]
        self._cancelled = False
        self._iterated = False

    # -- control ---------------------------------------------------------
    @property
    def cancelled(self) -> bool:
        return self._cancelled

    def cancel(self) -> None:
        """Stop submitting new cases (thread-safe, cooperative).

        The iterator ends after the current fold; the rest of the open
        chunk is counted in ``outcome.speculated_cases``.
        """
        self._cancelled = True

    # -- iteration -------------------------------------------------------
    def __iter__(self):
        return self.cases()

    def cases(self):
        """Yield each folded :class:`~repro.campaign.CaseOutcome` in
        seed order; finalization (stats, counters) runs however
        iteration ends."""
        if self._iterated:
            raise RuntimeError("a CampaignRun can only be iterated once")
        self._iterated = True
        outcome = self.outcome
        try:
            with telemetry.span(
                "campaign", model=self._prog.model.name,
                engine=self._config.engine,
                max_cases=self._config.max_cases, threads=self._threads,
                batch_size=self._batch_size,
            ) as campaign_span:
                yield from self._stream()
                campaign_span.set(
                    cases=len(outcome.cases), saturated=outcome.saturated,
                    speculated=outcome.speculated_cases,
                )
        finally:
            telemetry.counter_inc("campaign.runs")
            telemetry.counter_inc("campaign.cases", len(outcome.cases))

    # -- dispatch ---------------------------------------------------------
    def _jobs(self) -> "list[SimulationJob]":
        config = self._config
        options = campaign_options(config.steps)
        return [
            SimulationJob(
                prog=self._prog, seed=config.base_seed + i,
                engine=config.engine, options=options,
            )
            for i in range(config.max_cases)
        ]

    def _stream(self):
        """Fold results the moment seed order allows."""
        outcome = self.outcome
        fold = _CampaignFold(
            outcome, engine=self._config.engine,
            plateau_patience=self._config.plateau_patience,
        )
        stats: dict = {}
        stream = run_chunks(
            self._jobs(),
            threads=self._threads,
            batch_size=self._batch_size,
            stats=stats,
            stop=lambda: self._cancelled,
            cache=self._cache,
            timeout_seconds=self._config.timeout_seconds,
        )
        try:
            for _, job_result in stream:
                saturated = fold.fold(job_result)
                yield outcome.cases[-1]
                if saturated or self._cancelled:
                    break
        finally:
            stream.close()  # fills stats, counting the open chunk's rest
            outcome.scheduler_stats = stats
            outcome.speculated_cases = stats.get("speculated", 0)
            outcome.merged = fold.merged
