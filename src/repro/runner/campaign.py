"""Campaign execution: streamed seeded jobs, deterministic merge.

This is the engine room behind :func:`repro.campaign.run_campaign`.
Results are always folded into the outcome **in seed order** — that is
what makes the merged coverage report, the per-case new-point counts,
the first-exposing-seed attribution of every diagnostic, and the
saturation verdict byte-identical between ``threads=1`` and
``threads=N`` — the plateau criterion is evaluated on the ordered
merge, exactly as the serial loop would.

The ordered stream comes from the FIFO
:class:`~repro.runner.scheduler.StreamScheduler`, which runs one
same-key chunk of ``threads × batch_size`` cases at a time, in-process
on ``threads`` threads.  On saturation or cancel only the rest of the
open chunk is wasted, and it is *counted*, not silently burned:
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
from repro.runner.scheduler import StreamScheduler
from repro.schedule.program import FlatProgram

if TYPE_CHECKING:
    from repro.campaign import CampaignConfig
    from repro.runner.cache import ArtifactCache

# Auto batch size for batch-capable (AccMoS) campaigns; bounded by the
# per-thread share of the case budget so small parallel campaigns still
# fan out.
AUTO_BATCH_CAP = 8


def resolve_threads(
    threads: Optional[int], *, engine: str
) -> int:
    """Resolve the campaign ``threads`` knob to a concrete count.

    ``None``/``0`` means auto: for the AccMoS engine with a C compiler,
    the core count capped at 4 (the shard merge and decode are serial
    Python, so returns diminish past a handful of C loops); 1 for
    everything else.
    """
    if threads:
        return max(1, int(threads))
    if engine != "accmos":
        return 1
    from repro.codegen.driver import find_c_compiler

    if find_c_compiler() is None:
        return 1
    return max(1, min(4, os.cpu_count() or 1))


def resolve_batch_size(
    batch_size: Optional[int], *, engine: str, max_cases: int, workers: int
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
    per_worker = -(-max_cases // max(1, workers))  # ceil division
    return max(1, min(AUTO_BATCH_CAP, per_worker))


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
        before = {m: self.merged.bitmaps[m].count() for m in ALL_METRICS}
        self.merged.merge(result.coverage)
        by_metric = {
            m: self.merged.bitmaps[m].count() - before[m] for m in ALL_METRICS
        }
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
        self._threads = resolve_threads(config.threads, engine=config.engine)
        self._batch_size = resolve_batch_size(
            config.batch_size, engine=config.engine,
            max_cases=config.max_cases, workers=self._threads,
        )

        self.outcome = CampaignOutcome(merged=None)  # type: ignore[arg-type]
        self._cancelled = False
        self._scheduler: Optional[StreamScheduler] = None
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
        live = self._scheduler
        if live is not None:
            live.stop()

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
        options = SimulationOptions(steps=config.steps)
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
        scheduler = StreamScheduler(
            self._jobs(),
            threads=self._threads,
            batch_size=self._batch_size,
            cache=self._cache,
            timeout_seconds=self._config.timeout_seconds,
        )
        self._scheduler = scheduler
        if self._cancelled:
            scheduler.stop()  # cancel raced construction: submit nothing
        try:
            for job_result in scheduler.results():
                saturated = fold.fold(job_result)
                yield outcome.cases[-1]
                if saturated or self._cancelled:
                    scheduler.stop()
                    break
        finally:
            self._scheduler = None
            stats = scheduler.finish()
            outcome.scheduler_stats = stats
            outcome.speculated_cases = stats.get("speculated", 0)
            outcome.merged = fold.merged
