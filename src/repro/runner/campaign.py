"""Campaign execution: streamed seeded jobs, deterministic merge.

This is the engine room behind :func:`repro.campaign.run_campaign`.
Results are always folded into the outcome **in seed order** — that is
what makes the merged coverage report, the per-case new-point counts,
the first-exposing-seed attribution of every diagnostic, and the
saturation verdict byte-identical between ``workers=1`` and
``workers=N`` — the plateau criterion is evaluated on the ordered
merge, exactly as the serial loop would.

The ordered stream comes from the work-conserving
:class:`~repro.runner.scheduler.StreamScheduler`: a bounded in-flight
window refilled the moment capacity frees, a reorder buffer restoring
seed order, cost-aware admission keeping short cases out of the shadow
of long ones, and (when enabled) a throughput controller auto-tuning
batch size and window depth.  On saturation or cancel only the cases
actually in flight are wasted, and they are *counted*, not silently
burned: ``CampaignOutcome.speculated_cases`` and the
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
from repro.runner.costmodel import CostModelStore, default_cost_store
from repro.runner.jobs import JobResult, SimulationJob
from repro.runner.scheduler import StreamScheduler
from repro.schedule.program import FlatProgram

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache

# Auto batch size for batch-capable (AccMoS) campaigns; bounded by the
# per-worker share of the case budget so small parallel campaigns still
# fan out.
AUTO_BATCH_CAP = 8


def resolve_threads(
    threads: Optional[int], *, engine: str
) -> int:
    """Resolve the campaign ``threads`` knob to a concrete count.

    ``None``/``0`` means auto: thread-parallel in-process execution when
    it can actually engage — the AccMoS engine with a C compiler — sized
    to the core count (capped at 4: the shard merge and decode are serial
    Python, so returns diminish past a handful of C loops).  Everything
    else resolves to 1.
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
    engine) and never starves the worker fleet: the size is the
    per-worker share of the case budget, capped at :data:`AUTO_BATCH_CAP`
    so a cold first chunk is never disastrously large.  The adaptive
    controller may tune it from there; an explicit value is final.
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
    which is what makes every worker/window/batch combination
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
    consumer abandoned the iterator (``close()``/GC drains in-flight
    work exactly like a finished run, so speculation stays counted).

    Embedders (the campaign service) may inject a shared ``server_pool``
    and ``cost_store``; caller-owned resources are *not* closed or
    saved here — the campaign only borrows them — and the pool's
    lifetime counters are then left out of ``outcome.server_stats``
    (they describe the pool, not this campaign).  With neither injected
    the behavior is exactly the classic one-shot CLI campaign: private
    pool, process-wide persistent cost store, stats merged and saved on
    the way out.

    ``cancel()`` is thread-safe and cooperative: submission stops, the
    in-flight window drains (absorbing its cache/server/telemetry side
    effects), and the discarded work is reported in
    ``outcome.speculated_cases``.
    """

    def __init__(
        self,
        prog: FlatProgram,
        *,
        engine: str,
        steps: int,
        max_cases: int,
        plateau_patience: int,
        base_seed: int,
        options: Optional[SimulationOptions],
        workers: int = 1,
        mode: str = "thread",
        cache: "Union[ArtifactCache, None, bool]" = None,
        timeout_seconds: Optional[float] = None,
        retries: int = 1,
        batch_size: Optional[int] = None,
        serve: bool = False,
        inproc: bool = False,
        threads: Optional[int] = 1,
        window: Optional[int] = None,
        adaptive: bool = True,
        server_pool=None,
        cost_store: Optional[CostModelStore] = None,
    ) -> None:
        from repro.campaign import CampaignOutcome

        self._prog = prog
        self._engine = engine
        self._opts = options or SimulationOptions(steps=steps)
        self._max_cases = max_cases
        self._plateau_patience = plateau_patience
        self._base_seed = base_seed
        self._cache = cache
        self._timeout_seconds = timeout_seconds
        self._retries = retries
        self._window = window
        self._adaptive = adaptive

        # Thread-parallel in-process execution replaces the worker pool
        # wholesale: chunks route to the inproc-threads executor, which
        # runs same-key groups on `threads` private library instances
        # inside this process.  The server/spawn rungs stay reachable
        # through the executor's own fault ladder, so the serve/inproc
        # knobs (which configure the pooled dispatchers) are moot here.
        threads = resolve_threads(threads, engine=engine)
        if threads > 1 and engine == "accmos":
            mode = "inproc-threads"
            workers = threads
            serve = False
            inproc = False
        self._threads = threads
        self._mode = mode
        self._workers = workers

        self._batch_fixed = batch_size is not None
        self._batch_size = resolve_batch_size(
            batch_size, engine=engine, max_cases=max_cases, workers=workers
        )

        # One warm-server pool for the whole campaign (thread/inline
        # mode): servers survive across chunks, so the steady state
        # respawns nothing.  Process mode keeps pools inside the worker
        # processes instead; their counter deltas ride back on the
        # JobResults.
        self._serve = serve and engine == "accmos" and self._batch_size > 1
        # The in-process rung shares the batching gate: it only pays off
        # (and only applies) when batches of accmos cases share an
        # artifact.
        self._inproc = inproc and engine == "accmos" and self._batch_size > 1
        self._own_pool = False
        if server_pool is None and self._serve and mode != "process":
            from repro.runner.servers import ServerPool

            server_pool = ServerPool(max_servers=max(workers * 2, 4))
            self._own_pool = True
        self._server_pool = server_pool if self._serve else None

        # Every mode's observed execute timings feed the persistent cost
        # model, keyed by (engine, compile key), so the *next* campaign's
        # admission and shard packing start from this machine's real
        # rates.  A caller-owned store is observed into but never saved
        # here — its owner decides when to persist.
        self._own_store = cost_store is None
        self._cost_store = (
            default_cost_store() if cost_store is None else cost_store
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

        The iterator ends after the current fold; in-flight work drains
        into ``outcome.speculated_cases``.
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
        seed order; finalization (pool close, cost-store save, stats)
        runs however iteration ends."""
        if self._iterated:
            raise RuntimeError("a CampaignRun can only be iterated once")
        self._iterated = True
        outcome = self.outcome
        try:
            with telemetry.span(
                "campaign", model=self._prog.model.name, engine=self._engine,
                max_cases=self._max_cases, workers=self._workers,
                mode=self._mode, batch_size=self._batch_size,
                serve=self._serve, inproc=self._inproc,
                threads=self._threads,
            ) as campaign_span:
                yield from self._stream()
                campaign_span.set(
                    cases=len(outcome.cases), saturated=outcome.saturated,
                    speculated=outcome.speculated_cases,
                )
        finally:
            if self._own_pool and self._server_pool is not None:
                from repro.runner.servers import merge_server_stats

                outcome.server_stats = merge_server_stats(
                    outcome.server_stats, self._server_pool.stats()
                )
                self._server_pool.close()
                self._server_pool = None
            if self._own_store:
                self._cost_store.save()
            telemetry.counter_inc("campaign.runs")
            telemetry.counter_inc("campaign.cases", len(outcome.cases))

    # -- dispatch ---------------------------------------------------------
    def _jobs(self) -> "list[SimulationJob]":
        return [
            SimulationJob(
                prog=self._prog, seed=self._base_seed + i,
                engine=self._engine, options=self._opts,
            )
            for i in range(self._max_cases)
        ]

    def _stream(self):
        """Fold results the moment seed order allows."""
        outcome = self.outcome
        fold = _CampaignFold(
            outcome, engine=self._engine,
            plateau_patience=self._plateau_patience,
        )

        def on_server_stats(stats: dict) -> None:
            # Discarded-on-saturation results still ran; their
            # server-pool counters still count.
            from repro.runner.servers import merge_server_stats

            outcome.server_stats = merge_server_stats(
                outcome.server_stats, stats
            )

        scheduler = StreamScheduler(
            self._jobs(),
            workers=self._workers,
            mode=self._mode,
            window=self._window,
            batch_size=self._batch_size,
            tune_batch=self._adaptive and not self._batch_fixed,
            tune_window=self._adaptive and self._window is None,
            cache=self._cache,
            timeout_seconds=self._timeout_seconds,
            retries=self._retries,
            serve=self._serve,
            inproc=self._inproc,
            server_pool=self._server_pool if self._mode != "process" else None,
            cost_store=self._cost_store,
            on_server_stats=on_server_stats,
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
