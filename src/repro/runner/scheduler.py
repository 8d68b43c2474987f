"""Streaming, work-conserving job scheduling: the one dispatch loop.

Every job list — a campaign's seed sweep or a
:func:`~repro.runner.pool.run_jobs` call — is dispatched here.  There
is no barrier: a long case never idles the other workers, and an early
stop (saturation, cancel) wastes only the work already in flight.
Three cooperating pieces:

* :class:`ReorderBuffer` — completion order in, seed order out.  The
  campaign merge *must* fold results in seed order (that is what makes
  parallel campaigns byte-identical to serial ones), but workers finish
  in whatever order the machine pleases; the buffer holds early
  finishers and releases a result the moment everything before it has
  landed.  Its depth is bounded by the in-flight window.
* :class:`ThroughputController` — a hill-climbing feedback controller
  that tunes ``batch_size`` and the in-flight window from observed
  cases/sec and worker utilization.  Changes are evaluated one epoch
  later: a change that regressed throughput beyond the hysteresis band
  is reverted and the search direction flips.  Knobs the caller fixed
  explicitly are never touched.
* :class:`StreamScheduler` — the work-conserving dispatcher.  It keeps
  a bounded window of cases in flight, submits a new chunk the moment
  capacity frees up (no barrier, ever), routes predicted-long cases to
  a capped number of worker slots so short cases are never head-of-line
  blocked behind them (cost predictions come from the persistent
  :class:`~repro.runner.costmodel.CostModelStore`), and yields results
  in seed order for the consumer to fold.  When the consumer stops
  early (saturation), only the work already in flight is wasted —
  bounded by the window, and counted rather than silently burned
  (``campaign.speculated_cases``).

Invariants the rest of the stack relies on:

* **Byte-identity** — chunk membership, window depth, batch size, and
  admission order change *scheduling* only; each case's result is
  produced by the same per-case execution ladder as always, and results
  are folded strictly in seed order, so the merged coverage, per-case
  new-point counts, diagnostic attribution, and the saturation verdict
  are identical to the serial loop for every window/batch/worker
  combination.
* **No deadlock** — the chunk containing the fold frontier (the next
  seed the consumer needs) is always admissible: when nothing else is
  running or ready, it is submitted regardless of the window bound or
  the long-slot cap.
* **Work conservation** — while unsubmitted cases remain and the window
  has room, a completion is immediately followed by a submission.

Telemetry (enabled sessions only): ``campaign.scheduler.in_flight``
gauge, ``campaign.scheduler.reorder_depth`` histogram,
``campaign.scheduler.utilization`` gauge, and the
``campaign.speculated_cases`` counter.  The same numbers are always
available process-locally via the stats dict :meth:`StreamScheduler.
finish` returns (surfaced as ``CampaignOutcome.scheduler_stats`` and in
the CLI's ``--timings`` report).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    CancelledError,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from typing import TYPE_CHECKING, Callable, Iterator, Optional, Sequence, Union

from repro import telemetry
from repro.model.errors import CodegenError
from repro.runner.costmodel import (
    CostModelStore,
    cost_key,
    plan_chunks,
)
from repro.runner.jobs import (
    JobResult,
    SimulationJob,
    batch_key,
    run_job_batch,
)

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache

# A case predicted to cost more than this multiple of the median is
# "long" and routed to the capped long slots.
LONG_COST_RATIO = 2.0


class ReorderBuffer:
    """Completion order in, submission (seed) order out.

    ``push(index, item)`` files one out-of-order arrival and returns the
    — possibly empty — run of items that just became releasable: the
    contiguous prefix starting at the current frontier.  Indices are the
    0-based submission positions; each must be pushed exactly once.

    The two ways a push can be invalid get *distinct* errors — a
    duplicate of a still-held index ("pushed twice") versus an index
    below the frontier ("already released") — because the campaign
    service surfaces these to users on its cancel path, where "a result
    arrived after its seed was folded and discarded" and "the same
    result arrived twice" call for very different debugging.
    """

    def __init__(self, start: int = 0) -> None:
        self._held: dict[int, object] = {}
        self.next_index = start
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._held)

    @property
    def depth(self) -> int:
        return len(self._held)

    def push(self, index: int, item) -> "list[tuple[int, object]]":
        if index < self.next_index:
            raise ValueError(
                f"index {index} is below the frontier {self.next_index} "
                "(already released)"
            )
        if index in self._held:
            raise ValueError(f"index {index} pushed twice")
        self._held[index] = item
        self.max_depth = max(self.max_depth, len(self._held))
        released: "list[tuple[int, object]]" = []
        while self.next_index in self._held:
            released.append(
                (self.next_index, self._held.pop(self.next_index))
            )
            self.next_index += 1
        return released


class ThroughputController:
    """Hill-climb ``batch_size`` and window depth with hysteresis.

    The controller observes fold progress (cases/sec) and worker
    utilization over epochs of ``epoch_cases`` folded cases.  Each epoch
    it may propose one change: grow the window while workers sit idle
    (utilization below target), otherwise step one knob in its current
    search direction (window by ± ``workers`` cases, batch by doubling /
    halving).  The *next* epoch judges the change: throughput dropping
    more than ``hysteresis`` below the best seen reverts it and flips
    that knob's direction — so the controller oscillates around the
    optimum instead of walking away from it.  Knobs with ``tune_* =
    False`` (the caller passed an explicit value) are never modified.

    The default epoch is large enough that short campaigns — the test
    suite's, for instance — finish before the first adjustment: auto
    tuning is a long-campaign optimization and must never perturb small
    deterministic runs.
    """

    def __init__(
        self,
        *,
        batch_size: int,
        window: int,
        workers: int,
        tune_batch: bool = True,
        tune_window: bool = True,
        epoch_cases: Optional[int] = None,
        hysteresis: float = 0.15,
        min_batch: int = 1,
        max_batch: int = 64,
        min_window: Optional[int] = None,
        max_window: Optional[int] = None,
        utilization_target: float = 0.85,
        clock: Callable[[], float] = time.perf_counter,
    ) -> None:
        self.batch_size = max(1, int(batch_size))
        self.window = max(1, int(window))
        self.workers = max(1, int(workers))
        self.tune_batch = tune_batch
        self.tune_window = tune_window
        self.hysteresis = float(hysteresis)
        self.min_batch = max(1, min_batch)
        self.max_batch = max(self.min_batch, max_batch)
        self.min_window = max(1, self.workers if min_window is None else min_window)
        self.max_window = (
            max(64, 4 * self.workers * self.max_batch)
            if max_window is None
            else max_window
        )
        self.utilization_target = float(utilization_target)
        self.epoch_cases = (
            max(16, 2 * self.workers * self.batch_size)
            if epoch_cases is None
            else max(1, epoch_cases)
        )
        self._clock = clock
        self._epoch_time: Optional[float] = None
        self._epoch_folded = 0
        self._epoch_busy = 0.0
        self._best = 0.0
        self._pending: Optional[tuple[str, int]] = None
        self._direction = {"window": 1, "batch": 1}
        self._round_robin = 0
        self.window_adjustments = 0
        self.batch_adjustments = 0
        self.reverts = 0
        self.last_throughput = 0.0
        self.last_utilization = 0.0

    @property
    def adaptive(self) -> bool:
        return self.tune_batch or self.tune_window

    def on_fold(self, folded: int, busy_seconds: float) -> None:
        """Account one folded case; may adjust knobs at epoch boundaries."""
        now = self._clock()
        if self._epoch_time is None:
            self._epoch_time = now
            self._epoch_folded = folded
            self._epoch_busy = busy_seconds
            return
        if folded - self._epoch_folded < self.epoch_cases:
            return
        elapsed = now - self._epoch_time
        if elapsed <= 0.0:
            return
        throughput = (folded - self._epoch_folded) / elapsed
        utilization = min(
            1.0, (busy_seconds - self._epoch_busy) / (self.workers * elapsed)
        )
        self.last_throughput = throughput
        self.last_utilization = utilization
        self._epoch_time = now
        self._epoch_folded = folded
        self._epoch_busy = busy_seconds
        if self.adaptive:
            self._judge_and_propose(throughput, utilization)

    # -- hill-climb core -------------------------------------------------
    def _judge_and_propose(self, throughput: float, utilization: float) -> None:
        if self._pending is not None:
            knob, previous = self._pending
            self._pending = None
            if throughput < self._best * (1.0 - self.hysteresis):
                # The change regressed throughput: undo it, search the
                # other way next time this knob comes up.
                self._apply(knob, previous, count=False)
                self._direction[knob] *= -1
                self.reverts += 1
                return  # let the revert settle for one epoch
        self._best = max(self._best, throughput)

        if self.tune_window and utilization < self.utilization_target:
            # Idle workers with a full pipeline usually means the window
            # is too shallow to cover completion jitter: deepen it.
            if self._propose("window", 1):
                return
        knob = self._next_knob()
        if knob is not None:
            self._propose(knob, self._direction[knob])

    def _next_knob(self) -> Optional[str]:
        knobs = [
            name
            for name, enabled in (
                ("window", self.tune_window),
                ("batch", self.tune_batch),
            )
            if enabled
        ]
        if not knobs:
            return None
        knob = knobs[self._round_robin % len(knobs)]
        self._round_robin += 1
        return knob

    def _propose(self, knob: str, direction: int) -> bool:
        current = self.window if knob == "window" else self.batch_size
        if knob == "window":
            step = max(1, self.workers)
            target = current + direction * step
            target = max(self.min_window, min(self.max_window, target))
        else:
            target = current * 2 if direction > 0 else current // 2
            target = max(self.min_batch, min(self.max_batch, target))
        if target == current:
            # Pinned against a bound: search the other way from now on.
            self._direction[knob] = -direction
            return False
        self._pending = (knob, current)
        self._apply(knob, target, count=True)
        return True

    def _apply(self, knob: str, value: int, *, count: bool) -> None:
        if knob == "window":
            self.window = value
            if count:
                self.window_adjustments += 1
        else:
            self.batch_size = value
            if count:
                self.batch_adjustments += 1


class StreamScheduler:
    """Bounded-window streaming dispatcher with seed-ordered delivery.

    Drive it like this::

        scheduler = StreamScheduler(jobs, workers=8, mode="thread")
        try:
            for job_result in scheduler.results():  # seed order
                if fold(job_result):
                    scheduler.stop()   # e.g. coverage saturated
                    break
        finally:
            stats = scheduler.finish()

    ``mode`` is the pool mode of :func:`repro.runner.pool.run_jobs`:
    ``"thread"`` (chunks on worker threads sharing this process's cache
    and server pool), ``"process"`` (chunks in worker processes; their
    cache / telemetry / server-stat deltas are absorbed here), or
    ``"inproc-threads"`` (chunks of ``workers × batch`` cases run by the
    thread-parallel in-process executor, one chunk at a time — the
    chunk is internally parallel).

    The scheduler never reorders *results*: whatever completion order
    the machine produces, the consumer sees seed order, so folding is
    byte-identical to the serial loop by construction.
    """

    def __init__(
        self,
        jobs: Sequence[SimulationJob],
        *,
        workers: int = 1,
        mode: str = "thread",
        window: Optional[int] = None,
        batch_size: int = 1,
        adaptive: bool = False,
        tune_batch: Optional[bool] = None,
        tune_window: Optional[bool] = None,
        cache: "Union[ArtifactCache, None, bool]" = None,
        timeout_seconds: Optional[float] = None,
        retries: int = 1,
        backoff_seconds: float = 0.05,
        serve: bool = False,
        inproc: bool = False,
        server_pool=None,
        cost_store: Optional[CostModelStore] = None,
        observe_costs: bool = True,
        on_server_stats: Optional[Callable[[dict], None]] = None,
        controller: Optional[ThroughputController] = None,
    ) -> None:
        if mode not in ("thread", "process", "inproc-threads"):
            raise ValueError(
                "mode must be 'thread', 'process', or 'inproc-threads', "
                f"not {mode!r}"
            )
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if window is not None and window < 1:
            raise ValueError("window must be at least 1")
        self._jobs = list(jobs)
        self._total = len(self._jobs)
        self._mode = mode
        self._workers = workers
        self._cache = cache
        self._timeout_seconds = timeout_seconds
        self._retries = retries
        self._backoff_seconds = backoff_seconds
        self._serve = serve
        self._inproc = inproc
        self._own_pool = None
        if serve and mode == "thread" and server_pool is None:
            from repro.runner.servers import ServerPool

            self._own_pool = server_pool = ServerPool(
                max_servers=max(workers * 2, 4)
            )
        self._server_pool = server_pool
        self._on_server_stats = on_server_stats

        if controller is not None:
            self._controller = controller
        else:
            initial_window = (
                self._auto_window(workers, batch_size, mode)
                if window is None
                else window
            )
            self._controller = ThroughputController(
                batch_size=batch_size,
                window=initial_window,
                workers=workers,
                tune_batch=adaptive if tune_batch is None else tune_batch,
                tune_window=(
                    (adaptive and window is None)
                    if tune_window is None
                    else tune_window
                ),
            )
        self.initial_window = self._controller.window
        self.initial_batch = self._controller.batch_size

        # One chunk at a time when the chunk itself is the parallel unit
        # (inproc-threads shards internally) or there is only one worker
        # slot: chunks then run inline on the driving thread, keeping
        # serial campaigns genuinely serial (zero pool threads, zero
        # speculation beyond the open chunk).
        self._chunk_concurrency = (
            1 if mode == "inproc-threads" else max(1, workers)
        )

        # Cost-aware admission: predict each case once up front and
        # class the expensive tail as "long".  With a cold model every
        # prediction is equal, so nothing is classified long and
        # admission degenerates to plain FIFO — exactly the safe default.
        self._cost_store = cost_store
        self._observe_costs = observe_costs and cost_store is not None
        self._keys = [batch_key(job) for job in self._jobs]
        self._sizes = [
            (job.resolved_options().steps, len(job.prog.actors))
            for job in self._jobs
        ]
        self._cost_keys = [
            cost_key(job.engine, job.prog, job.resolved_options())
            for job in self._jobs
        ]
        self._costs = self._predict_costs()
        self._is_long = self._classify_long(self._costs)
        self._long_cap = max(1, workers // 2)
        self._long_running = 0
        # Cost-packed chunk plans: index -> its planned chunk.  Built
        # lazily per (key, cost-class) group when predictions vary, so
        # pooled chunks equalize predicted worker wall-clock instead of
        # packing greedily by arrival.  Invalidated whenever the cost
        # store's penalty generation moves (e.g. a flapping server
        # demoted its artifact) — stale plans would fight the fresh
        # classification.
        self._planned_chunks: "dict[int, list[int]]" = {}
        self._packed_chunks = 0
        self._cost_generation = (
            cost_store.generation if cost_store is not None else 0
        )

        self._pending: "list[int]" = list(range(self._total))
        self._reorder = ReorderBuffer()
        self._ready: "deque[JobResult]" = deque()
        self._futures: dict = {}
        self._executor = None
        self._stopped = False
        self._in_flight_cases = 0
        self._max_in_flight = 0
        self._submitted_cases = 0
        self._cancelled_cases = 0
        self._folded_cases = 0
        self._chunks_submitted = 0
        self._long_chunks = 0
        self._busy_seconds = 0.0
        self._busy_lock = threading.Lock()
        self._started_at: Optional[float] = None
        self._finished = False
        self._prewarmed = False

        # Process mode ships chunks to a module-level entry point (the
        # scheduler itself holds locks and cannot cross the pickle
        # boundary); the workers' cache/telemetry deltas are absorbed
        # here when their chunks complete.
        self._resolved_cache = None
        self._cache_root: Optional[str] = None
        self._cache_max_bytes: Optional[int] = None
        if mode == "process":
            from repro.runner.cache import default_cache

            resolved = default_cache() if cache is None else (cache or None)
            self._resolved_cache = resolved
            if resolved is not None:
                self._cache_root = str(resolved.root)
                self._cache_max_bytes = resolved.max_bytes

        session = telemetry.active()
        self._session = session
        self._tracer = session.tracer if session is not None else None
        parent = telemetry.current_span()
        self._parent_span_id = getattr(parent, "span_id", None)

    # -- sizing ----------------------------------------------------------
    @staticmethod
    def _auto_window(workers: int, batch_size: int, mode: str) -> int:
        # Enough depth that every worker slot holds one full chunk; the
        # controller grows it further if utilization says so.
        return max(workers, workers * max(1, batch_size))

    def _chunk_cases(self) -> int:
        batch = max(1, self._controller.batch_size)
        if self._mode == "inproc-threads":
            # The chunk is sharded across `workers` threads internally.
            return batch * max(1, self._workers)
        return batch

    def _predict_costs(self) -> "Optional[list[float]]":
        if self._cost_store is None or self._total < 2:
            return None
        return [
            self._cost_store.predict(key, steps, actors)
            for key, (steps, actors) in zip(self._cost_keys, self._sizes)
        ]

    def _classify_long(
        self, costs: "Optional[list[float]]"
    ) -> "list[bool]":
        if costs is None:
            return [False] * self._total
        ordered = sorted(costs)
        median = ordered[len(ordered) // 2]
        if median <= 0.0 or max(costs) <= median * LONG_COST_RATIO:
            return [False] * self._total
        return [cost > median * LONG_COST_RATIO for cost in costs]

    def _refresh_costs(self) -> None:
        """Re-predict and re-classify when the cost store's penalty
        generation moved mid-run (a flapping server demoted its
        artifact): not-yet-submitted cases of that artifact re-route to
        the capped long slots, and stale chunk plans are dropped."""
        if self._cost_store is None:
            return
        generation = self._cost_store.generation
        if generation == self._cost_generation:
            return
        self._cost_generation = generation
        self._costs = self._predict_costs()
        self._is_long = self._classify_long(self._costs)
        self._planned_chunks.clear()

    # -- public surface --------------------------------------------------
    @property
    def window(self) -> int:
        return self._controller.window

    @property
    def batch_size(self) -> int:
        return self._controller.batch_size

    def stop(self) -> None:
        """Stop submitting and delivering; call :meth:`finish` next."""
        self._stopped = True

    def results(self) -> Iterator[JobResult]:
        """Yield every job's result in submission (seed) order.

        Stops early when :meth:`stop` was called.  Chunk-level
        infrastructure failures (a worker process dying mid-pickle, an
        executor fault) propagate; per-case simulation failures do not —
        they come back as failed :class:`JobResult`\\ s for the consumer
        to judge, same as the pool API.
        """
        if self._started_at is None:
            self._started_at = time.perf_counter()
        self._prewarm()
        while not self._stopped:
            while self._ready and not self._stopped:
                result = self._ready.popleft()
                self._in_flight_cases -= 1
                self._folded_cases += 1
                with self._busy_lock:
                    busy = self._busy_seconds
                self._controller.on_fold(self._folded_cases, busy)
                yield result
            if self._stopped or self._folded_cases >= self._total:
                break
            self._fill()
            if self._ready:
                continue  # inline chunks complete synchronously
            if self._futures:
                self._drain_completions(block=True)
            elif not self._pending:
                break  # nothing pending, nothing running: drained

    def finish(self) -> dict:
        """Drain in-flight work, account speculation, release the pool.

        Idempotent; always call it (``finally``) after :meth:`results`.
        Returns the scheduler stats dict.
        """
        if self._finished:
            return self._stats()
        self._finished = True
        self._stopped = True
        for future in list(self._futures):
            if future.cancel():
                chunk, is_long = self._futures.pop(future)
                self._cancelled_cases += len(chunk)
                self._submitted_cases -= len(chunk)
                self._in_flight_cases -= len(chunk)
                if is_long:
                    self._long_running -= 1
        while self._futures:
            # Completed-but-unfolded work is speculation waste: it ran,
            # its side effects (cache/server/telemetry counters) are
            # real and get absorbed, but its results are discarded.
            self._drain_completions(block=True)
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._own_pool is not None:
            if self._on_server_stats is not None:
                self._on_server_stats(self._own_pool.stats())
            self._own_pool.close()
            self._own_pool = None
        stats = self._stats()
        if stats["speculated"]:
            telemetry.counter_inc(
                "campaign.speculated_cases", stats["speculated"]
            )
        telemetry.gauge_set(
            "campaign.scheduler.utilization", stats["utilization"]
        )
        telemetry.gauge_set("campaign.scheduler.in_flight", 0)
        return stats

    def _stats(self) -> dict:
        elapsed = (
            time.perf_counter() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        utilization = (
            min(1.0, self._busy_seconds / (self._workers * elapsed))
            if elapsed > 0
            else 0.0
        )
        return {
            "scheduler": "stream",
            "mode": self._mode,
            "workers": self._workers,
            "window": self._controller.window,
            "batch_size": self._controller.batch_size,
            "initial_window": self.initial_window,
            "initial_batch": self.initial_batch,
            "submitted": self._submitted_cases,
            "folded": self._folded_cases,
            "speculated": max(
                0, self._submitted_cases - self._folded_cases
            ),
            "cancelled": self._cancelled_cases,
            "chunks": self._chunks_submitted,
            "long_chunks": self._long_chunks,
            "cost_packed_chunks": self._packed_chunks,
            "max_in_flight": self._max_in_flight,
            "max_reorder_depth": self._reorder.max_depth,
            "utilization": utilization,
            "busy_seconds": self._busy_seconds,
            "elapsed_seconds": elapsed,
            "throughput": (
                self._folded_cases / elapsed if elapsed > 0 else 0.0
            ),
            "window_adjustments": self._controller.window_adjustments,
            "batch_adjustments": self._controller.batch_adjustments,
            "controller_reverts": self._controller.reverts,
        }

    # -- admission -------------------------------------------------------
    def _prewarm(self) -> None:
        """One ``compile_model`` per distinct key before parallel fan-out.

        The artifact cache has no per-key compile lock, so concurrent
        cold-cache chunks would race into redundant gcc runs; warming
        first makes the whole fleet cost one compiler invocation.
        Serial dispatch (chunk concurrency 1) needs no warming — the
        first chunk *is* the warmer.  Single-case chunks are not warmed
        either: each is a plain :func:`~repro.runner.jobs.run_job` with
        exactly one cache lookup per job, at the price that concurrent
        cold-cache singletons of one key may each compile.  The warmed
        program's codegen is memoized, so every chunk of its key reuses
        it.
        """
        if (
            self._prewarmed
            or self._chunk_concurrency <= 1
            or self._chunk_cases() <= 1
            or self._cache is False
        ):
            self._prewarmed = True
            return
        self._prewarmed = True
        from repro.engines.accmos import compile_model

        warmed: set = set()
        for index, job in enumerate(self._jobs):
            key = self._keys[index]
            if key is None or key in warmed:
                continue
            warmed.add(key)
            try:
                compile_model(
                    job.prog, job.resolved_options(), cache=self._cache,
                    artifact="shared" if self._use_shared(job) else "binary",
                )
            except (CodegenError, OSError):
                # Generation or gcc failures (CompilationError is a
                # CodegenError) and filesystem trouble in the cache: the
                # chunk path meets the same failure and reports it per
                # job, with retries and the fallback ladder.  Anything
                # else is a bug and propagates.
                pass

    def _use_shared(self, job: SimulationJob) -> bool:
        return self._inproc or self._mode == "inproc-threads"

    def _fill(self) -> None:
        """Submit chunks until the window is full (or pending is empty).

        The frontier chunk — the one holding the next seed the consumer
        must fold — is exempt from both the window bound and the
        long-slot cap whenever nothing else can make progress; that is
        the no-deadlock invariant.
        """
        self._refresh_costs()
        while self._pending and not self._stopped:
            can_progress = bool(self._futures) or bool(self._ready)
            if self._in_flight_cases < self._controller.window:
                chunk = self._take_chunk()
                if chunk is None and not can_progress:
                    chunk = self._take_chunk(require_frontier=True)
            elif can_progress:
                break
            else:
                chunk = self._take_chunk(require_frontier=True)
            if chunk is None:
                break
            self._submit(chunk)
            if self._chunk_concurrency == 1:
                break  # inline: fold before opening the next chunk

    def _take_chunk(self, require_frontier: bool = False) -> "Optional[list[int]]":
        if not self._pending:
            return None
        start_pos = 0
        if not require_frontier and self._long_running >= self._long_cap:
            # Long slots saturated: admit the first short case instead,
            # so the short stream keeps flowing past the long tail.
            start_pos = next(
                (
                    pos
                    for pos, index in enumerate(self._pending)
                    if not self._is_long[index]
                ),
                None,
            )
            if start_pos is None:
                return None  # only longs left: wait for a slot
        start = self._pending[start_pos]
        planned = self._planned_chunks.get(start)
        if planned is None:
            planned = self._plan_group(start_pos)
        if planned is not None:
            for index in planned:
                self._planned_chunks.pop(index, None)
            members = set(planned)
            self._pending = [
                index for index in self._pending if index not in members
            ]
            self._packed_chunks += 1
            return planned
        key = self._keys[start]
        long = self._is_long[start]
        limit = self._chunk_cases()
        chunk = [start]
        taken = [start_pos]
        if key is not None and limit > 1:
            for pos in range(start_pos + 1, len(self._pending)):
                if len(chunk) >= limit:
                    break
                index = self._pending[pos]
                # Same compiled unit, same cost class: a long rider in a
                # short chunk would re-create head-of-line blocking.
                if self._keys[index] == key and self._is_long[index] == long:
                    chunk.append(index)
                    taken.append(pos)
        for pos in reversed(taken):
            del self._pending[pos]
        return chunk

    def _plan_group(self, start_pos: int) -> "Optional[list[int]]":
        """Cost-pack the pending group around ``self._pending[start_pos]``.

        When predictions vary inside a (compile key, cost class) group,
        greedy arrival packing gives every chunk the same *count* but
        wildly different predicted cost — and one chunk occupies one
        pooled worker slot, so chunk-cost skew is worker wall-clock
        skew.  This plans the next ``chunk_cases × concurrency`` group
        members into cost-equalized chunks via
        :func:`~repro.runner.costmodel.plan_chunks` (best-of LPT /
        round-robin, never predicted worse than round-robin), registers
        every planned chunk, and returns the one containing the start
        case.  Uniform predictions — the cold-model default and the
        single-model steady state — return None: greedy arrival packing
        is already balanced there, and singleton dispatch overheads
        aren't worth re-chunking for.
        """
        if self._costs is None or self._chunk_concurrency <= 1:
            return None
        limit = self._chunk_cases()
        if limit <= 1:
            return None
        start = self._pending[start_pos]
        key = self._keys[start]
        if key is None:
            return None
        long = self._is_long[start]
        horizon = limit * self._chunk_concurrency
        group = [start]
        for pos in range(start_pos + 1, len(self._pending)):
            if len(group) >= horizon:
                break
            index = self._pending[pos]
            if (
                self._keys[index] == key
                and self._is_long[index] == long
                and index not in self._planned_chunks
            ):
                group.append(index)
        if len(group) <= 1:
            return None
        costs = [self._costs[index] for index in group]
        if min(costs) == max(costs):
            return None
        chunks = plan_chunks(
            costs, min(self._chunk_concurrency, len(group)), limit
        )
        start_chunk: "Optional[list[int]]" = None
        for local_chunk in chunks:
            chunk = [group[local] for local in local_chunk]
            if start in chunk:
                start_chunk = chunk
            else:
                for index in chunk:
                    self._planned_chunks[index] = chunk
        return start_chunk

    # -- execution -------------------------------------------------------
    def _submit(self, chunk: "list[int]") -> None:
        is_long = self._is_long[chunk[0]]
        self._submitted_cases += len(chunk)
        self._in_flight_cases += len(chunk)
        self._max_in_flight = max(self._max_in_flight, self._in_flight_cases)
        self._chunks_submitted += 1
        if is_long:
            self._long_running += 1
            self._long_chunks += 1
        telemetry.gauge_set(
            "campaign.scheduler.in_flight", self._in_flight_cases
        )
        if self._chunk_concurrency == 1:
            try:
                results = self._run_chunk(chunk)
            finally:
                if is_long:
                    self._long_running -= 1
            self._absorb(chunk, results)
            return
        if self._mode == "process":
            from repro.runner.pool import _run_chunk_in_process

            future = self._pool().submit(
                _run_chunk_in_process,
                [self._jobs[i] for i in chunk],
                self._cache_root, self._cache_max_bytes,
                self._timeout_seconds, self._retries, self._backoff_seconds,
                self._session is not None, self._serve, self._inproc,
            )
        else:
            future = self._pool().submit(self._run_chunk_worker, chunk)
        self._futures[future] = (chunk, is_long)

    def _pool(self):
        if self._executor is None:
            if self._mode == "process":
                self._executor = ProcessPoolExecutor(
                    max_workers=self._chunk_concurrency
                )
            else:
                self._executor = ThreadPoolExecutor(
                    max_workers=self._chunk_concurrency,
                    thread_name_prefix="accmos-stream",
                )
        return self._executor

    def _run_chunk(self, chunk: "list[int]") -> "list[JobResult]":
        start = time.perf_counter()
        chunk_jobs = [self._jobs[i] for i in chunk]
        try:
            if self._mode == "inproc-threads":
                from repro.runner.inproc_threads import run_jobs_inproc_threads

                return run_jobs_inproc_threads(
                    chunk_jobs,
                    threads=self._workers,
                    keys=[self._keys[i] for i in chunk],
                    cache=self._cache,
                    timeout_seconds=self._timeout_seconds,
                    retries=self._retries,
                    backoff_seconds=self._backoff_seconds,
                )
            return run_job_batch(
                chunk_jobs,
                cache=self._cache,
                timeout_seconds=self._timeout_seconds,
                retries=self._retries,
                backoff_seconds=self._backoff_seconds,
                server_pool=self._server_pool,
                inproc=self._inproc,
            )
        finally:
            elapsed = time.perf_counter() - start
            with self._busy_lock:
                # In inproc-threads mode the chunk occupied all worker
                # threads, not one slot.
                factor = self._workers if self._mode == "inproc-threads" else 1
                self._busy_seconds += elapsed * factor

    def _run_chunk_worker(self, chunk: "list[int]") -> "list[JobResult]":
        # Worker threads have an empty span stack; adopt the caller's
        # span so job spans nest under the campaign.
        if self._tracer is None:
            return self._run_chunk(chunk)
        with self._tracer.adopt(self._parent_span_id):
            return self._run_chunk(chunk)

    # -- completion ------------------------------------------------------
    def _drain_completions(self, block: bool) -> None:
        if not self._futures:
            return
        done, _ = wait(
            self._futures,
            timeout=None if block else 0.0,
            return_when=FIRST_COMPLETED,
        )
        for future in done:
            chunk, is_long = self._futures.pop(future)
            if is_long:
                self._long_running -= 1
            try:
                results = future.result()
            except CancelledError:
                self._cancelled_cases += len(chunk)
                self._submitted_cases -= len(chunk)
                self._in_flight_cases -= len(chunk)
                continue
            self._absorb(chunk, results)

    def _absorb(self, chunk: "list[int]", results: "list[JobResult]") -> None:
        """File one completed chunk: side stats, cost feedback, reorder."""
        if self._mode == "process":
            # Worker processes can't share clocks with the dispatcher;
            # their reported per-phase timings are the busy proxy.
            with self._busy_lock:
                self._busy_seconds += sum(
                    result.total_seconds for result in results
                )
        for index, result in zip(chunk, results):
            if self._resolved_cache is not None and result.cache_stats:
                self._resolved_cache.absorb_counts(**result.cache_stats)
            if self._session is not None and result.telemetry:
                self._session.absorb(
                    result.telemetry, parent_span_id=self._parent_span_id
                )
                result.telemetry = None
            if result.server_stats and self._on_server_stats is not None:
                # Discarded-on-saturation results still ran; their
                # server-pool counters still count.
                self._on_server_stats(result.server_stats)
                result.server_stats = None
            if (
                self._observe_costs
                and result.ok
                and self._mode != "inproc-threads"  # observed internally
            ):
                seconds = result.timings.get("execute", 0.0)
                if seconds:
                    steps, actors = self._sizes[index]
                    self._cost_store.observe(
                        self._cost_keys[index], steps, actors, seconds
                    )
            for released_index, released in self._reorder.push(index, result):
                self._ready.append(released)
            telemetry.observe(
                "campaign.scheduler.reorder_depth", float(self._reorder.depth)
            )
        telemetry.gauge_set(
            "campaign.scheduler.in_flight", self._in_flight_cases
        )

