"""Streaming job scheduling: the one dispatch loop.

Every job list — a campaign's seed sweep or a
:func:`~repro.runner.pool.run_jobs` call — is dispatched here.  There
is no barrier: a long case never idles the other workers, and an early
stop (saturation, cancel) wastes only the work already in flight.
Two cooperating pieces:

* :class:`ReorderBuffer` — completion order in, seed order out.  The
  campaign merge *must* fold results in seed order (that is what makes
  parallel campaigns byte-identical to serial ones), but workers finish
  in whatever order the machine pleases; the buffer holds early
  finishers and releases a result the moment everything before it has
  landed.  Its depth is bounded by the in-flight window.
* :class:`StreamScheduler` — the FIFO dispatcher.  It forms chunks of
  same-key cases in submission order, keeps a fixed window of
  ``2 × workers × batch_size`` cases in flight, submits a new chunk the
  moment capacity frees up (no barrier, ever), and yields results in
  seed order for the consumer to fold.  When the consumer stops early
  (saturation), only the work already in flight is wasted — bounded by
  the window, and counted rather than silently burned
  (``campaign.speculated_cases``).

Invariants the rest of the stack relies on:

* **Byte-identity** — chunk membership, window depth and batch size
  change *scheduling* only; each case's result is produced by the same
  per-case execution ladder as always, and results are folded strictly
  in seed order, so the merged coverage, per-case new-point counts,
  diagnostic attribution, and the saturation verdict are identical to
  the serial loop for every batch/worker combination.
* **No deadlock** — every chunk starts at the oldest unsubmitted case,
  so when nothing is running or ready the next chunk holds the fold
  frontier (the next seed the consumer needs); it is then submitted
  regardless of the window bound.
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
    ThreadPoolExecutor,
    wait,
)
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from repro import telemetry
from repro.model.errors import CodegenError
from repro.runner.jobs import (
    JobResult,
    SimulationJob,
    batch_key,
    run_job_batch,
)

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache
    from repro.runner.costmodel import CostModelStore


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


class StreamScheduler:
    """Fixed-window FIFO dispatcher with seed-ordered delivery.

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
    and server pool) or ``"inproc-threads"`` (chunks of ``workers ×
    batch`` cases run by the thread-parallel in-process executor, one
    chunk at a time — the chunk is internally parallel, its shards
    packed from ``cost_store``).

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
        batch_size: int = 1,
        cache: "Union[ArtifactCache, None, bool]" = None,
        timeout_seconds: Optional[float] = None,
        retries: int = 1,
        backoff_seconds: float = 0.05,
        serve: bool = False,
        inproc: bool = False,
        server_pool=None,
        cost_store: "Optional[CostModelStore]" = None,
    ) -> None:
        if mode not in ("thread", "inproc-threads"):
            raise ValueError(
                f"mode must be 'thread' or 'inproc-threads', not {mode!r}"
            )
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self._jobs = list(jobs)
        self._total = len(self._jobs)
        self._mode = mode
        self._workers = workers
        self._batch_size = batch_size
        self._window = 2 * workers * batch_size
        self._cache = cache
        self._timeout_seconds = timeout_seconds
        self._retries = retries
        self._backoff_seconds = backoff_seconds
        self._inproc = inproc
        self._cost_store = cost_store
        self._own_pool = None
        if serve and mode == "thread" and server_pool is None:
            from repro.runner.servers import ServerPool

            self._own_pool = server_pool = ServerPool(
                max_servers=max(workers * 2, 4)
            )
        self._server_pool = server_pool

        # One chunk at a time when the chunk itself is the parallel unit
        # (inproc-threads shards internally) or there is only one worker
        # slot: chunks then run inline on the driving thread, keeping
        # serial campaigns genuinely serial (zero pool threads, zero
        # speculation beyond the open chunk).
        self._chunk_concurrency = (
            1 if mode == "inproc-threads" else max(1, workers)
        )
        self._keys = [batch_key(job) for job in self._jobs]

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
        self._busy_seconds = 0.0
        self._busy_lock = threading.Lock()
        self._started_at: Optional[float] = None
        self._finished = False
        self._prewarmed = False

        session = telemetry.active()
        self._tracer = session.tracer if session is not None else None
        parent = telemetry.current_span()
        self._parent_span_id = getattr(parent, "span_id", None)

    def _chunk_cases(self) -> int:
        if self._mode == "inproc-threads":
            # The chunk is sharded across `workers` threads internally.
            return self._batch_size * self._workers
        return self._batch_size

    # -- public surface --------------------------------------------------
    def stop(self) -> None:
        """Stop submitting and delivering; call :meth:`finish` next."""
        self._stopped = True

    def results(self) -> Iterator[JobResult]:
        """Yield every job's result in submission (seed) order.

        Stops early when :meth:`stop` was called.  Chunk-level
        infrastructure failures (an executor fault) propagate; per-case
        simulation failures do not — they come back as failed
        :class:`JobResult`\\ s for the consumer to judge, same as the
        pool API.
        """
        if self._started_at is None:
            self._started_at = time.perf_counter()
        self._prewarm()
        while not self._stopped:
            while self._ready and not self._stopped:
                result = self._ready.popleft()
                self._in_flight_cases -= 1
                self._folded_cases += 1
                yield result
            if self._stopped or self._folded_cases >= self._total:
                break
            self._fill()
            if self._ready:
                continue  # inline chunks complete synchronously
            if self._futures:
                self._drain_completions()
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
                chunk = self._futures.pop(future)
                self._cancelled_cases += len(chunk)
                self._submitted_cases -= len(chunk)
                self._in_flight_cases -= len(chunk)
        while self._futures:
            # Completed-but-unfolded work is speculation waste: it ran,
            # its side effects (cache/server/telemetry counters) are
            # real, but its results are discarded.
            self._drain_completions()
        if self._executor is not None:
            self._executor.shutdown(wait=True)
            self._executor = None
        if self._own_pool is not None:
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
            "window": self._window,
            "batch_size": self._batch_size,
            "submitted": self._submitted_cases,
            "folded": self._folded_cases,
            "speculated": max(
                0, self._submitted_cases - self._folded_cases
            ),
            "cancelled": self._cancelled_cases,
            "chunks": self._chunks_submitted,
            "max_in_flight": self._max_in_flight,
            "max_reorder_depth": self._reorder.max_depth,
            "utilization": utilization,
            "busy_seconds": self._busy_seconds,
            "elapsed_seconds": elapsed,
            "throughput": (
                self._folded_cases / elapsed if elapsed > 0 else 0.0
            ),
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
                    job.prog, job.resolved_options(), cache=self._cache
                )
            except (CodegenError, OSError):
                # Generation or gcc failures (CompilationError is a
                # CodegenError) and filesystem trouble in the cache: the
                # chunk path meets the same failure and reports it per
                # job, with retries and the fallback ladder.  Anything
                # else is a bug and propagates.
                pass

    def _fill(self) -> None:
        """Submit chunks until the window is full (or pending is empty).

        A full window only waits while something can make progress;
        otherwise the next chunk — which holds the fold frontier — goes
        in regardless.  That is the no-deadlock invariant.
        """
        while self._pending and not self._stopped:
            if self._in_flight_cases >= self._window and (
                self._futures or self._ready
            ):
                break
            self._submit(self._take_chunk())
            if self._chunk_concurrency == 1:
                break  # inline: fold before opening the next chunk

    def _take_chunk(self) -> "list[int]":
        """The oldest pending case plus its same-key successors, up to
        the chunk size, in submission order."""
        start = self._pending[0]
        key = self._keys[start]
        limit = self._chunk_cases()
        chunk = [start]
        taken = [0]
        if key is not None and limit > 1:
            for pos in range(1, len(self._pending)):
                if len(chunk) >= limit:
                    break
                index = self._pending[pos]
                if self._keys[index] == key:
                    chunk.append(index)
                    taken.append(pos)
        for pos in reversed(taken):
            del self._pending[pos]
        return chunk

    # -- execution -------------------------------------------------------
    def _submit(self, chunk: "list[int]") -> None:
        self._submitted_cases += len(chunk)
        self._in_flight_cases += len(chunk)
        self._max_in_flight = max(self._max_in_flight, self._in_flight_cases)
        self._chunks_submitted += 1
        telemetry.gauge_set(
            "campaign.scheduler.in_flight", self._in_flight_cases
        )
        if self._chunk_concurrency == 1:
            self._absorb(chunk, self._run_chunk(chunk))
            return
        future = self._pool().submit(self._run_chunk_worker, chunk)
        self._futures[future] = chunk

    def _pool(self) -> ThreadPoolExecutor:
        if self._executor is None:
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
                    cost_store=self._cost_store,
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
    def _drain_completions(self) -> None:
        done, _ = wait(self._futures, return_when=FIRST_COMPLETED)
        for future in done:
            chunk = self._futures.pop(future)
            try:
                results = future.result()
            except CancelledError:
                self._cancelled_cases += len(chunk)
                self._submitted_cases -= len(chunk)
                self._in_flight_cases -= len(chunk)
                continue
            self._absorb(chunk, results)

    def _absorb(self, chunk: "list[int]", results: "list[JobResult]") -> None:
        """File one completed chunk into the reorder buffer."""
        for index, result in zip(chunk, results):
            for _, released in self._reorder.push(index, result):
                self._ready.append(released)
            telemetry.observe(
                "campaign.scheduler.reorder_depth", float(self._reorder.depth)
            )
        telemetry.gauge_set(
            "campaign.scheduler.in_flight", self._in_flight_cases
        )
