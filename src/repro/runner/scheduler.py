"""Streaming job scheduling: the one dispatch loop.

Every job list — a campaign's seed sweep or a
:func:`~repro.runner.pool.run_jobs` call — is dispatched here, one chunk
at a time on the calling thread.  A chunk is the oldest pending job
plus up to ``threads × batch_size − 1`` of its same-key successors
(:func:`~repro.runner.jobs.batch_key`); it runs in-process on
``threads`` private library instances
(:func:`~repro.runner.jobs.run_job_batch`), so the parallelism lives
inside the chunk and no pool of worker threads is needed.  Jobs without
a key (the interpreted engines) run one at a time: they hold the GIL.

Two cooperating pieces:

* :class:`ReorderBuffer` — completion order in, seed order out.  The
  campaign merge *must* fold results in seed order (that is what makes
  parallel campaigns byte-identical to serial ones).  A chunk takes its
  key's successors and may skip over jobs of another key, so its later
  results can finish before an earlier seed; the buffer holds them and
  releases a result the moment everything before it has landed.  A
  campaign has one key, so its buffer never holds anything.
* :class:`StreamScheduler` — the FIFO chunker.  It runs the next chunk
  only once the consumer has folded everything released so far, so
  when the consumer stops early (saturation, cancel) only the open
  chunk is wasted — counted rather than silently burned
  (``campaign.speculated_cases``).

Byte-identity: chunk membership, thread count and batch size change
*scheduling* only; each case's result is produced by the same per-case
execution ladder, and results are folded strictly in seed order, so the
merged coverage, per-case new-point counts, diagnostic attribution and
the saturation verdict equal the serial loop's for every combination.

The stats dict :meth:`StreamScheduler.finish` returns is surfaced as
``CampaignOutcome.scheduler_stats`` and in the CLI's ``--timings``
report; with telemetry enabled, speculation also lands in the
``campaign.speculated_cases`` counter.
"""

from __future__ import annotations

import time
from collections import deque
from typing import TYPE_CHECKING, Iterator, Optional, Sequence, Union

from repro import telemetry
from repro.runner.jobs import (
    JobResult,
    SimulationJob,
    batch_key,
    run_job_batch,
)

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache


class ReorderBuffer:
    """Completion order in, submission (seed) order out.

    ``push(index, item)`` files one out-of-order arrival and returns the
    — possibly empty — run of items that just became releasable: the
    contiguous prefix starting at the current frontier.  Indices are the
    0-based submission positions; each must be pushed exactly once.

    The two ways a push can be invalid get *distinct* errors — a
    duplicate of a still-held index ("pushed twice") versus an index
    below the frontier ("already released") — because they call for
    very different debugging.
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
    """FIFO same-key chunker with seed-ordered delivery.

    Drive it like this::

        scheduler = StreamScheduler(jobs, threads=2, batch_size=8)
        try:
            for job_result in scheduler.results():  # seed order
                if fold(job_result):
                    scheduler.stop()   # e.g. coverage saturated
                    break
        finally:
            stats = scheduler.finish()
    """

    def __init__(
        self,
        jobs: Sequence[SimulationJob],
        *,
        threads: int = 1,
        batch_size: int = 1,
        cache: "Union[ArtifactCache, None, bool]" = None,
        timeout_seconds: Optional[float] = None,
        retries: int = 1,
        backoff_seconds: float = 0.05,
    ) -> None:
        if threads < 1:
            raise ValueError("threads must be at least 1")
        if batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        self._jobs = list(jobs)
        self._threads = threads
        self._batch_size = batch_size
        self._chunk_cases = threads * batch_size
        self._cache = cache
        self._timeout_seconds = timeout_seconds
        self._retries = retries
        self._backoff_seconds = backoff_seconds
        self._keys = [batch_key(job) for job in self._jobs]

        self._pending: "list[int]" = list(range(len(self._jobs)))
        self._reorder = ReorderBuffer()
        self._ready: "deque[JobResult]" = deque()
        self._stopped = False
        self._submitted_cases = 0
        self._folded_cases = 0
        self._chunks = 0
        self._started_at: Optional[float] = None
        self._finished = False

    # -- public surface --------------------------------------------------
    def stop(self) -> None:
        """Stop running and delivering; call :meth:`finish` next."""
        self._stopped = True

    def results(self) -> Iterator[JobResult]:
        """Yield every job's result in submission (seed) order.

        Stops early when :meth:`stop` was called.  Per-case simulation
        failures come back as failed :class:`JobResult`\\ s for the
        consumer to judge; anything else a chunk raises propagates.
        """
        if self._started_at is None:
            self._started_at = time.perf_counter()
        while not self._stopped:
            while self._ready and not self._stopped:
                self._folded_cases += 1
                yield self._ready.popleft()
            if self._stopped or not self._pending:
                break
            chunk = self._take_chunk()
            self._submitted_cases += len(chunk)
            self._chunks += 1
            results = run_job_batch(
                [self._jobs[i] for i in chunk],
                threads=self._threads,
                cache=self._cache,
                timeout_seconds=self._timeout_seconds,
                retries=self._retries,
                backoff_seconds=self._backoff_seconds,
            )
            for index, result in zip(chunk, results):
                for _, released in self._reorder.push(index, result):
                    self._ready.append(released)

    def finish(self) -> dict:
        """Account speculation and return the stats dict.

        Idempotent; always call it (``finally``) after :meth:`results`.
        """
        if self._finished:
            return self._stats()
        self._finished = True
        self._stopped = True
        stats = self._stats()
        if stats["speculated"]:
            telemetry.counter_inc(
                "campaign.speculated_cases", stats["speculated"]
            )
        return stats

    def _stats(self) -> dict:
        elapsed = (
            time.perf_counter() - self._started_at
            if self._started_at is not None
            else 0.0
        )
        return {
            "scheduler": "stream",
            "threads": self._threads,
            "batch_size": self._batch_size,
            "submitted": self._submitted_cases,
            "folded": self._folded_cases,
            # Cases that ran (the rest of the open chunk, plus anything
            # held for seed order) but were never delivered.
            "speculated": self._submitted_cases - self._folded_cases,
            "chunks": self._chunks,
            "elapsed_seconds": elapsed,
            "throughput": (
                self._folded_cases / elapsed if elapsed > 0 else 0.0
            ),
        }

    def _take_chunk(self) -> "list[int]":
        """The oldest pending case plus its same-key successors, up to
        the chunk size, in submission order."""
        start = self._pending[0]
        key = self._keys[start]
        chunk = [start]
        taken = [0]
        if key is not None:
            for pos in range(1, len(self._pending)):
                if len(chunk) >= self._chunk_cases:
                    break
                index = self._pending[pos]
                if self._keys[index] == key:
                    chunk.append(index)
                    taken.append(pos)
        for pos in reversed(taken):
            del self._pending[pos]
        return chunk
