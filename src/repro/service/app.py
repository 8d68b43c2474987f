"""The transport-agnostic campaign service core.

:class:`CampaignService` owns what the endpoints merely expose: the
campaign registry, the per-tenant admission queues, and the threads
that drive :func:`repro.campaign.iter_campaign`.  Every campaign runs
on the one artifact cache and the process-wide in-process instance pool
(:func:`~repro.inproc.parallel.default_instance_pool`), so the second
campaign of a model compiles and loads nothing.

Everything here is plain threads and condition variables, deliberately:
the runner core is synchronous, campaigns are minutes-long and few, and
a sync core is directly usable from tests without an event loop.  The
asyncio layer in :mod:`repro.service.server` adapts by polling
:meth:`CampaignRecord.wait_events` in the default executor.

Two structural decisions carry the service's guarantees:

* **Append-only event logs.**  Every campaign accumulates its lifecycle
  as an immutable list of JSON-able events (``started``, one ``case``
  per folded seed, a terminal ``outcome``/``error``).  Stream endpoints
  *replay* the log from a client-chosen cursor rather than subscribing
  to a live feed, so a reconnecting client sees exactly the bytes it
  would have seen staying connected, and a disconnect loses nothing.
* **Fair FIFO admission.**  Submissions land in per-tenant FIFO queues;
  a round-robin pointer walks tenants, admitting at most
  ``tenant_quota`` concurrent campaigns per tenant and
  ``max_concurrent`` overall.  One tenant submitting fifty campaigns
  delays its own backlog, not the next tenant's first submission.
"""

from __future__ import annotations

import itertools
import threading
from collections import OrderedDict, deque
from concurrent.futures import ThreadPoolExecutor
from typing import Any, Optional

from repro import telemetry
from repro.service.codec import case_record, outcome_record
from repro.service.spec import CampaignSpec, parse_spec

# Campaign lifecycle states.  queued → running → {done, cancelled,
# failed}; queued may also jump straight to cancelled.
TERMINAL_STATES = ("done", "cancelled", "failed")


class UnknownCampaignError(KeyError):
    """No campaign with that id (maps to HTTP 404)."""


class ServiceClosedError(RuntimeError):
    """A submission after :meth:`CampaignService.close` (maps to HTTP
    503)."""


class CampaignRecord:
    """One submitted campaign: spec, state machine, event log.

    All mutation happens under ``_cond``'s lock; readers take consistent
    snapshots.  The event log is append-only — events are never mutated
    or removed — which is what makes cursor-based replay sound.
    """

    def __init__(self, campaign_id: str, spec: CampaignSpec, program) -> None:
        self.id = campaign_id
        self.spec = spec
        self.program = program
        self.state = "queued"
        self.events: "list[dict]" = []
        self.error: Optional[str] = None
        self.cancel_requested = False
        # Set by the worker once iter_campaign constructs the run; the
        # cancel path uses it to stop the live chunk loop.
        self.run = None
        self.outcome = None
        self._cond = threading.Condition()

    # -- mutation (worker / service side) ---------------------------------
    def append_event(self, event: dict) -> None:
        with self._cond:
            self.events.append(event)
            self._cond.notify_all()

    def set_state(self, state: str) -> None:
        with self._cond:
            self.state = state
            self._cond.notify_all()

    def finish(self, state: str, event: dict) -> None:
        """Terminal transition: the final event and the final state move
        together, so a reader never observes a terminal state with the
        terminal event still missing."""
        with self._cond:
            self.events.append(event)
            self.state = state
            self._cond.notify_all()

    # -- observation (endpoint side) --------------------------------------
    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def wait_events(
        self, cursor: int, timeout: Optional[float] = None
    ) -> "tuple[list[dict], bool]":
        """Events at/after ``cursor`` plus whether the record is
        terminal.  Blocks up to ``timeout`` only when there is nothing
        new to report yet."""
        with self._cond:
            if cursor >= len(self.events) and not self.terminal:
                self._cond.wait(timeout)
            return list(self.events[cursor:]), self.terminal

    def wait_terminal(self, timeout: Optional[float] = None) -> bool:
        with self._cond:
            self._cond.wait_for(
                lambda: self.terminal, timeout=timeout
            )
            return self.terminal

    def status(self) -> dict:
        """The JSON-able status document (``GET /campaigns/{id}``)."""
        with self._cond:
            cases = sum(
                1 for event in self.events if event["type"] == "case"
            )
            record = {
                "id": self.id,
                "tenant": self.spec.tenant,
                "state": self.state,
                "cases": cases,
                "events": len(self.events),
                "error": self.error,
            }
            outcome = self.outcome
            last = self.events[-1] if self.events else None
        if outcome is not None:
            record["saturated"] = outcome.saturated
            record["speculated_cases"] = outcome.speculated_cases
            record["scheduler_stats"] = outcome.scheduler_stats
        elif last is not None and last.get("type") == "outcome":
            # Cancelled while still queued: no CampaignOutcome exists,
            # but the terminal event still reports the (zero) drain.
            record["speculated_cases"] = last.get("speculated_cases", 0)
        return record


class CampaignService:
    """Submit / observe / cancel campaigns over one artifact cache.

    ``cost_store`` is accepted and ignored: the learned cost model it
    configured is gone, and the keyword stays only for callers that
    still pass it.
    """

    def __init__(
        self,
        *,
        tenant_quota: int = 1,
        max_concurrent: int = 2,
        cache=None,
        cost_store=None,
    ) -> None:
        if tenant_quota < 1:
            raise ValueError("tenant_quota must be at least 1")
        if max_concurrent < 1:
            raise ValueError("max_concurrent must be at least 1")
        self.tenant_quota = tenant_quota
        self.max_concurrent = max_concurrent

        # None means the process-wide default cache (runner semantics).
        self._cache = cache

        self._lock = threading.Lock()
        self._campaigns: "OrderedDict[str, CampaignRecord]" = OrderedDict()
        # tenant -> FIFO of queued records; tenants keep their slot in
        # _tenant_order forever (first-seen order) so the round-robin
        # pointer stays meaningful.
        self._queues: "dict[str, deque[CampaignRecord]]" = {}
        self._tenant_order: "list[str]" = []
        self._rr = 0
        self._running: "dict[str, int]" = {}
        self._total_running = 0
        self._ids = itertools.count(1)
        self._closed = False
        self._executor = ThreadPoolExecutor(
            max_workers=max_concurrent, thread_name_prefix="campaign"
        )

    # -- lifecycle ---------------------------------------------------------
    def submit(self, document: Any) -> CampaignRecord:
        """Validate, register, and (quota permitting) start a campaign.

        Validation is eager and total — spec schema *and* model load —
        so a bad submission fails the POST instead of surfacing minutes
        later in a failed campaign.
        """
        spec = parse_spec(document)
        program = spec.load_program()
        with self._lock:
            if self._closed:
                raise ServiceClosedError("service is shutting down")
            campaign_id = f"c{next(self._ids):04d}"
            record = CampaignRecord(campaign_id, spec, program)
            self._campaigns[campaign_id] = record
            tenant = spec.tenant
            if tenant not in self._queues:
                self._queues[tenant] = deque()
                self._tenant_order.append(tenant)
                self._running.setdefault(tenant, 0)
            self._queues[tenant].append(record)
            self._admit_locked()
        telemetry.counter_inc("service.submitted")
        return record

    def get(self, campaign_id: str) -> CampaignRecord:
        with self._lock:
            record = self._campaigns.get(campaign_id)
        if record is None:
            raise UnknownCampaignError(campaign_id)
        return record

    def status(self, campaign_id: str) -> dict:
        """Campaign status plus the service view: scheduler stats ride
        on the record; queue counts and the telemetry snapshot describe
        the service."""
        record = self.get(campaign_id)
        status = record.status()
        status["service"] = self.stats()
        return status

    def stats(self) -> dict:
        session = telemetry.active()
        with self._lock:
            states: "dict[str, int]" = {}
            for record in self._campaigns.values():
                states[record.state] = states.get(record.state, 0) + 1
            queued = {
                tenant: len(queue)
                for tenant, queue in self._queues.items()
                if queue
            }
            running = {
                tenant: count
                for tenant, count in self._running.items()
                if count
            }
        return {
            "campaigns": states,
            "queued_by_tenant": queued,
            "running_by_tenant": running,
            "telemetry": session.snapshot() if session is not None else None,
        }

    def cancel(
        self, campaign_id: str, *, timeout: Optional[float] = 60.0
    ) -> dict:
        """Cooperatively cancel; wait for the drain; return the final
        status (including ``speculated_cases``)."""
        record = self.get(campaign_id)
        with self._lock:
            record.cancel_requested = True
            if record.state == "queued":
                # Still in a tenant queue: remove it there, terminal
                # immediately — nothing ran, nothing was speculated.
                queue = self._queues.get(record.spec.tenant)
                if queue is not None and record in queue:
                    queue.remove(record)
                record.finish(
                    "cancelled",
                    {
                        "type": "outcome",
                        "state": "cancelled",
                        "outcome": None,
                        "speculated_cases": 0,
                    },
                )
                telemetry.counter_inc("service.cancelled")
                return record.status()
            run = record.run
        if run is not None:
            run.cancel()
        record.wait_terminal(timeout)
        telemetry.counter_inc("service.cancelled")
        return record.status()

    def close(self, *, timeout: Optional[float] = 60.0) -> None:
        """Cancel everything and drain the campaign threads."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            records = list(self._campaigns.values())
        for record in records:
            if not record.terminal:
                try:
                    self.cancel(record.id, timeout=timeout)
                except UnknownCampaignError:  # pragma: no cover
                    pass
        self._executor.shutdown(wait=True)

    # -- admission ---------------------------------------------------------
    def _admit_locked(self) -> None:
        """Round-robin fair admission (caller holds ``_lock``).

        Walk tenants from the rotation pointer; each tenant with queued
        work and quota headroom gets one start per pass.  Loop until a
        full pass admits nothing or the global cap is reached.
        """
        if not self._tenant_order:
            return
        while self._total_running < self.max_concurrent:
            admitted = False
            for _ in range(len(self._tenant_order)):
                tenant = self._tenant_order[
                    self._rr % len(self._tenant_order)
                ]
                self._rr += 1
                queue = self._queues.get(tenant)
                if (
                    queue
                    and self._running.get(tenant, 0) < self.tenant_quota
                ):
                    record = queue.popleft()
                    self._running[tenant] = self._running.get(tenant, 0) + 1
                    self._total_running += 1
                    record.set_state("running")
                    self._executor.submit(self._drive, record)
                    admitted = True
                    if self._total_running >= self.max_concurrent:
                        return
            if not admitted:
                return

    def _release(self, record: CampaignRecord) -> None:
        with self._lock:
            tenant = record.spec.tenant
            self._running[tenant] = max(0, self._running.get(tenant, 0) - 1)
            self._total_running = max(0, self._total_running - 1)
            if not self._closed:
                self._admit_locked()

    # -- the campaign worker ----------------------------------------------
    def _drive(self, record: CampaignRecord) -> None:
        """Run one campaign to completion, translating the fold stream
        into the record's event log."""
        try:
            from repro.campaign import iter_campaign

            run = iter_campaign(
                record.program, record.spec.config, cache=self._cache
            )
            record.run = run
            if record.cancel_requested:
                run.cancel()  # cancel raced admission; drain immediately
            record.append_event(
                {"type": "started", "id": record.id,
                 "tenant": record.spec.tenant}
            )
            for index, case in enumerate(run):
                record.append_event(
                    {"type": "case", "index": index,
                     "case": case_record(case)}
                )
            outcome = record.outcome = run.outcome
            state = "cancelled" if record.cancel_requested else "done"
            record.finish(
                state,
                {
                    "type": "outcome",
                    "state": state,
                    "outcome": outcome_record(outcome),
                    "speculated_cases": outcome.speculated_cases,
                },
            )
            telemetry.counter_inc("service.completed")
        except Exception as exc:  # noqa: BLE001 — the log is the report
            record.error = f"{type(exc).__name__}: {exc}"
            record.finish(
                "failed", {"type": "error", "error": record.error}
            )
            telemetry.counter_inc("service.failed")
        finally:
            self._release(record)
