"""The two workloads: a short-case campaign, and a two-tenant mix
streamed through the campaign service.

Every request starts from a model *reference* (a Table-1 benchmark name)
and ends with the result in the caller's hands, the way ``repro
campaign`` (with its default options) and ``POST /campaigns`` serve a
user: model build and preprocessing are part of each request.  Set-up is
the cold path in front of the first request (empty artifact cache, so
gcc runs), repeated by the caller and timed there.

The seed only picks campaign base seeds; models, step counts and case
counts are fixed, so the work per request does not depend on the seed.
"""

from __future__ import annotations

import asyncio
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.benchmarks import build_benchmark
from repro.campaign import iter_campaign, run_campaign
from repro.runner.cache import ArtifactCache, set_default_cache
from repro.runner.costmodel import CostModelStore, set_default_cost_store
from repro.schedule import preprocess
from repro.service import CampaignServer, CampaignService, encode, outcome_record
from repro.service.client import ServiceClient

from ledger import CaseFigures

SEED_SPACE = 2**31 - 1


@dataclass
class Outcome:
    """One request as the caller saw it."""

    latency_s: float
    first_result_s: float
    figures: CaseFigures
    ok: bool
    problem: str = ""


def fresh_stores(work: Path) -> ArtifactCache:
    """Point the process-wide artifact cache and cost model at empty
    stores under ``work``, so the next compile is cold."""
    cache = ArtifactCache(work / "artifacts")
    set_default_cache(cache)
    set_default_cost_store(CostModelStore(work / "costmodel.json"))
    return cache


def campaign_figures(outcome) -> CaseFigures:
    figures = CaseFigures()
    for case in outcome.cases:
        figures.add(
            CaseFigures(
                c_loop_s=case.wall_time,
                decode_s=case.timings.get("parse", 0.0),
                steps=case.steps_run,
                cases=1,
            )
        )
    return figures


def sse_reference(model: str, steps: int, cases: int, base_seed: int) -> str:
    """The canonical outcome bytes of a campaign run by the SSE
    interpreter: the independent reference every AccMoS path must
    reproduce."""
    prog = preprocess(build_benchmark(model))
    outcome = run_campaign(
        prog, engine="sse", steps=steps, max_cases=cases,
        plateau_patience=cases, base_seed=base_seed,
    )
    return encode(outcome_record(outcome))


class Workload:
    clients = 1

    def setup(self, work: Path) -> None:
        """Start cold from empty stores under ``work`` and make ready
        everything the first request needs (artifacts, warm servers)."""
        raise NotImplementedError

    def teardown(self) -> None:
        pass

    def check(self, rng) -> str:
        """Compare against an independent reference; '' when correct."""
        raise NotImplementedError

    def request(self, client: int, rng) -> Outcome:
        raise NotImplementedError


class ShortCaseCampaign(Workload):
    """Many 32-step cases in one campaign: the shape where per-case
    Python overhead, not the C loop, sets the time."""

    MODEL = "SPV"
    STEPS = 32
    CASES = 64
    CHECK_CASES = 12

    def _campaign(self, base_seed: int, cases: int):
        # threads=None is ``repro campaign``'s default (--threads auto):
        # in-process C loops on up to four threads where shared objects
        # load, the warm server otherwise.
        prog = preprocess(build_benchmark(self.MODEL))
        return iter_campaign(
            prog, engine="accmos", steps=self.STEPS, max_cases=cases,
            plateau_patience=cases, base_seed=base_seed, threads=None,
        )

    def setup(self, work: Path) -> None:
        # A small campaign, not a bare compile: it builds the artifact
        # the default path loads (a shared object for in-process threads).
        fresh_stores(work)
        for _ in self._campaign(1, 2):
            pass

    def check(self, rng) -> str:
        base_seed = rng.randrange(1, SEED_SPACE)
        run = self._campaign(base_seed, self.CHECK_CASES)
        for _ in run:
            pass
        got = encode(outcome_record(run.outcome))
        if got != sse_reference(
            self.MODEL, self.STEPS, self.CHECK_CASES, base_seed
        ):
            return f"campaign base seed {base_seed}: outcome differs from SSE"
        return ""

    def request(self, client: int, rng) -> Outcome:
        base_seed = rng.randrange(1, SEED_SPACE)
        start = time.perf_counter()
        run = self._campaign(base_seed, self.CASES)
        first: Optional[float] = None
        for _ in run:
            if first is None:
                first = time.perf_counter() - start
        latency = time.perf_counter() - start
        outcome = run.outcome
        ok = (
            outcome.n_cases == self.CASES
            and all(case.steps_run == self.STEPS for case in outcome.cases)
        )
        return Outcome(latency, first or latency, campaign_figures(outcome),
                       ok, "" if ok else f"base seed {base_seed}: short run")


@dataclass
class TenantSpec:
    tenant: str
    model: str
    steps: int
    cases: int

    def document(self, base_seed: int, cases: Optional[int] = None) -> dict:
        cases = self.cases if cases is None else cases
        return {
            "model": f"bench:{self.model}", "engine": "accmos",
            "steps": self.steps, "max_cases": cases,
            "plateau_patience": cases, "base_seed": base_seed,
            "tenant": self.tenant,
        }


@dataclass
class _Service:
    """An in-process campaign service on a private event-loop thread."""

    service: CampaignService
    server: CampaignServer
    loop: asyncio.AbstractEventLoop
    thread: threading.Thread = field(init=False)

    def __post_init__(self) -> None:
        started = threading.Event()

        def serve() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=serve, daemon=True)
        self.thread.start()
        if not started.wait(30):
            raise RuntimeError("campaign service did not start")

    def close(self) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.close(), self.loop
        ).result(120)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.loop.close()


class ServiceMix(Workload):
    """Two tenants, one closed-loop client each, submitting over HTTP
    and streaming per-case results over WebSocket from one shared
    service: a short-case campaign on one model and a medium-case
    campaign on another, so the shared warm pool serves two artifacts
    at once."""

    TENANTS = (
        TenantSpec("tenant-a", "SPV", steps=32, cases=32),
        TenantSpec("tenant-b", "LEDLC", steps=2000, cases=8),
    )
    clients = len(TENANTS)
    CHECK_CASES = 12

    def __init__(self) -> None:
        self._live: Optional[_Service] = None

    def setup(self, work: Path) -> None:
        cache = fresh_stores(work)
        service = CampaignService(
            cache=cache, cost_store=CostModelStore(work / "service-cm.json"),
        )
        self._live = _Service(
            service, CampaignServer(service), asyncio.new_event_loop()
        )
        # The service compiles on first use: one small campaign per
        # tenant makes every artifact and warm server ready.
        for spec in self.TENANTS:
            final = self._stream(spec.document(1, cases=2))[1][-1]
            if final.get("state") != "done":
                raise RuntimeError(f"warm-up campaign failed: {final}")

    def teardown(self) -> None:
        if self._live is not None:
            live, self._live = self._live, None
            live.close()

    def _stream(self, document: dict) -> "tuple[str, list[dict], float]":
        """Submit one campaign and read its event stream to the end;
        also returns when the first case event arrived (0.0 if none)."""
        server = self._live.server
        api = ServiceClient(server.host, server.port)
        campaign_id = api.submit(document)
        events, first_case_at = [], 0.0
        for event in api.stream(campaign_id):
            if event["type"] == "case" and not first_case_at:
                first_case_at = time.perf_counter()
            events.append(event)
        return campaign_id, events, first_case_at

    def check(self, rng) -> str:
        spec = self.TENANTS[0]
        base_seed = rng.randrange(1, SEED_SPACE)
        final = self._stream(spec.document(base_seed, self.CHECK_CASES))[1][-1]
        if final.get("type") != "outcome" or final.get("outcome") is None:
            return f"service campaign base seed {base_seed} failed: {final}"
        if encode(final["outcome"]) != sse_reference(
            spec.model, spec.steps, self.CHECK_CASES, base_seed
        ):
            return f"service base seed {base_seed}: outcome differs from SSE"
        return ""

    def request(self, client: int, rng) -> Outcome:
        spec = self.TENANTS[client]
        base_seed = rng.randrange(1, SEED_SPACE)
        start = time.perf_counter()
        campaign_id, events, first_case_at = self._stream(
            spec.document(base_seed)
        )
        latency = time.perf_counter() - start
        final = events[-1]
        streamed = [event["case"] for event in events if event["type"] == "case"]
        merged = final.get("outcome") or {}
        ok = (
            final.get("state") == "done"
            and len(streamed) == spec.cases
            and merged.get("cases") == streamed
        )
        record = self._live.service.get(campaign_id)
        figures = (
            campaign_figures(record.outcome)
            if record.outcome is not None
            else CaseFigures()
        )
        first = first_case_at - start if first_case_at else latency
        return Outcome(latency, first, figures, ok,
                       "" if ok else f"{spec.tenant} base seed {base_seed}: "
                                     f"stream and outcome disagree")


WORKLOADS = {
    "campaign": ShortCaseCampaign,
    "service": ServiceMix,
}
