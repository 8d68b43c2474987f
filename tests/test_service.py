"""The campaign service: lifecycle, byte-identity, fairness, resilience.

Four contracts under test, straight from the service's design:

* **Lifecycle** — submit returns an id before the campaign runs; status
  and the event log advance through queued/running to exactly one
  terminal state; cancel is cooperative, drains in flight work, and
  reports the speculation it discarded.
* **Byte-identity** — the outcome streamed over WebSocket is the same
  canonical byte string :func:`repro.campaign.run_campaign` produces
  for the same spec (``repro campaign --json`` prints it), on zoo
  models, including the replayed stream after a reconnect and the
  folded prefix under cancel.
* **Fairness** — per-tenant quotas with round-robin admission: one
  tenant's backlog cannot starve another tenant's first submission.
* **Resilience** — a client that vanishes mid-stream kills its
  connection, not its campaign, and leaves the shared pool healthy for
  the next submission.
"""

from __future__ import annotations

import json
import socket
import time

import pytest

from conftest import requires_cc
from helpers import ZOO, ServiceThread
from repro.campaign import CampaignConfig, run_campaign
from repro.runner.costmodel import CostModelStore, set_default_cost_store
from repro.schedule import preprocess
from repro.service import (
    CampaignService,
    SpecError,
    encode,
    outcome_record,
    parse_spec,
)
from repro.service.client import ServiceError
from repro.service.codec import case_record
from repro.service.wire import ws_client_handshake, ws_read_frame_sync
from repro.slx.generic import model_to_generic

DEADLINE = 90.0  # generous upper bound on any campaign in this file


@pytest.fixture(autouse=True)
def _isolated_cost_store(tmp_path):
    """Never read or pollute the user's persistent cost model."""
    previous = set_default_cost_store(CostModelStore(tmp_path / "cm.json"))
    yield
    set_default_cost_store(previous)


def _wait(predicate, timeout=DEADLINE, interval=0.01):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


@pytest.fixture
def server(tmp_path):
    service = CampaignService(
        tenant_quota=1,
        max_concurrent=2,
        cost_store=CostModelStore(tmp_path / "service-cm.json"),
    )
    running = ServiceThread(service)
    yield running
    running.close()


def _spec(model="bench:SPV", **extra):
    spec = {"model": model, "engine": "sse", "steps": 300, "max_cases": 6}
    spec.update(extra)
    return spec


# ----------------------------------------------------------------------
# spec validation
# ----------------------------------------------------------------------
class TestSpec:
    def test_minimal_spec_defaults(self):
        spec = parse_spec({"model": "bench:SPV"})
        assert spec.model == "bench:SPV"
        assert spec.tenant == "default"
        assert spec.config == CampaignConfig()

    def test_knobs_forwarded(self):
        spec = parse_spec(_spec(workers=2, tenant="t", serve=False))
        assert spec.tenant == "t"  # service-level, not a config field
        assert spec.config == CampaignConfig(
            engine="sse", steps=300, max_cases=6, workers=2, serve=False,
        )

    @pytest.mark.parametrize(
        "document, message",
        [
            ("nope", "must be a JSON object"),
            ({}, "requires 'model'"),
            ({"model": ""}, "requires 'model'"),
            ({"model": {"name": "X"}}, "missing 'blocks'"),
            ({"model": "bench:SPV", "typo": 1}, "unknown spec key"),
            ({"model": "bench:SPV", "engine": "matlab"}, "unknown engine"),
            ({"model": "bench:SPV", "tenant": ""}, "'tenant'"),
            ({"model": "bench:SPV", "workers": 0}, "workers"),
            ({"model": "bench:SPV", "workers": True}, "must be an integer"),
            ({"model": "bench:SPV", "steps": "many"}, "must be an integer"),
            ({"model": "bench:SPV", "serve": 1}, "must be a boolean"),
            ({"model": "bench:SPV", "mode": "fork"}, "'mode'"),
            ({"model": "bench:SPV", "scheduler": "lifo"}, "'scheduler'"),
            ({"model": "bench:SPV", "timeout_seconds": 0}, "positive"),
        ],
    )
    def test_rejects_bad_documents(self, document, message):
        with pytest.raises(SpecError, match=message):
            parse_spec(document)

    def test_scheduler_key_rejected_even_with_a_once_valid_value(self):
        with pytest.raises(SpecError, match="unknown spec key.*'scheduler'"):
            parse_spec({"model": "bench:SPV", "scheduler": "stream"})
        # Deleted dispatch knobs: one FIFO stream, no pool flavour,
        # window or controller to pick.
        for key, value in (
            ("mode", "thread"), ("window", 8), ("adaptive", True),
        ):
            with pytest.raises(SpecError, match=f"unknown spec key.*'{key}'"):
                parse_spec({"model": "bench:SPV", key: value})

    def test_inline_generic_model_loads(self):
        document = model_to_generic(ZOO["int_arith"]()[0])
        spec = parse_spec({"model": document, "engine": "sse"})
        prog = spec.load_program()
        assert prog.model.name == "IntArith"


# ----------------------------------------------------------------------
# submit / stream / cancel lifecycle
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_submit_stream_complete(self, server):
        client = server.client
        assert client.health()
        campaign_id = client.submit(_spec())

        events = list(client.stream(campaign_id))
        types = [event["type"] for event in events]
        assert types[0] == "started"
        assert types[-1] == "outcome"
        assert set(types[1:-1]) == {"case"}
        # Case events carry the fold's seed order.
        seeds = [event["case"]["seed"] for event in events[1:-1]]
        assert seeds == sorted(seeds)

        final = events[-1]
        assert final["state"] == "done"
        assert final["outcome"]["n_cases"] == len(seeds)

        status = client.status(campaign_id)
        assert status["state"] == "done"
        assert status["cases"] == len(seeds)
        assert status["scheduler_stats"] is not None
        assert "server_pool" in status["service"]
        assert "telemetry" in status["service"]

    def test_events_endpoint_pages_the_log(self, server):
        client = server.client
        campaign_id = client.submit(_spec())
        assert _wait(
            lambda: client.status(campaign_id)["state"] == "done"
        )
        page = client.events(campaign_id)
        assert page["terminal"] is True
        assert page["events"][0]["type"] == "started"
        tail = client.events(campaign_id, cursor=page["next_cursor"] - 1)
        assert tail["events"] == page["events"][-1:]

    def test_unknown_campaign_is_404(self, server):
        with pytest.raises(ServiceError) as excinfo:
            server.client.status("c9999")
        assert excinfo.value.status == 404

    def test_invalid_spec_is_400(self, server):
        with pytest.raises(ServiceError) as excinfo:
            server.client.submit({"model": "bench:SPV", "typo": 1})
        assert excinfo.value.status == 400
        assert "typo" in str(excinfo.value.body)
        with pytest.raises(ServiceError) as excinfo:
            server.client.submit({"model": "bench:NOPE"})
        assert excinfo.value.status == 400
        for key, value in (
            ("scheduler", "stream"), ("mode", "thread"), ("window", 8),
            ("adaptive", False),
        ):
            with pytest.raises(ServiceError) as excinfo:
                server.client.submit({"model": "bench:SPV", key: value})
            assert excinfo.value.status == 400
            assert f"'{key}'" in str(excinfo.value.body)

    def test_cancel_running_campaign_drains_and_reports(self, server):
        client = server.client
        campaign_id = client.submit(
            _spec(steps=20_000, max_cases=200, plateau_patience=200)
        )
        # Let it actually start folding before pulling the plug.
        assert _wait(lambda: client.status(campaign_id)["cases"] >= 1)
        status = client.cancel(campaign_id)
        assert status["state"] == "cancelled"
        assert status["cases"] < 200
        assert status["speculated_cases"] >= 0
        # The terminal event is an outcome event carrying the drain.
        final = client.events(campaign_id)["events"][-1]
        assert final["type"] == "outcome"
        assert final["state"] == "cancelled"
        assert final["speculated_cases"] == status["speculated_cases"]
        # Cancel is idempotent once terminal.
        assert client.cancel(campaign_id)["state"] == "cancelled"

    def test_cancel_queued_campaign_never_runs(self, tmp_path):
        service = CampaignService(
            tenant_quota=1,
            max_concurrent=1,
            cost_store=CostModelStore(tmp_path / "cm2.json"),
        )
        try:
            blocker = service.submit(
                _spec(steps=20_000, max_cases=200, plateau_patience=200)
            )
            queued = service.submit(_spec())
            assert queued.state == "queued"
            status = service.cancel(queued.id)
            assert status["state"] == "cancelled"
            assert status["cases"] == 0
            assert status["speculated_cases"] == 0
            service.cancel(blocker.id)
        finally:
            service.close()


# ----------------------------------------------------------------------
# byte-identity with the CLI fold
# ----------------------------------------------------------------------
ZOO_IDENTITY = ["int_arith", "unsigned", "logic_decisions"]


class TestByteIdentity:
    @pytest.mark.parametrize("name", ZOO_IDENTITY)
    def test_streamed_outcome_matches_cli(self, name, server):
        model = ZOO[name]()[0]
        document = model_to_generic(model)
        spec = {
            "model": document, "engine": "sse",
            "steps": 400, "max_cases": 5, "workers": 2,
        }
        campaign_id = server.client.submit(spec)
        frames = list(server.client.stream_raw(campaign_id))
        events = [json.loads(frame.decode("utf-8")) for frame in frames]
        final = events[-1]
        assert final["type"] == "outcome" and final["state"] == "done"

        reference = run_campaign(
            preprocess(model), engine="sse",
            steps=400, max_cases=5, workers=2,
        )
        # Scheduler stats describe how the campaign ran; none of them
        # reaches the canonical bytes.
        canonical = encode(outcome_record(reference))
        assert reference.scheduler_stats
        for key in reference.scheduler_stats:
            assert f'"{key}"' not in canonical
        # The canonical encoding the CLI prints (`repro campaign --json`)
        # must equal the streamed terminal outcome, byte for byte.
        assert (
            frames[-1]
            == encode(
                {
                    "type": "outcome",
                    "state": "done",
                    "outcome": outcome_record(reference),
                    "speculated_cases": final["speculated_cases"],
                }
            ).encode("utf-8")
        )
        # And each streamed case is the canonical per-case record.
        streamed = [e for e in events if e["type"] == "case"]
        assert [e["case"] for e in streamed] == [
            case_record(case) for case in reference.cases
        ]

    def test_reconnect_replay_is_byte_identical(self, server):
        campaign_id = server.client.submit(_spec(workers=2))
        first = list(server.client.stream_raw(campaign_id))
        assert len(first) >= 3
        # A reconnect with cursor=N replays exactly the missed suffix.
        for cursor in (0, 1, len(first) - 1):
            replay = list(server.client.stream_raw(campaign_id, cursor))
            assert replay == first[cursor:]

    def test_cancelled_stream_is_a_prefix_of_the_full_run(self, server):
        """Cancel discards the tail, never corrupts the folded prefix."""
        spec = _spec(steps=15_000, max_cases=40, plateau_patience=40)
        campaign_id = server.client.submit(spec)
        assert _wait(
            lambda: server.client.status(campaign_id)["cases"] >= 2
        )
        server.client.cancel(campaign_id)
        events = list(server.client.stream(campaign_id))
        streamed = [e["case"] for e in events if e["type"] == "case"]
        assert events[-1]["state"] == "cancelled"
        assert 0 < len(streamed) < 40

        reference = run_campaign(
            _bench_prog(),
            engine="sse", steps=15_000, max_cases=40, plateau_patience=40,
        )
        full = [case_record(case) for case in reference.cases]
        assert streamed == full[: len(streamed)]


def _bench_prog():
    from repro.benchmarks import build_benchmark

    return preprocess(build_benchmark("SPV"))


# ----------------------------------------------------------------------
# tenant quotas and fair admission
# ----------------------------------------------------------------------
class TestTenantFairness:
    def test_round_robin_across_tenants(self, tmp_path):
        """A's backlog must not starve B's first submission."""
        service = CampaignService(
            tenant_quota=1,
            max_concurrent=1,
            cost_store=CostModelStore(tmp_path / "cm3.json"),
        )
        slow = _spec(steps=20_000, max_cases=200, plateau_patience=200)
        try:
            a1 = service.submit(dict(slow, tenant="a"))
            assert _wait(lambda: a1.state == "running")
            a2 = service.submit(dict(slow, tenant="a"))
            b1 = service.submit(dict(slow, tenant="b"))
            assert a2.state == "queued" and b1.state == "queued"

            service.cancel(a1.id)
            # Round-robin admission: the slot freed by a1 goes to tenant
            # b, not to a's second submission.
            assert _wait(lambda: b1.state == "running")
            assert a2.state == "queued"

            service.cancel(b1.id)
            assert _wait(lambda: a2.state == "running")
            service.cancel(a2.id)
        finally:
            service.close()

    def test_tenant_quota_caps_concurrency(self, tmp_path):
        """One tenant cannot occupy both global slots; a second tenant
        can run alongside."""
        service = CampaignService(
            tenant_quota=1,
            max_concurrent=2,
            cost_store=CostModelStore(tmp_path / "cm4.json"),
        )
        slow = _spec(steps=20_000, max_cases=200, plateau_patience=200)
        try:
            a1 = service.submit(dict(slow, tenant="a"))
            a2 = service.submit(dict(slow, tenant="a"))
            assert _wait(lambda: a1.state == "running")
            assert a2.state == "queued"  # quota, despite a free slot
            b1 = service.submit(dict(slow, tenant="b"))
            assert _wait(lambda: b1.state == "running")
            assert a2.state == "queued"
            for record in (a1, b1, a2):
                service.cancel(record.id)
        finally:
            service.close()

    def test_rejects_degenerate_limits(self):
        with pytest.raises(ValueError, match="tenant_quota"):
            CampaignService(tenant_quota=0)
        with pytest.raises(ValueError, match="max_concurrent"):
            CampaignService(max_concurrent=0)


# ----------------------------------------------------------------------
# disconnect resilience
# ----------------------------------------------------------------------
class TestDisconnect:
    def test_mid_campaign_disconnect_leaves_service_healthy(self, server):
        client = server.client
        campaign_id = client.submit(
            _spec(steps=20_000, max_cases=200, plateau_patience=200)
        )
        assert _wait(lambda: client.status(campaign_id)["cases"] >= 1)

        # Raw-socket subscriber that vanishes without a close frame.
        path = f"/campaigns/{campaign_id}/stream"
        handshake, _ = ws_client_handshake(client.host, path)
        sock = socket.create_connection(
            (client.host, client.port), timeout=30
        )
        sock.sendall(handshake)
        data = b""
        while b"\r\n\r\n" not in data:
            data += sock.recv(4096)
        buffered = [data.split(b"\r\n\r\n", 1)[1]]

        def read_exactly(n):
            while len(buffered[0]) < n:
                chunk = sock.recv(65536)
                assert chunk, "server closed the stream early"
                buffered[0] += chunk
            out, buffered[0] = buffered[0][:n], buffered[0][n:]
            return out

        ws_read_frame_sync(read_exactly)  # at least one live frame
        sock.close()  # abrupt: no close frame, mid-campaign

        # The campaign is unaffected: still running, cancellable, and
        # its terminal drain is intact.
        status = client.status(campaign_id)
        assert status["state"] == "running"
        assert client.cancel(campaign_id)["state"] == "cancelled"

        # The service (and its shared pool) serves the next campaign.
        follow_up = client.submit(_spec())
        events = list(client.stream(follow_up))
        assert events[-1]["type"] == "outcome"
        assert events[-1]["state"] == "done"
        assert client.status(follow_up)["service"]["server_pool"] is not None

    @requires_cc
    def test_warm_pool_is_shared_across_campaigns(self, server):
        """Two AccMoS campaigns of one model reuse warm servers across
        the campaign boundary — the shared pool's reason to exist."""
        spec = {
            "model": "bench:SPV", "engine": "accmos",
            "steps": 120, "max_cases": 4, "plateau_patience": 4,
            "batch_size": 2, "serve": True, "threads": 1,
        }
        client = server.client
        first = client.submit(spec)
        assert list(client.stream(first))[-1]["state"] == "done"
        second = client.submit(spec)
        assert list(client.stream(second))[-1]["state"] == "done"
        pool = client.status(second)["service"]["server_pool"]
        assert pool["spawns"] >= 1
        assert pool["reuses"] >= 1, pool
