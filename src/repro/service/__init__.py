"""Asyncio campaign service: submit, stream, cancel over HTTP + WebSocket.

The compile-once/run-many runner is embeddable
(:func:`repro.campaign.iter_campaign`); this package puts a long-lived
network front end on it so programmatic clients and model corpora can
share one artifact cache and one pool of loaded in-process libraries
across campaigns instead of paying a cold process per run.

Pieces:

* :mod:`repro.service.spec` — the campaign-spec JSON schema (model
  reference, tenant and the :class:`~repro.campaign.CampaignConfig`
  fields) and its validation.
* :mod:`repro.service.codec` — canonical wire records for per-case and
  merged outcomes: deterministic fields only, sorted-key compact JSON,
  so "byte-identical to the CLI" is a checkable equality.
* :mod:`repro.service.app` — :class:`CampaignService`, the transport-
  agnostic core: per-tenant quotas, fair FIFO admission across tenants,
  an append-only event log per campaign (replayable, so reconnects are
  lossless), cooperative cancel.
* :mod:`repro.service.wire` — minimal stdlib HTTP/1.1 and RFC 6455
  WebSocket framing (no third-party dependencies).
* :mod:`repro.service.server` — the asyncio endpoint layer
  (``repro serve-api``).
* :mod:`repro.service.client` — a small blocking client used by the
  tests, the CI smoke job, and the benchmark harness.
"""

from repro.service.app import CampaignService
from repro.service.codec import case_record, encode, outcome_record
from repro.service.spec import CampaignSpec, SpecError, parse_spec
from repro.service.server import CampaignServer, serve_api

__all__ = [
    "CampaignService",
    "CampaignServer",
    "CampaignSpec",
    "SpecError",
    "parse_spec",
    "case_record",
    "outcome_record",
    "encode",
    "serve_api",
]
