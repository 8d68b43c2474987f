"""Canonical wire records: the service's byte-identity contract.

A campaign submitted over HTTP and streamed over WebSocket must produce
*byte-identical* results to the same spec run through the CLI.  Wall
times, per-phase timings, and cache hits are real measurements of a
particular run — they can never be identical across two runs — so the
canonical records carry only the deterministic outcome of the seed-
ordered fold: which points each case uncovered, which diagnostics it
surfaced first, the merged bitmaps, the saturation verdict.  Encoding is
compact sorted-key JSON, so equal records are equal byte strings and the
identity check is a string comparison (``repro campaign --json`` prints
exactly this encoding).
"""

from __future__ import annotations

import hashlib
import json
from typing import TYPE_CHECKING

from repro.coverage.metrics import ALL_METRICS

if TYPE_CHECKING:
    from repro.campaign import CampaignOutcome, CaseOutcome
    from repro.coverage.report import CoverageReport


def encode(record) -> str:
    """Canonical JSON: sorted keys, no whitespace — one record, one
    byte string."""
    return json.dumps(record, sort_keys=True, separators=(",", ":"))


def case_record(case: "CaseOutcome") -> dict:
    """The deterministic projection of one folded case."""
    return {
        "seed": case.seed,
        "steps_run": case.steps_run,
        "new_points": case.new_points,
        "n_diagnostics": case.n_diagnostics,
        "new_points_by_metric": {
            metric.value: case.new_points_by_metric.get(metric, 0)
            for metric in ALL_METRICS
        },
    }


def _coverage_record(merged: "CoverageReport") -> dict:
    """Covered counts plus a digest of each raw bitmap: two campaigns
    with equal records covered *exactly* the same points, not merely the
    same number of them."""
    record = {}
    for metric in ALL_METRICS:
        bitmap = merged.bitmaps[metric]
        record[metric.value] = {
            "covered": bitmap.count(),
            "total": len(bitmap),
            "digest": hashlib.sha256(bitmap.to_bytes()).hexdigest()[:16],
        }
    return record


def outcome_record(outcome: "CampaignOutcome") -> dict:
    """The deterministic projection of a merged campaign outcome.

    Scheduling artifacts (speculation, scheduler stats, server-pool
    counters) and wall-clock measurements are deliberately absent: they
    describe *how* the campaign ran, which legitimately differs between
    a CLI run and a streamed service run of the same spec.  What is
    present is everything the fold determines: the per-case contribution
    sequence, the pooled diagnostics with their first-exposing seeds,
    the merged coverage, and the verdict.
    """
    return {
        "n_cases": outcome.n_cases,
        "saturated": outcome.saturated,
        "cases": [case_record(case) for case in outcome.cases],
        "diagnostics": [
            {
                "path": event.path,
                "kind": event.kind.value,
                "first_step": event.first_step,
                "seed": seed,
            }
            for event, seed in outcome.diagnostics
        ],
        "coverage": (
            _coverage_record(outcome.merged)
            if outcome.merged is not None
            else None
        ),
        "coverage_curves": {
            metric.value: outcome.coverage_curve(metric)
            for metric in ALL_METRICS
        },
    }
