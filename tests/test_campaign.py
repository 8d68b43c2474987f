"""Test campaigns: accumulation, saturation, diagnostic attribution."""

from __future__ import annotations

import pytest

from repro.campaign import run_campaign
from repro.coverage import Metric
from repro.diagnosis import DiagnosticKind
from repro.dtypes import I32
from repro.model import ModelBuilder
from repro.schedule import preprocess


def _prog():
    """A model whose coverage needs several random cases at tiny step
    budgets: a rare branch plus an eventually-wrapping accumulator."""
    b = ModelBuilder("Camp")
    x = b.inport("X", dtype=I32)
    rare = b.block("CompareToConstant", "Rare", [x], operator=">",
                   params={"constant": 95})
    sub = b.subsystem("RareBlock", inputs=[x])
    sub.inner.gain("Boost", sub.input_ref(0), 3)
    sub.set_enable(rare)
    acc = b.accumulator("Acc", b.abs_("Mag", x), dtype=I32)
    b.outport("Y", acc)
    return preprocess(b.build())


class TestCampaign:
    def test_accumulates_across_cases(self):
        prog = _prog()
        outcome = run_campaign(prog, engine="sse", steps=6, max_cases=10,
                               plateau_patience=3)
        assert outcome.n_cases >= 2
        assert outcome.cases[0].new_points > 0
        total_new = sum(case.new_points for case in outcome.cases)
        covered = sum(outcome.merged.bitmaps[m].count() for m in Metric)
        assert total_new == covered

    def test_saturation_stops_early(self):
        prog = _prog()
        outcome = run_campaign(prog, engine="sse", steps=5_000, max_cases=10,
                               plateau_patience=2)
        assert outcome.saturated
        assert outcome.n_cases < 10
        assert outcome.cases[-1].new_points == 0

    def test_diagnostics_attributed_to_first_seed(self):
        prog = _prog()
        # 100 avg magnitude * 50k steps ~ 5e6 << 2^31: no wrap; use more
        # steps so the accumulator wraps within the first case.
        outcome = run_campaign(prog, engine="accmos", steps=50_000_000,
                               max_cases=2, plateau_patience=2)
        wraps = [(e, seed) for e, seed in outcome.diagnostics
                 if e.kind is DiagnosticKind.WRAP_ON_OVERFLOW]
        assert wraps and wraps[0][1] == 1  # first seed exposed it
        # The same event from later cases is not re-reported.
        assert len(wraps) == 1

    def test_summary_text(self):
        prog = _prog()
        outcome = run_campaign(prog, engine="sse", steps=100, max_cases=3,
                               plateau_patience=3)
        text = outcome.summary()
        assert "case(s)" in text and "Actor:" in text

    def test_validation(self):
        prog = _prog()
        with pytest.raises(ValueError, match="max_cases"):
            run_campaign(prog, max_cases=0)
        with pytest.raises(ValueError, match="plateau_patience"):
            run_campaign(prog, plateau_patience=0)

    def test_engine_without_coverage_rejected(self):
        prog = _prog()
        with pytest.raises(ValueError, match="no coverage"):
            run_campaign(prog, engine="sse_rac", steps=5, max_cases=1)

    def test_coverage_curve_is_per_metric(self):
        """Regression: the curve must track only the requested metric,
        not the all-metric total."""
        prog = _prog()
        outcome = run_campaign(prog, engine="sse", steps=6, max_cases=8,
                               plateau_patience=100)
        for metric in Metric:
            curve = outcome.coverage_curve(metric)
            assert len(curve) == outcome.n_cases
            assert all(b >= a for a, b in zip(curve, curve[1:]))
            # The curve ends at exactly this metric's covered count.
            assert curve[-1] == outcome.merged.bitmaps[metric].count()
        # Per-metric new points decompose each case's total.
        for case in outcome.cases:
            assert sum(case.new_points_by_metric.values()) == case.new_points
        # The summed curves reproduce the all-metric cumulative totals.
        summed = [
            sum(outcome.coverage_curve(m)[i] for m in Metric)
            for i in range(outcome.n_cases)
        ]
        total, expected = 0, []
        for case in outcome.cases:
            total += case.new_points
            expected.append(total)
        assert summed == expected


class TestCampaignCli:
    def test_command_runs(self, capsys):
        from repro.cli import main

        assert main(["campaign", "bench:SPV", "--engine", "accmos",
                     "--steps", "2000", "--cases", "3", "--patience", "2",
                     "--uncovered", "5"]) == 0
        out = capsys.readouterr().out
        assert "campaign:" in out
        assert "new points" in out
