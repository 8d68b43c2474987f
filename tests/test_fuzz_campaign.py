"""The fuzz campaign driver, corpus persistence, and CLI front end."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import telemetry
from repro.cli import main
from repro.fuzz import (
    ALL_RUNGS,
    CorpusEntry,
    FuzzConfig,
    case_signature,
    generate_case,
    load_entries,
    load_entry,
    run_fuzz,
    save_entry,
)

BAKED_ENTRY = Path(__file__).parent / "corpus" / "case-98194eaf7419.json"


def _plant_broken_rung(monkeypatch):
    """Make sse_ac disagree on every case that has a float output."""
    import repro.engines.api as api

    real = api.ENGINES["sse_ac"]

    def broken(prog, stimuli, options):
        result = real(prog, stimuli, options)
        result.checksums = {k: v ^ 0xBAD for k, v in result.checksums.items()}
        return result

    monkeypatch.setitem(api.ENGINES, "sse_ac", broken)


class TestCampaign:
    def test_clean_campaign_agrees(self):
        outcome = run_fuzz(FuzzConfig(
            cases=6, seed=0, rungs=("sse_ac", "sse_rac"), shrink=False,
        ))
        assert outcome.cases_run == 6
        assert outcome.divergent == 0
        assert "all rungs agree" in outcome.summary()

    def test_divergence_is_shrunk_and_persisted(self, tmp_path, monkeypatch):
        _plant_broken_rung(monkeypatch)
        corpus = tmp_path / "corpus"
        outcome = run_fuzz(FuzzConfig(
            cases=3, seed=0, rungs=("sse_ac",),
            corpus_dir=corpus, max_shrink_attempts=60,
        ))
        assert outcome.divergent >= 1
        finding = outcome.findings[0]
        assert finding.shrink_summary
        assert finding.corpus_path is not None and finding.corpus_path.exists()
        entry = load_entry(finding.corpus_path)
        assert entry.status == "open"
        assert entry.divergences, "persisted entry records what diverged"
        shrunk = finding.final_report.case
        assert shrunk.n_actors <= finding.report.case.n_actors

    def test_campaign_continues_past_divergences(self, monkeypatch):
        _plant_broken_rung(monkeypatch)
        outcome = run_fuzz(FuzzConfig(
            cases=4, seed=0, rungs=("sse_ac",), shrink=False,
        ))
        assert outcome.cases_run == 4  # one bad case doesn't stop the run

    def test_time_budget_stops_early(self):
        outcome = run_fuzz(FuzzConfig(
            cases=10_000, seed=0, rungs=("sse_ac",),
            shrink=False, time_budget=1.0,
        ))
        assert outcome.budget_exhausted
        assert outcome.cases_run < 10_000

    def test_telemetry_counters(self, monkeypatch):
        _plant_broken_rung(monkeypatch)
        with telemetry.capture() as session:
            run_fuzz(FuzzConfig(
                cases=2, seed=0, rungs=("sse_ac",),
                max_shrink_attempts=20,
            ))
        counters = session.metrics.snapshot()["counters"]
        assert counters.get("fuzz.cases") == 2
        assert counters.get("fuzz.divergences", 0) >= 1
        assert counters.get("fuzz.shrink_steps", 0) >= 1


class TestCorpus:
    def test_roundtrip(self, tmp_path):
        entry = CorpusEntry(
            case=generate_case(42), status="fixed",
            divergences=[{"rung": "accmos", "kind": "checksums", "detail": "x"}],
            note="fixed by the sign-of-zero change", fuzz_seed=42,
        )
        path = save_entry(tmp_path, entry)
        assert path.name == f"case-{case_signature(entry.case)}.json"
        again = load_entry(path)
        assert again.status == "fixed"
        assert again.fuzz_seed == 42
        assert case_signature(again.case) == case_signature(entry.case)

    def test_same_case_never_duplicates(self, tmp_path):
        entry = CorpusEntry(case=generate_case(7))
        save_entry(tmp_path, entry)
        save_entry(tmp_path, entry)
        assert len(load_entries(tmp_path)) == 1

    def test_load_entries_empty_dir(self, tmp_path):
        assert load_entries(tmp_path / "nope") == []


class TestCli:
    def test_fuzz_exit_zero_when_green(self, capsys):
        rc = main(["fuzz", "--cases", "2", "--seed", "0",
                   "--rungs", "sse_ac,sse_rac"])
        assert rc == 0
        assert "all rungs agree" in capsys.readouterr().out

    def test_fuzz_exit_one_on_divergence(self, tmp_path, monkeypatch, capsys):
        _plant_broken_rung(monkeypatch)
        rc = main(["fuzz", "--cases", "2", "--seed", "0", "--rungs", "sse_ac",
                   "--no-shrink", "--corpus-dir", str(tmp_path / "c"),
                   "--json"])
        assert rc == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["divergent"] >= 1
        assert payload["findings"][0]["divergences"]

    def test_fuzz_rejects_unknown_rung(self, capsys):
        rc = main(["fuzz", "--cases", "1", "--rungs", "warp_drive"])
        assert rc == 2
        assert "unknown rung" in capsys.readouterr().err

    def test_fuzz_rejects_retired_baked_rung(self, capsys):
        # The baked-in stimuli rung retired with its program shape; the
        # corpus entry that records its old bug still names it.
        (divergence,) = load_entry(BAKED_ENTRY).divergences
        retired = divergence["rung"]
        assert retired not in ALL_RUNGS
        rc = main(["fuzz", "--cases", "1", "--rungs", retired])
        assert rc == 2
        assert f"unknown rung(s): [{retired!r}]" in capsys.readouterr().err
