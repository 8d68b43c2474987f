"""repro.guided: coverage map, corpus, mutation, energy, campaign loop.

Everything here runs on the Python rungs only (no C compiler needed):
the guided loop feeds on the oracle's SSE reference coverage, which is
bit-identical to the C rungs' by the oracle invariant.
"""

from __future__ import annotations

import json
import re
import time

import pytest

from repro.coverage.bitmap import Bitmap
from repro.coverage.metrics import ALL_METRICS, Metric
from repro.fuzz.corpus import (
    CorpusEntry,
    divergence_signature,
    find_open_duplicate,
    save_entry,
)
from repro.fuzz.driver import case_seed, process_finding
from repro.fuzz.generate import generate_case
from repro.fuzz.oracle import Divergence, OracleReport
from repro.fuzz.shrink import shrink_case
from repro.guided import (
    CoverageMap,
    GuidedConfig,
    SeedCorpus,
    SeedEntry,
    assign_energy,
    coverage_key,
    mutants,
    replay_corpus,
    run_guided,
    schedule_round,
    seed_score,
)

from conftest import requires_cc


def _bitmaps(**hits) -> dict[Metric, Bitmap]:
    """Tiny 4-metric bitmap set: sizes 8/4/4/4, hits per metric value."""
    sizes = {Metric.ACTOR: 8, Metric.CONDITION: 4,
             Metric.DECISION: 4, Metric.MCDC: 4}
    return {
        m: Bitmap.from_hits(sizes[m], hits.get(m.value, []))
        for m in ALL_METRICS
    }


class TestCaseSeed:
    def test_streams_are_disjoint(self):
        # Base seed s's stream never collides with base seed s+1's.
        assert case_seed(1, 0) != case_seed(0, 2**32 - 1)
        assert case_seed(0, 7) == 7
        assert case_seed(1, 0) == 2**32

    def test_index_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            case_seed(0, 2**32)
        with pytest.raises(ValueError):
            case_seed(0, -1)


class TestCoverageKey:
    def test_param_and_stimulus_changes_share_a_key(self):
        from dataclasses import replace

        case = generate_case(11)
        bumped = replace(case, steps=case.steps + 5, stimuli={})
        assert coverage_key(case) == coverage_key(bumped)

    def test_structure_changes_split_keys(self):
        a, b = generate_case(11), generate_case(12)
        assert coverage_key(a) != coverage_key(b)

    def test_bitmap_sizes_enter_the_key(self):
        case = generate_case(11)
        key = coverage_key(case, _bitmaps())
        assert key.endswith(":8x4x4x4")
        assert key.startswith(coverage_key(case))


class TestCoverageMap:
    def test_observe_counts_novelty_once(self):
        cm = CoverageMap()
        first = _bitmaps(actor=[0, 1], decision=[2])
        assert cm.observe("k", first) == 3
        assert cm.observe("k", first) == 0  # already accumulated
        assert cm.observe("k", _bitmaps(actor=[1, 2])) == 1  # only 2 is new
        assert cm.points() == 4

    def test_keys_are_independent(self):
        cm = CoverageMap()
        assert cm.observe("k1", _bitmaps(actor=[0])) == 1
        assert cm.observe("k2", _bitmaps(actor=[0])) == 1
        assert cm.n_keys == 2

    def test_novelty_is_read_only(self):
        cm = CoverageMap()
        cm.observe("k", _bitmaps(actor=[0]))
        probe = _bitmaps(actor=[0, 3])
        assert cm.novelty("k", probe) == 1
        assert cm.points() == 1  # unchanged
        assert cm.novelty("unseen", probe) == 2  # full count for new keys

    def test_serialization_roundtrip(self):
        cm = CoverageMap()
        cm.observe("k1", _bitmaps(actor=[0, 7], mcdc=[3]))
        cm.observe("k2", _bitmaps(condition=[1]))
        again = CoverageMap.from_dict(cm.to_dict())
        assert again == cm
        assert again.points() == cm.points()

    def test_equality_detects_single_bit_difference(self):
        a, b = CoverageMap(), CoverageMap()
        a.observe("k", _bitmaps(actor=[0]))
        b.observe("k", _bitmaps(actor=[1]))
        assert a != b


class TestMutation:
    def test_mutants_are_deterministic(self):
        case = generate_case(5)
        a = mutants(case, seed=42, count=6)
        b = mutants(case, seed=42, count=6)
        assert [m.to_dict() for m in a] == [m.to_dict() for m in b]
        assert a  # something was produced

    def test_different_seeds_diverge(self):
        case = generate_case(5)
        a = mutants(case, seed=1, count=6)
        b = mutants(case, seed=2, count=6)
        assert [m.to_dict() for m in a] != [m.to_dict() for m in b]

    def test_mutants_build_and_simulate(self):
        from repro.fuzz.generate import build_model

        case = generate_case(5)
        for mutant in mutants(case, seed=7, count=8):
            build_model(mutant)  # raises if the recipe is invalid

    def test_unknown_op_rejected(self):
        case = generate_case(5)
        with pytest.raises(ValueError):
            mutants(case, seed=1, count=1, ops=("stimulus", "nope"))

    def test_single_op_restriction_holds(self):
        # steps-only mutants differ from the parent only in step count.
        case = generate_case(5)
        for mutant in mutants(case, seed=3, count=5, ops=("steps",)):
            assert [n.to_dict() for n in mutant.nodes] == [
                n.to_dict() for n in case.nodes
            ]
            assert mutant.stimuli == case.stimuli

    def test_insert_respects_actor_ceiling(self):
        case = generate_case(5)
        for mutant in mutants(
            case, seed=9, count=10, max_actors=case.n_actors, ops=("insert",)
        ):
            assert mutant.n_actors <= case.n_actors  # ceiling => no growth


class TestEnergy:
    def _entry(self, sig: str, novel=10, fuzzed=0, child=0, steps=20):
        case = generate_case(5)
        case.steps = steps
        return SeedEntry(
            case=case, key="k", novel_points=novel,
            times_fuzzed=fuzzed, child_novel_points=child, sig=sig,
        )

    def test_score_decays_with_fuzz_count(self):
        fresh = self._entry("a")
        tired = self._entry("b", fuzzed=5)
        assert seed_score(fresh) > seed_score(tired)

    def test_score_discounts_cost(self):
        # The cost is the case's actor-steps: deterministic, so equal
        # seeds score equally on every run, and longer ones score less.
        cheap = self._entry("a", steps=10)
        costly = self._entry("b", steps=400)
        assert cheap.cost == cheap.case.n_actors * 10
        assert costly.cost == 40 * cheap.cost
        assert seed_score(cheap) == seed_score(self._entry("c", steps=10))
        assert seed_score(cheap) > seed_score(costly)

    def test_first_shot_is_doubled_and_dry_halved(self):
        assert assign_energy(self._entry("a")) == 8  # base 4 x2
        assert assign_energy(self._entry("a", fuzzed=1, child=5)) == 4
        assert assign_energy(self._entry("a", fuzzed=1, child=0)) == 2

    def test_schedule_respects_budget_and_order(self):
        seeds = [self._entry(f"s{i}", novel=10 * (i + 1)) for i in range(4)]
        schedule = schedule_round(seeds, budget=10)
        assert sum(energy for _, energy in schedule) <= 10
        scores = [seed_score(e) for e, _ in schedule]
        assert scores == sorted(scores, reverse=True)

    def test_zero_budget_schedules_nothing(self):
        assert schedule_round([self._entry("a")], budget=0) == []


class TestSeedCorpus:
    def _corpus(self) -> SeedCorpus:
        corpus = SeedCorpus()
        for i, novel in enumerate((5, 40)):
            case = generate_case(20 + i)
            bitmaps = _bitmaps(actor=list(range(novel % 8)))
            key = coverage_key(case, bitmaps)
            corpus.coverage.observe(key, bitmaps)
            corpus.add(SeedEntry(
                case=case, key=key, novel_points=novel,
            ))
        return corpus

    def test_duplicate_cases_rejected(self):
        corpus = SeedCorpus()
        case = generate_case(3)
        entry = SeedEntry(case=case, key="k", novel_points=1)
        assert corpus.add(entry)
        assert not corpus.add(SeedEntry(case=case, key="k", novel_points=9))
        assert len(corpus) == 1

    def test_ranking_prefers_higher_yield(self):
        corpus = self._corpus()
        ranked = corpus.ranked()
        assert ranked[0].novel_points == 40

    def test_save_load_roundtrip(self, tmp_path):
        corpus = self._corpus()
        corpus.save(tmp_path)
        again = SeedCorpus.load(tmp_path)
        assert len(again) == len(corpus)
        assert {e.sig for e in again.seeds} == {e.sig for e in corpus.seeds}
        assert again.coverage == corpus.coverage
        assert again.stats()["coverage_points"] == corpus.coverage.points()

    def test_load_missing_manifest_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            SeedCorpus.load(tmp_path)
        assert len(SeedCorpus.load_or_empty(tmp_path)) == 0


class TestDivergenceSignature:
    def _divs(self, detail="Y_n1: 1 vs 2"):
        return [{"rung": "accmos", "kind": "outputs", "detail": detail}]

    def test_signature_names_rung_kind_field(self):
        assert divergence_signature(self._divs()) == "accmos/outputs/Y_n1"
        assert divergence_signature([]) == ""
        errs = [{"rung": "sse_ac", "kind": "error", "detail": "Boom: x"}]
        assert divergence_signature(errs) == "sse_ac/error/"

    def test_find_open_duplicate(self, tmp_path):
        entry = CorpusEntry(
            case=generate_case(1), status="open", divergences=self._divs(),
        )
        path = save_entry(tmp_path, entry)
        assert find_open_duplicate(tmp_path, "accmos/outputs/Y_n1") == path
        assert find_open_duplicate(tmp_path, "accmos/outputs/Y_n2") is None
        assert find_open_duplicate(tmp_path, "") is None

    def test_fixed_entries_never_match(self, tmp_path):
        entry = CorpusEntry(
            case=generate_case(1), status="fixed", divergences=self._divs(),
        )
        save_entry(tmp_path, entry)
        assert find_open_duplicate(tmp_path, "accmos/outputs/Y_n1") is None

    def test_process_finding_skips_duplicates(self, tmp_path):
        def fake_report(case):
            return OracleReport(
                case=case, rungs=("sse_ac",),
                divergences=[Divergence(
                    rung="sse_ac", kind="outputs", detail="Y_n1: 1 vs 2",
                )],
            )

        first = generate_case(1)
        _, dup = process_finding(
            first, fake_report(first), seed=1, rungs=("sse_ac",),
            shrink=False, corpus_dir=tmp_path,
        )
        assert not dup
        second = generate_case(2)
        finding, dup = process_finding(
            second, fake_report(second), seed=2, rungs=("sse_ac",),
            shrink=False, corpus_dir=tmp_path,
        )
        assert dup
        assert finding.corpus_path is not None  # points at the original
        assert len(list(tmp_path.glob("case-*.json"))) == 1


class TestShrinkDeadline:
    def test_expired_deadline_stops_immediately(self):
        case = generate_case(4)
        calls = []

        def still_fails(candidate):
            calls.append(candidate)
            return True

        shrunk, stats = shrink_case(
            case, still_fails, deadline=time.perf_counter() - 1.0
        )
        assert stats.deadline_hit
        assert not calls  # budget was gone before the first attempt
        assert "[deadline]" in stats.summary()

    def test_no_deadline_keeps_old_behavior(self):
        case = generate_case(4)
        shrunk, stats = shrink_case(case, lambda c: False, max_attempts=10)
        assert not stats.deadline_hit
        assert stats.attempts > 0


class TestGuidedCampaign:
    def test_small_campaign_accumulates_coverage(self, tmp_path):
        config = GuidedConfig(
            cases=30, seed=0, rungs=("sse_ac",), round_size=10,
            corpus_dir=tmp_path / "corpus", shrink=False,
            timeout_seconds=30.0,
        )
        outcome = run_guided(config)
        assert outcome.rounds >= 1
        assert outcome.cases_run > 0
        assert outcome.novel_points > 0
        assert outcome.corpus_size > 0
        assert outcome.coverage_points == outcome.novel_points
        assert (tmp_path / "corpus" / "corpus.json").exists()

    def test_fresh_rounds_are_deterministic(self):
        # A single all-fresh round schedules no mutants, so two runs
        # must agree exactly.  Mutant determinism is pinned by
        # TestMutation, whole seeded campaigns by
        # test_seeded_cli_runs_print_the_same_bytes.
        config = dict(
            cases=20, seed=7, rungs=("sse_ac",), round_size=20,
            shrink=False, timeout_seconds=30.0,
        )
        a = run_guided(GuidedConfig(**config))
        b = run_guided(GuidedConfig(**config))
        assert a.rounds == b.rounds == 1
        assert a.novel_points == b.novel_points
        assert a.cases_run == b.cases_run

    def test_saturation_early_stop(self):
        # Stimulus-only mutation of a tiny corpus dries up fast; the
        # campaign must stop well short of its case budget.
        config = GuidedConfig(
            cases=300, seed=3, rungs=("sse_ac",), round_size=10,
            fresh_per_round=0, mutation_ops=("stimulus",),
            saturation_rounds=2, shrink=False, timeout_seconds=30.0,
        )
        outcome = run_guided(config)
        assert outcome.saturated
        assert outcome.cases_run < config.cases

    def test_time_budget_stops_campaign(self):
        config = GuidedConfig(
            cases=10_000, seed=0, rungs=("sse_ac",), round_size=10,
            time_budget=0.5, shrink=False, timeout_seconds=30.0,
        )
        outcome = run_guided(config)
        assert outcome.budget_exhausted
        assert outcome.cases_run < config.cases

    def test_unknown_rung_rejected(self):
        with pytest.raises(ValueError):
            run_guided(GuidedConfig(rungs=("warp_drive",)))

    def test_replay_matches_bit_for_bit(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        run_guided(GuidedConfig(
            cases=25, seed=1, rungs=("sse_ac",), round_size=10,
            corpus_dir=corpus_dir, shrink=False, timeout_seconds=30.0,
        ))
        report = replay_corpus(corpus_dir, timeout_seconds=30.0)
        assert report.matched
        assert report.replayed == report.seeds > 0
        assert report.points_rebuilt == report.points_expected

    def test_corpus_with_measured_costs_loads_and_replays(self, tmp_path):
        """Seed files written when a seed's cost was its measured wall
        time carry a ``cost_seconds`` field: they still load, and the
        corpus still replays bit for bit."""
        corpus_dir = tmp_path / "corpus"
        run_guided(GuidedConfig(
            cases=10, seed=1, rungs=("sse_ac",), round_size=10,
            corpus_dir=corpus_dir, shrink=False, timeout_seconds=30.0,
        ))
        seed_files = sorted((corpus_dir / "seeds").glob("seed-*.json"))
        assert seed_files
        for path in seed_files:
            record = json.loads(path.read_text())
            assert "cost_seconds" not in record
            record["cost_seconds"] = 0.25
            path.write_text(json.dumps(record))
        assert len(SeedCorpus.load(corpus_dir)) == len(seed_files)
        report = replay_corpus(corpus_dir, timeout_seconds=30.0)
        assert report.matched
        assert report.replayed == report.seeds == len(seed_files)

    def test_seeded_cli_runs_print_the_same_bytes(self, tmp_path, capsys):
        """A seed's cost is its actor-steps, not a measured time, so a
        seeded guided campaign schedules the same mutants every run:
        two runs print the same bytes, elapsed time aside.  The first
        run compiles every case into an empty cache and the second hits
        it, so any wall-clock input to the schedule would show."""
        from repro.cli import main
        from repro.runner import ArtifactCache, set_default_cache

        argv = ["fuzz", "--guided", "--cases", "30", "--seed", "0", "--json"]
        previous = set_default_cache(ArtifactCache(tmp_path / "cache"))
        try:
            outputs = []
            for _ in range(2):
                assert main(argv) == 0
                outputs.append(re.sub(
                    r'"elapsed": [0-9.eE+-]+', '"elapsed": 0',
                    capsys.readouterr().out,
                ))
        finally:
            set_default_cache(previous)
        assert json.loads(outputs[0])["rounds"] > 1  # mutants scheduled
        assert outputs[0] == outputs[1]

    @requires_cc
    def test_replay_falls_back_to_sse_on_timeout(self, tmp_path, monkeypatch):
        """A seed whose C run times out, or ends in a library fault,
        replays through SSE instead, and the rebuilt map still
        matches."""
        from repro.engines.accmos import CompiledModel
        from repro.inproc import LibraryFault
        from repro.model.errors import SimulationTimeout

        corpus_dir = tmp_path / "corpus"
        run_guided(GuidedConfig(
            cases=10, seed=1, rungs=("sse_ac",), round_size=10,
            corpus_dir=corpus_dir, shrink=False, timeout_seconds=30.0,
        ))
        for error in (SimulationTimeout, LibraryFault):
            runs = {"n": 0}

            def failed(self, cases, **kwargs):
                runs["n"] += 1
                return [error("induced") for _ in cases]

            monkeypatch.setattr(CompiledModel, "run_inproc", failed)
            report = replay_corpus(corpus_dir, timeout_seconds=30.0)
            assert report.matched and not report.errors, error
            assert report.replayed == report.seeds == runs["n"] > 0

    def test_resume_extends_existing_corpus(self, tmp_path):
        corpus_dir = tmp_path / "corpus"
        first = run_guided(GuidedConfig(
            cases=15, seed=2, rungs=("sse_ac",), round_size=5,
            corpus_dir=corpus_dir, shrink=False, timeout_seconds=30.0,
        ))
        second = run_guided(GuidedConfig(
            cases=15, seed=9, rungs=("sse_ac",), round_size=5,
            corpus_dir=corpus_dir, shrink=False, timeout_seconds=30.0,
        ))
        assert second.corpus_size >= first.corpus_size
        # The grown corpus still replays exactly.
        assert replay_corpus(corpus_dir, timeout_seconds=30.0).matched
