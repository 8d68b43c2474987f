"""The coverage-guided campaign loop: corpus -> mutate -> oracle -> rank.

Where the blind fuzzer draws every case independently, the guided loop
keeps what worked: cases whose coverage bitmaps set points the
accumulated :class:`~repro.guided.covmap.CoverageMap` had not seen are
admitted to the ranked :class:`~repro.guided.corpus.SeedCorpus`, and
each round spends most of its budget mutating the best-scoring seeds
(see :mod:`repro.guided.energy`), topped up with a trickle of fresh
blind cases so the search never inbreeds.

The differential oracle stays in the loop — every case (fresh or
mutant) runs through :func:`repro.fuzz.oracle.run_case`, so divergences
are still shrunk and persisted exactly as in the blind campaign, via the
shared :func:`repro.fuzz.driver.process_finding`.  Coverage comes for
free from the oracle's SSE reference run (identical bitmaps to every C
rung by the oracle's own invariant), so guidance works even on machines
without a C compiler.

Saturation ends campaigns early: after ``saturation_rounds`` consecutive
rounds contributing zero novel points, the structure space reachable
from the corpus is considered exhausted and the remaining case budget is
returned unspent.
"""

from __future__ import annotations

import hashlib
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro import telemetry
from repro.fuzz.driver import FuzzFinding, case_seed, process_finding
from repro.fuzz.generate import generate_case
from repro.fuzz.oracle import (
    ALL_RUNGS,
    available_rungs,
    run_case,
)
from repro.guided.corpus import SeedCorpus, SeedEntry, coverage_key
from repro.guided.covmap import CoverageMap
from repro.guided.energy import schedule_round
from repro.guided.mutate import MUTATIONS, mutants


def default_guided_rungs() -> tuple[str, ...]:
    """The cheapest meaningful comparison rung available.

    Guidance wants throughput, not breadth: one fast rung keeps the
    oracle in the loop (divergences still surface) while the full
    five-rung sweep stays the blind campaign's job.  Preference order is
    the speed ladder top down: the one-case in-process C path, then the
    Accelerator-analog Python rung.
    """
    usable = available_rungs()
    for rung in ("accmos", "sse_ac"):
        if rung in usable:
            return (rung,)
    return (usable[0],) if usable else ("sse_ac",)


@dataclass
class GuidedConfig:
    """Knobs for one guided campaign."""

    cases: int = 300  # total evaluation budget (fresh + mutants)
    seed: int = 0
    steps: Optional[int] = None  # None = random per fresh case
    max_actors: int = 14  # fresh-case size ceiling (same as blind)
    max_corpus_actors: int = 28  # insert mutations may grow seeds to this
    rungs: Optional[Sequence[str]] = None  # None = default_guided_rungs()
    round_size: int = 25  # evaluations per round
    fresh_per_round: int = 3  # blind top-up once the corpus is seeded
    saturation_rounds: int = 3  # consecutive 0-novelty rounds before stop
    energy_base: int = 4
    energy_cap: int = 16
    mutation_ops: Sequence[str] = MUTATIONS
    time_budget: Optional[float] = None  # wall seconds for the campaign
    shrink: bool = True
    max_shrink_attempts: int = 250
    corpus_dir: Optional[Path] = None  # seed corpus (ranked, replayable)
    findings_dir: Optional[Path] = None  # divergence reproducers
    timeout_seconds: Optional[float] = 120.0
    cache: object = None  # None = default artifact cache (mutants share binaries)


@dataclass
class GuidedOutcome:
    """What a guided campaign did."""

    rungs: tuple[str, ...]
    rounds: int = 0
    cases_run: int = 0
    invalid_mutants: int = 0  # mutants the reference itself rejected
    novel_points: int = 0  # coverage points added this campaign
    elapsed: float = 0.0
    saturated: bool = False
    budget_exhausted: bool = False
    corpus_size: int = 0
    coverage_keys: int = 0
    coverage_points: int = 0
    duplicates: int = 0
    findings: list[FuzzFinding] = field(default_factory=list)

    @property
    def divergent(self) -> int:
        return len(self.findings)

    def summary(self) -> str:
        verdict = (
            "all rungs agree" if not self.findings
            else f"{self.divergent} divergent case(s)"
        )
        stop = ""
        if self.saturated:
            stop = " (saturated)"
        elif self.budget_exhausted:
            stop = " (time budget hit)"
        return (
            f"guided: {self.cases_run} case(s) in {self.rounds} round(s), "
            f"{self.elapsed:.1f}s: +{self.novel_points} coverage point(s) "
            f"-> {self.coverage_points} across {self.coverage_keys} "
            f"structure(s), corpus {self.corpus_size} seed(s); "
            f"{verdict}{stop}"
        )


def _mutant_seed(base_seed: int, round_no: int, sig: str) -> int:
    """Deterministic per-(round, seed-entry) mutation stream."""
    payload = f"{base_seed}:{round_no}:{sig}".encode()
    return int.from_bytes(hashlib.sha256(payload).digest()[:8], "big")


def run_guided(
    config: GuidedConfig,
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> GuidedOutcome:
    """Run one guided campaign; see :class:`GuidedConfig`.

    Raises ``ValueError`` on unknown rung names (matching
    :func:`repro.fuzz.driver.run_fuzz`).  When ``config.corpus_dir``
    holds a previously saved corpus it is loaded and extended — the
    campaign resumes where the last one left off — and the (possibly
    grown) corpus is persisted back on exit, saturation or not.
    """
    if config.rungs:
        unknown = [r for r in config.rungs if r not in ALL_RUNGS]
        if unknown:
            raise ValueError(
                f"unknown rung(s): {', '.join(sorted(unknown))}; "
                f"valid rungs: {', '.join(ALL_RUNGS)}"
            )
    rungs = (
        tuple(config.rungs) if config.rungs else default_guided_rungs()
    )
    outcome = GuidedOutcome(rungs=rungs)
    say = progress or (lambda _msg: None)
    started = time.perf_counter()
    deadline = (
        started + config.time_budget
        if config.time_budget is not None else None
    )

    corpus = SeedCorpus.load_or_empty(config.corpus_dir)
    if len(corpus):
        say(
            f"resuming corpus: {len(corpus)} seed(s), "
            f"{corpus.coverage.points()} point(s)"
        )
    round_no = max((e.round_added for e in corpus.seeds), default=-1) + 1
    fresh_index = 0
    stale_rounds = 0

    def out_of_budget() -> bool:
        if deadline is not None and time.perf_counter() >= deadline:
            outcome.budget_exhausted = True
            return True
        return False

    def evaluate(case, *, parent: Optional[SeedEntry], label: str) -> int:
        """Oracle one case, fold its coverage in, admit/attribute/report."""
        case_started = time.perf_counter()
        try:
            with telemetry.span(
                "guided.case", actors=case.n_actors, kind=label
            ):
                report = run_case(
                    case, rungs=rungs,
                    timeout_seconds=config.timeout_seconds,
                    cache=config.cache,
                )
        except Exception:  # noqa: BLE001 — reference rejected the case
            # A mutant the *reference* cannot run is simply invalid
            # (e.g. a parameter perturbation the builder rejects); it
            # consumed no real budget and is not a finding.
            outcome.invalid_mutants += 1
            telemetry.counter_inc("guided.invalid_mutants")
            return 0
        cost = time.perf_counter() - case_started
        outcome.cases_run += 1
        telemetry.counter_inc("guided.cases")

        novelty = 0
        if report.coverage is not None:
            bitmaps = report.coverage.bitmaps
            key = coverage_key(case, bitmaps)
            novelty = corpus.coverage.observe(key, bitmaps)
            if novelty > 0:
                # Every novelty-carrying case is admitted — including
                # divergent ones — so the accumulated map stays exactly
                # the union of the seeds' bitmaps (the replay invariant).
                corpus.add(SeedEntry(
                    case=case,
                    key=key,
                    novel_points=novelty,
                    cost_seconds=cost,
                    round_added=round_no,
                ))
                if parent is not None:
                    parent.child_novel_points += novelty
                outcome.novel_points += novelty
                telemetry.counter_inc("guided.novel_points", novelty)

        if not report.agreed:
            telemetry.counter_inc("fuzz.divergences")
            say(
                f"{label}: {len(report.divergences)} divergence(s), "
                f"first: {report.divergences[0].rung} "
                f"{report.divergences[0].kind}"
            )
            finding, duplicate = process_finding(
                case, report,
                seed=getattr(case, "seed", 0) or 0,
                rungs=rungs,
                shrink=config.shrink,
                max_shrink_attempts=config.max_shrink_attempts,
                timeout_seconds=config.timeout_seconds,
                corpus_dir=config.findings_dir,
                deadline=deadline,
                say=say,
            )
            outcome.findings.append(finding)
            if duplicate:
                outcome.duplicates += 1
        return novelty

    while outcome.cases_run < config.cases and not out_of_budget():
        budget = min(config.round_size, config.cases - outcome.cases_run)
        round_novelty_before = outcome.novel_points
        round_cases_before = outcome.cases_run

        # Fresh blind cases: the whole round while the corpus is empty,
        # a trickle afterwards.
        n_fresh = budget if not len(corpus) else min(
            config.fresh_per_round, budget
        )
        with telemetry.span(
            "guided.round", round=round_no, budget=budget, fresh=n_fresh
        ):
            for _ in range(n_fresh):
                if out_of_budget():
                    break
                seed = case_seed(config.seed, fresh_index)
                fresh_index += 1
                case = generate_case(
                    seed, max_actors=config.max_actors, steps=config.steps
                )
                evaluate(case, parent=None, label=f"fresh {seed}")

            # Mutants of the ranked seeds, best first.
            schedule = schedule_round(
                corpus.seeds,
                budget - n_fresh,
                base=config.energy_base,
                cap=config.energy_cap,
            )
            for entry, energy in schedule:
                if out_of_budget():
                    break
                entry.times_fuzzed += 1
                batch = mutants(
                    entry.case,
                    _mutant_seed(config.seed, round_no, entry.sig),
                    energy,
                    max_actors=config.max_corpus_actors,
                    ops=config.mutation_ops,
                )
                for mutant in batch:
                    if out_of_budget():
                        break
                    evaluate(
                        mutant, parent=entry,
                        label=f"mutant of {entry.sig}",
                    )

        outcome.rounds += 1
        telemetry.counter_inc("guided.rounds")
        round_novelty = outcome.novel_points - round_novelty_before
        say(
            f"round {round_no}: +{round_novelty} point(s), "
            f"corpus {len(corpus)}, total {corpus.coverage.points()}"
        )
        round_no += 1
        if outcome.budget_exhausted:
            break

        # Saturation: rounds that add nothing (or could not evaluate
        # anything at all) in a row mean the reachable structure space
        # is exhausted — stop and hand the unspent budget back.
        if round_novelty == 0 or outcome.cases_run == round_cases_before:
            stale_rounds += 1
            if stale_rounds >= config.saturation_rounds:
                outcome.saturated = True
                telemetry.counter_inc("guided.saturation")
                say(
                    f"saturated: {stale_rounds} round(s) without novel "
                    "coverage"
                )
                break
        else:
            stale_rounds = 0

    if config.corpus_dir is not None:
        corpus.save(config.corpus_dir)
        say(f"corpus -> {config.corpus_dir}")

    outcome.corpus_size = len(corpus)
    outcome.coverage_keys = corpus.coverage.n_keys
    outcome.coverage_points = corpus.coverage.points()
    outcome.elapsed = time.perf_counter() - started
    return outcome


# ----------------------------------------------------------------------
@dataclass
class ReplayReport:
    """Outcome of re-deriving a saved corpus's coverage from scratch."""

    seeds: int = 0
    replayed: int = 0
    matched: bool = False
    points_expected: int = 0
    points_rebuilt: int = 0
    errors: list[str] = field(default_factory=list)

    def summary(self) -> str:
        verdict = "bit-for-bit match" if self.matched else "MISMATCH"
        errs = f", {len(self.errors)} error(s)" if self.errors else ""
        return (
            f"replay: {self.replayed}/{self.seeds} seed(s), "
            f"{self.points_rebuilt}/{self.points_expected} point(s): "
            f"{verdict}{errs}"
        )


def replay_corpus(
    corpus_dir: Path,
    *,
    timeout_seconds: Optional[float] = 120.0,
) -> ReplayReport:
    """Re-run every saved seed and check the stored coverage map.

    Each seed is simulated afresh — through the in-process coverage
    probe (:meth:`CompiledModel.probe_coverage`) when a C compiler is
    available, through the SSE reference otherwise (the
    bitmaps are identical by the oracle invariant) — and folded into a
    fresh :class:`CoverageMap`.  ``matched`` is True iff the rebuilt map
    equals the persisted one bit for bit: the corpus is exactly its
    seeds, nothing more, nothing less.
    """
    from repro.codegen.driver import find_c_compiler
    from repro.engines import SimulationOptions, simulate
    from repro.engines.accmos import compile_model
    from repro.fuzz.generate import build_model, build_stimuli
    from repro.schedule import preprocess

    corpus = SeedCorpus.load(corpus_dir)
    report = ReplayReport(
        seeds=len(corpus), points_expected=corpus.coverage.points()
    )
    use_probe = find_c_compiler() is not None
    rebuilt = CoverageMap()

    with telemetry.span("guided.replay", seeds=len(corpus)):
        for entry in corpus.seeds:
            try:
                prog = preprocess(build_model(entry.case))
                stimuli = build_stimuli(entry.case)
                options = SimulationOptions(steps=entry.case.steps)
                bitmaps = None
                if use_probe:
                    compiled = compile_model(prog, options, cache=None)
                    (bitmaps,) = compiled.probe_coverage(
                        [(stimuli, options)],
                        timeout_seconds=timeout_seconds,
                    )
                if bitmaps is None:
                    result = simulate(
                        prog, stimuli, engine="sse", options=options
                    )
                    if result.coverage is not None:
                        bitmaps = result.coverage.bitmaps
                if bitmaps is None:
                    report.errors.append(f"{entry.sig}: no coverage")
                    continue
                rebuilt.observe(entry.key, bitmaps)
                report.replayed += 1
            except Exception as exc:  # noqa: BLE001 — report, don't die
                report.errors.append(
                    f"{entry.sig}: {type(exc).__name__}: {exc}"
                )

    report.points_rebuilt = rebuilt.points()
    report.matched = (
        not report.errors and rebuilt == corpus.coverage
    )
    return report
