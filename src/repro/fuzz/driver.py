"""The fuzz campaign loop: generate -> oracle -> shrink -> corpus.

Divergences do not stop the campaign — every case runs, every failure
is shrunk (when shrinking is enabled) and written to the corpus as an
``open`` entry for the replay harness to track until it is fixed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional, Sequence

from repro import telemetry
from repro.fuzz.corpus import (
    CorpusEntry,
    divergence_signature,
    find_open_duplicate,
    save_entry,
)
from repro.fuzz.generate import CaseSpec, generate_case
from repro.fuzz.oracle import ALL_RUNGS, OracleReport, available_rungs, run_case
from repro.fuzz.shrink import shrink_case


@dataclass
class FuzzConfig:
    """Knobs for one fuzzing campaign."""

    cases: int = 100
    seed: int = 0
    steps: Optional[int] = None  # None = random per case
    max_actors: int = 14
    rungs: Optional[Sequence[str]] = None  # None = all available
    time_budget: Optional[float] = None  # wall seconds for the whole campaign
    shrink: bool = True
    max_shrink_attempts: int = 250
    corpus_dir: Optional[Path] = None  # None = don't persist reproducers
    timeout_seconds: Optional[float] = 120.0


@dataclass
class FuzzFinding:
    """One divergent case, possibly shrunk, possibly persisted."""

    seed: int
    report: OracleReport
    shrunk_report: Optional[OracleReport] = None
    shrink_summary: str = ""
    corpus_path: Optional[Path] = None

    @property
    def final_report(self) -> OracleReport:
        return self.shrunk_report or self.report


@dataclass
class FuzzOutcome:
    """What a campaign did."""

    rungs: tuple[str, ...]
    cases_run: int = 0
    elapsed: float = 0.0
    budget_exhausted: bool = False
    duplicates: int = 0  # findings skipped: same divergence signature already open
    findings: list[FuzzFinding] = field(default_factory=list)

    @property
    def divergent(self) -> int:
        return len(self.findings)

    def summary(self) -> str:
        verdict = (
            "all rungs agree" if not self.findings
            else f"{self.divergent} divergent case(s)"
        )
        budget = " (time budget hit)" if self.budget_exhausted else ""
        dupes = (
            f", {self.duplicates} duplicate(s) skipped" if self.duplicates else ""
        )
        return (
            f"fuzz: {self.cases_run} case(s) in {self.elapsed:.1f}s "
            f"across {len(self.rungs)} rung(s): {verdict}{dupes}{budget}"
        )


def case_seed(base_seed: int, index: int) -> int:
    """The derived seed of campaign case ``index``.

    Disjointness contract: for base seeds below ``2**32`` the streams of
    ``base_seed`` and ``base_seed + 1`` never overlap, because the index
    occupies the low 32 bits exclusively.  (The old 20-bit shift broke
    this quietly: case ``2**20`` of seed ``s`` equalled case 0 of seed
    ``s + 1``.)  Indices at or past ``2**32`` would spill into the base
    seed's bits, so they are rejected outright.
    """
    if not 0 <= index < 2**32:
        raise ValueError(
            f"case index {index} outside [0, 2**32): it would collide "
            "with another base seed's stream"
        )
    return (base_seed << 32) + index


def process_finding(
    case: CaseSpec,
    report: OracleReport,
    *,
    seed: int,
    rungs: Sequence[str],
    shrink: bool = True,
    max_shrink_attempts: int = 250,
    timeout_seconds: Optional[float] = 120.0,
    corpus_dir: Optional[Path] = None,
    deadline: Optional[float] = None,
    say: Callable[[str], None] = lambda _msg: None,
) -> tuple[FuzzFinding, bool]:
    """Shrink a divergent case and persist the reproducer.

    The shared back half of both campaign drivers (blind and guided):
    shrink (bounded by ``max_shrink_attempts`` and the campaign
    ``deadline``), then — if a corpus is configured — skip persisting
    when an ``open`` entry with the same divergence signature already
    exists, else save.  Returns ``(finding, duplicate)``; on the
    duplicate path ``finding.corpus_path`` points at the existing entry.
    """
    finding = FuzzFinding(seed=seed, report=report)

    shrunk = case
    if shrink:
        def still_fails(candidate) -> bool:
            telemetry.counter_inc("fuzz.shrink_steps")
            return not run_case(
                candidate, rungs=rungs, timeout_seconds=timeout_seconds,
            ).agreed

        with telemetry.span("fuzz.shrink", seed=seed):
            shrunk, stats = shrink_case(
                case, still_fails,
                max_attempts=max_shrink_attempts,
                deadline=deadline,
            )
        finding.shrink_summary = stats.summary()
        finding.shrunk_report = run_case(
            shrunk, rungs=rungs, timeout_seconds=timeout_seconds
        )
        say(f"  shrunk: {stats.summary()}")

    duplicate = False
    if corpus_dir is not None:
        divergences = [d.to_dict() for d in finding.final_report.divergences]
        signature = divergence_signature(divergences)
        existing = find_open_duplicate(corpus_dir, signature)
        if existing is not None:
            duplicate = True
            finding.corpus_path = existing
            telemetry.counter_inc("fuzz.corpus_duplicates")
            say(f"  duplicate of {existing.name} ({signature}); not saved")
        else:
            entry = CorpusEntry(
                case=shrunk,
                status="open",
                divergences=divergences,
                note=(
                    "Found by `repro fuzz`; fix the divergence and flip "
                    "status to \"fixed\" so this becomes a regression test."
                ),
                fuzz_seed=seed,
            )
            finding.corpus_path = save_entry(corpus_dir, entry)
            telemetry.counter_inc("fuzz.corpus_entries")
            say(f"  reproducer -> {finding.corpus_path}")
    return finding, duplicate


def run_fuzz(
    config: FuzzConfig,
    *,
    progress: Optional[Callable[[str], None]] = None,
) -> FuzzOutcome:
    """Run one campaign; see :class:`FuzzConfig`.

    Raises ``ValueError`` when ``config.rungs`` names a rung that does
    not exist (a typo would otherwise silently fuzz nothing).
    """
    if config.rungs:
        unknown = [r for r in config.rungs if r not in ALL_RUNGS]
        if unknown:
            raise ValueError(
                f"unknown rung(s): {', '.join(sorted(unknown))}; "
                f"valid rungs: {', '.join(ALL_RUNGS)}"
            )
    rungs = tuple(config.rungs) if config.rungs else available_rungs()
    outcome = FuzzOutcome(rungs=rungs)
    say = progress or (lambda _msg: None)
    started = time.perf_counter()
    # The budget is enforced at the top of the case loop AND inside the
    # shrinker — a single expensive shrink would otherwise blow far past
    # it between loop checks.
    deadline = (
        started + config.time_budget
        if config.time_budget is not None else None
    )

    for index in range(config.cases):
        if deadline is not None and time.perf_counter() >= deadline:
            outcome.budget_exhausted = True
            break
        seed = case_seed(config.seed, index)
        case = generate_case(
            seed, max_actors=config.max_actors, steps=config.steps
        )
        case_started = time.perf_counter()
        with telemetry.span("fuzz.case", seed=seed, actors=case.n_actors):
            report = run_case(
                case, rungs=rungs, timeout_seconds=config.timeout_seconds
            )
        telemetry.counter_inc("fuzz.cases")
        telemetry.observe(
            "fuzz.case_seconds", time.perf_counter() - case_started
        )
        outcome.cases_run += 1
        if report.agreed:
            continue

        telemetry.counter_inc("fuzz.divergences")
        say(
            f"case {index} (seed {seed}): {len(report.divergences)} "
            f"divergence(s), first: {report.divergences[0].rung} "
            f"{report.divergences[0].kind}"
        )
        finding, duplicate = process_finding(
            case, report,
            seed=seed,
            rungs=rungs,
            shrink=config.shrink,
            max_shrink_attempts=config.max_shrink_attempts,
            timeout_seconds=config.timeout_seconds,
            corpus_dir=config.corpus_dir,
            deadline=deadline,
            say=say,
        )
        outcome.findings.append(finding)
        if duplicate:
            outcome.duplicates += 1

    if deadline is not None and time.perf_counter() >= deadline:
        outcome.budget_exhausted = True  # shrinking ate the remainder
    outcome.elapsed = time.perf_counter() - started
    return outcome
