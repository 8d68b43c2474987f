"""Energy scheduling: how many mutants each seed earns per round.

AFL's insight, transplanted: budget is finite, so spend it where the
coverage yield is.  A seed's *score* is its novelty yield per time it
has been fuzzed, discounted by its evaluation cost in actor-steps
(expensive seeds must pay rent; a measured wall time would make a
seeded campaign's schedule differ from run to run); its *energy* is the
mutant count it gets when scheduled — never-fuzzed seeds get a double
first shot, seeds whose mutants have stopped producing wind down to a
maintenance trickle.
"""

from __future__ import annotations

from typing import Iterable

from repro.guided.corpus import SeedEntry


def seed_score(entry: SeedEntry) -> float:
    """Descending-sort key for the round schedule."""
    yield_per_fuzz = (entry.novel_points + entry.child_novel_points) / (
        1.0 + entry.times_fuzzed
    )
    # sqrt keeps big (costly) models competitive: their per-case yield is
    # higher, and a linear cost penalty would cancel exactly that edge.
    return yield_per_fuzz / entry.cost ** 0.5


def assign_energy(entry: SeedEntry, *, base: int = 4, cap: int = 16) -> int:
    """Mutants this seed gets when scheduled this round."""
    energy = base
    if entry.times_fuzzed == 0:
        energy *= 2  # first full shot for fresh blood
    elif entry.child_novel_points == 0:
        energy = max(1, energy // 2)  # proven dry: maintenance only
    return max(1, min(cap, energy))


def schedule_round(
    seeds: Iterable[SeedEntry],
    budget: int,
    *,
    base: int = 4,
    cap: int = 16,
) -> list[tuple[SeedEntry, int]]:
    """(seed, energy) assignments for one round, best seeds first, total
    energy never exceeding ``budget``."""
    schedule: list[tuple[SeedEntry, int]] = []
    for entry in sorted(seeds, key=lambda e: (-seed_score(e), e.sig)):
        if budget <= 0:
            break
        energy = min(assign_energy(entry, base=base, cap=cap), budget)
        schedule.append((entry, energy))
        budget -= energy
    return schedule
