"""The ranked seed corpus of a guided campaign, persisted across sessions.

Layout on disk::

    <corpus_dir>/
      corpus.json            # manifest: version, stats, ranked seed ids
      coverage.json          # the accumulated CoverageMap (hex words)
      seeds/seed-<sig>.json  # one CaseSpec + its ranking bookkeeping

Seed files are ordinary fuzz-case JSON plus the bookkeeping the energy
scheduler reads (novelty, cost, fuzz counts), so any entry can be
replayed standalone.  ``corpus.json`` records the save-time ranking;
loading rebuilds the live corpus and re-ranks as the campaign evolves.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Optional

from repro.coverage.bitmap import Bitmap
from repro.coverage.metrics import ALL_METRICS, Metric
from repro.fuzz.corpus import case_signature
from repro.fuzz.generate import CaseSpec
from repro.guided.covmap import CoverageMap


def coverage_key(
    case: CaseSpec, bitmaps: Optional[Mapping[Metric, Bitmap]] = None
) -> str:
    """The compile-key-granular identity the coverage map is keyed by.

    Hashes the structural spec — wiring, block types, operators, output
    dtypes — and deliberately *excludes* parameter literals, stimuli,
    and step counts: those change the compiled constants but not the
    coverage point layout, so all mutants of one structure accumulate
    into one map entry.  When ``bitmaps`` is given, the per-metric sizes
    are appended, making a size mismatch under one key impossible by
    construction.
    """
    payload = json.dumps(
        [
            {
                "name": n.name,
                "block_type": n.block_type,
                "inputs": list(n.inputs),
                "dtype": n.dtype,
                "operator": n.operator,
            }
            for n in case.nodes
        ],
        sort_keys=True,
    )
    digest = hashlib.sha256(payload.encode()).hexdigest()[:16]
    if bitmaps is None:
        return digest
    sizes = "x".join(str(len(bitmaps[m])) for m in ALL_METRICS)
    return f"{digest}:{sizes}"


@dataclass
class SeedEntry:
    """One corpus seed: a case plus the scheduler's bookkeeping."""

    case: CaseSpec
    key: str  # coverage/compile key
    novel_points: int  # points this seed itself contributed on admission
    round_added: int = 0
    times_fuzzed: int = 0  # rounds in which this seed was mutated
    child_novel_points: int = 0  # novelty its mutants contributed since
    sig: str = ""

    def __post_init__(self) -> None:
        if not self.sig:
            self.sig = case_signature(self.case)

    @property
    def cost(self) -> int:
        """What evaluating this seed costs, in actor-steps: a function of
        the case alone, so a seeded campaign schedules the same way on
        every run and every machine."""
        return max(1, self.case.n_actors) * max(1, self.case.steps)

    def to_dict(self) -> dict:
        return {
            "sig": self.sig,
            "key": self.key,
            "novel_points": self.novel_points,
            "round_added": self.round_added,
            "times_fuzzed": self.times_fuzzed,
            "child_novel_points": self.child_novel_points,
            "case": self.case.to_dict(),
        }

    @staticmethod
    def from_dict(d: dict) -> "SeedEntry":
        # Seed files written before the cost became actor-steps also
        # carry a measured "cost_seconds"; it is ignored.
        return SeedEntry(
            case=CaseSpec.from_dict(d["case"]),
            key=d["key"],
            novel_points=int(d["novel_points"]),
            round_added=int(d.get("round_added", 0)),
            times_fuzzed=int(d.get("times_fuzzed", 0)),
            child_novel_points=int(d.get("child_novel_points", 0)),
            sig=d.get("sig", ""),
        )


@dataclass
class SeedCorpus:
    """The live corpus: ranked seeds + the accumulated coverage map."""

    seeds: list[SeedEntry] = field(default_factory=list)
    coverage: CoverageMap = field(default_factory=CoverageMap)

    def __post_init__(self) -> None:
        self._by_sig = {entry.sig: entry for entry in self.seeds}

    def __len__(self) -> int:
        return len(self.seeds)

    def add(self, entry: SeedEntry) -> bool:
        """Admit a seed; False when an identical case is already in."""
        if entry.sig in self._by_sig:
            return False
        self.seeds.append(entry)
        self._by_sig[entry.sig] = entry
        return True

    def ranked(self) -> list[SeedEntry]:
        """Seeds by descending scheduler score (stable on ties)."""
        from repro.guided.energy import seed_score

        return sorted(
            self.seeds, key=lambda e: (-seed_score(e), e.sig)
        )

    def stats(self) -> dict:
        ranked = self.ranked()
        return {
            "seeds": len(self.seeds),
            "coverage_keys": self.coverage.n_keys,
            "coverage_points": self.coverage.points(),
            "points_possible": self.coverage.points_possible(),
            "by_metric": {
                m.value: {"covered": c, "possible": p}
                for m, (c, p) in self.coverage.points_by_metric().items()
            },
            "top": [
                {
                    "sig": e.sig,
                    "actors": e.case.n_actors,
                    "novel_points": e.novel_points,
                    "child_novel_points": e.child_novel_points,
                    "times_fuzzed": e.times_fuzzed,
                }
                for e in ranked[:10]
            ],
        }

    # -- persistence ---------------------------------------------------
    def save(self, corpus_dir: Path) -> Path:
        """Write the ranked corpus; returns the manifest path."""
        corpus_dir = Path(corpus_dir)
        seed_dir = corpus_dir / "seeds"
        seed_dir.mkdir(parents=True, exist_ok=True)
        ranked = self.ranked()
        for entry in ranked:
            path = seed_dir / f"seed-{entry.sig}.json"
            path.write_text(
                json.dumps(entry.to_dict(), indent=2, sort_keys=True) + "\n"
            )
        (corpus_dir / "coverage.json").write_text(
            json.dumps(self.coverage.to_dict(), sort_keys=True) + "\n"
        )
        manifest = corpus_dir / "corpus.json"
        manifest.write_text(
            json.dumps(
                {
                    "version": 1,
                    "ranked": [entry.sig for entry in ranked],
                    "stats": self.stats(),
                },
                indent=2,
                sort_keys=True,
            )
            + "\n"
        )
        return manifest

    @classmethod
    def load(cls, corpus_dir: Path) -> "SeedCorpus":
        """Rebuild a saved corpus; raises ``FileNotFoundError`` when the
        directory holds no manifest."""
        corpus_dir = Path(corpus_dir)
        manifest_path = corpus_dir / "corpus.json"
        manifest = json.loads(manifest_path.read_text())
        seeds = []
        for sig in manifest.get("ranked", []):
            path = corpus_dir / "seeds" / f"seed-{sig}.json"
            seeds.append(SeedEntry.from_dict(json.loads(path.read_text())))
        coverage_path = corpus_dir / "coverage.json"
        coverage = (
            CoverageMap.from_dict(json.loads(coverage_path.read_text()))
            if coverage_path.exists()
            else CoverageMap()
        )
        return cls(seeds=seeds, coverage=coverage)

    @classmethod
    def load_or_empty(cls, corpus_dir: Optional[Path]) -> "SeedCorpus":
        if corpus_dir is None:
            return cls()
        try:
            return cls.load(corpus_dir)
        except FileNotFoundError:
            return cls()
