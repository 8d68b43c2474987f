"""Coverage reports: bitmaps aggregated into the numbers Table 3 shows."""

from __future__ import annotations

from dataclasses import dataclass

from repro.coverage.bitmap import Bitmap
from repro.coverage.metrics import ALL_METRICS, Metric
from repro.coverage.points import CoveragePoints


@dataclass
class MetricReport:
    """Covered/total for one metric."""

    metric: Metric
    covered: int
    total: int

    @property
    def percent(self) -> float:
        """Percentage covered; an empty metric counts as fully covered."""
        if self.total == 0:
            return 100.0
        return 100.0 * self.covered / self.total

    def __str__(self) -> str:
        return f"{self.metric.title}: {self.covered}/{self.total} ({self.percent:.1f}%)"


@dataclass
class CoverageReport:
    """All four metrics plus the raw bitmaps for detailed inspection."""

    bitmaps: dict[Metric, Bitmap]
    points: CoveragePoints = None  # type: ignore[assignment]

    @classmethod
    def from_bitmaps(
        cls, points: CoveragePoints, bitmaps: dict[Metric, Bitmap]
    ) -> "CoverageReport":
        return cls(bitmaps=bitmaps, points=points)

    @classmethod
    def empty(cls, points: CoveragePoints) -> "CoverageReport":
        bitmaps = {
            Metric.ACTOR: Bitmap(points.n_actor),
            Metric.CONDITION: Bitmap(points.n_condition),
            Metric.DECISION: Bitmap(points.n_decision),
            Metric.MCDC: Bitmap(points.n_mcdc),
        }
        return cls.from_bitmaps(points, bitmaps)

    @property
    def metrics(self) -> dict[Metric, MetricReport]:
        """Covered/total per metric, counted from the bitmaps."""
        return {metric: self._metric(metric) for metric in ALL_METRICS}

    def _metric(self, metric: Metric) -> MetricReport:
        bm = self.bitmaps[metric]
        return MetricReport(metric, bm.count(), len(bm))

    def percent(self, metric: Metric) -> float:
        return self._metric(metric).percent

    def merge(self, other: "CoverageReport") -> None:
        """Accumulate another run's hits into this report (same program)."""
        for metric in ALL_METRICS:
            self.bitmaps[metric].merge(other.bitmaps[metric])

    def mcdc_covered_conditions(self) -> int:
        """Conditions whose *both* independence sides were demonstrated.

        ``Metric.MCDC`` percentages count sides individually; this helper
        reports the stricter both-sides condition count.
        """
        bm = self.bitmaps[Metric.MCDC]
        covered = 0
        for base, n in self.points.mcdc_base.values():
            for i in range(n):
                if bm.test(base + 2 * i) and bm.test(base + 2 * i + 1):
                    covered += 1
        return covered

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CoverageReport):
            return NotImplemented
        return self.bitmaps == other.bitmaps

    def summary(self) -> str:
        return ", ".join(str(self.metrics[m]) for m in ALL_METRICS)
