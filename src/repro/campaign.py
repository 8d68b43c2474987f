"""Test campaigns: many test cases, one adequacy verdict.

The paper motivates coverage collection as the way to "validate that test
cases are comprehensive enough".  A :func:`run_campaign` does that loop at
AccMoS speed: generate differently-seeded random test cases, simulate each
(compiled), merge coverage, and stop when new cases stop uncovering new
points — the classic saturation criterion.  All diagnostics found by any
case are pooled, with the seed that first exposed each.

A :class:`CampaignConfig` holds a campaign's settings.  It is the one
place that names each field and states its default and valid range: the
library's keywords, ``repro campaign``'s flags and the campaign
service's spec keys all build one, so the three surfaces share defaults
and reject the same bad values.

AccMoS cases run in chunks, in-process on up to four threads by
default, while the coverage merge stays in seed order, so every thread
count and batch size produces byte-identical outcomes.

::

    from repro.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(steps=100_000, max_cases=20, threads=4)
    outcome = run_campaign(prog, config)  # or run_campaign(prog, steps=...)
    print(outcome.summary())
    for event, seed in outcome.diagnostics:
        print(f"seed {seed}: {event}")
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional, Union

from repro.coverage.metrics import Metric
from repro.coverage.report import CoverageReport
from repro.diagnosis.events import DiagnosticEvent
from repro.schedule.program import FlatProgram

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache

DEFAULT_STEPS = 50_000


@dataclass
class CaseOutcome:
    """One test case's contribution."""

    seed: int
    steps_run: int
    wall_time: float
    new_points: int  # coverage points this case uncovered first (all metrics)
    n_diagnostics: int
    # Per-metric share of new_points; sums to new_points.
    new_points_by_metric: dict[Metric, int] = field(default_factory=dict)
    # Per-phase wall timings from the job (codegen/compile/execute/parse
    # for AccMoS; just execute for interpreted engines) and whether the
    # compile was served from the artifact cache.
    timings: dict[str, float] = field(default_factory=dict)
    cache_hit: bool = False


@dataclass
class CampaignOutcome:
    """The campaign's aggregate verdict."""

    merged: CoverageReport
    cases: list[CaseOutcome] = field(default_factory=list)
    # (event, seed of the case that first exposed it)
    diagnostics: list[tuple[DiagnosticEvent, int]] = field(default_factory=list)
    saturated: bool = False
    # Cases that ran past the saturation point (the rest of the open
    # chunk) and were discarded by the ordered merge — speculation waste.
    speculated_cases: int = 0
    # The scheduler's run report (threads, batch size, chunks,
    # speculation); None until the campaign has run.
    scheduler_stats: Optional[dict] = None

    @property
    def n_cases(self) -> int:
        return len(self.cases)

    def coverage_curve(self, metric: Metric) -> list[int]:
        """Cumulative covered points *of that metric* after each case."""
        curve, total = [], 0
        for case in self.cases:
            total += case.new_points_by_metric.get(metric, 0)
            curve.append(total)
        return curve

    def summary(self) -> str:
        status = "saturated" if self.saturated else "budget exhausted"
        lines = [
            f"campaign: {self.n_cases} case(s), {status}",
            self.merged.summary(),
        ]
        if self.diagnostics:
            lines.append(f"diagnostics found: {len(self.diagnostics)}")
        return "\n".join(lines)


@dataclass(frozen=True)
class CampaignConfig:
    """One campaign's settings, checked on construction.

    A bad value raises ``ValueError`` naming the field; ints must be
    ints, not bools.

    ``engine``
        Simulation engine, a key of :data:`repro.engines.api.ENGINES`.
    ``steps``
        Steps per test case (at least 1).
    ``max_cases``
        Case budget: seeds ``base_seed`` up to ``base_seed + max_cases
        - 1`` (at least 1).
    ``plateau_patience``
        Saturate, and stop, once this many consecutive cases uncover no
        new coverage point (at least 1).
    ``base_seed``
        Stimulus seed of the first case.
    ``batch_size``
        AccMoS cases each thread runs back-to-back per chunk (at least
        1).  ``None`` sizes it automatically: the per-thread share of
        ``max_cases``, capped at 8, for AccMoS; 1 for the interpreters.
    ``threads``
        The one parallelism knob: each chunk of ``threads ×
        batch_size`` AccMoS cases runs in this process on that many
        private library instances, with zero process spawns.  ``None``
        (or 0) picks the core count, capped at 4, when the engine is
        AccMoS and a C compiler is available, else 1.  Interpreted
        cases run one at a time whatever the value.
    ``timeout_seconds``
        Per-case wall-clock limit, a number above 0; ``None`` sets none.

    ``batch_size`` and ``threads`` change speed, never the outcome: the
    merge runs in seed order, so every combination is byte-identical to
    a serial run.
    """

    engine: str = "accmos"
    steps: int = DEFAULT_STEPS
    max_cases: int = 16
    plateau_patience: int = 3
    base_seed: int = 1
    batch_size: Optional[int] = None
    threads: Optional[int] = None
    timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        from repro.engines.api import ENGINES

        if not isinstance(self.engine, str) or self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; valid engines: "
                f"{', '.join(sorted(ENGINES))}"
            )
        for name in ("steps", "max_cases", "plateau_patience"):
            _check_int(name, getattr(self, name), minimum=1)
        _check_int("base_seed", self.base_seed)
        if self.batch_size is not None:
            _check_int("batch_size", self.batch_size, minimum=1)
        if self.threads is not None:
            _check_int("threads", self.threads)
            if self.threads < 0:
                raise ValueError("threads must be non-negative (0 = auto)")
        timeout = self.timeout_seconds
        if timeout is not None:
            if isinstance(timeout, bool) or not isinstance(
                timeout, (int, float)
            ):
                raise ValueError("'timeout_seconds' must be a number")
            if timeout <= 0:
                raise ValueError("'timeout_seconds' must be positive")


def _check_int(name: str, value, *, minimum: Optional[int] = None) -> None:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"'{name}' must be an integer")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}")


def iter_campaign(
    prog: FlatProgram,
    config: Optional[CampaignConfig] = None,
    *,
    cache: "Union[ArtifactCache, None, bool]" = None,
    **fields,
):
    """A campaign as a cancellable iteration over its fold loop.

    Pass a :class:`CampaignConfig`, or its fields as keywords, not both.
    Returns a :class:`~repro.runner.campaign.CampaignRun`: iterate it to
    receive each folded :class:`CaseOutcome` in seed order, read
    ``.outcome`` for the merged :class:`CampaignOutcome` once iteration
    ends, and call ``.cancel()`` (thread-safe) to stop submission and
    drain in-flight work into ``outcome.speculated_cases``.

    ``cache`` routes compiles through an artifact cache (default: the
    process-wide one).
    """
    if config is None:
        config = CampaignConfig(**fields)
    elif fields:
        raise TypeError(
            "pass either a CampaignConfig or its fields as keywords, "
            "not both"
        )
    from repro.runner.campaign import CampaignRun

    return CampaignRun(prog, config, cache=cache)


def run_campaign(
    prog: FlatProgram,
    config: Optional[CampaignConfig] = None,
    *,
    cache: "Union[ArtifactCache, None, bool]" = None,
    **fields,
) -> CampaignOutcome:
    """Run a campaign to its end: :func:`iter_campaign`, drained."""
    run = iter_campaign(prog, config, cache=cache, **fields)
    for _ in run:
        pass
    return run.outcome
