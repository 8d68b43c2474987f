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

Cases run in-process on up to four threads by default, or stream across
the :mod:`repro.runner` worker pool, while the coverage merge stays in
seed order, so every dispatch path produces byte-identical outcomes.

::

    from repro.campaign import CampaignConfig, run_campaign

    config = CampaignConfig(steps=100_000, max_cases=20, workers=4)
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
    # Warm-server pool counters (spawns/reuses/restarts/retired_*) for
    # server-mode campaigns; None when the campaign didn't serve.
    server_stats: Optional[dict] = None
    # Cases that ran (or were already in flight) past the saturation
    # point and were discarded by the ordered merge — speculation waste,
    # bounded by the scheduler's in-flight window.
    speculated_cases: int = 0
    # The scheduler's run report (window, batch size, utilization,
    # reorder depth, speculation); None until the campaign has run.
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

    A bad value raises ``ValueError`` naming the field.  Bools must be
    bools; ints must be ints, not bools.

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
    ``workers``
        Worker threads streaming cases through a fixed in-flight window
        of ``2 × workers × batch_size`` cases (at least 1).
    ``batch_size``
        Cases run back-to-back on one loaded program per dispatch (at
        least 1).  ``None`` sizes it automatically: the per-worker share
        of ``max_cases``, capped at 8, for AccMoS; 1 for the
        interpreters.
    ``threads``
        Thread-parallel in-process execution: that many private library
        instances run C loops in this process, with zero process
        spawns, in place of the worker pool.  ``None`` (or 0) picks the
        core count, capped at 4, when the engine is AccMoS and a C
        compiler is available, else 1.  ``1`` runs the worker pool.
    ``serve``
        On the worker pool: stream batches through warm host processes
        reused across chunks.  ``False`` runs a private host process per
        batch.
    ``inproc``
        On the worker pool: run batches in-process through the compiled
        shared library, falling back to a host process on any library
        fault.
    ``timeout_seconds``
        Per-case wall-clock limit, a number above 0; ``None`` sets none.

    ``serve`` and ``inproc`` apply only where batches exist: AccMoS with
    a batch size above 1.  ``workers``, ``batch_size``, ``threads``,
    ``serve`` and ``inproc`` change speed, never the outcome: the merge
    runs in seed order, so every combination is byte-identical to a
    serial run.
    """

    engine: str = "accmos"
    steps: int = DEFAULT_STEPS
    max_cases: int = 16
    plateau_patience: int = 3
    base_seed: int = 1
    workers: int = 1
    batch_size: Optional[int] = None
    threads: Optional[int] = None
    serve: bool = True
    inproc: bool = False
    timeout_seconds: Optional[float] = None

    def __post_init__(self) -> None:
        from repro.engines.api import ENGINES

        if not isinstance(self.engine, str) or self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; valid engines: "
                f"{', '.join(sorted(ENGINES))}"
            )
        for name in ("steps", "max_cases", "plateau_patience", "workers"):
            _check_int(name, getattr(self, name), minimum=1)
        _check_int("base_seed", self.base_seed)
        if self.batch_size is not None:
            _check_int("batch_size", self.batch_size, minimum=1)
        if self.threads is not None:
            _check_int("threads", self.threads)
            if self.threads < 0:
                raise ValueError("threads must be non-negative (0 = auto)")
        for name in ("serve", "inproc"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(f"'{name}' must be a boolean")
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
    server_pool=None,
    cost_store=None,
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
    process-wide one).  Long-lived embedders (e.g. the campaign service)
    may pass a shared ``server_pool`` and ``cost_store``; the campaign
    borrows them without closing or saving — the owner controls those
    lifetimes.
    """
    if config is None:
        config = CampaignConfig(**fields)
    elif fields:
        raise TypeError(
            "pass either a CampaignConfig or its fields as keywords, "
            "not both"
        )
    from repro.runner.campaign import CampaignRun

    return CampaignRun(
        prog, config,
        cache=cache, server_pool=server_pool, cost_store=cost_store,
    )


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
