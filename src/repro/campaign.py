"""Test campaigns: many test cases, one adequacy verdict.

The paper motivates coverage collection as the way to "validate that test
cases are comprehensive enough".  A :func:`run_campaign` does that loop at
AccMoS speed: generate differently-seeded random test cases, simulate each
(compiled), merge coverage, and stop when new cases stop uncovering new
points — the classic saturation criterion.  All diagnostics found by any
case are pooled, with the seed that first exposed each.

With ``workers > 1`` the seed sweep fans out across the
:mod:`repro.runner` pool — compiles served by the artifact cache, cases
executed concurrently — while the coverage merge stays in seed order, so
parallel and serial campaigns produce byte-identical outcomes.

::

    from repro.campaign import run_campaign

    outcome = run_campaign(prog, steps=100_000, max_cases=20, workers=4)
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
from repro.engines.base import SimulationOptions
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
    # The scheduler's run report (window / batch trajectory, utilization,
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


def iter_campaign(
    prog: FlatProgram,
    *,
    engine: str = "accmos",
    steps: Optional[int] = None,
    max_cases: int = 16,
    plateau_patience: int = 3,
    base_seed: int = 1,
    options: Optional[SimulationOptions] = None,
    workers: int = 1,
    mode: str = "thread",
    cache: "Union[ArtifactCache, None, bool]" = None,
    timeout_seconds: Optional[float] = None,
    batch_size: Optional[int] = None,
    serve: bool = True,
    inproc: bool = False,
    threads: Optional[int] = 1,
    window: Optional[int] = None,
    adaptive: bool = True,
    server_pool=None,
    cost_store=None,
):
    """The embeddable form of :func:`run_campaign`: a validated,
    cancellable iteration over the campaign's fold loop.

    Returns a :class:`~repro.runner.campaign.CampaignRun` — iterate it
    to receive each folded :class:`CaseOutcome` in seed order; read
    ``.outcome`` for the merged :class:`CampaignOutcome` once iteration
    ends; call ``.cancel()`` (thread-safe) to stop submission and drain
    in-flight work into ``outcome.speculated_cases``.  All knobs mean
    exactly what they mean on :func:`run_campaign`; the fold is the same
    code, so the drained iteration is byte-identical to the one-shot
    call.

    Long-lived embedders (e.g. the campaign service) may pass a shared
    ``server_pool`` and ``cost_store``; the campaign borrows them
    without closing or saving — the owner controls those lifetimes.
    """
    from repro.engines.api import ENGINES

    if engine not in ENGINES:
        raise ValueError(
            f"unknown engine {engine!r}; valid engines: "
            f"{', '.join(sorted(ENGINES))}"
        )
    if max_cases < 1:
        raise ValueError("max_cases must be at least 1")
    if plateau_patience < 1:
        raise ValueError("plateau_patience must be at least 1")
    if workers < 1:
        raise ValueError("workers must be at least 1")
    if batch_size is not None and batch_size < 1:
        raise ValueError("batch_size must be at least 1 (None = auto)")
    if window is not None and window < 1:
        raise ValueError("window must be at least 1 (None = auto)")
    if threads is not None and threads < 0:
        raise ValueError("threads must be non-negative (0/None = auto)")
    if options is not None and steps is not None:
        raise ValueError(
            "pass either steps= or options= (which carries its own step "
            "count), not both"
        )

    from repro.runner.campaign import CampaignRun

    return CampaignRun(
        prog,
        engine=engine,
        steps=DEFAULT_STEPS if steps is None else steps,
        max_cases=max_cases,
        plateau_patience=plateau_patience,
        base_seed=base_seed,
        options=options,
        workers=workers,
        mode=mode,
        cache=cache,
        timeout_seconds=timeout_seconds,
        batch_size=batch_size,
        serve=serve,
        inproc=inproc,
        threads=threads,
        window=window,
        adaptive=adaptive,
        server_pool=server_pool,
        cost_store=cost_store,
    )


def run_campaign(
    prog: FlatProgram,
    *,
    engine: str = "accmos",
    steps: Optional[int] = None,
    max_cases: int = 16,
    plateau_patience: int = 3,
    base_seed: int = 1,
    options: Optional[SimulationOptions] = None,
    workers: int = 1,
    mode: str = "thread",
    cache: "Union[ArtifactCache, None, bool]" = None,
    timeout_seconds: Optional[float] = None,
    batch_size: Optional[int] = None,
    serve: bool = True,
    inproc: bool = False,
    threads: Optional[int] = 1,
    window: Optional[int] = None,
    adaptive: bool = True,
) -> CampaignOutcome:
    """Run up to ``max_cases`` differently-seeded random test cases.

    Stops early once ``plateau_patience`` consecutive cases uncover no new
    coverage point (saturation).  Pass *either* ``steps`` (a default
    :class:`SimulationOptions` with that step count; 50 000 when omitted)
    *or* a full ``options`` — both together raise ``ValueError``, since
    ``options`` carries its own step count.

    ``workers > 1`` streams cases across the :mod:`repro.runner`
    scheduler (``mode`` picks threads or processes) through a bounded
    in-flight window — a completion is immediately followed by a
    submission, no barrier — while the coverage merge stays in seed
    order (a reorder buffer restores it), so the outcome is
    byte-identical to a serial run.  ``window`` bounds how many cases
    may be in flight at once (default: ``workers × batch_size``).
    ``cache`` routes compiles through an artifact cache (default: the
    process-wide one); ``timeout_seconds`` bounds each case's binary
    run.

    ``batch_size > 1`` runs that many cases back-to-back per process
    spawn on one reused binary (the compile-once / run-many path) — the
    big throughput lever for many-case campaigns.  ``None`` (the
    default) sizes it automatically — the per-worker share of
    ``max_cases``, capped at 8 — and lets the adaptive controller tune
    it from there.  Outcomes stay byte-identical to ``batch_size=1``;
    only the speculation bound at saturation grows with the in-flight
    window.

    ``adaptive`` (default on) lets a throughput feedback controller
    hill-climb ``batch_size`` and ``window`` from observed cases/sec
    and worker utilization over the campaign's lifetime (hysteresis
    guards against oscillation; short campaigns finish before the first
    adjustment).  Values you pass explicitly are never touched.  The
    run report lands in ``CampaignOutcome.scheduler_stats``; discarded
    speculation is counted in ``CampaignOutcome.speculated_cases``.

    ``serve`` (default on) streams batched cases through warm host
    processes kept alive across chunks — steady-state zero process
    spawns; ``serve=False`` runs a private host process per batch.  A
    host that fails twice in a row sends its batch down to the per-job
    path, so results are byte-identical either way.  It only applies
    where batches are available, i.e. the AccMoS engine with
    ``batch_size > 1``.

    ``inproc`` (default off) runs batched cases in-process through the
    compiled program's shared library and the packed binary ABI — zero
    process spawns.  It sits above the host rung in the fallback ladder
    (inproc → host stream → restart once → per-job) and shares its gate:
    AccMoS engine with ``batch_size > 1``.  A library fault quarantines
    the in-process rung and finishes on a host process, so results stay
    byte-identical either way.

    ``threads`` engages thread-parallel in-process execution: chunks are
    grouped onto one shared compiled model and run by that many threads
    holding private library instances — N C simulation loops on N cores
    with *zero* process spawns (``ctypes`` releases the GIL).  Cases are
    packed into per-thread shards by the cost model, and the merge stays
    in seed order, so ``threads=N`` is byte-identical to ``threads=1``.
    ``threads=None`` (or 0) picks automatically: the core count (capped
    at 4) when the toolchain supports shared objects and the engine is
    AccMoS, else 1.  Only applies to the AccMoS engine; a library fault
    mid-campaign falls down the usual ladder.
    """
    run = iter_campaign(
        prog,
        engine=engine,
        steps=steps,
        max_cases=max_cases,
        plateau_patience=plateau_patience,
        base_seed=base_seed,
        options=options,
        workers=workers,
        mode=mode,
        cache=cache,
        timeout_seconds=timeout_seconds,
        batch_size=batch_size,
        serve=serve,
        inproc=inproc,
        threads=threads,
        window=window,
        adaptive=adaptive,
    )
    for _ in run:
        pass
    return run.outcome
