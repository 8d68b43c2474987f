"""The differential oracle: one case, every engine rung, bit-for-bit.

The interpreted SSE engine defines the observable semantics; every other
rung must reproduce it exactly:

* ``sse_ac`` — the Accelerator analog (MEX-compiled actor functions);
* ``sse_rac`` — Rapid Accelerator (whole-model generated Python);
* ``accmos`` — the compiled program run for one case, in-process through
  the packed binary ABI (compile once, run via the packed descriptor
  record; exercises ``repro.inproc``);
* ``accmos_stream`` — the same library on a private host process,
  streaming several copies of the case back to back (exercises the
  quarantine rung's frame stream and the per-case reset);
* ``accmos_inproc_mt`` — the same library driven thread-parallel: the
  case runs as several copies sharded across private instances
  (exercises the instance pool and the deterministic threaded merge).

Outputs are compared on raw bits (via :func:`signal_bits`, which also
canonicalizes NaN exactly like the generated C), checksums/coverage
bitmaps/diagnosis records on equality.  The Python rungs collect no
coverage or diagnostics, so only the AccMoS rungs are held to those.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from repro.coverage.report import CoverageReport
from repro.codegen.driver import find_c_compiler
from repro.engines import SimulationOptions, SimulationResult, simulate
from repro.engines.accmos import _resolve_cache, compile_model
from repro.engines.base import signal_bits
from repro.fuzz.generate import CaseSpec, build_model, build_stimuli
from repro.schedule import preprocess

#: Comparison rungs in execution order.  ``sse`` is the reference and is
#: always run; it is not itself a rung.
ALL_RUNGS = (
    "sse_ac", "sse_rac", "accmos", "accmos_stream", "accmos_inproc_mt",
)
PYTHON_RUNGS = ("sse_ac", "sse_rac")
C_RUNGS = ("accmos", "accmos_stream", "accmos_inproc_mt")


def available_rungs() -> tuple[str, ...]:
    """Every rung runnable on this machine (C rungs need a compiler)."""
    if find_c_compiler() is None:
        return PYTHON_RUNGS
    return ALL_RUNGS


@dataclass(frozen=True)
class Divergence:
    """One observed disagreement between a rung and the SSE reference."""

    rung: str
    kind: str  # error | steps_run | outputs | checksums | halted_at | coverage | diagnostics
    detail: str

    def to_dict(self) -> dict:
        return {"rung": self.rung, "kind": self.kind, "detail": self.detail}


@dataclass
class OracleReport:
    """Everything one differential run of a case produced."""

    case: CaseSpec
    rungs: tuple[str, ...]
    divergences: list[Divergence] = field(default_factory=list)
    results: dict = field(default_factory=dict)  # rung -> SimulationResult
    #: The reference run's coverage report (bitmaps per metric).  Always
    #: present when the reference collects coverage — the guided fuzzer
    #: feeds on this, and by the oracle's own invariant the C rungs'
    #: bitmaps are identical, so no extra run is needed to obtain it.
    coverage: Optional[CoverageReport] = None

    @property
    def agreed(self) -> bool:
        return not self.divergences


def _bits_repr(value, dtype) -> str:
    return f"{value!r} (bits {signal_bits(value, dtype):#x})"


def _same_bits(a: dict, b: dict, out_dtypes: dict) -> bool:
    """Bitwise output equality (NaN-safe, like the oracle comparison)."""
    if set(a) != set(b):
        return False
    for name, value in a.items():
        dtype = out_dtypes.get(name)
        if dtype is None:
            if b[name] != value:
                return False
        elif signal_bits(b[name], dtype) != signal_bits(value, dtype):
            return False
    return True


def compare_results(
    reference: SimulationResult,
    other: SimulationResult,
    rung: str,
    out_dtypes: dict,
    *,
    structural: bool,
) -> list[Divergence]:
    """All fields on which ``other`` disagrees with the reference."""
    divergences: list[Divergence] = []

    def diverge(kind: str, detail: str) -> None:
        divergences.append(Divergence(rung=rung, kind=kind, detail=detail))

    if other.steps_run != reference.steps_run:
        diverge("steps_run", f"{reference.steps_run} vs {other.steps_run}")
    if other.halted_at != reference.halted_at:
        diverge("halted_at", f"{reference.halted_at} vs {other.halted_at}")
    for name, value in reference.outputs.items():
        if name not in other.outputs:
            diverge("outputs", f"{name}: missing")
            continue
        dtype = out_dtypes.get(name)
        if dtype is None:
            same = other.outputs[name] == value
        else:
            same = signal_bits(other.outputs[name], dtype) == signal_bits(value, dtype)
        if not same:
            diverge(
                "outputs",
                f"{name}: {_bits_repr(value, dtype)} vs "
                f"{_bits_repr(other.outputs[name], dtype)}"
                if dtype is not None
                else f"{name}: {value!r} vs {other.outputs[name]!r}",
            )
    if other.checksums != reference.checksums:
        keys = sorted(set(reference.checksums) | set(other.checksums))
        diffs = [
            f"{k}: {reference.checksums.get(k):#x} vs {other.checksums.get(k):#x}"
            for k in keys
            if reference.checksums.get(k) != other.checksums.get(k)
        ]
        diverge("checksums", "; ".join(diffs))
    if structural:
        if reference.coverage is not None:
            if other.coverage is None:
                diverge("coverage", "missing coverage report")
            elif other.coverage.bitmaps != reference.coverage.bitmaps:
                diverge(
                    "coverage",
                    f"[{reference.coverage.summary()}] vs "
                    f"[{other.coverage.summary()}]",
                )
        ref_diag = [(e.path, e.kind.value, e.first_step, e.count)
                    for e in reference.diagnostics]
        oth_diag = [(e.path, e.kind.value, e.first_step, e.count)
                    for e in other.diagnostics]
        if oth_diag != ref_diag:
            diverge("diagnostics", f"{ref_diag} vs {oth_diag}")
    return divergences


def run_case(
    case: CaseSpec,
    *,
    rungs: Optional[Sequence[str]] = None,
    keep_results: bool = False,
    timeout_seconds: Optional[float] = 120.0,
    cache=False,
) -> OracleReport:
    """Run one case through the reference and every requested rung.

    A rung that *raises* is itself a divergence (kind ``error``) — a
    generated case must never crash one engine and not the others.
    Errors during the reference run propagate: they mean the case is
    bad, not that the engines disagree.

    ``cache`` follows the engine convention: ``False`` (the default)
    compiles fresh every time — blind fuzzing rarely revisits a binary,
    and a cold cache is itself part of what the oracle exercises.  Pass
    ``None`` for the default artifact cache (the guided fuzzer does:
    its mutants mostly share a structure, so recompiles are pure waste)
    or an explicit :class:`ArtifactCache`.
    """
    rungs = tuple(rungs) if rungs is not None else available_rungs()
    report = OracleReport(case=case, rungs=rungs)

    model = build_model(case)
    prog = preprocess(model)
    out_dtypes = {b.name: b.dtype for b in prog.outports}
    options = SimulationOptions(steps=case.steps)
    resolved_cache = _resolve_cache(cache)

    reference = simulate(prog, build_stimuli(case), engine="sse", options=options)
    report.coverage = reference.coverage
    if keep_results:
        report.results["sse"] = reference

    def record(rung: str, runner) -> None:
        try:
            result = runner()
        except Exception as exc:  # noqa: BLE001 — engine crash = divergence
            report.divergences.append(Divergence(
                rung=rung, kind="error",
                detail=f"{type(exc).__name__}: {exc}",
            ))
            return
        report.divergences.extend(compare_results(
            reference, result, rung, out_dtypes,
            structural=rung in C_RUNGS,
        ))
        if keep_results:
            report.results[rung] = result

    for rung in PYTHON_RUNGS:
        if rung in rungs:
            record(rung, lambda r=rung: simulate(
                prog, build_stimuli(case), engine=r, options=options
            ))

    if any(rung in rungs for rung in C_RUNGS):
        compiled = compile_model(
            prog, options,
            cache=resolved_cache if resolved_cache is not None else False,
        )
        if "accmos" in rungs:
            record("accmos", lambda: compiled.run(
                build_stimuli(case), options,
                timeout_seconds=timeout_seconds,
            ))

        def first_of(outcomes) -> SimulationResult:
            # Several copies of one case: every copy must agree with the
            # first (the per-case reset and, threaded, inter-instance
            # isolation); the first is compared with the reference.
            for outcome in outcomes:
                if isinstance(outcome, Exception):
                    raise outcome
            first = outcomes[0]
            for other in outcomes[1:]:
                if other.checksums != first.checksums or (
                    other.outputs != first.outputs
                    and not _same_bits(first.outputs, other.outputs, out_dtypes)
                ):
                    raise AssertionError("copies of one case disagree")
            return first

        def copies(n: int) -> list:
            return [(build_stimuli(case), options) for _ in range(n)]

        if "accmos_stream" in rungs:
            record("accmos_stream", lambda: first_of(list(compiled.run_stream(
                copies(3), timeout_seconds=timeout_seconds,
            ))))
        if "accmos_inproc_mt" in rungs:
            # Three copies across three private instances: exercises the
            # pool, the shard merge, and inter-instance isolation.
            record("accmos_inproc_mt", lambda: first_of(compiled.run_inproc(
                copies(3), timeout_seconds=timeout_seconds, threads=3,
            )))

    return report
