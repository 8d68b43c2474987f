"""Failure injection: broken compilers, rejected records and faulted
libraries must surface as typed errors.

The fault matrix gives every source of
:class:`~repro.inproc.library.LibraryFault` one seam — an unloadable
``.so``, a missing export, an ABI or result-size mismatch, and a
non-zero ``acc_lib_run_case`` status on one chosen record — and pins
the one rule for all of them: the fault is the typed outcome of the
case it hit, every other case is byte-identical to SSE, the outcomes do
not depend on the thread count, and a campaign fails naming the first
faulted seed.
"""

from __future__ import annotations

import dataclasses
import re

import pytest

from repro import SimulationOptions, simulate, telemetry
from repro.campaign import run_campaign
from repro.codegen import descriptors_for, generate_reusable_c_program
from repro.codegen.driver import compile_c_program
from repro.dtypes import I32
from repro.engines import accmos as accmos_mod
from repro.engines.accmos import CompiledModel, compile_model
from repro.engines.base import SimulationResult
from repro.inproc import (
    ABI_VERSION,
    LibraryFault,
    LoadedModel,
    ResultDecoder,
    encode_case_binary,
)
from repro.instrument import build_plan
from repro.model import ModelBuilder
from repro.model.errors import CompilationError, SimulationError
from repro.runner.jobs import SimulationJob, run_job_batch
from repro.schedule import preprocess
from repro.stimuli import default_stimuli

from conftest import requires_cc
from helpers import ZOO, assert_results_agree

pytestmark = requires_cc


@pytest.fixture(scope="module")
def generated():
    b = ModelBuilder("Fail")
    x = b.inport("X", dtype=I32)
    b.outport("Y", b.gain("G", x, 2, dtype=I32))
    prog = preprocess(b.build())
    plan = build_plan(prog)
    options = SimulationOptions(steps=20)
    source, layout = generate_reusable_c_program(prog, plan, options)
    return prog, plan, options, source, layout


def _record(prog, options):
    descriptors = descriptors_for(
        prog, default_stimuli(prog), steps=options.steps
    )
    return encode_case_binary(descriptors, steps=options.steps)


class TestCompilerFailures:
    def test_syntax_error_in_source(self, generated):
        *_, layout = generated
        with pytest.raises(CompilationError, match="failed"):
            compile_c_program("int main(void) { return ", layout)

    def test_missing_compiler(self, generated, monkeypatch):
        *_, layout = generated
        import repro.codegen.driver as driver

        monkeypatch.setattr(driver, "find_c_compiler", lambda: None)
        with pytest.raises(CompilationError, match="no C compiler"):
            driver.compile_c_program("int main(void){return 0;}", layout)

    def test_error_message_carries_compiler_output(self, generated):
        *_, layout = generated
        with pytest.raises(CompilationError) as exc:
            compile_c_program("this is not C at all;", layout)
        assert "error" in str(exc.value).lower()


class TestProtocolFailures:
    def test_coverage_size_mismatch(self, generated):
        """Coverage tables shape the result buffer: a library built with
        them cannot serve a decoder laid out without them."""
        prog, _, options, source, layout = generated
        compiled = compile_c_program(source, layout)
        no_coverage = build_plan(prog, coverage=False)
        size = ResultDecoder(layout, no_coverage, options).size
        with pytest.raises(LibraryFault, match="result size"):
            LoadedModel(compiled.shared, result_size=size)

    def test_rejected_record_raises_typed_error(self, generated):
        """A record the library rejects (non-zero status) is a typed
        LibraryFault naming the status and its cause, and the instance
        is retired."""
        prog, plan, options, source, layout = generated
        compiled = compile_c_program(source, layout)
        lib = LoadedModel(
            compiled.shared,
            result_size=ResultDecoder(layout, plan, options).size,
        )
        with pytest.raises(LibraryFault) as excinfo:
            lib.run_case(_record(prog, options)[:-8])
        assert str(excinfo.value) == (
            "in-process library: acc_lib_run_case returned -1 "
            "(malformed case record)"
        )
        assert not lib.healthy
        with pytest.raises(LibraryFault, match="retired"):
            lib.run_case(_record(prog, options))


# ----------------------------------------------------------------------
# the fault matrix: one seam per source of LibraryFault
# ----------------------------------------------------------------------
ZOO_MODEL = "stateful"
BASE_SEED = 5
SEEDS = [BASE_SEED + k for k in range(4)]
BAD_SEED = SEEDS[1]  # the chosen record of the record-keyed seam
STEPS = 60


def _rebuild(transform):
    """A seam that compiles ``transform`` of the generated source: a
    library that really carries the fault."""

    def install(monkeypatch, tmp_path):
        real = accmos_mod.compile_c_program

        def compile_faulty(source, layout, **kwargs):
            faulty = transform(source)
            assert faulty != source
            return real(faulty, layout, **kwargs)

        monkeypatch.setattr(accmos_mod, "compile_c_program", compile_faulty)

    return install


def _grow_result_size(source: str) -> str:
    return re.sub(
        r"#define ACC_LIB_RESULT_SIZE (\d+)LL",
        lambda m: f"#define ACC_LIB_RESULT_SIZE {int(m[1]) + 8}LL",
        source,
    )


def _unloadable(monkeypatch, tmp_path):
    """The compiled handle points at a file that is not a library."""
    real = accmos_mod.compile_c_program
    garbage = tmp_path / "garbage.so"
    garbage.write_bytes(b"this is not an ELF shared object\n")

    def compile_unloadable(source, layout, **kwargs):
        return dataclasses.replace(real(source, layout, **kwargs), shared=garbage)

    monkeypatch.setattr(accmos_mod, "compile_c_program", compile_unloadable)


def _bad_record(monkeypatch, tmp_path):
    """:data:`BAD_SEED`'s record loses its last slot on the way to the
    library, which rejects it: keyed on the record, not the call count."""
    real = CompiledModel._encode

    def encode(self, cases, timeout_seconds):
        options, records = real(self, cases, timeout_seconds)
        seeds = [case[0] if isinstance(case, tuple) else case for case in cases]
        return options, [
            record[:-8] if seed == BAD_SEED else record
            for seed, record in zip(seeds, records)
        ]

    monkeypatch.setattr(CompiledModel, "_encode", encode)


# seam -> (install, the cause its fault text names, faulted seeds)
SEAMS = {
    "unloadable": (_unloadable, "cannot load shared library", SEEDS),
    "missing_export": (
        _rebuild(lambda source: source.replace(
            "int acc_lib_run_case(", "int acc_lib_run_case_gone("
        )),
        "missing acc_lib_* exports", SEEDS,
    ),
    "abi_mismatch": (
        _rebuild(lambda source: source.replace(
            f"#define ACC_LIB_ABI_VERSION {ABI_VERSION}\n",
            f"#define ACC_LIB_ABI_VERSION {ABI_VERSION + 1}\n",
        )),
        f"library ABI version {ABI_VERSION + 1} != expected {ABI_VERSION}",
        SEEDS,
    ),
    "result_size_mismatch": (
        _rebuild(_grow_result_size), "(layout drift)", SEEDS,
    ),
    "nonzero_rc": (
        _bad_record,
        "acc_lib_run_case returned -1 (malformed case record)", [BAD_SEED],
    ),
}


def _canonical(outcome) -> tuple:
    if isinstance(outcome, Exception):
        return (type(outcome).__name__, str(outcome))
    return (
        outcome.steps_run, outcome.halted_at, repr(sorted(outcome.outputs.items())),
        sorted(outcome.checksums.items()), outcome.coverage.bitmaps,
        [(e.path, e.kind.value, e.first_step, e.count)
         for e in outcome.diagnostics],
    )


@pytest.fixture(scope="module")
def zoo_prog():
    model, _ = ZOO[ZOO_MODEL]()
    return preprocess(model)


@pytest.mark.parametrize("seam", sorted(SEAMS))
def test_fault_is_the_typed_outcome_of_its_case(
    seam, zoo_prog, monkeypatch, tmp_path
):
    install, cause, faulted = SEAMS[seam]
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    install(monkeypatch, tmp_path)
    model = compile_model(zoo_prog, opts, cache=False)

    by_threads = {}
    for threads in (1, 2):
        with telemetry.capture() as session:
            outcomes = model.run_inproc(SEEDS, threads=threads)
        by_threads[threads] = [_canonical(o) for o in outcomes]
        for seed, outcome in zip(SEEDS, outcomes):
            if seed in faulted:
                assert isinstance(outcome, LibraryFault), (seed, outcome)
                assert str(outcome).startswith("in-process library: ")
                assert cause in str(outcome)
            else:
                assert isinstance(outcome, SimulationResult), (seed, outcome)
                assert_results_agree(
                    simulate(
                        zoo_prog, default_stimuli(zoo_prog, seed=seed),
                        engine="sse", options=opts,
                    ),
                    outcome,
                )
        (span,) = [
            s for s in session.tracer.finished() if s.name == "accmos.inproc"
        ]
        assert span.attrs["faults"] == len(faulted)
        assert span.attrs["reason"].startswith("LibraryFault: ")
        assert cause in span.attrs["reason"]
    assert by_threads[1] == by_threads[2]

    # A single run raises its case's fault.
    with pytest.raises(LibraryFault, match=re.escape(cause)):
        model.run(faulted[0])

    # A campaign fails on the first faulted seed, in seed order.
    with pytest.raises(SimulationError) as excinfo:
        run_campaign(
            zoo_prog, steps=STEPS, max_cases=len(SEEDS),
            plateau_patience=len(SEEDS), base_seed=BASE_SEED, threads=1,
            cache=False,
        )
    message = str(excinfo.value)
    assert message.startswith(f"campaign case seed={faulted[0]} failed: ")
    assert "LibraryFault: in-process library: " in message
    assert cause in message


def test_rejected_case_input_fails_alone(zoo_prog):
    """An input the compiled model rejects before any case runs (here a
    stimulus missing for an inport) sends the chunk to per-job retries:
    that job fails with the reason, and its neighbours still succeed."""
    opts = SimulationOptions(steps=STEPS, coverage=True, diagnostics=True)
    jobs = [
        SimulationJob(prog=zoo_prog, seed=seed, options=opts)
        for seed in SEEDS
    ]
    jobs[1] = dataclasses.replace(jobs[1], stimuli={})
    with telemetry.capture() as session:
        results = run_job_batch(jobs, cache=False, backoff_seconds=0.0)
    counters = session.metrics.snapshot()["counters"]
    assert counters["runner.batch_fallbacks"] == 1
    assert [r.ok for r in results] == [True, False, True, True]
    assert "no stimulus for inport" in results[1].error
    for job, result in zip(jobs, results):
        if result.ok:
            assert_results_agree(
                simulate(
                    zoo_prog, default_stimuli(zoo_prog, seed=job.seed),
                    engine="sse", options=opts,
                ),
                result.result,
            )
