"""Case records packed straight from a seed.

A job without explicit stimuli hands the compiled model its seed, and
:class:`repro.inproc.abi.SeedRecords` packs the case record from it
without building a stimulus or a descriptor.  These tests pin that the
bytes are exactly those of the descriptor path,
``encode_case_binary(descriptors_for(prog, default_stimuli(prog, seed)))``,
on every Table-1 model and on hand-built models covering the port
plan's dtype branches.
"""

from __future__ import annotations

import pytest

from repro import SimulationOptions
from repro.benchmarks import BENCHMARKS, build_benchmark
from repro.campaign import run_campaign
from repro.codegen.descriptor import descriptors_for
from repro.dtypes import DType
from repro.engines.accmos import compile_model
from repro.engines.api import simulate
from repro.inproc.abi import SeedRecords, encode_case_binary
from repro.inproc.library import LoadedModel
from repro.model.builder import ModelBuilder
from repro.runner.cache import ArtifactCache
from repro.schedule import preprocess
from repro.stimuli import default_stimuli
from repro.stimuli.generators import default_port_plan

from conftest import requires_cc
from helpers import assert_results_agree

SEEDS = (0, 1, -1, 2**63, 2**64 + 3, -(2**70))
# (steps, time_budget, deadline)
RUNTIME = ((32, None, None), (0, 0.25, 3.0), (10**9, None, 0.5))


def _descriptor_record(prog, seed, steps, time_budget, deadline) -> bytes:
    return encode_case_binary(
        descriptors_for(prog, default_stimuli(prog, seed=seed), steps=steps),
        steps=steps, time_budget=time_budget, deadline=deadline,
    )


def _assert_seed_records_match(prog) -> None:
    records = SeedRecords(default_port_plan(prog))
    for seed in SEEDS:
        for steps, time_budget, deadline in RUNTIME:
            assert records.pack(
                seed, steps=steps, time_budget=time_budget, deadline=deadline
            ) == _descriptor_record(prog, seed, steps, time_budget, deadline)


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_seed_record_equals_descriptor_record(name):
    _assert_seed_records_match(preprocess(build_benchmark(name)))


# No Table-1 model has a bool or unsigned inport: these cover the
# plan's coin-flip branch and its clamps to the dtype range.
PORT_DTYPES = (DType.BOOL, DType.U8, DType.I8, DType.U64, DType.I64, DType.F32)


def _typed_ports_program():
    b = ModelBuilder("TypedPorts")
    for i, dtype in enumerate(PORT_DTYPES):
        b.outport(f"Y{i}", b.inport(f"X{i}", dtype=dtype))
    return preprocess(b.build())


def test_seed_record_covers_every_port_dtype():
    prog = _typed_ports_program()
    assert [b.dtype for b in prog.inports] == list(PORT_DTYPES)
    _assert_seed_records_match(prog)


def test_port_plan_is_built_once_per_program():
    prog = _typed_ports_program()
    assert default_port_plan(prog) is default_port_plan(prog)
    ranges = [(lo, hi) for _name, _make, lo, hi in default_port_plan(prog).ports]
    assert ranges == [(0, 1), (0, 200), (-100, 100), (0, 200), (-100, 100),
                      (0.0, 1.0)]


@requires_cc
def test_seed_case_runs_like_its_stimuli():
    """A seed given as a case runs exactly as its default stimuli do,
    on every port dtype, against the SSE reference."""
    prog = _typed_ports_program()
    options = SimulationOptions(steps=40)
    model = compile_model(prog, options, cache=False)
    for seed in (3, -(2**70)):
        stimuli = default_stimuli(prog, seed=seed)
        from_seed = model.run(seed)
        assert_results_agree(
            simulate(prog, stimuli, engine="sse", options=options), from_seed
        )
        assert from_seed.checksums == model.run(stimuli).checksums


@requires_cc
def test_faulted_campaign_fails_on_its_seed(tmp_path, monkeypatch):
    """A library that faults on one seed record mid-chunk makes that
    case's outcome a typed fault: the chunk's other cases still run from
    their seed records, and the campaign fails naming the faulted
    seed."""
    from repro.model.errors import SimulationError

    prog = preprocess(build_benchmark("SPV"))
    config = dict(steps=24, max_cases=12, plateau_patience=12, base_seed=5)
    calls = {"n": 0}
    real_invoke = LoadedModel._invoke

    def flaky_invoke(self, record):
        calls["n"] += 1
        if calls["n"] == 3:
            return -1  # induced in-library fault on the third case
        return real_invoke(self, record)

    monkeypatch.setattr(LoadedModel, "_invoke", flaky_invoke)
    with pytest.raises(SimulationError) as excinfo:
        run_campaign(
            prog, cache=ArtifactCache(tmp_path / "cache"), threads=1,
            batch_size=6, **config,
        )
    assert calls["n"] == 6  # the whole first chunk ran
    assert str(excinfo.value).startswith(
        "campaign case seed=7 failed: LibraryFault: in-process library: "
        "acc_lib_run_case returned -1"
    )
