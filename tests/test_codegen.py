"""Code generation: source structure, compilation, the result decoder,
custom predicate substitution, and the Python backend."""

from __future__ import annotations

from pathlib import Path

import pytest

from repro import SimulationOptions, simulate
from repro.codegen import (
    descriptors_for,
    generate_py_step,
    generate_reusable_c_program,
)
from repro.codegen.driver import compile_c_program, find_c_compiler
from repro.inproc import LoadedModel, ResultDecoder, encode_case_binary
from repro.diagnosis import CustomDiagnosis, DiagnosticKind
from repro.dtypes import F64, I16, I32
from repro.instrument import build_plan
from repro.model import ModelBuilder
from repro.model.errors import CodegenError, CompilationError, SimulationError
from repro.schedule import preprocess
from repro.stimuli import ConstantStimulus, IntRandomStimulus, default_stimuli

from conftest import requires_cc


def _prog():
    b = ModelBuilder("Gen")
    x = b.inport("X", dtype=I32)
    pos = b.relational("Pos", ">", x, b.constant("Z", 0))
    sw = b.switch("Sw", x, pos, b.neg("N", x), threshold=1)
    nw = b.dtc("Nw", b.gain("G", sw, 3, dtype=I32), I16)
    b.outport("Y", nw)
    return preprocess(b.build())


def _generate(prog=None, options=None, **plan_kwargs):
    prog = prog or _prog()
    plan = build_plan(prog, **plan_kwargs)
    options = options or SimulationOptions(steps=100)
    source, layout = generate_reusable_c_program(prog, plan, options)
    return prog, plan, options, source, layout


def _execute(compiled, prog, plan, layout, options):
    """One default-stimuli case on an instance of ``compiled``; the
    decoder and the case's result buffer."""
    decoder = ResultDecoder(layout, plan, options)
    descriptors = descriptors_for(
        prog, default_stimuli(prog), steps=options.steps
    )
    lib = LoadedModel(compiled.shared, result_size=decoder.size)
    try:
        return decoder, lib.run_case(
            encode_case_binary(descriptors, steps=options.steps)
        )
    finally:
        lib.retire()


class TestGeneratedSource:
    def test_structure(self):
        _, _, _, source, _ = _generate()
        assert "int acc_lib_run_case(" in source
        assert "main(" not in source
        assert "/* ---- test case import" in source
        assert "/* ---- model step (execution order) ---- */" in source
        assert "steps_run" in source

    def test_actor_comments_present(self):
        _, _, _, source, _ = _generate()
        assert "/* Gen_Sw (Switch) */" in source
        assert "/* Gen_Nw (DataTypeConversion) */" in source

    def test_condition_coverage_inside_branches(self):
        _, _, _, source, _ = _generate()
        assert "cov_cond[0] = 1" in source
        assert "cov_cond[1] = 1" in source

    def test_diagnosis_calls_present(self):
        _, _, _, source, layout = _generate()
        assert "ACC_DIAG(" in source
        paths = {path for path, _, _ in layout.diag_slots}
        assert "Gen_Nw" in paths  # the narrowing conversion

    def test_halt_label_only_when_halting(self):
        _, _, _, source, _ = _generate()
        assert "sim_halt" not in source
        options = SimulationOptions(
            steps=10, halt_on=frozenset({DiagnosticKind.WRAP_ON_OVERFLOW})
        )
        _, _, _, source, _ = _generate(options=options)
        assert "goto sim_halt;" in source

    def test_no_coverage_when_disabled(self):
        _, _, _, source, _ = _generate(coverage=False)
        assert "cov_actor" not in source

    def test_time_budget_emits_clock_check(self):
        options = SimulationOptions(steps=10, time_budget=1.0)
        _, _, _, source, _ = _generate(options=options)
        assert source.count("clock_gettime") >= 3
        # The budget is a per-case runtime input, not part of the source.
        assert source == _generate(options=SimulationOptions(steps=10))[3]

    def test_monitor_arrays_sized_by_limit(self):
        options = SimulationOptions(steps=10, monitor_limit=13)
        _, _, _, source, _ = _generate(options=options)
        assert "mon0_step[13]" in source

    def test_custom_predicate_substitution(self):
        prog = _prog()
        diag = CustomDiagnosis(
            actor_path="Gen_Sw", message="watch",
            c_predicate="out0 > 100 || in1 == 0",
        )
        plan = build_plan(prog, custom=[diag])
        source, layout = generate_reusable_c_program(
            prog, plan, SimulationOptions(steps=5)
        )
        sw = prog.actor_by_path("Gen_Sw")
        out_var = f"s{sw.output_sids[0]}"
        in1_var = f"s{sw.input_sids[1]}"
        assert f"{out_var} > 100 || {in1_var} == 0" in source

    def test_custom_without_c_predicate_rejected(self):
        prog = _prog()
        diag = CustomDiagnosis(
            actor_path="Gen_Sw", message="watch",
            predicate=lambda step, i, o: False,
        )
        plan = build_plan(prog, custom=[diag])
        with pytest.raises(CodegenError, match="no C predicate"):
            generate_reusable_c_program(prog, plan, SimulationOptions(steps=5))

    def test_custom_predicate_port_out_of_range(self):
        prog = _prog()
        diag = CustomDiagnosis(
            actor_path="Gen_Sw", message="watch", c_predicate="in9 > 0"
        )
        plan = build_plan(prog, custom=[diag])
        with pytest.raises(CodegenError, match="no in9"):
            generate_reusable_c_program(prog, plan, SimulationOptions(steps=5))


@requires_cc
class TestCompileAndParse:
    def test_compile_and_execute(self):
        prog, plan, options, source, layout = _generate()
        compiled = compile_c_program(source, layout)
        decoder, buf = _execute(compiled, prog, plan, layout, options)
        assert len(buf) == decoder.size
        assert int.from_bytes(buf[:8], "little") == 100  # steps_run

    def test_compile_error_reported(self):
        _, _, _, _, layout = _generate()
        with pytest.raises(CompilationError, match="failed"):
            compile_c_program("this is not C;", layout)

    def test_decode_result_full(self):
        prog, plan, options, source, layout = _generate()
        compiled = compile_c_program(source, layout)
        decoder, buf = _execute(compiled, prog, plan, layout, options)
        result = decoder.decode(buf, prog, options)
        assert result.steps_run == 100
        assert result.engine == "accmos"
        assert "Y" in result.outputs
        assert result.coverage is not None
        sse = simulate(prog, default_stimuli(prog), engine="sse", options=options)
        assert result.outputs == sse.outputs

    def test_decoder_rejects_truncated_and_overlong_buffers(self):
        prog, plan, options, _, layout = _generate()
        decoder = ResultDecoder(layout, plan, options)
        buf = bytes(decoder.size)
        decoder.decode(buf, prog, options)
        with pytest.raises(SimulationError, match="truncated"):
            decoder.decode(buf[:-1], prog, options)
        with pytest.raises(SimulationError, match="truncated"):
            decoder.decode(b"???", prog, options)
        with pytest.raises(SimulationError, match="over-long"):
            decoder.decode(buf + b"\0" * 8, prog, options)

    def test_find_c_compiler(self):
        assert find_c_compiler() is not None

    def test_workdir_artifacts_kept(self):
        """Without a cache the source and the library are kept in the
        handle's private scratch directory while the handle lives."""
        _, _, _, source, layout = _generate()
        compiled = compile_c_program(source, layout)
        scratch = Path(compiled.scratch.name)
        assert compiled.source.read_text() == source
        assert compiled.shared.is_file()
        assert scratch in compiled.shared.parents
        assert compiled.compile_seconds > 0

    def test_accmos_run_reports_extras(self):
        prog = _prog()
        result = simulate(prog, default_stimuli(prog), engine="accmos", steps=50)
        assert result.extra["compile_seconds"] > 0
        assert result.extra["source_lines"] > 100

    def test_accmos_keep_artifacts(self, tmp_path):
        """A compiled model keeps its generated source and its library
        reachable: the library and a copy of the source in the cache."""
        from repro.engines import compile_model
        from repro.runner.cache import ArtifactCache

        model = compile_model(
            _prog(), SimulationOptions(steps=10),
            cache=ArtifactCache(tmp_path),
        )
        assert model.compiled.source.read_text() == model.source
        assert model.compiled.shared.is_file()
        assert tmp_path in model.compiled.shared.parents


class TestPyBackend:
    def test_generated_module_compiles(self):
        prog = _prog()
        source = generate_py_step(prog)
        compile(source, "<test>", "exec")

    def test_run_signature(self):
        prog = _prog()
        namespace = {}
        exec(compile(generate_py_step(prog), "<test>", "exec"), namespace)
        stim = ConstantStimulus(5)
        feeds = [lambda: stim.conform(stim.next(), I32)]
        frames = []
        steps_run, outputs = namespace["run"](4, feeds, frames.extend)
        assert steps_run == 4
        assert "Y" in outputs
        assert len(frames) == 4  # final flush delivers all frames

    def test_unknown_block_type_raises(self):
        from repro.codegen.pybackend import _PyEmit, _emit_actor
        from repro.schedule.program import FlatActor
        from repro.model.actor import Actor

        prog = _prog()
        emitter = _PyEmit(prog)
        fake = FlatActor(
            index=0, path="X", guard=None,
            actor=Actor.create("X", "Sum", n_inputs=1, operator="+"),
            input_sids=(0,), output_sids=(0,),
        )
        fake.actor.block_type = "Imaginary"
        with pytest.raises(CodegenError):
            _emit_actor(emitter, fake, [])
