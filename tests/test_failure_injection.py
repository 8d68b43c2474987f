"""Failure injection on the codegen/driver path: broken compilers, crashing
binaries, and corrupted result protocols must surface as typed errors."""

from __future__ import annotations

import pytest

from repro import SimulationOptions
from repro.codegen import (
    descriptors_for,
    encode_case,
    generate_reusable_c_program,
)
from repro.codegen.driver import (
    CompiledSimulation,
    compile_c_program,
    parse_result,
)
from repro.dtypes import I32
from repro.instrument import build_plan
from repro.model import ModelBuilder
from repro.model.errors import CompilationError, SimulationError
from repro.schedule import preprocess
from repro.stimuli import default_stimuli

from conftest import requires_cc

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


def _case_input(prog, options):
    descriptors = descriptors_for(
        prog, default_stimuli(prog), steps=options.steps
    )
    return encode_case(descriptors, steps=options.steps)


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


class TestBinaryFailures:
    def test_nonzero_exit_reported(self, generated, tmp_path):
        _, _, _, source, layout = generated
        main = "int main(int argc, char **argv) {"
        assert main in source
        crashing = source.replace(main, main + "\n    return 7;\n")
        compiled = compile_c_program(crashing, layout, workdir=tmp_path)
        with pytest.raises(SimulationError, match="exit 7"):
            compiled.execute()

    def test_crash_reported(self, generated, tmp_path):
        prog, _, options, source, layout = generated
        crashing = source.replace(
            "clock_gettime(CLOCK_MONOTONIC, &_t0);",
            "clock_gettime(CLOCK_MONOTONIC, &_t0);\n"
            "    { volatile int *p = 0; *p = 1; }",
            1,
        )
        assert crashing != source
        compiled = compile_c_program(crashing, layout, workdir=tmp_path)
        with pytest.raises(SimulationError):
            compiled.execute(input_text=_case_input(prog, options))


class TestProtocolFailures:
    def test_unrecognized_line(self, generated):
        prog, plan, options, _, layout = generated
        with pytest.raises(SimulationError, match="unrecognized"):
            parse_result("bogus 1 2 3", prog, plan, layout, options)

    def test_coverage_size_mismatch(self, generated):
        prog, plan, options, _, layout = generated
        stdout = (
            "steps_run 20\nhalt -1\nsim_seconds 0.0\n"
            "cov actor 1\ncov condition \ncov decision \ncov mcdc \n"
        )
        # actor table has len(prog.actors) points; one char is too few.
        if plan.points.n_actor == 1:
            pytest.skip("model too small for a mismatch")
        with pytest.raises(SimulationError, match="size mismatch"):
            parse_result(stdout, prog, plan, layout, options)

    def test_truncated_output_yields_partial_but_typed_result(self, generated):
        prog, plan, options, _, layout = generated
        # Only the step count arrived (binary was killed mid-print): the
        # parser still produces a result, with empty coverage tables.
        result = parse_result("steps_run 5\nhalt -1\n", prog, plan, layout,
                              options)
        assert result.steps_run == 5
        assert result.coverage is not None
        assert result.coverage.metrics is not None
