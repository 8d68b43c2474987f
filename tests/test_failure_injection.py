"""Failure injection on the codegen/driver path: broken compilers,
crashing programs, and corrupted host streams must surface as typed
errors."""

from __future__ import annotations

import struct
import sys

import pytest

from repro import SimulationOptions
from repro.codegen import descriptors_for, generate_reusable_c_program
from repro.codegen.driver import ServerError, SimulationServer, compile_c_program
from repro.dtypes import I32
from repro.inproc import ABI_VERSION, LibraryFault, ResultDecoder, encode_case_binary
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


def _record(prog, options):
    descriptors = descriptors_for(
        prog, default_stimuli(prog), steps=options.steps
    )
    return encode_case_binary(descriptors, steps=options.steps)


def _fake_host(tmp_path, body: str):
    """An executable standing in for the host: ``body`` is Python run
    with ``out`` (binary stdout) and ``size`` (the handshake's result
    size, from argv) in scope."""
    script = tmp_path / "fake_host"
    script.write_text(
        f"#!{sys.executable}\n"
        "import struct, sys\n"
        "out = sys.stdout.buffer\n"
        "size = int(sys.argv[1])\n"
        + body
    )
    script.chmod(0o755)
    return script


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
        """A host that cannot load its library exits non-zero, and the
        error carries the exit status and the host's stderr."""
        _, plan, options, source, layout = generated
        compiled = compile_c_program(source, layout)
        with pytest.raises(ServerError) as excinfo:
            SimulationServer(
                compiled.ensure_host(), tmp_path / "missing.so",
                result_size=ResultDecoder(layout, plan, options).size,
            )
        assert "exit 3" in str(excinfo.value)
        assert "missing.so" in str(excinfo.value)

    def test_crash_reported(self, generated):
        prog, plan, options, source, layout = generated
        crashing = source.replace(
            "clock_gettime(CLOCK_MONOTONIC, &_t0);",
            "clock_gettime(CLOCK_MONOTONIC, &_t0);\n"
            "    { volatile int *p = 0; *p = 1; }",
            1,
        )
        assert crashing != source
        compiled = compile_c_program(crashing, layout)
        server = SimulationServer(
            compiled.ensure_host(), compiled.shared,
            result_size=ResultDecoder(layout, plan, options).size,
        )
        try:
            server.submit(_record(prog, options))
            with pytest.raises(SimulationError, match="exit -11"):
                server.read_frame(timeout=10.0)
        finally:
            server.kill()


class TestProtocolFailures:
    def test_unrecognized_line(self, tmp_path):
        """A host that answers the handshake with text is refused with a
        typed error, not trusted."""
        host = _fake_host(tmp_path, "out.write(b'ready\\n' * 4)\n")
        with pytest.raises(LibraryFault, match="ABI version"):
            SimulationServer(host, "16", result_size=16)

    def test_coverage_size_mismatch(self, generated):
        """Coverage tables shape the result buffer: a library built with
        them cannot serve a decoder laid out without them."""
        prog, _, options, source, layout = generated
        compiled = compile_c_program(source, layout)
        no_coverage = build_plan(prog, coverage=False)
        size = ResultDecoder(layout, no_coverage, options).size
        with pytest.raises(LibraryFault, match="result size"):
            SimulationServer(compiled.ensure_host(), compiled.shared,
                             result_size=size)

    def test_truncated_frame_raises_typed_error(self, tmp_path):
        """A host that dies half way through a frame surfaces as a
        typed ServerError, never a partial result."""
        host = _fake_host(
            tmp_path,
            f"out.write(struct.pack('<qq', {ABI_VERSION}, size))\n"
            "out.flush()\n"
            "sys.stdin.buffer.read(8)\n"
            "out.write(struct.pack('<qq', 0, 0) + b'\\0' * (size // 2))\n",
        )
        server = SimulationServer(host, "64", result_size=64)
        try:
            server.submit(b"")
            with pytest.raises(ServerError, match="stdout closed during case 0"):
                server.read_frame(timeout=10.0)
        finally:
            server.kill()

    def test_rejected_record_raises_typed_error(self, generated):
        """A record the library rejects (non-zero status) is a typed
        ServerError naming the status."""
        prog, plan, options, source, layout = generated
        compiled = compile_c_program(source, layout)
        server = SimulationServer(
            compiled.ensure_host(), compiled.shared,
            result_size=ResultDecoder(layout, plan, options).size,
        )
        try:
            server.submit(_record(prog, options)[:-8])
            with pytest.raises(ServerError, match="returned -1"):
                server.read_frame(timeout=10.0)
        finally:
            server.kill()
