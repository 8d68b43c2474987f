"""gcc compilation and the out-of-process host.

Every program is compiled once, as a shared library, through one
path: an :class:`~repro.runner.cache.ArtifactCache` lookup, gcc on a
miss, a store.  With caching off the cache is a private one in a
scratch directory owned by the :class:`CompiledSimulation`, so the
compile misses and every artifact goes when the handle does.  Every
case runs the library in-process through ``ctypes``
(:mod:`repro.inproc.library`); only the quarantine rung under a
faulted library runs it out of process, under the generic host
executable (:data:`repro.codegen.runtime.HOST_SOURCE`), which is
itself compiled once per compiler and cache, on first use.

:data:`CFLAGS` is the one flag vector, and part of every cache key:

* ``-O1`` — the level that minimises end-to-end time: gcc is most of a
  cold campaign, and ``-O3``'s faster loop pays back its extra compile
  time only after millions of steps (the ``-O`` sweep is
  ``benchmarks/bench_ablations.py``); results are identical at every
  level (``tests/test_opt_levels.py``);
* ``-ffp-contract=off`` — forbid fused multiply-add contraction, which
  would change float results relative to the Python reference;
* strict IEEE (gcc's default; never ``-ffast-math``).
"""

from __future__ import annotations

import os
import queue
import struct
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from shutil import which
from typing import TYPE_CHECKING, Optional, Union

from repro import telemetry
from repro.codegen.compose import ProgramLayout
from repro.codegen.runtime import HOST_SOURCE
from repro.inproc.library import check_handshake
from repro.model.errors import CompilationError, SimulationError

if TYPE_CHECKING:  # avoids importing the runner package at module load
    from repro.runner.cache import ArtifactCache

CFLAGS = ["-O1", "-ffp-contract=off", "-std=c11"]
SHARED_FLAGS = ["-shared", "-fPIC"]
# Link libraries per artifact; -ldl: dlopen lives in libdl before
# glibc 2.34.
_LIBS = {"shared": "-lm", "host": "-ldl"}

PROGRAM_NAME = "simulation.so"
HOST_NAME = "simulation"


# PATH value -> the compiler found on it.
_compilers: "dict[Optional[str], Optional[str]]" = {}


def find_c_compiler() -> Optional[str]:
    """The first available C compiler, or None; looked up once per
    value of ``PATH``."""
    search = os.environ.get("PATH")
    if search not in _compilers:
        _compilers[search] = next(
            filter(None, map(which, ("gcc", "cc", "clang"))), None
        )
    return _compilers[search]


def _require_compiler(compiler: Optional[str]) -> str:
    compiler = compiler or find_c_compiler()
    if compiler is None:
        raise CompilationError("no C compiler found (need gcc, cc, or clang)")
    return compiler


def _flags(artifact: str) -> list[str]:
    """The compile flags of ``artifact`` (``"shared"`` for a program,
    ``"host"`` for the host), read from :data:`CFLAGS` at call time."""
    if artifact == "shared":
        return [*CFLAGS, *SHARED_FLAGS]
    return list(CFLAGS)


def _cache_flags(artifact: str) -> list[str]:
    """Everything on the command line that shapes the artifact: its
    cache-key flag vector."""
    return [*_flags(artifact), _LIBS[artifact]]


def _run_compiler(
    compiler: str, c_path: Path, out_path: Path, artifact: str
) -> float:
    """One compiler invocation producing ``artifact`` from ``c_path``;
    returns the wall seconds spent."""
    args = [*_flags(artifact), "-o", str(out_path), str(c_path), _LIBS[artifact]]
    start = time.perf_counter()
    with telemetry.span("gcc", compiler=compiler, artifact=artifact):
        proc = subprocess.run(
            [compiler, *args], capture_output=True, text=True, check=False
        )
    elapsed = time.perf_counter() - start
    telemetry.observe("compile.gcc_seconds", elapsed)
    if proc.returncode != 0:
        telemetry.counter_inc("compile.failures")
        raise CompilationError(f"{compiler} failed:\n{proc.stderr[:4000]}")
    return elapsed


def build_host(compiler: Optional[str], cache: "ArtifactCache") -> Path:
    """The host executable for ``compiler``: an ordinary content-addressed
    ``cache`` entry (host source + compiler + flags), built at most once
    per cache.

    Host lookups do not count as cache hits or misses: those counters
    describe the programs a campaign compiles.
    """
    compiler = _require_compiler(compiler)
    key = cache.key(HOST_SOURCE, compiler, _cache_flags("host"))
    entry = cache.peek(key, names=(HOST_NAME,))
    if entry is None:
        with tempfile.TemporaryDirectory(prefix="accmos_host_") as tmp:
            c_path = Path(tmp) / "host.c"
            out_path = Path(tmp) / HOST_NAME
            c_path.write_text(HOST_SOURCE)
            _run_compiler(compiler, c_path, out_path, "host")
            entry = cache.store(key, c_path, out_path)
    return entry.binary


@dataclass
class CompiledSimulation:
    """A compiled simulation program — its shared library — plus
    everything to interpret its runs.

    The in-process rung loads :attr:`shared` directly; the quarantine
    rung runs it under the generic host, built lazily into the same
    :attr:`cache` by :meth:`ensure_host`.  ``scratch`` is the directory
    of a private cache (caching off): it holds both artifacts and is
    removed with this handle.
    """

    shared: Path
    source: Path
    layout: ProgramLayout
    compile_seconds: float
    cache: "ArtifactCache" = field(repr=False, compare=False)
    cache_key: str = field(repr=False, compare=False)
    cache_hit: bool = False
    compiler: Optional[str] = field(default=None, repr=False, compare=False)
    scratch: Optional[tempfile.TemporaryDirectory] = field(
        default=None, repr=False, compare=False
    )
    host: Optional[Path] = field(default=None, repr=False, compare=False)
    _host_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def ensure_host(self) -> Path:
        """The host executable that serves :attr:`shared` out of process,
        compiling it on first use."""
        if self.host is None:
            with self._host_lock:
                if self.host is None:
                    self.host = build_host(self.compiler, self.cache)
        return self.host


def compile_c_program(
    source: str,
    layout: ProgramLayout,
    *,
    compiler: Optional[str] = None,
    cache: "Optional[ArtifactCache]" = None,
) -> CompiledSimulation:
    """Write and compile a generated program into its shared library.

    The compile is served from the content-addressed artifact ``cache``
    when the same (source, compiler, flags) triple was compiled before —
    zero compiler invocations on a hit; on a miss the artifact is moved
    into the cache atomically so later calls (from any process) hit.
    Concurrent calls for one key in one process wait on the key's lock,
    so the compiler runs once and the others hit.  Without ``cache`` the
    program compiles into a private cache in a scratch directory that
    lives as long as the returned handle.
    """
    from repro.runner.cache import ArtifactCache

    compiler = _require_compiler(compiler)
    scratch = None
    if cache is None:
        scratch = tempfile.TemporaryDirectory(prefix="accmos_")
        cache = ArtifactCache(scratch.name)

    with telemetry.span("compile") as compile_span:
        start = time.perf_counter()
        key = cache.key(source, compiler, _cache_flags("shared"))
        with cache.key_lock(key):
            entry = cache.lookup(key, names=(PROGRAM_NAME,))
            hit = entry is not None
            telemetry.counter_inc("cache.hits" if hit else "cache.misses")
            compile_span.set(cache_hit=hit)
            if hit:
                elapsed = time.perf_counter() - start
            else:
                with tempfile.TemporaryDirectory(prefix="accmos_") as tmp:
                    c_path = Path(tmp) / "simulation.c"
                    out_path = Path(tmp) / PROGRAM_NAME
                    c_path.write_text(source)
                    elapsed = _run_compiler(
                        compiler, c_path, out_path, "shared"
                    )
                    entry = cache.store(key, c_path, shared_path=out_path)
    return CompiledSimulation(
        shared=entry.shared,
        source=entry.source,
        layout=layout,
        compile_seconds=elapsed,
        cache=cache,
        cache_key=key,
        cache_hit=hit,
        compiler=compiler,
        scratch=scratch,
    )


# ----------------------------------------------------------------------
# the out-of-process host
# ----------------------------------------------------------------------
_WORDS2 = struct.Struct("<qq")  # handshake (abi, size); frame head (index, rc)
_LENGTH = struct.Struct("<q")


class ServerError(SimulationError):
    """A host process crashed, desynced, or went quiet.

    Unlike a plain :class:`SimulationError` this is recoverable by
    design: the caller kills the process, spawns another once, and
    resubmits from the last completed case; a second failure sends the
    work to per-job retries.
    """


class SimulationServer:
    """Handle on one host process serving one program's shared library.

    The process is spawned once (``host <library>``), answers with the
    library's ABI version and result size — checked by
    :func:`~repro.inproc.library.check_handshake`, exactly as an
    in-process load is — and then serves an unbounded stream of cases:
    :meth:`submit` writes one length-prefixed packed record,
    :meth:`read_frame` returns that case's result buffer.  Every frame
    has the same size, so a background thread reads exact-size frames
    off the pipe (stdout is always drained, so a large submission can
    never deadlock against unread results) and every read carries a
    wall-clock deadline: a wedged or dead host raises
    :class:`ServerError` instead of blocking forever.

    Frame indices are validated against the number of frames already
    read; a mismatch (a desync) also raises :class:`ServerError`.
    """

    def __init__(
        self,
        host: Union[str, Path],
        library: Union[str, Path],
        *,
        result_size: int,
        handshake_timeout: float = 10.0,
    ) -> None:
        self.result_size = int(result_size)
        self.submitted = 0
        self.completed = 0
        self._closed = False
        # One event per frame from the reader thread; None = stdout EOF.
        self._frames: "queue.Queue[Optional[bytes]]" = queue.Queue()
        self._stderr_tail: list[str] = []
        self._proc = subprocess.Popen(
            [str(host), str(library)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        self._reader = threading.Thread(
            target=self._pump_stdout, name="accmos-server-reader", daemon=True
        )
        self._reader.start()
        self._err_reader = threading.Thread(
            target=self._pump_stderr, name="accmos-server-stderr", daemon=True
        )
        self._err_reader.start()
        # Any handshake failure — timeout, stdout EOF from a host that
        # died at load, or a mismatched library — must reap the process
        # and close all three pipes, or a flood of failed spawns leaks
        # file descriptors.
        try:
            abi, size = _WORDS2.unpack(
                self._next_frame(handshake_timeout, context="handshake")
            )
            check_handshake(abi, size, self.result_size)
        except BaseException:
            self.kill()
            raise

    # -- background pumps ------------------------------------------------
    def _pump_stdout(self) -> None:
        read = self._proc.stdout.read
        size = _WORDS2.size  # the handshake, then whole frames
        try:
            while True:
                chunk = read(size)
                if len(chunk) < size:
                    break  # EOF; a partial frame is a truncated one
                self._frames.put(chunk)
                size = _WORDS2.size + self.result_size
        except (OSError, ValueError):  # pipe closed under us during shutdown
            pass
        self._frames.put(None)

    def _pump_stderr(self) -> None:
        try:
            for line in self._proc.stderr:
                self._stderr_tail.append(
                    line.decode(errors="replace").rstrip("\n")
                )
                del self._stderr_tail[:-20]
        except (OSError, ValueError):
            pass

    # -- liveness --------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self._closed and self._proc.poll() is None

    @property
    def pid(self) -> int:
        return self._proc.pid

    def _death_detail(self) -> str:
        rc = self._proc.poll()
        detail = f" (exit {rc})" if rc is not None else ""
        if self._stderr_tail:
            tail = " | ".join(self._stderr_tail)[:500]
            detail += f"; stderr: {tail}"
        return detail

    def _next_frame(self, timeout: Optional[float], *, context: str) -> bytes:
        try:
            frame = self._frames.get(timeout=timeout)
        except queue.Empty:
            telemetry.counter_inc("engine.accmos.timeouts")
            raise ServerError(
                f"host produced no output within its {timeout:g}s "
                f"wall-clock deadline during {context}{self._death_detail()}"
            ) from None
        if frame is None:
            # The host is gone: let it finish dying and its stderr drain
            # so the error says why.
            try:
                self._proc.wait(timeout=1.0)
            except subprocess.TimeoutExpired:
                pass
            self._err_reader.join(timeout=1.0)
            raise ServerError(
                f"host stdout closed during {context}{self._death_detail()}"
            )
        return frame

    # -- protocol --------------------------------------------------------
    def submit(self, record: bytes) -> int:
        """Write one packed case record; returns the case's index."""
        if self._closed:
            raise ServerError("submit on a closed server")
        try:
            self._proc.stdin.write(_LENGTH.pack(len(record)) + record)
            self._proc.stdin.flush()
        except OSError as exc:
            raise ServerError(
                f"host rejected case submission: {exc}{self._death_detail()}"
            ) from exc
        index = self.submitted
        self.submitted += 1
        return index

    def read_frame(self, timeout: Optional[float] = None) -> memoryview:
        """The result buffer of the next completed case, in submit order.

        Blocks until the whole frame has arrived, at most ``timeout``
        seconds.  Raises :class:`ServerError` when the frame's case index
        is not the next one expected (a desync) or the library rejected
        the record.
        """
        context = f"case {self.completed}"
        frame = self._next_frame(timeout, context=context)
        index, rc = _WORDS2.unpack_from(frame)
        if index != self.completed:
            raise ServerError(
                f"host frame desync: expected case {self.completed}, "
                f"got case {index}"
            )
        if rc != 0:
            raise ServerError(f"acc_lib_run_case returned {rc} for {context}")
        self.completed += 1
        telemetry.observe("engine.accmos.stdout_bytes", len(frame))
        return memoryview(frame)[_WORDS2.size :]

    # -- shutdown --------------------------------------------------------
    def close(self, timeout: float = 2.0) -> None:
        """Graceful shutdown: close stdin (clean EOF), then reap."""
        if self._closed:
            return
        self._closed = True
        try:
            self._proc.stdin.close()
        except OSError:
            pass
        try:
            self._proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self._proc.kill()
            try:
                self._proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                pass
        self._cleanup_pipes()

    def kill(self) -> None:
        """Hard stop — used on crash, desync, or deadline overrun."""
        if self._closed:
            return
        self._closed = True
        self._proc.kill()
        try:
            self._proc.wait(timeout=2.0)
        except subprocess.TimeoutExpired:
            pass
        self._cleanup_pipes()

    def _cleanup_pipes(self) -> None:
        for pipe in (self._proc.stdin, self._proc.stdout, self._proc.stderr):
            if pipe is not None:
                try:
                    pipe.close()
                except OSError:
                    pass
