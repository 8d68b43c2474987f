"""gcc compilation, execution, and result parsing.

Compile flags matter for the bit-for-bit equivalence contract:

* ``-O3`` — the paper's optimization level;
* ``-ffp-contract=off`` — forbid fused multiply-add contraction, which
  would change float results relative to the Python reference;
* strict IEEE (gcc's default; never ``-ffast-math``).
"""

from __future__ import annotations

import queue
import shutil
import subprocess
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from shutil import which
from typing import TYPE_CHECKING, Iterable, Optional, Union

from repro import telemetry
from repro.coverage.bitmap import Bitmap
from repro.coverage.metrics import Metric
from repro.coverage.report import CoverageReport
from repro.diagnosis.events import DiagnosticLog
from repro.dtypes import DType
from repro.engines.base import SimulationOptions, SimulationResult
from repro.instrument.plan import InstrumentationPlan
from repro.model.errors import CompilationError, SimulationError, SimulationTimeout
from repro.codegen.compose import ProgramLayout
from repro.schedule.program import FlatProgram

if TYPE_CHECKING:  # avoids importing the runner package at module load
    from repro.runner.cache import ArtifactCache

CFLAGS = ["-O3", "-ffp-contract=off", "-std=c11"]
SHARED_FLAGS = ["-shared", "-fPIC"]

_ARTIFACT_NAMES = {"binary": "simulation", "shared": "simulation.so"}

_shared_support: Optional[bool] = None
_shared_support_lock = threading.Lock()


def find_c_compiler() -> Optional[str]:
    """The first available C compiler, or None."""
    for candidate in ("gcc", "cc", "clang"):
        path = which(candidate)
        if path:
            return path
    return None


def supports_shared_objects() -> Optional[bool]:
    """Whether the toolchain can build loadable shared objects.

    Probes once per process by compiling a trivial ``.so``; the
    in-process engine and the fuzz oracle gate the ``accmos_inproc``
    rung on this.  ``None`` when there is no compiler at all.
    """
    global _shared_support
    compiler = find_c_compiler()
    if compiler is None:
        return None
    with _shared_support_lock:
        if _shared_support is not None:
            return _shared_support
        with tempfile.TemporaryDirectory(prefix="accmos_probe_") as tmp:
            c_path = Path(tmp) / "probe.c"
            so_path = Path(tmp) / "probe.so"
            c_path.write_text("int acc_probe(void) { return 1; }\n")
            try:
                proc = subprocess.run(
                    [compiler, *SHARED_FLAGS, "-o", str(so_path), str(c_path)],
                    capture_output=True,
                    text=True,
                    check=False,
                )
                ok = proc.returncode == 0 and so_path.is_file()
                if ok:
                    import ctypes

                    ctypes.CDLL(str(so_path))
            except (OSError, subprocess.SubprocessError):
                ok = False
        _shared_support = bool(ok)
        return _shared_support


@dataclass
class CompiledSimulation:
    """A compiled simulation program plus everything to interpret its run.

    One generated source yields up to two artifacts under the *same*
    cache key: the ``simulation`` executable (batch/serve rungs) and the
    ``simulation.so`` shared library (the in-process rung).  Whichever
    the caller didn't ask :func:`compile_c_program` for is compiled
    lazily on first use via :meth:`ensure_binary`/:meth:`ensure_shared`
    — each at most one extra compiler invocation per entry, cached
    alongside its sibling.
    """

    binary: Optional[Path]
    source: Path
    layout: ProgramLayout
    compile_seconds: float
    workdir: Optional[tempfile.TemporaryDirectory] = field(
        default=None, repr=False, compare=False
    )
    cache_hit: bool = False
    shared: Optional[Path] = None
    compiler: Optional[str] = field(default=None, repr=False, compare=False)
    cache: "Optional[ArtifactCache]" = field(
        default=None, repr=False, compare=False
    )
    cache_key: Optional[str] = field(default=None, repr=False, compare=False)
    _artifact_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    def ensure_binary(self) -> Path:
        """The executable path, compiling it now if this handle only
        carried the shared library so far."""
        if self.binary is not None:
            return self.binary
        with self._artifact_lock:
            if self.binary is None:
                self.binary = self._materialize("binary")
            return self.binary

    def ensure_shared(self) -> Path:
        """The shared-library path, compiling it now if this handle only
        carried the executable so far."""
        if self.shared is not None:
            return self.shared
        with self._artifact_lock:
            if self.shared is None:
                self.shared = self._materialize("shared")
            return self.shared

    def _materialize(self, artifact: str) -> Path:
        name = _ARTIFACT_NAMES[artifact]
        if self.cache is not None and self.cache_key is not None:
            entry = self.cache.lookup(self.cache_key, names=(name,))
            if entry is not None:
                return entry.binary if artifact == "binary" else entry.shared
        compiler = self.compiler or find_c_compiler()
        if compiler is None:
            raise CompilationError("no C compiler found (need gcc, cc, or clang)")
        out_path = self.source.parent / name
        if self.cache is not None and self.cache_key is not None:
            # Never write next to a cache entry directly: stage + merge.
            with tempfile.TemporaryDirectory(prefix="accmos_") as tmp:
                tmp_out = Path(tmp) / name
                _run_compiler(compiler, self.source, tmp_out, artifact)
                tmp_src = Path(tmp) / "simulation.c"
                shutil.copyfile(self.source, tmp_src)
                entry = self.cache.store(
                    self.cache_key,
                    tmp_src,
                    tmp_out if artifact == "binary" else None,
                    shared_path=tmp_out if artifact == "shared" else None,
                )
            return entry.binary if artifact == "binary" else entry.shared
        _run_compiler(compiler, self.source, out_path, artifact)
        return out_path

    def execute(
        self,
        *,
        input_text: Optional[str] = None,
        timeout_seconds: Optional[float] = None,
    ) -> str:
        """Run the binary; ``timeout_seconds`` kills it when exceeded.

        ``input_text`` is piped to the binary's stdin, where the program
        reads its case descriptors; without it stdin is /dev/null and
        the program runs no case.
        """
        proc = subprocess.Popen(
            [str(self.ensure_binary())],
            stdin=subprocess.PIPE if input_text is not None else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        try:
            stdout, stderr = proc.communicate(
                input=input_text, timeout=timeout_seconds
            )
        except subprocess.TimeoutExpired:
            proc.kill()
            # Even after the kill the drain can hang on a wedged pipe
            # (e.g. a stopped child still holding the write end), so it
            # gets its own short budget and the pipes are closed
            # explicitly either way.
            stderr = ""
            try:
                _, stderr = proc.communicate(timeout=2.0)
            except subprocess.TimeoutExpired as drain:
                # An orphaned grandchild can hold the pipe open past the
                # kill; whatever was drained before the budget ran out
                # rides on the exception (as bytes).
                raw = drain.stderr
                if isinstance(raw, bytes):
                    raw = raw.decode(errors="replace")
                stderr = raw or ""
            finally:
                for pipe in (proc.stdin, proc.stdout, proc.stderr):
                    if pipe is not None:
                        try:
                            pipe.close()
                        except OSError:
                            pass
            telemetry.counter_inc("engine.accmos.timeouts")
            detail = ""
            if stderr and stderr.strip():
                detail = f"; stderr: {stderr.strip()[:500]}"
            raise SimulationTimeout(
                f"simulation binary {self.binary} exceeded its "
                f"{timeout_seconds:g}s wall-clock budget and was killed"
                f"{detail}"
            ) from None
        telemetry.observe("engine.accmos.stdout_bytes", len(stdout))
        if proc.returncode != 0:
            raise SimulationError(
                f"simulation binary failed (exit {proc.returncode}): "
                f"{stderr[:2000]}"
            )
        return stdout


def _run_compiler(
    compiler: str, c_path: Path, out_path: Path, artifact: str
) -> float:
    """One compiler invocation producing ``artifact`` from ``c_path``;
    returns the wall seconds spent."""
    flags = [*CFLAGS, *SHARED_FLAGS] if artifact == "shared" else CFLAGS
    start = time.perf_counter()
    with telemetry.span("gcc", compiler=compiler, artifact=artifact):
        proc = subprocess.run(
            [compiler, *flags, "-o", str(out_path), str(c_path), "-lm"],
            capture_output=True,
            text=True,
            check=False,
        )
    elapsed = time.perf_counter() - start
    telemetry.observe("compile.gcc_seconds", elapsed)
    if proc.returncode != 0:
        telemetry.counter_inc("compile.failures")
        raise CompilationError(f"{compiler} failed:\n{proc.stderr[:4000]}")
    return elapsed


def compile_c_program(
    source: str,
    layout: ProgramLayout,
    *,
    workdir: Optional[Path] = None,
    compiler: Optional[str] = None,
    cache: "Optional[ArtifactCache]" = None,
    artifact: str = "binary",
) -> CompiledSimulation:
    """Write and compile a generated program; returns the compiled handle.

    ``artifact`` selects which form to build *now*: ``"binary"`` (the
    executable — batch/serve rungs) or ``"shared"`` (the ``.so`` the
    in-process rung loads).  Both forms of a reusable program share one
    cache key; the form not built here is compiled lazily on first use
    (see :class:`CompiledSimulation`), so e.g. an all-inproc campaign
    performs exactly one compiler invocation.

    With ``cache`` set (and no explicit ``workdir``), the compile is
    served from the content-addressed artifact cache when the same
    (source, compiler, flags) triple was compiled before — zero compiler
    invocations on a hit; on a miss the artifacts are moved into the
    cache atomically so later calls (from any process) hit.
    """
    if artifact not in _ARTIFACT_NAMES:
        raise ValueError(f"unknown artifact {artifact!r}")
    compiler = compiler or find_c_compiler()
    if compiler is None:
        raise CompilationError("no C compiler found (need gcc, cc, or clang)")

    with telemetry.span("compile") as compile_span:
        use_cache = cache is not None and workdir is None
        key = None
        if use_cache:
            start = time.perf_counter()
            key = cache.key(source, compiler, CFLAGS)
            entry = cache.lookup(key, names=(_ARTIFACT_NAMES[artifact],))
            if entry is not None:
                telemetry.counter_inc("cache.hits")
                compile_span.set(cache_hit=True)
                return CompiledSimulation(
                    binary=entry.binary,
                    shared=entry.shared,
                    source=entry.source,
                    layout=layout,
                    compile_seconds=time.perf_counter() - start,
                    cache_hit=True,
                    compiler=compiler,
                    cache=cache,
                    cache_key=key,
                )
            telemetry.counter_inc("cache.misses")
        compile_span.set(cache_hit=False)

        tmp = None
        if workdir is None:
            tmp = tempfile.TemporaryDirectory(prefix="accmos_")
            workdir = Path(tmp.name)
        workdir.mkdir(parents=True, exist_ok=True)
        c_path = workdir / "simulation.c"
        out_path = workdir / _ARTIFACT_NAMES[artifact]
        c_path.write_text(source)

        elapsed = _run_compiler(compiler, c_path, out_path, artifact)
        if use_cache:
            entry = cache.store(
                key,
                c_path,
                out_path if artifact == "binary" else None,
                shared_path=out_path if artifact == "shared" else None,
            )
            if tmp is not None:
                tmp.cleanup()
            return CompiledSimulation(
                binary=entry.binary,
                shared=entry.shared,
                source=entry.source,
                layout=layout,
                compile_seconds=elapsed,
                compiler=compiler,
                cache=cache,
                cache_key=key,
            )
        return CompiledSimulation(
            binary=out_path if artifact == "binary" else None,
            shared=out_path if artifact == "shared" else None,
            source=c_path,
            layout=layout,
            compile_seconds=elapsed,
            workdir=tmp,
            compiler=compiler,
        )


# ----------------------------------------------------------------------
# result parsing
# ----------------------------------------------------------------------
def _parse_value(text: str, dtype: DType):
    if dtype.is_float:
        return float.fromhex(text)
    return int(text)


@dataclass
class ParseTables:
    """Per-layout lookup tables the protocol parser needs on every line.

    Building them costs a few dict constructions per call; batch and
    server-mode parsing reuse one instance across all case frames
    instead of rebuilding per frame.
    """

    out_dtypes: dict
    mon_by_id: dict
    metric_by_name: dict

    @classmethod
    def for_layout(cls, layout: ProgramLayout) -> "ParseTables":
        return cls(
            out_dtypes=dict(layout.outports),
            mon_by_id={mon.mid: mon for mon in layout.monitors},
            metric_by_name={m.value: m for m in Metric},
        )


def parse_result(
    stdout: Union[str, Iterable[str]],
    prog: FlatProgram,
    plan: InstrumentationPlan,
    layout: ProgramLayout,
    options: SimulationOptions,
    *,
    engine: str = "accmos",
    tables: Optional[ParseTables] = None,
) -> SimulationResult:
    """Turn the protocol text into the shared result schema.

    ``stdout`` is the raw text or any iterable of protocol lines (batch
    frames and server-mode streams hand lines over directly — no
    join/re-split copy).  ``tables`` lets multi-frame callers hoist the
    per-layout lookup tables out of their per-case loop.
    """
    steps_run = 0
    halt_step = -1
    sim_seconds = 0.0
    deadline_exceeded = False
    outputs: dict[str, object] = {}
    checksums: dict[str, int] = {}
    bitmaps: dict[Metric, Bitmap] = {}
    monitored: dict[str, list] = {
        mon.path: [] for mon in layout.monitors
    }
    log = DiagnosticLog()
    for event in plan.static_warnings:
        log.add_static(event.path, event.kind, event.message)

    if tables is None:
        tables = ParseTables.for_layout(layout)
    out_dtypes = tables.out_dtypes
    mon_by_id = tables.mon_by_id
    metric_by_name = tables.metric_by_name

    lines = stdout.splitlines() if isinstance(stdout, str) else stdout
    for line in lines:
        parts = line.split()
        if not parts:
            continue
        tag = parts[0]
        if tag == "steps_run":
            steps_run = int(parts[1])
        elif tag == "halt":
            halt_step = int(parts[1])
        elif tag == "sim_seconds":
            sim_seconds = float(parts[1])
        elif tag == "checksum":
            checksums[parts[1]] = int(parts[2])
        elif tag == "output":
            outputs[parts[1]] = _parse_value(parts[2], out_dtypes[parts[1]])
        elif tag == "cov":
            metric = metric_by_name[parts[1]]
            n = int(parts[2]) if len(parts) > 2 else 0
            bitmaps[metric] = Bitmap.from_words(
                n, (int(word, 16) for word in parts[3:])
            )
        elif tag == "diag":
            slot, first, count = int(parts[1]), int(parts[2]), int(parts[3])
            path, kind, message = layout.diag_slots[slot]
            log.set_aggregate(path, kind, first, count, message)
        elif tag == "mon":
            mon = mon_by_id[int(parts[1])]
            step, raw = int(parts[2]), parts[3]
            monitored[mon.path].append((step, _parse_value(raw, mon.dtype)))
        elif tag == "timeout":
            # Batched programs flag an in-binary per-case deadline this
            # way instead of dying; the caller turns it into a timeout.
            deadline_exceeded = len(parts) > 1 and parts[1] != "0"
        else:
            raise SimulationError(f"unrecognized result line: {line!r}")

    coverage = None
    if plan.coverage_enabled:
        expected = {
            Metric.ACTOR: plan.points.n_actor,
            Metric.CONDITION: plan.points.n_condition,
            Metric.DECISION: plan.points.n_decision,
            Metric.MCDC: plan.points.n_mcdc,
        }
        for metric, size in expected.items():
            if metric not in bitmaps:
                bitmaps[metric] = Bitmap(size)
            elif len(bitmaps[metric]) != size:
                raise SimulationError(
                    f"coverage table size mismatch for {metric}: "
                    f"got {len(bitmaps[metric])}, expected {size}"
                )
        coverage = CoverageReport.from_bitmaps(plan.points, bitmaps)

    result = SimulationResult(
        engine=engine,
        model_name=prog.model.name,
        steps_requested=options.steps,
        steps_run=steps_run,
        wall_time=sim_seconds,
        outputs=outputs,
        checksums=checksums,
        coverage=coverage,
        diagnostics=log.events(),
        halted_at=None if halt_step < 0 else halt_step,
        monitored=monitored,
    )
    if deadline_exceeded:
        result.extra["deadline_exceeded"] = True
    return result


# ----------------------------------------------------------------------
# batch framing
# ----------------------------------------------------------------------
def split_case_frames(stdout: str) -> "list[list[str]]":
    """Split a batched run's stdout into per-case protocol sections.

    The reusable program prints ``case <i>`` before each case's records;
    everything before the first marker (there is nothing, normally) is
    discarded.  Each frame is the case's list of protocol lines, handed
    to :func:`parse_result` as-is — no string re-join/re-split copy.
    """
    frames: list[list[str]] = []
    current: Optional[list[str]] = None
    for line in stdout.splitlines():
        if line.startswith("case ") or line == "case":
            current = []
            frames.append(current)
        elif current is not None:
            current.append(line)
    return frames


def parse_batch_result(
    stdout: str,
    prog: FlatProgram,
    plan: InstrumentationPlan,
    layout: ProgramLayout,
    options_per_case: "list[SimulationOptions]",
    *,
    engine: str = "accmos",
) -> list[SimulationResult]:
    """Parse a batched run: one :class:`SimulationResult` per case frame.

    Raises :class:`SimulationError` when the binary produced a different
    number of frames than cases were submitted (it died mid-batch with a
    zero exit, which a healthy program cannot do).  Per-case deadline
    trips are reported via ``result.extra["deadline_exceeded"]``.
    """
    frames = split_case_frames(stdout)
    if len(frames) != len(options_per_case):
        raise SimulationError(
            f"batched simulation produced {len(frames)} result frame(s) "
            f"for {len(options_per_case)} submitted case(s)"
        )
    tables = ParseTables.for_layout(layout)
    return [
        parse_result(
            frame, prog, plan, layout, options, engine=engine, tables=tables
        )
        for frame, options in zip(frames, options_per_case)
    ]


# ----------------------------------------------------------------------
# server mode
# ----------------------------------------------------------------------
class ServerError(SimulationError):
    """A persistent ``--serve`` process crashed, desynced, or went quiet.

    Unlike a plain :class:`SimulationError` this is recoverable by
    design: the caller kills the handle, restarts or falls back to the
    spawn-per-batch path, and resubmits from the last completed case.
    """


class SimulationServer:
    """Handle on one warm ``--serve`` process of a compiled binary.

    The process is spawned once, prints a ``ready`` handshake, and then
    serves an unbounded stream of case records: :meth:`submit` writes
    one encoded descriptor record to its stdin, :meth:`read_frame`
    returns that case's protocol lines as soon as its ``done`` trailer
    arrives.  stdout is pumped by a background reader thread that
    assembles whole frames (``case`` header through ``done`` trailer)
    before enqueueing them — one queue hand-off per case, not per line,
    which keeps the warm-server path faster than respawning — so
    parsing overlaps the C execution of later cases and every read
    carries a wall-clock deadline: a wedged or dead server raises
    :class:`ServerError` instead of blocking forever.

    Frame indices are validated against the server's monotonic case
    counter; any mismatch (a desync — lines lost or a foreign process on
    the pipe) also raises :class:`ServerError`.
    """

    def __init__(
        self,
        compiled: CompiledSimulation,
        *,
        handshake_timeout: float = 10.0,
    ) -> None:
        self.compiled = compiled
        self.submitted = 0
        self.completed = 0
        self._closed = False
        # Events from the reader thread, one per *frame* (not per line):
        #   ("line", text)                    — a line outside any frame
        #   ("frame", header, body, trailer)  — one complete case frame
        #   None                              — stdout EOF
        self._events: "queue.Queue[Optional[tuple]]" = queue.Queue()
        self._stderr_tail: list[str] = []
        # An inproc-first handle may not have built the executable yet.
        binary = compiled.binary
        if binary is None:
            binary = compiled.ensure_binary()
        self._proc = subprocess.Popen(
            [str(binary), "--serve"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        self._reader = threading.Thread(
            target=self._pump_stdout, name="accmos-server-reader", daemon=True
        )
        self._reader.start()
        self._err_reader = threading.Thread(
            target=self._pump_stderr, name="accmos-server-stderr", daemon=True
        )
        self._err_reader.start()
        # Any handshake failure — timeout, stdout EOF from a child that
        # died mid-spawn, or a wrong first line — must reap the process
        # and close all three pipes, or a flood of failed spawns leaks
        # file descriptors.
        try:
            kind, payload = self._next_event(
                handshake_timeout, context="handshake"
            )
            if kind != "line" or payload.strip() != "ready":
                raise ServerError(
                    f"server handshake expected 'ready', got {payload!r}"
                )
        except BaseException:
            self.kill()
            raise

    # -- background pumps ------------------------------------------------
    def _pump_stdout(self) -> None:
        # Assemble whole frames here so the consumer pays one queue
        # round-trip per case.  No index validation in this thread —
        # read_frame checks header/trailer against ``completed`` so a
        # desync surfaces on the caller's side as ServerError.
        header: Optional[str] = None
        body: list[str] = []
        try:
            for raw in self._proc.stdout:
                line = raw.rstrip("\n")
                if header is None:
                    if line.startswith("case "):
                        header = line
                        body = []
                    else:
                        self._events.put(("line", line))
                elif line.startswith("done "):
                    self._events.put(("frame", header, body, line))
                    header = None
                elif line.startswith("case "):
                    # New header with no trailer: flush the truncated
                    # frame (trailer None → desync at read time).
                    self._events.put(("frame", header, body, None))
                    header = line
                    body = []
                else:
                    body.append(line)
        except ValueError:  # pipe closed under us during shutdown
            pass
        if header is not None:
            self._events.put(("frame", header, body, None))
        self._events.put(None)

    def _pump_stderr(self) -> None:
        try:
            for line in self._proc.stderr:
                self._stderr_tail.append(line.rstrip("\n"))
                del self._stderr_tail[:-20]
        except ValueError:
            pass

    # -- liveness --------------------------------------------------------
    @property
    def alive(self) -> bool:
        return not self._closed and self._proc.poll() is None

    @property
    def pid(self) -> int:
        return self._proc.pid

    @property
    def pending(self) -> int:
        """Cases submitted whose result frames have not been read yet."""
        return self.submitted - self.completed

    def _death_detail(self) -> str:
        rc = self._proc.poll()
        detail = f" (exit {rc})" if rc is not None else ""
        if self._stderr_tail:
            tail = " | ".join(self._stderr_tail)[:500]
            detail += f"; stderr: {tail}"
        return detail

    def _next_event(self, timeout: Optional[float], *, context: str) -> tuple:
        try:
            event = self._events.get(timeout=timeout)
        except queue.Empty:
            raise ServerError(
                f"server produced no output within {timeout:g}s "
                f"during {context}{self._death_detail()}"
            ) from None
        if event is None:
            raise ServerError(
                f"server stdout closed during {context}{self._death_detail()}"
            )
        return event

    # -- protocol --------------------------------------------------------
    def submit(self, record: str) -> int:
        """Write one encoded case record; returns the case's index."""
        if self._closed:
            raise ServerError("submit on a closed server")
        try:
            self._proc.stdin.write(record)
            self._proc.stdin.flush()
        except (BrokenPipeError, OSError) as exc:
            raise ServerError(
                f"server rejected case submission: {exc}{self._death_detail()}"
            ) from exc
        index = self.submitted
        self.submitted += 1
        return index

    def read_frame(self, timeout: Optional[float] = None) -> "list[str]":
        """Protocol lines of the next completed case, in submit order.

        Blocks until the case's ``done`` trailer arrives (so the frame
        is complete and flushed), at most ``timeout`` seconds.  Header
        and trailer indices are checked against the number of frames
        already read; a mismatch means the stream desynced.
        """
        context = f"case {self.completed}"
        event = self._next_event(timeout, context=context)
        if event[0] != "frame":
            raise ServerError(
                f"server frame desync: expected 'case {self.completed}', "
                f"got {event[1]!r}"
            )
        _, header, body, trailer = event
        parts = header.split()
        if len(parts) != 2 or parts[1] != str(self.completed):
            raise ServerError(
                f"server frame desync: expected 'case {self.completed}', "
                f"got {header!r}"
            )
        if trailer is None:
            raise ServerError(
                f"server frame desync: {context} frame truncated "
                f"(no 'done' trailer){self._death_detail()}"
            )
        parts = trailer.split()
        if len(parts) != 2 or parts[1] != str(self.completed):
            raise ServerError(
                f"server frame desync: expected 'done {self.completed}', "
                f"got {trailer!r}"
            )
        self.completed += 1
        return body

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
