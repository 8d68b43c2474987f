"""The AccMoS engine: instrumented C code generation + gcc + execution.

This is the paper's system end to end: plan instrumentation (Algorithm 1),
synthesize the simulation code from the actor template library, import the
test cases, compile with ``-O3``, execute, and parse coverage/diagnosis/
monitor results back into the shared schema.

Two execution shapes share that pipeline:

* **compile-once / run-many** (the default): the generated program is
  stimulus-agnostic — it reads stimulus descriptors, step counts, and
  per-case deadlines from stdin — so one binary per
  ``(FlatProgram, InstrumentationPlan)`` serves every test case, and the
  artifact cache turns a whole seed campaign into a single gcc
  invocation.  :func:`compile_model` returns a :class:`CompiledModel`
  whose :meth:`~CompiledModel.run`/:meth:`~CompiledModel.run_batch`
  reuse the binary; ``run_batch`` executes M cases in one process with
  framed output and full per-case state/coverage/diagnostic reset.
* **legacy baked-in**: stimuli and step count compiled in as constants.
  Kept as the fallback for custom :class:`Stimulus` subclasses without a
  ``runtime_descriptor()``.

Both shapes are bit-for-bit equivalent to each other and to the SSE
reference — the repository's core invariant.

``wall_time`` is the binary's own measurement of its simulation loop —
the quantity the paper's Table 2 reports.  Code generation and compilation
times are in ``result.extra`` (``generate_seconds``, ``compile_seconds``).
"""

from __future__ import annotations

import threading
import time
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence, Union

from repro import telemetry
from repro.codegen.compose import (
    ProgramLayout,
    generate_c_program,
    generate_reusable_c_program,
)
from repro.codegen.descriptor import descriptors_for, encode_case
from repro.codegen.driver import (
    CompiledSimulation,
    ParseTables,
    ServerError,
    SimulationServer,
    compile_c_program,
    parse_batch_result,
    parse_result,
)
from repro.engines.base import SimulationOptions, SimulationResult
from repro.inproc.abi import ResultDecoder, encode_case_binary
from repro.inproc.library import LibraryFault, LoadedModel
from repro.inproc.parallel import InstancePool, default_instance_pool
from repro.instrument import build_plan
from repro.instrument.plan import InstrumentationPlan
from repro.model.errors import (
    CompilationError,
    SimulationError,
    SimulationTimeout,
)
from repro.schedule.program import FlatProgram
from repro.stimuli.base import Stimulus

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache

# One batch case: a stimuli mapping, or (stimuli, options) to override
# the per-case runtime options (steps / time_budget).
BatchCase = Union[
    Mapping[str, Stimulus],
    "tuple[Mapping[str, Stimulus], Optional[SimulationOptions]]",
]


@dataclass
class AccMoSArtifacts:
    """Everything produced on the way to a result, for inspection."""

    source: str
    source_path: Optional[Path]
    binary_path: Optional[Path]
    generate_seconds: float
    compile_seconds: float


def _resolve_cache(cache):
    if cache is None:
        from repro.runner.cache import default_cache

        return default_cache()
    if cache is False:
        return None
    return cache


def _structural_fingerprint(options: SimulationOptions) -> tuple:
    """The option fields that shape the generated source (and therefore
    the compiled binary).  ``steps`` and ``time_budget`` are runtime
    inputs of the reusable program and deliberately excluded.  Custom
    diagnoses enter by the fields the C side sees (their Python
    predicates only serve the interpreted engines), which keeps the
    fingerprint hashable."""
    collect = options.collect
    diagnose = options.diagnose
    return (
        options.coverage,
        options.diagnostics,
        collect if isinstance(collect, str) else tuple(collect),
        diagnose if isinstance(diagnose, str) else tuple(diagnose),
        tuple(
            (diag.actor_path, diag.message, diag.c_predicate)
            for diag in options.custom
        ),
        options.halt_on,
        options.monitor_limit,
        options.checksum,
    )


@dataclass
class CompiledModel:
    """A reusable compiled simulation: one binary, any number of cases.

    Produced by :func:`compile_model`.  The binary is specialized on the
    program and the structural options only; stimuli, step counts, and
    per-case deadlines are streamed to it at run time.
    """

    prog: FlatProgram
    plan: InstrumentationPlan
    layout: ProgramLayout
    options: SimulationOptions
    compiled: CompiledSimulation
    source: str
    generate_seconds: float
    source_lines: int
    decoder: ResultDecoder = field(repr=False, compare=False)
    _fingerprint: tuple = field(repr=False)
    _inproc_disabled: bool = field(default=False, repr=False, compare=False)
    _inproc_lock: threading.Lock = field(
        default_factory=threading.Lock, repr=False, compare=False
    )

    @property
    def cache_hit(self) -> bool:
        return self.compiled.cache_hit

    @property
    def compile_seconds(self) -> float:
        return self.compiled.compile_seconds

    # ------------------------------------------------------------------
    def run(
        self,
        stimuli: Mapping[str, Stimulus],
        options: Optional[SimulationOptions] = None,
        *,
        timeout_seconds: Optional[float] = None,
    ) -> SimulationResult:
        """Run one case on the reused binary; raises
        :class:`SimulationTimeout` when ``timeout_seconds`` is exceeded."""
        (outcome,) = self._dispatch(
            [(stimuli, options)], timeout_seconds=timeout_seconds
        )
        if isinstance(outcome, SimulationTimeout):
            raise outcome
        return outcome

    def run_batch(
        self,
        cases: Sequence[BatchCase],
        *,
        timeout_seconds: Optional[float] = None,
    ) -> list[Union[SimulationResult, SimulationTimeout]]:
        """Run M cases back-to-back in one process invocation.

        Returns one entry per case, in order: a result, or a
        :class:`SimulationTimeout` instance for cases that blew the
        per-case deadline (the batch continues with the next case —
        state is fully reset in between either way).
        """
        with telemetry.span(
            "accmos.batch", model=self.prog.model.name, cases=len(cases)
        ) as batch_span:
            outcomes = self._dispatch(
                list(cases), timeout_seconds=timeout_seconds
            )
            batch_span.set(
                timeouts=sum(
                    1 for o in outcomes if isinstance(o, SimulationTimeout)
                )
            )
        telemetry.counter_inc("engine.accmos.batches")
        telemetry.counter_inc("engine.accmos.batch_cases", len(cases))
        return outcomes

    # ------------------------------------------------------------------
    def serve(self, *, handshake_timeout: float = 10.0) -> "ModelServer":
        """Spawn a warm ``--serve`` process bound to this binary.

        The returned :class:`ModelServer` accepts an unbounded stream of
        cases with zero respawns; hand it to :meth:`run_stream` (or keep
        it in a :class:`~repro.runner.servers.ServerPool`) to amortize
        process startup across batches and jobs.
        """
        return ModelServer(self, handshake_timeout=handshake_timeout)

    def run_stream(
        self,
        cases: Sequence[BatchCase],
        *,
        timeout_seconds: Optional[float] = None,
        server: "Optional[ModelServer]" = None,
        window: int = 4,
    ) -> Iterator[Union[SimulationResult, SimulationTimeout]]:
        """Stream M cases through a warm server, yielding results as
        each case's frame completes.

        Submission runs ``window`` cases ahead of parsing so the C
        process always has work queued while Python parses earlier
        frames — execution and parsing overlap instead of serializing.
        Outcomes arrive in submit order with :meth:`run_batch`'s
        contract (per-case :class:`SimulationTimeout` entries instead of
        raising).

        ``server`` reuses an existing warm :class:`ModelServer` (e.g.
        from a pool); without it a private server is spawned and closed
        around the stream.  On a crash, protocol desync, or per-case
        deadline overrun at the process level, the server is killed and
        restarted once and the unfinished cases are resubmitted; a
        second consecutive failure on the same case falls back to the
        spawn-per-batch :meth:`run_batch` path — results are therefore
        always produced, byte-identical to the non-server path.
        """
        cases = list(cases)
        if not cases:
            return
        normalized = [self._normalize(case) for case in cases]
        records = [
            encode_case(
                descriptors,
                steps=options.steps,
                time_budget=options.time_budget,
                deadline=timeout_seconds,
            )
            for options, descriptors in normalized
        ]
        tables = ParseTables.for_layout(self.layout)
        # The in-binary deadline does the real limiting (emitting
        # ``timeout 1`` in the frame); the read deadline is a backstop
        # against a wedged process.
        read_timeout = (
            None if timeout_seconds is None else timeout_seconds + 5.0
        )
        owned = server is None
        if owned:
            server = self.serve()
        n = len(cases)
        done = 0
        failures = 0
        try:
            with telemetry.span(
                "accmos.stream", model=self.prog.model.name, cases=n
            ):
                while done < n:
                    try:
                        sub = done
                        submit_times: dict[int, float] = {}
                        while sub < min(done + max(1, window), n):
                            server.server.submit(records[sub])
                            submit_times[sub] = time.perf_counter()
                            sub += 1
                        while done < n:
                            frame = server.server.read_frame(
                                timeout=read_timeout
                            )
                            latency = (
                                time.perf_counter() - submit_times[done]
                            )
                            telemetry.observe(
                                "runner.server.submit_to_result_seconds",
                                latency,
                            )
                            t0 = time.perf_counter()
                            result = parse_result(
                                frame,
                                self.prog,
                                self.plan,
                                self.layout,
                                normalized[done][0],
                                engine="accmos",
                                tables=tables,
                            )
                            parse_seconds = time.perf_counter() - t0
                            outcome = self._finalize(
                                result,
                                index=done,
                                batch_size=n,
                                timeout_seconds=timeout_seconds,
                                execute_seconds=latency,
                                parse_seconds=parse_seconds,
                            )
                            done += 1
                            failures = 0
                            if sub < n:
                                server.server.submit(records[sub])
                                submit_times[sub] = time.perf_counter()
                                sub += 1
                            yield outcome
                    except ServerError:
                        failures += 1
                        server.server.kill()
                        if failures < 2:
                            try:
                                server.restart()
                                continue  # resubmit from `done`
                            except Exception:
                                pass
                        # Two strikes on the same case (or the restart
                        # itself failed): fall back to spawn-per-batch
                        # for everything unfinished.
                        telemetry.counter_inc("runner.server_fallbacks")
                        for outcome in self._dispatch(
                            cases[done:], timeout_seconds=timeout_seconds
                        ):
                            yield outcome
                        return
        finally:
            if owned:
                server.close()

    # ------------------------------------------------------------------
    @property
    def inproc_available(self) -> bool:
        """False once a fault has quarantined the in-process rung."""
        return not self._inproc_disabled

    def load(self) -> LoadedModel:
        """A fresh private in-process instance of this model's library.

        Compiles the ``.so`` form lazily (same cache entry as the
        executable) and performs the ABI handshake.  Each instance has
        its own copy of the C globals and is single-threaded; callers
        wanting parallelism load one per thread.
        """
        shared = self.compiled.ensure_shared()
        return LoadedModel(shared, result_size=self.decoder.size)

    def _instance_key(self) -> str:
        """This model's key in the process-wide instance pool.

        Content-addressed: the ``.so`` path comes from the artifact
        cache, so distinct handles over the same structure share warm
        instances."""
        return InstancePool.instance_key(
            self.compiled.ensure_shared(), self.decoder.size
        )

    def _acquire_instance(self) -> "tuple[str, LoadedModel]":
        key = self._instance_key()
        return key, default_instance_pool().acquire(key, self.load)

    def _quarantine_inproc(self, reason: Exception) -> None:
        """Retire the in-process rung for this model: all subsequent
        ``run_inproc`` calls drop straight to the ``--serve`` rung.
        Idempotent and thread-safe — with N worker threads, the first
        fault wins and the rest observe the flag."""
        with self._inproc_lock:
            if self._inproc_disabled:
                return
            self._inproc_disabled = True
        telemetry.counter_inc("engine.inproc.fallbacks")

    def _run_case_inproc(
        self,
        lib: LoadedModel,
        record: bytes,
        options: SimulationOptions,
        *,
        index: int,
        batch_size: int,
        timeout_seconds: Optional[float],
    ) -> Union[SimulationResult, SimulationTimeout]:
        """One case on one instance: run, decode, finalize, count."""
        t0 = time.perf_counter()
        buf = lib.run_case(record)
        execute_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        result = self.decoder.decode(buf, self.prog, options, engine="accmos")
        parse_seconds = time.perf_counter() - t0
        outcome = self._finalize(
            result,
            index=index,
            batch_size=batch_size,
            timeout_seconds=timeout_seconds,
            execute_seconds=execute_seconds,
            parse_seconds=parse_seconds,
        )
        telemetry.counter_inc("engine.inproc.cases")
        return outcome

    def run_inproc(
        self,
        cases: Sequence[BatchCase],
        *,
        timeout_seconds: Optional[float] = None,
        library: Optional[LoadedModel] = None,
        threads: int = 1,
        shards: Optional[Sequence[Sequence[int]]] = None,
    ) -> list[Union[SimulationResult, SimulationTimeout]]:
        """Run M cases in-process: zero spawns, zero text, zero pipes.

        Same contract as :meth:`run_batch` — one outcome per case in
        order, per-case deadlines (enforced *inside* the library via the
        record's deadline field) surfacing as
        :class:`SimulationTimeout` entries.  Any library fault — load
        failure, ABI mismatch, non-zero run status — quarantines the
        in-process rung for this model and transparently finishes the
        affected cases on the crash-isolated ``--serve`` rung,
        preserving the stream→batch→baked fallback ladder below it.
        Results are byte-identical either way.

        ``threads=N`` partitions the cases across N worker threads, each
        holding a *private* pooled instance (private inode → private C
        globals); ``ctypes`` releases the GIL around ``acc_lib_run_case``
        so the C simulation loops genuinely run in parallel.  Outcomes
        are written into a preallocated slot per case index, so the
        merge is deterministic by construction — ``threads=N`` is
        bit-for-bit identical to ``threads=1``.  ``shards`` optionally
        supplies an explicit index partition (the runner's cost model
        packs by LPT); the default is a round-robin stride.

        ``library`` runs the batch sequentially on an explicit
        :class:`~repro.inproc.library.LoadedModel` instead of a pooled
        instance (tests use it to induce faults).
        """
        cases = list(cases)
        if not cases:
            return []
        normalized = [self._normalize(case) for case in cases]
        records = [
            encode_case_binary(
                descriptors,
                steps=options.steps,
                time_budget=options.time_budget,
                deadline=timeout_seconds,
            )
            for options, descriptors in normalized
        ]
        threads = max(1, int(threads))
        if library is None and (threads > 1 or shards is not None):
            outcomes = self._run_inproc_threaded(
                cases,
                normalized,
                records,
                threads=threads,
                shards=shards,
                timeout_seconds=timeout_seconds,
            )
            telemetry.counter_inc("engine.inproc.runs")
            return outcomes
        outcomes: list[Union[SimulationResult, SimulationTimeout]] = []
        with telemetry.span(
            "accmos.inproc", model=self.prog.model.name, cases=len(cases)
        ) as span:
            lib = library
            pool_key = None
            if lib is None and not self._inproc_disabled:
                try:
                    pool_key, lib = self._acquire_instance()
                except (CompilationError, LibraryFault, OSError) as exc:
                    self._quarantine_inproc(exc)
            try:
                for index in range(len(cases)):
                    if lib is not None:
                        try:
                            outcomes.append(
                                self._run_case_inproc(
                                    lib,
                                    records[index],
                                    normalized[index][0],
                                    index=index,
                                    batch_size=len(cases),
                                    timeout_seconds=timeout_seconds,
                                )
                            )
                            continue
                        except LibraryFault as exc:
                            self._quarantine_inproc(exc)
                            lib = None
                    # In-process rung unavailable: finish on the server
                    # rung.
                    span.set(fallback=True)
                    outcomes.extend(
                        self.run_stream(
                            cases[index:], timeout_seconds=timeout_seconds
                        )
                    )
                    break
            finally:
                if pool_key is not None and lib is not None:
                    default_instance_pool().release(pool_key, lib)
        telemetry.counter_inc("engine.inproc.runs")
        return outcomes

    def _run_inproc_threaded(
        self,
        cases: "list[BatchCase]",
        normalized: list,
        records: "list[bytes]",
        *,
        threads: int,
        shards: Optional[Sequence[Sequence[int]]],
        timeout_seconds: Optional[float],
    ) -> list[Union[SimulationResult, SimulationTimeout]]:
        """The thread-parallel body of :meth:`run_inproc`.

        Each worker owns one pooled instance and one shard of case
        indices, writing outcomes into its cases' preallocated slots.
        The first fault quarantines the model; every worker drains its
        remaining indices into ``pending``, and pending cases finish on
        the server rung *in index order* — the same ladder, the same
        bytes, as the sequential path.
        """
        n = len(cases)
        if shards is None:
            shards = [list(range(t, n, threads)) for t in range(threads)]
        shards = [list(shard) for shard in shards if len(shard)]
        flat = sorted(i for shard in shards for i in shard)
        if flat != list(range(n)):
            raise ValueError(
                "shards must partition the case indices exactly once"
            )
        outcomes: "list" = [None] * n
        pending: "list[int]" = []
        errors: "list[BaseException]" = []
        merge_lock = threading.Lock()
        shard_walls: "list[float]" = [0.0] * len(shards)

        def worker(slot: int, shard: "list[int]") -> None:
            t0 = time.perf_counter()
            lib = None
            pool_key = None
            try:
                for pos, index in enumerate(shard):
                    if lib is None:
                        if self._inproc_disabled:
                            with merge_lock:
                                pending.extend(shard[pos:])
                            return
                        try:
                            pool_key, lib = self._acquire_instance()
                        except (
                            CompilationError,
                            LibraryFault,
                            OSError,
                        ) as exc:
                            self._quarantine_inproc(exc)
                            with merge_lock:
                                pending.extend(shard[pos:])
                            return
                    try:
                        outcome = self._run_case_inproc(
                            lib,
                            records[index],
                            normalized[index][0],
                            index=index,
                            batch_size=n,
                            timeout_seconds=timeout_seconds,
                        )
                    except LibraryFault as exc:
                        # run_case retired the instance already; mirror
                        # the sequential semantics — one fault
                        # quarantines the whole model.
                        lib = None
                        self._quarantine_inproc(exc)
                        with merge_lock:
                            pending.extend(shard[pos:])
                        return
                    with merge_lock:
                        outcomes[index] = outcome
            except BaseException as exc:  # decode/finalize bugs: surface
                with merge_lock:
                    errors.append(exc)
            finally:
                if pool_key is not None and lib is not None:
                    default_instance_pool().release(pool_key, lib)
                shard_walls[slot] = time.perf_counter() - t0

        with telemetry.span(
            "accmos.inproc",
            model=self.prog.model.name,
            cases=n,
            threads=len(shards),
        ) as span:
            telemetry.gauge_set("engine.inproc.threads", len(shards))
            workers = [
                threading.Thread(
                    target=worker,
                    args=(slot, shard),
                    name=f"accmos-inproc-{slot}",
                    daemon=True,
                )
                for slot, shard in enumerate(shards)
            ]
            for thread in workers:
                thread.start()
            for thread in workers:
                thread.join()
            if errors:
                raise errors[0]
            makespan = max(shard_walls) if shard_walls else 0.0
            for wall in shard_walls:
                telemetry.observe(
                    "engine.inproc.shard_makespan_seconds", wall
                )
            if makespan > 0 and len(shard_walls) > 1:
                telemetry.gauge_set(
                    "engine.inproc.pack_efficiency",
                    sum(shard_walls) / (len(shard_walls) * makespan),
                )
            if pending:
                # Ladder fallback for faulted/drained cases, in index
                # order so the server stream sees a deterministic batch.
                span.set(fallback=True, pending=len(pending))
                pending.sort()
                fallback = self.run_stream(
                    [cases[i] for i in pending],
                    timeout_seconds=timeout_seconds,
                )
                for index, outcome in zip(pending, fallback):
                    outcomes[index] = outcome
        return outcomes

    def probe_coverage(
        self,
        cases: Sequence[BatchCase],
        *,
        timeout_seconds: Optional[float] = None,
    ) -> list[Optional[dict]]:
        """Coverage bitmaps only, as cheaply as this model can produce them.

        The guided-fuzz replay path: runs each case on the in-process
        library and slices just the coverage words out of the packed
        result buffer (:meth:`ResultDecoder.decode_coverage
        <repro.inproc.abi.ResultDecoder.decode_coverage>`),
        skipping output/diagnostic/monitor decoding entirely.  One entry
        per case, in order — a ``{Metric: Bitmap}`` dict, or ``None``
        for cases that timed out or when the model collects no
        coverage.  A library fault quarantines the in-process rung and
        the remaining cases finish on :meth:`run_batch` (full decode,
        same bitmaps).

        Instances come from the process-wide
        :func:`~repro.inproc.parallel.default_instance_pool`, keyed by
        the content-addressed artifact path — guided-fuzz replay, which
        compiles a fresh handle per seed, reuses one warm instance
        instead of paying a copy + ``dlopen`` + handshake per probe.
        """
        cases = list(cases)
        if not cases:
            return []
        normalized = [self._normalize(case) for case in cases]
        records = [
            encode_case_binary(
                descriptors,
                steps=options.steps,
                time_budget=options.time_budget,
                deadline=timeout_seconds,
            )
            for options, descriptors in normalized
        ]
        probes: list[Optional[dict]] = []
        with telemetry.span(
            "accmos.probe", model=self.prog.model.name, cases=len(cases)
        ) as span:
            lib = None
            pool_key = None
            if not self._inproc_disabled:
                try:
                    pool_key, lib = self._acquire_instance()
                except (CompilationError, LibraryFault, OSError) as exc:
                    self._quarantine_inproc(exc)
            try:
                for index in range(len(cases)):
                    if lib is not None:
                        try:
                            buf = lib.run_case(records[index])
                            probes.append(self.decoder.decode_coverage(buf))
                            telemetry.counter_inc("engine.inproc.probes")
                            continue
                        except LibraryFault as exc:
                            self._quarantine_inproc(exc)
                            lib = None
                    # Fallback: full batch run, keep only the bitmaps.
                    span.set(fallback=True)
                    for outcome in self.run_batch(
                        cases[index:], timeout_seconds=timeout_seconds
                    ):
                        if (
                            isinstance(outcome, SimulationTimeout)
                            or outcome.coverage is None
                        ):
                            probes.append(None)
                        else:
                            probes.append(dict(outcome.coverage.bitmaps))
                    break
            finally:
                if pool_key is not None and lib is not None:
                    default_instance_pool().release(pool_key, lib)
        return probes

    # ------------------------------------------------------------------
    def _normalize(self, case: BatchCase):
        if isinstance(case, tuple):
            stimuli, options = case
        else:
            stimuli, options = case, None
        options = options if options is not None else self.options
        if _structural_fingerprint(options) != self._fingerprint:
            raise SimulationError(
                "case options change the instrumentation or program "
                "structure (only steps/time_budget may vary per case); "
                "compile a new model for them"
            )
        missing = [
            b.name for b in self.prog.inports if b.name not in stimuli
        ]
        if missing:
            raise SimulationError(f"no stimulus for inport(s): {missing}")
        descriptors = descriptors_for(self.prog, stimuli)
        if descriptors is None:
            raise SimulationError(
                "stimulus without runtime_descriptor(); such streams "
                "need the legacy baked-in path (run_accmos falls back "
                "automatically)"
            )
        return options, descriptors

    def _dispatch(
        self,
        cases: list[BatchCase],
        *,
        timeout_seconds: Optional[float],
    ) -> list[Union[SimulationResult, SimulationTimeout]]:
        """Encode → execute → parse; shared by run() and run_batch()."""
        normalized = [self._normalize(case) for case in cases]
        payload = "".join(
            encode_case(
                descriptors,
                steps=options.steps,
                time_budget=options.time_budget,
                deadline=timeout_seconds,
            )
            for options, descriptors in normalized
        )
        # The in-binary deadline (checked every 512 steps) is the real
        # limit; the process-level timeout is only a backstop against a
        # wedged binary, scaled to the whole batch.
        process_timeout = (
            None
            if timeout_seconds is None
            else timeout_seconds * len(cases) + 5.0
        )

        t0 = time.perf_counter()
        with telemetry.span("execute"):
            stdout = self.compiled.execute(
                input_text=payload, timeout_seconds=process_timeout
            )
        execute_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        with telemetry.span("parse"):
            results = parse_batch_result(
                stdout,
                self.prog,
                self.plan,
                self.layout,
                [options for options, _ in normalized],
                engine="accmos",
            )
        parse_seconds = time.perf_counter() - t0

        share = 1.0 / max(1, len(results))
        return [
            self._finalize(
                result,
                index=index,
                batch_size=len(results),
                timeout_seconds=timeout_seconds,
                execute_seconds=execute_seconds * share,
                parse_seconds=parse_seconds * share,
            )
            for index, result in enumerate(results)
        ]

    def _finalize(
        self,
        result: SimulationResult,
        *,
        index: int,
        batch_size: int,
        timeout_seconds: Optional[float],
        execute_seconds: float,
        parse_seconds: float,
    ) -> Union[SimulationResult, SimulationTimeout]:
        """Per-case telemetry + extra fields; shared by batch and stream."""
        if result.extra.pop("deadline_exceeded", False):
            telemetry.counter_inc("engine.accmos.timeouts")
            return SimulationTimeout(
                f"simulation case {index} exceeded its "
                f"{timeout_seconds:g}s wall-clock budget (stopped "
                f"in-binary after {result.steps_run} steps)"
            )
        telemetry.counter_inc("engine.accmos.runs")
        telemetry.counter_inc("engine.accmos.steps", result.steps_run)
        telemetry.counter_inc("diagnostics.events", len(result.diagnostics))
        if result.wall_time > 0:
            telemetry.observe(
                "engine.accmos.steps_per_sec",
                result.steps_run / result.wall_time,
            )
        result.extra.update(
            generate_seconds=self.generate_seconds,
            compile_seconds=self.compiled.compile_seconds,
            execute_seconds=execute_seconds,
            parse_seconds=parse_seconds,
            cache_hit=self.compiled.cache_hit,
            source_lines=self.source_lines,
            batch_size=batch_size,
            batch_index=index,
        )
        return result


class ModelServer:
    """A warm ``--serve`` process bound to one :class:`CompiledModel`.

    Thin lifecycle wrapper over the wire-level
    :class:`~repro.codegen.driver.SimulationServer`: it knows how to
    respawn the process in place (:meth:`restart`) so pool handles stay
    valid across crashes, and it books the spawn/restart telemetry.
    """

    def __init__(
        self, model: CompiledModel, *, handshake_timeout: float = 10.0
    ) -> None:
        self.model = model
        self.restarts = 0
        self._handshake_timeout = handshake_timeout
        self._server = self._spawn()

    def _spawn(self) -> SimulationServer:
        with telemetry.span(
            "server.spawn", model=self.model.prog.model.name
        ):
            server = SimulationServer(
                self.model.compiled,
                handshake_timeout=self._handshake_timeout,
            )
        telemetry.counter_inc("runner.server.spawns")
        return server

    @property
    def server(self) -> SimulationServer:
        return self._server

    @property
    def alive(self) -> bool:
        return self._server.alive

    @property
    def pid(self) -> int:
        return self._server.pid

    def restart(self) -> None:
        """Kill the process and spawn a fresh one on the same handle."""
        self._server.kill()
        self._server = self._spawn()
        self.restarts += 1
        telemetry.counter_inc("runner.server.restarts")

    def close(self) -> None:
        self._server.close()

    def kill(self) -> None:
        self._server.kill()


@dataclass(frozen=True)
class _Codegen:
    """What instrumentation + codegen make of one (program, structural
    options) pair: everything a :class:`CompiledModel` needs besides the
    compiled artifact itself."""

    plan: InstrumentationPlan
    layout: ProgramLayout
    source: str
    source_lines: int
    decoder: ResultDecoder


class _CodegenMemo:
    """Per-program codegen products, kept for the program's lifetime.

    :class:`FlatProgram` is an unhashable dataclass, so entries are keyed
    on ``id(prog)`` next to a weak reference to the program.  The
    reference's callback drops the program's entries when it is
    collected, so a recycled id never aliases a dead program's source,
    and the memo never holds more than the live programs, at most
    :attr:`PER_PROGRAM` option shapes each.  Only ``preprocess`` mutates
    a program, so an entry never goes stale.
    """

    PER_PROGRAM = 8

    def __init__(self) -> None:
        # Reentrant: a collection triggered while the lock is held may
        # run a weakref callback on the same thread.
        self._lock = threading.RLock()
        self._programs: "dict[int, tuple[weakref.ref, dict]]" = {}

    def get(
        self, prog: FlatProgram, fingerprint: tuple, build
    ) -> "tuple[_Codegen, bool]":
        """The entry for ``(prog, fingerprint)``, building it on a miss;
        also returns whether it was a hit."""
        key = id(prog)
        with self._lock:
            slot = self._programs.get(key)
            if slot is None or slot[0]() is not prog:
                ref = weakref.ref(prog, lambda ref: self._forget(key, ref))
                slot = self._programs[key] = (ref, {})
            entries = slot[1]
            entry = entries.get(fingerprint)
            if entry is not None:
                return entry, True
            entry = build()
            if len(entries) >= self.PER_PROGRAM:
                del entries[next(iter(entries))]
            entries[fingerprint] = entry
            return entry, False

    def _forget(self, key: int, ref: weakref.ref) -> None:
        with self._lock:
            slot = self._programs.get(key)
            if slot is not None and slot[0] is ref:
                del self._programs[key]


_CODEGEN_MEMO = _CodegenMemo()


def _codegen(prog: FlatProgram, options: SimulationOptions) -> _Codegen:
    with telemetry.span("instrument"):
        plan = build_plan(
            prog,
            coverage=options.coverage,
            diagnostics=options.diagnostics,
            collect=options.collect,
            diagnose=options.diagnose,
            custom=options.custom,
        )
    with telemetry.span("codegen"):
        source, layout = generate_reusable_c_program(prog, plan, options)
        return _Codegen(
            plan=plan,
            layout=layout,
            source=source,
            source_lines=source.count("\n") + 1,
            decoder=ResultDecoder(layout, plan, options),
        )


def compile_model(
    prog: FlatProgram,
    options: Optional[SimulationOptions] = None,
    *,
    cache: "Union[ArtifactCache, None, bool]" = None,
    workdir: Optional[Path] = None,
    artifact: str = "binary",
) -> CompiledModel:
    """Instrument + generate + compile the reusable simulation binary.

    ``options`` supplies the structural configuration (coverage,
    diagnostics, collect/diagnose lists, halt_on, monitor_limit,
    checksum); its ``steps``/``time_budget`` merely become the defaults
    for cases that don't override them.  Caching works as in
    :func:`run_accmos` — and because the source no longer depends on
    stimuli or step counts, every case of a campaign maps to the same
    cache key.

    With the artifact cache in use, codegen runs once per program and
    structural options: later calls reuse the generated source, layout
    and result decoder (``generate_seconds`` is then 0).  They still go
    through the cache lookup, so an evicted or damaged entry recompiles,
    and each call returns a fresh :class:`CompiledModel` whose
    in-process quarantine is its own.  ``cache=False`` and an explicit
    ``workdir`` regenerate every time.

    ``artifact`` picks which form is compiled eagerly: ``"binary"``
    (executable) or ``"shared"`` (the in-process ``.so``); both share
    the cache key, and the other form materializes lazily on first use.
    """
    options = options if options is not None else SimulationOptions()
    cache = _resolve_cache(cache)
    fingerprint = _structural_fingerprint(options)
    t0 = time.perf_counter()
    hit = False
    if cache is None or workdir is not None:
        product = _codegen(prog, options)
    else:
        product, hit = _CODEGEN_MEMO.get(
            prog, fingerprint, lambda: _codegen(prog, options)
        )
    generate_seconds = 0.0 if hit else time.perf_counter() - t0
    compiled = compile_c_program(
        product.source, product.layout,
        workdir=workdir, cache=cache, artifact=artifact,
    )
    telemetry.observe("accmos.generate_seconds", generate_seconds)
    telemetry.observe("accmos.compile_seconds", compiled.compile_seconds)
    return CompiledModel(
        prog=prog,
        plan=product.plan,
        layout=product.layout,
        options=options,
        compiled=compiled,
        source=product.source,
        generate_seconds=generate_seconds,
        source_lines=product.source_lines,
        decoder=product.decoder,
        _fingerprint=fingerprint,
    )


def run_accmos(
    prog: FlatProgram,
    stimuli: Mapping[str, Stimulus],
    options: SimulationOptions,
    *,
    workdir: Optional[Path] = None,
    keep_artifacts: bool = False,
    cache: "Union[ArtifactCache, None, bool]" = None,
    timeout_seconds: Optional[float] = None,
) -> SimulationResult:
    """Generate, compile, and execute the instrumented simulation.

    When every stimulus has a ``runtime_descriptor()`` (all built-in
    generators do), the stimulus-agnostic reusable program is used: the
    compiled binary — and its artifact-cache key — is independent of the
    stimuli and the step count, so repeated calls with different seeds
    or step counts hit the cache after the first compile.  Custom
    stimuli without descriptors fall back to the legacy baked-in
    program.

    ``cache`` selects the compiled-artifact cache: an explicit
    :class:`~repro.runner.cache.ArtifactCache`, ``None`` for the
    process-wide default (``~/.cache/accmos``; disable globally with
    ``ACCMOS_NO_CACHE=1``), or ``False`` to bypass caching for this
    call.  An explicit ``workdir`` also bypasses the cache so the
    artifacts land where the caller asked.  ``timeout_seconds`` bounds
    the case's wall clock (raises ``SimulationTimeout``).
    """
    missing = [b.name for b in prog.inports if b.name not in stimuli]
    if missing:
        raise SimulationError(f"no stimulus for inport(s): {missing}")

    cache = _resolve_cache(cache)

    if descriptors_for(prog, stimuli) is None:
        return _run_accmos_baked(
            prog, stimuli, options,
            workdir=workdir, keep_artifacts=keep_artifacts,
            cache=cache, timeout_seconds=timeout_seconds,
        )

    with telemetry.span(
        "accmos.run", model=prog.model.name, steps=options.steps
    ) as run_span:
        model = compile_model(
            prog, options, cache=cache if cache is not None else False,
            workdir=workdir,
        )
        result = model.run(
            stimuli, options, timeout_seconds=timeout_seconds
        )
        run_span.set(cache_hit=model.cache_hit, steps_run=result.steps_run)
    telemetry.observe(
        "accmos.execute_seconds", result.extra["execute_seconds"]
    )
    if keep_artifacts:
        result.extra["artifacts"] = AccMoSArtifacts(
            source=model.source,
            source_path=model.compiled.source if workdir else None,
            binary_path=model.compiled.binary if workdir else None,
            generate_seconds=model.generate_seconds,
            compile_seconds=model.compiled.compile_seconds,
        )
    return result


def _run_accmos_baked(
    prog: FlatProgram,
    stimuli: Mapping[str, Stimulus],
    options: SimulationOptions,
    *,
    workdir: Optional[Path],
    keep_artifacts: bool,
    cache,  # resolved handle or None
    timeout_seconds: Optional[float],
) -> SimulationResult:
    """The legacy path: stimuli and step count compiled into the source."""
    with telemetry.span(
        "accmos.run", model=prog.model.name, steps=options.steps
    ) as run_span:
        with telemetry.span("instrument"):
            plan = build_plan(
                prog,
                coverage=options.coverage,
                diagnostics=options.diagnostics,
                collect=options.collect,
                diagnose=options.diagnose,
                custom=options.custom,
            )

        t0 = time.perf_counter()
        with telemetry.span("codegen"):
            source, layout = generate_c_program(prog, plan, stimuli, options)
        generate_seconds = time.perf_counter() - t0

        compiled = compile_c_program(source, layout, workdir=workdir, cache=cache)
        t0 = time.perf_counter()
        with telemetry.span("execute"):
            stdout = compiled.execute(timeout_seconds=timeout_seconds)
        execute_seconds = time.perf_counter() - t0
        t0 = time.perf_counter()
        with telemetry.span("parse"):
            result = parse_result(
                stdout, prog, plan, layout, options, engine="accmos"
            )
        run_span.set(cache_hit=compiled.cache_hit, steps_run=result.steps_run)
    telemetry.counter_inc("engine.accmos.runs")
    telemetry.counter_inc("engine.accmos.steps", result.steps_run)
    telemetry.counter_inc("diagnostics.events", len(result.diagnostics))
    telemetry.observe("accmos.generate_seconds", generate_seconds)
    telemetry.observe("accmos.compile_seconds", compiled.compile_seconds)
    telemetry.observe("accmos.execute_seconds", execute_seconds)
    if result.wall_time > 0:
        telemetry.observe(
            "engine.accmos.steps_per_sec", result.steps_run / result.wall_time
        )
    result.extra.update(
        generate_seconds=generate_seconds,
        compile_seconds=compiled.compile_seconds,
        execute_seconds=execute_seconds,
        parse_seconds=time.perf_counter() - t0,
        cache_hit=compiled.cache_hit,
        source_lines=source.count("\n") + 1,
    )
    if keep_artifacts:
        result.extra["artifacts"] = AccMoSArtifacts(
            source=source,
            source_path=compiled.source if workdir else None,
            binary_path=compiled.binary if workdir else None,
            generate_seconds=generate_seconds,
            compile_seconds=compiled.compile_seconds,
        )
    return result
