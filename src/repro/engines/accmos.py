"""The AccMoS engine: instrumented C code generation + gcc + execution.

This is the paper's system end to end: plan instrumentation (Algorithm 1),
synthesize the simulation code from the actor template library, import the
test cases, compile with :data:`repro.codegen.driver.CFLAGS`, execute,
and parse coverage/diagnosis/monitor results back into the shared schema.

The generated program is compile-once / run-many: it is
stimulus-agnostic — it imports stimulus descriptors, step counts, and
per-case deadlines at run time — so one shared library per
``(FlatProgram, InstrumentationPlan)`` serves every test case, and the
artifact cache turns a whole seed campaign into a single gcc invocation;
with caching off, each compile goes into a private cache that lives as
long as the model.  :func:`compile_model` returns a :class:`CompiledModel` whose
one case path is :meth:`~CompiledModel.run_inproc`: every case runs
in-process there (:meth:`~CompiledModel.run` is its one-case call,
guided-corpus replay reads its coverage).  A host process serving the
same library (:meth:`~CompiledModel.run_stream`) is the quarantine rung
under a faulted library.  Either way each case gets a full state/coverage/
diagnostic reset.  Every :class:`Stimulus` reaches C through
:func:`~repro.codegen.descriptor.descriptors_for`: built-in generators
as closed-form descriptors, custom subclasses materialized into
sequence tables.

Every rung is bit-for-bit equivalent to the SSE reference — the
repository's core invariant.

``wall_time`` is the library's own measurement of its simulation loop —
the quantity the paper's Table 2 reports.  Code generation and compilation
times are in ``result.extra`` (``generate_seconds``, ``compile_seconds``).
"""

from __future__ import annotations

import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence, Union

from repro import telemetry
from repro.codegen.compose import ProgramLayout, generate_reusable_c_program
from repro.codegen.descriptor import descriptors_for
from repro.codegen.driver import (
    CompiledSimulation,
    ServerError,
    SimulationServer,
    compile_c_program,
)
from repro.engines.base import SimulationOptions, SimulationResult
from repro.inproc.abi import ResultDecoder, encode_case_binary
from repro.inproc.library import LibraryFault, LoadedModel
from repro.inproc.parallel import (
    InstancePool,
    default_instance_pool,
    pack_shards,
)
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

# Cases :meth:`CompiledModel.run_stream` keeps submitted ahead of the
# one it is decoding, so the host always has work queued.
STREAM_WINDOW = 4

# One batch case: a stimuli mapping, or (stimuli, options) to override
# the per-case runtime options (steps / time_budget).
BatchCase = Union[
    Mapping[str, Stimulus],
    "tuple[Mapping[str, Stimulus], Optional[SimulationOptions]]",
]


def _resolve_cache(cache):
    if cache is None:
        from repro.runner.cache import default_cache

        return default_cache()
    if cache is False:
        return None
    return cache


def _structural_fingerprint(options: SimulationOptions) -> tuple:
    """The option fields that shape the generated source (and therefore
    the compiled library).  ``steps`` and ``time_budget`` are runtime
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
    """A reusable compiled simulation: one library, any number of cases.

    Produced by :func:`compile_model`.  The library is specialized on the
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
    _inproc_fault: Optional[str] = field(
        default=None, repr=False, compare=False
    )
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
        """Run one case through :meth:`run_inproc`; raises
        :class:`SimulationTimeout` when ``timeout_seconds`` is exceeded."""
        (outcome,) = self.run_inproc(
            [(stimuli, options)], timeout_seconds=timeout_seconds
        )
        if isinstance(outcome, SimulationTimeout):
            raise outcome
        return outcome

    def run_stream(
        self,
        cases: Sequence[BatchCase],
        *,
        timeout_seconds: Optional[float] = None,
    ) -> Iterator[Union[SimulationResult, SimulationTimeout]]:
        """Stream M cases through a private host process, yielding
        results as each case's frame completes.

        This is the quarantine rung: :meth:`run_inproc` finishes its
        cases here once a library fault has retired the in-process
        library.  Submission runs :data:`STREAM_WINDOW` cases ahead of
        decoding so the host always has work queued while Python
        decodes earlier frames.  Outcomes arrive in submit order, one
        per case: a result, or a :class:`SimulationTimeout` instance for
        a case that blew the per-case deadline (state is fully reset
        before the next case either way).

        On a crash, protocol desync, or a host that goes quiet past its
        read deadline, the host is killed and respawned once and the
        unfinished cases are resubmitted; a second consecutive failure
        raises :class:`ServerError` (the runner then retries each job on
        its own).
        """
        cases = list(cases)
        if not cases:
            return
        normalized, records = self._encode(cases, timeout_seconds)
        # The in-library deadline does the real limiting (flagging the
        # case in its result); the read deadline is a backstop against a
        # wedged host.
        read_timeout = (
            None if timeout_seconds is None else timeout_seconds + 5.0
        )

        def spawn() -> SimulationServer:
            with telemetry.span("server.spawn", model=self.prog.model.name):
                host = SimulationServer(
                    self.compiled.ensure_host(),
                    self.compiled.shared,
                    result_size=self.decoder.size,
                )
            telemetry.counter_inc("runner.server.spawns")
            return host

        server = spawn()
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
                        while sub < min(done + STREAM_WINDOW, n):
                            server.submit(records[sub])
                            submit_times[sub] = time.perf_counter()
                            sub += 1
                        while done < n:
                            buf = server.read_frame(timeout=read_timeout)
                            latency = (
                                time.perf_counter() - submit_times[done]
                            )
                            telemetry.observe(
                                "runner.server.submit_to_result_seconds",
                                latency,
                            )
                            options = normalized[done][0]
                            t0 = time.perf_counter()
                            result = self.decoder.decode(
                                buf, self.prog, options, engine="accmos"
                            )
                            outcome = self._finalize(
                                result,
                                index=done,
                                batch_size=n,
                                timeout_seconds=timeout_seconds,
                                execute_seconds=latency,
                                parse_seconds=time.perf_counter() - t0,
                            )
                            done += 1
                            failures = 0
                            if sub < n:
                                server.submit(records[sub])
                                submit_times[sub] = time.perf_counter()
                                sub += 1
                            yield outcome
                    except ServerError:
                        failures += 1
                        if failures >= 2:
                            raise
                        # Respawn, then resubmit from `done`.
                        server.kill()
                        server = spawn()
                        telemetry.counter_inc("runner.server.restarts")
        finally:
            server.close()

    # ------------------------------------------------------------------
    @property
    def inproc_available(self) -> bool:
        """False once a fault has quarantined the in-process rung."""
        return self._inproc_fault is None

    def load(self) -> LoadedModel:
        """A fresh private in-process instance of this model's library,
        past the ABI handshake.  Each instance has its own copy of the C
        globals and is single-threaded; callers wanting parallelism load
        one per thread.
        """
        return LoadedModel(self.compiled.shared, result_size=self.decoder.size)

    def _instance_key(self) -> str:
        """This model's key in the process-wide instance pool.

        Content-addressed: the ``.so`` path comes from the artifact
        cache, so distinct handles over the same structure share warm
        instances."""
        return InstancePool.instance_key(
            self.compiled.shared, self.decoder.size
        )

    def _acquire_instance(self) -> "tuple[str, LoadedModel]":
        key = self._instance_key()
        return key, default_instance_pool().acquire(key, self.load)

    def _quarantine_inproc(self, reason: Exception) -> None:
        """Retire the in-process rung for this model: all subsequent
        ``run_inproc`` calls drop straight to the host process rung.
        Idempotent and thread-safe — with N shard threads, the first
        fault wins (its text is kept as the fallback's reason) and the
        rest observe the flag."""
        with self._inproc_lock:
            if self._inproc_fault is not None:
                return
            self._inproc_fault = f"{type(reason).__name__}: {reason}"
        telemetry.counter_inc("engine.inproc.fallbacks")

    def run_inproc(
        self,
        cases: Sequence[BatchCase],
        *,
        timeout_seconds: Optional[float] = None,
        library: Optional[LoadedModel] = None,
        threads: int = 1,
    ) -> list[Union[SimulationResult, SimulationTimeout]]:
        """Run M cases in-process: zero spawns, zero pipes.  This is the
        one way a compiled model runs cases — single runs, campaign
        chunks and guided-corpus replay alike.

        Same contract as :meth:`run_stream` — one outcome per case in
        order, per-case deadlines (enforced *inside* the library via the
        record's deadline field) surfacing as
        :class:`SimulationTimeout` entries.  Any library fault — load
        failure, ABI mismatch, non-zero run status — quarantines the
        in-process rung for this model and transparently finishes the
        affected cases on a crash-isolated host process serving the same
        library (:meth:`run_stream`).  Results are byte-identical either
        way.

        ``threads=N`` partitions the cases across N shards, each run on
        its own thread holding a *private* pooled instance (private
        inode → private C globals); ``ctypes`` releases the GIL around
        ``acc_lib_run_case`` so the C simulation loops genuinely run in
        parallel.  Outcomes are written into a preallocated slot per
        case index, so the merge is deterministic by construction —
        ``threads=N`` is bit-for-bit identical to ``threads=1``.  The
        cases are packed into shards by
        :func:`~repro.inproc.parallel.pack_shards`: LPT on their step
        counts, a round-robin stride when they are equal.

        ``library`` runs the batch as one shard on an explicit
        :class:`~repro.inproc.library.LoadedModel` instead of a pooled
        instance (tests use it to induce faults).
        """
        cases = list(cases)
        if not cases:
            return []
        normalized, records = self._encode(cases, timeout_seconds)
        shards = pack_shards(
            [options.steps for options, _ in normalized],
            1 if library is not None else max(1, int(threads)),
        )
        results: list = [None] * len(cases)
        tails: "list[list[int]]" = [[] for _ in shards]
        walls = [0.0] * len(shards)

        def run_shard(slot: int, shard: "list[int]") -> None:
            """Each case of ``shard`` on one instance — ``library``, or a
            private one from the instance pool — into its slot.  A load
            failure or :class:`~repro.inproc.library.LibraryFault`
            quarantines the model and leaves the rest of the shard in
            ``tails`` for the host."""
            t0 = time.perf_counter()
            lib, pool_key, done = library, None, 0
            try:
                if lib is None and self._inproc_fault is None:
                    try:
                        pool_key, lib = self._acquire_instance()
                    except (CompilationError, LibraryFault, OSError) as exc:
                        self._quarantine_inproc(exc)
                while lib is not None and done < len(shard):
                    index = shard[done]
                    t1 = time.perf_counter()
                    try:
                        buf = lib.run_case(records[index])
                    except LibraryFault as exc:
                        # run_case retired the instance already; one
                        # fault quarantines the whole model.
                        self._quarantine_inproc(exc)
                        lib = None
                        break
                    execute_seconds = time.perf_counter() - t1
                    t1 = time.perf_counter()
                    result = self.decoder.decode(
                        buf, self.prog, normalized[index][0], engine="accmos"
                    )
                    results[index] = self._finalize(
                        result,
                        index=index,
                        batch_size=len(cases),
                        timeout_seconds=timeout_seconds,
                        execute_seconds=execute_seconds,
                        parse_seconds=time.perf_counter() - t1,
                    )
                    telemetry.counter_inc("engine.inproc.cases")
                    done += 1
            finally:
                if pool_key is not None and lib is not None:
                    default_instance_pool().release(pool_key, lib)
                walls[slot] = time.perf_counter() - t0
            tails[slot] = shard[done:]

        with telemetry.span(
            "accmos.inproc",
            model=self.prog.model.name,
            cases=len(cases),
            threads=len(shards),
        ) as span:
            if len(shards) == 1:
                run_shard(0, shards[0])
            else:
                telemetry.gauge_set("engine.inproc.threads", len(shards))
                with ThreadPoolExecutor(
                    len(shards), thread_name_prefix="accmos-inproc"
                ) as pool:
                    futures = [
                        pool.submit(run_shard, slot, shard)
                        for slot, shard in enumerate(shards)
                    ]
                for future in futures:
                    future.result()  # decode/finalize bugs: surface
                for wall in walls:
                    telemetry.observe(
                        "engine.inproc.shard_makespan_seconds", wall
                    )
                if max(walls) > 0:
                    telemetry.gauge_set(
                        "engine.inproc.pack_efficiency",
                        sum(walls) / (len(walls) * max(walls)),
                    )
            # Every pending case finishes on the host in index order:
            # the same ladder, the same bytes, whichever shard faulted.
            pending = sorted(index for tail in tails for index in tail)
            if pending:
                span.set(
                    fallback=True,
                    pending=len(pending),
                    reason=self._inproc_fault,
                )
                fallback = self.run_stream(
                    [cases[index] for index in pending],
                    timeout_seconds=timeout_seconds,
                )
                for index, outcome in zip(pending, fallback):
                    results[index] = outcome
        telemetry.counter_inc("engine.inproc.runs")
        return results

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
        return options, descriptors_for(
            self.prog, stimuli, steps=options.steps
        )

    def _encode(
        self, cases: "list[BatchCase]", timeout_seconds: Optional[float]
    ) -> "tuple[list, list[bytes]]":
        """Normalize every case and pack its record; the per-case
        ``(options, descriptors)`` pairs and the records, in order."""
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
        return normalized, records

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
        """Per-case telemetry + extra fields; shared by every rung."""
        if result.extra.pop("deadline_exceeded", False):
            telemetry.counter_inc("engine.accmos.timeouts")
            return SimulationTimeout(
                f"simulation case {index} exceeded its "
                f"{timeout_seconds:g}s wall-clock budget (stopped "
                f"in-library after {result.steps_run} steps)"
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

    ``preprocess`` gives content-equal models one program, so an entry
    also hits across requests: a model rebuilt from the same reference
    (each ``repro campaign`` run in a process, each service campaign)
    reuses the codegen of the first build.
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
) -> CompiledModel:
    """Instrument + generate + compile the reusable simulation library.

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
    in-process quarantine is its own.  Without a cache (``cache=False``,
    or the default cache disabled) codegen and gcc run on every call,
    into a private cache that lives as long as the model.
    """
    options = options if options is not None else SimulationOptions()
    cache = _resolve_cache(cache)
    fingerprint = _structural_fingerprint(options)
    t0 = time.perf_counter()
    hit = False
    if cache is None:
        product = _codegen(prog, options)
    else:
        product, hit = _CODEGEN_MEMO.get(
            prog, fingerprint, lambda: _codegen(prog, options)
        )
    generate_seconds = 0.0 if hit else time.perf_counter() - t0
    compiled = compile_c_program(product.source, product.layout, cache=cache)
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
    cache: "Union[ArtifactCache, None, bool]" = None,
    timeout_seconds: Optional[float] = None,
) -> SimulationResult:
    """Generate, compile, and execute the instrumented simulation.

    The compiled library — and its artifact-cache key — is independent of
    the stimuli and the step count, so repeated calls with different
    seeds or step counts hit the cache after the first compile.

    ``cache`` selects the compiled-artifact cache: an explicit
    :class:`~repro.runner.cache.ArtifactCache`, ``None`` for the
    process-wide default (``~/.cache/accmos``; disable globally with
    ``ACCMOS_NO_CACHE=1``), or ``False`` to bypass caching for this
    call.  ``timeout_seconds`` bounds the case's wall clock (raises
    ``SimulationTimeout``).
    """
    with telemetry.span(
        "accmos.run", model=prog.model.name, steps=options.steps
    ) as run_span:
        model = compile_model(prog, options, cache=cache)
        result = model.run(
            stimuli, options, timeout_seconds=timeout_seconds
        )
        run_span.set(cache_hit=model.cache_hit, steps_run=result.steps_run)
    telemetry.observe(
        "accmos.execute_seconds", result.extra["execute_seconds"]
    )
    return result

