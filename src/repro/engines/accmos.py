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
guided-corpus replay reads its coverage), after a full state/coverage/
diagnostic reset.  A library fault is the outcome of the case it hit, a
typed :class:`~repro.inproc.library.LibraryFault` in that case's slot,
as a tripped deadline is a :class:`SimulationTimeout`; the other cases
run on.  Every :class:`Stimulus` reaches C through
:func:`~repro.codegen.descriptor.descriptors_for`: built-in generators
as closed-form descriptors, custom subclasses materialized into
sequence tables.  A case given as an int seed stands for
``default_stimuli(prog, seed=seed)`` and is packed straight from the
seed (:class:`~repro.inproc.abi.SeedRecords`), to the same bytes.

Every compiled case is bit-for-bit equivalent to the SSE reference —
the repository's core invariant.

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
from typing import TYPE_CHECKING, Mapping, Optional, Sequence, Union

from repro import telemetry
from repro.codegen.compose import ProgramLayout, generate_reusable_c_program
from repro.codegen.descriptor import descriptors_for
from repro.codegen.driver import CompiledSimulation, compile_c_program
from repro.engines.base import SimulationOptions, SimulationResult
from repro.inproc.abi import ResultDecoder, SeedRecords, encode_case_binary
from repro.inproc.library import LibraryFault, LoadedModel
from repro.inproc.parallel import (
    InstancePool,
    default_instance_pool,
    pack_shards,
)
from repro.instrument import build_plan
from repro.instrument.plan import InstrumentationPlan
from repro.model.errors import SimulationError, SimulationTimeout
from repro.schedule.program import FlatProgram
from repro.stimuli.base import Stimulus
from repro.stimuli.generators import default_port_plan

if TYPE_CHECKING:
    from repro.runner.cache import ArtifactCache

# One batch case's stimuli: a mapping of inport name to stimulus, or an
# int seed, which stands for ``default_stimuli(prog, seed=seed)`` and is
# packed straight from the seed (SeedRecords), building no stimulus.
CaseStimuli = Union[Mapping[str, Stimulus], int]

# One batch case: its stimuli, or (stimuli, options) to override the
# per-case runtime options (steps / time_budget).
BatchCase = Union[
    CaseStimuli, "tuple[CaseStimuli, Optional[SimulationOptions]]"
]


def _resolve_cache(cache):
    if cache is None:
        from repro.runner.cache import default_cache

        return default_cache()
    if cache is False:
        return None
    return cache


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
    seed_records: SeedRecords = field(repr=False, compare=False)
    _fingerprint: tuple = field(repr=False)

    @property
    def cache_hit(self) -> bool:
        return self.compiled.cache_hit

    @property
    def compile_seconds(self) -> float:
        return self.compiled.compile_seconds

    # ------------------------------------------------------------------
    def run(
        self,
        stimuli: CaseStimuli,
        options: Optional[SimulationOptions] = None,
        *,
        timeout_seconds: Optional[float] = None,
    ) -> SimulationResult:
        """Run one case through :meth:`run_inproc`; raises the case's
        exception outcome (:class:`SimulationTimeout` when
        ``timeout_seconds`` is exceeded, :class:`LibraryFault` on a
        library fault).  ``stimuli`` may be an int seed (see
        :data:`CaseStimuli`)."""
        (outcome,) = self.run_inproc(
            [(stimuli, options)], timeout_seconds=timeout_seconds
        )
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    # ------------------------------------------------------------------
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

    def run_inproc(
        self,
        cases: Sequence[BatchCase],
        *,
        timeout_seconds: Optional[float] = None,
        library: Optional[LoadedModel] = None,
        threads: int = 1,
    ) -> list[Union[SimulationResult, SimulationTimeout, LibraryFault]]:
        """Run M cases in-process: zero spawns, zero pipes.  This is the
        one way a compiled model runs cases — single runs, campaign
        chunks and guided-corpus replay alike.

        Each case is a stimuli mapping or an int seed
        (:data:`CaseStimuli`), optionally paired with per-case options.
        One outcome per case, in order: a result, a
        :class:`SimulationTimeout` for a case past its deadline (enforced
        *inside* the library via the record's deadline field), or the
        :class:`~repro.inproc.library.LibraryFault` that ended the case.
        A fault retires only its instance: the shard acquires a fresh one
        and runs on, and an instance that cannot be acquired is the
        outcome of every case its shard still holds.  A case's outcome
        thus depends on its own record only.

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

        ``library`` runs the batch as one shard, starting on an explicit
        :class:`~repro.inproc.library.LoadedModel` instead of a pooled
        instance (tests use it to induce faults).
        """
        cases = list(cases)
        if not cases:
            return []
        case_options, records = self._encode(cases, timeout_seconds)
        shards = pack_shards(
            [options.steps for options in case_options],
            1 if library is not None else max(1, int(threads)),
        )
        results: list = [None] * len(cases)
        faulted: "list[int]" = []  # indices whose outcome is a fault
        walls = [0.0] * len(shards)

        def run_shard(slot: int, shard: "list[int]") -> None:
            """Each case of ``shard`` into its slot, on ``library`` or a
            private instance from the pool."""
            t0 = time.perf_counter()
            lib, pool_key = library, None
            try:
                for n, index in enumerate(shard):
                    if lib is None:
                        try:
                            pool_key, lib = self._acquire_instance()
                        except LibraryFault as exc:
                            for rest in shard[n:]:
                                results[rest] = exc
                            faulted.extend(shard[n:])
                            break
                    t1 = time.perf_counter()
                    try:
                        buf = lib.run_case(records[index])
                    except LibraryFault as exc:
                        # run_case retired the instance already.
                        results[index] = exc
                        faulted.append(index)
                        lib = pool_key = None
                        continue
                    execute_seconds = time.perf_counter() - t1
                    t1 = time.perf_counter()
                    result = self.decoder.decode(
                        buf, self.prog, case_options[index], engine="accmos"
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
            finally:
                if pool_key is not None:
                    default_instance_pool().release(pool_key, lib)
                walls[slot] = time.perf_counter() - t0

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
            if faulted:
                # The lowest faulted index: the same at every thread count.
                first = results[min(faulted)]
                span.set(
                    faults=len(faulted),
                    reason=f"{type(first).__name__}: {first}",
                )
        telemetry.counter_inc("engine.inproc.runs")
        return results

    # ------------------------------------------------------------------
    def _encode(
        self, cases: "list[BatchCase]", timeout_seconds: Optional[float]
    ) -> "tuple[list[SimulationOptions], list[bytes]]":
        """Each case's options and packed record, in order.  A seed
        packs straight into its record (:class:`SeedRecords`); a
        stimuli mapping goes through :func:`descriptors_for`."""
        own = self.options
        all_options, records = [], []
        for case in cases:
            stimuli, options = case if isinstance(case, tuple) else (case, None)
            if options is None:
                options = own
            elif (
                options is not own
                and options.structural_fingerprint() != self._fingerprint
            ):
                raise SimulationError(
                    "case options change the instrumentation or program "
                    "structure (only steps/time_budget may vary per case); "
                    "compile a new model for them"
                )
            if isinstance(stimuli, int):
                record = self.seed_records.pack(
                    stimuli, steps=options.steps,
                    time_budget=options.time_budget, deadline=timeout_seconds,
                )
            else:
                record = encode_case_binary(
                    descriptors_for(self.prog, stimuli, steps=options.steps),
                    steps=options.steps,
                    time_budget=options.time_budget,
                    deadline=timeout_seconds,
                )
            all_options.append(options)
            records.append(record)
        return all_options, records

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
        """A decoded case's outcome, with its telemetry and extra
        fields."""
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
    seed_records: SeedRecords


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
            seed_records=SeedRecords(default_port_plan(prog)),
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
    and each call returns a fresh :class:`CompiledModel`.  Without a cache (``cache=False``,
    or the default cache disabled) codegen and gcc run on every call,
    into a private cache that lives as long as the model.
    """
    options = options if options is not None else SimulationOptions()
    cache = _resolve_cache(cache)
    fingerprint = options.structural_fingerprint()
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
        seed_records=product.seed_records,
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

