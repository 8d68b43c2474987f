"""Simulation code composition (paper §3.3, *Simulation Code Composition*).

Assembles the complete C program: runtime prelude, global state (signals,
actor states, stores, coverage tables, diagnosis slots, monitors,
checksums), then ``main`` with test-case import, the simulation loop in
execution order with every actor's instrumentation inlined at its
position, the state-update phase, and the result-output protocol.

The result protocol is plain text on stdout, one record per line::

    steps_run 12345
    halt -1
    sim_seconds 0.123456789
    checksum <outport> <u64>
    output <outport> <int or %a hex-float>
    cov <metric> <n_points> <hex word> ...   (64 points per word, LSB first)
    diag <slot> <first_step> <count>
    mon <monitor-id> <step> <value>

Slot/monitor indices are resolved back to actor paths by the
:class:`ProgramLayout` the generator returns alongside the source text.

Two program shapes share everything above:

* :func:`generate_c_program` — the legacy shape: stimuli and step count
  baked in as constants, one process run per case;
* :func:`generate_reusable_c_program` — the compile-once shape: the
  source depends only on ``(FlatProgram, InstrumentationPlan)`` plus the
  structural options, reads stimulus descriptors + per-case step counts
  from stdin (see :mod:`repro.codegen.descriptor`), and runs any number
  of cases back to back, each result section framed by a ``case <i>``
  line with full state/coverage/diagnostic reset in between.  Launched
  with ``--serve`` the same binary is a persistent simulation server:
  a ``ready`` handshake, then one flushed ``case <i> ... done <i>``
  frame per stdin record until stdin closes.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Optional

from repro.diagnosis.custom import CustomDiagnosis
from repro.diagnosis.events import FLAG_KINDS, DiagnosticKind
from repro.dtypes import DType
from repro.engines.base import SimulationOptions
from repro.instrument.plan import InstrumentationPlan
from repro.model.errors import CodegenError
from repro.codegen.cexpr import svar, value_literal
from repro.codegen.runtime import runtime_header, stimulus_runtime
from repro.codegen.templates import (
    EmitContext,
    emit_actor_output,
    emit_actor_update,
    state_reset_statements,
)
from repro.actors.math_ops import int_param
from repro.actors.sources import LCG_INC, LCG_MUL
from repro.dtypes import coerce_float
from repro.schedule.program import EvalGuard, FlatProgram
from repro.stimuli.base import (
    STIM_KIND_CONSTANT,
    STIM_KIND_INT_RANDOM,
    STIM_KIND_PULSE,
    STIM_KIND_RAMP,
    STIM_KIND_SEQUENCE,
    STIM_KIND_SINE,
    STIM_KIND_STEP,
    STIM_KIND_UNIFORM,
    Stimulus,
    c_double_literal,
)

_FLAG_VARS = {
    "overflow": "f_ov",
    "div_by_zero": "f_dz",
    "precision_loss": "f_pl",
    "non_finite": "f_nf",
    "out_of_bounds": "f_ob",
}


@dataclass
class MonitorLayout:
    mid: int
    path: str
    dtype: DType
    value_var: str


@dataclass
class ProgramLayout:
    """Everything the result parser needs to interpret the protocol."""

    diag_slots: list[tuple[str, DiagnosticKind, str]] = field(default_factory=list)
    monitors: list[MonitorLayout] = field(default_factory=list)
    outports: list[tuple[str, DType]] = field(default_factory=list)


def _substitute_custom_predicate(diag: CustomDiagnosis, fa, prog) -> str:
    """Rewrite in0/out0 tokens of a C predicate to signal variables."""
    if diag.c_predicate is None:
        raise CodegenError(
            f"custom diagnosis at {diag.actor_path!r} has no C predicate; "
            f"AccMoS needs one (the Python predicate only serves the "
            f"interpreted engines)"
        )

    def replace(match: re.Match) -> str:
        kind, index = match.group(1), int(match.group(2))
        sids = fa.input_sids if kind == "in" else fa.output_sids
        if index >= len(sids):
            raise CodegenError(
                f"custom diagnosis at {diag.actor_path!r}: no {kind}{index}"
            )
        return svar(sids[index])

    return re.sub(r"\b(in|out)(\d+)\b", replace, diag.c_predicate)


def generate_c_program(
    prog: FlatProgram,
    plan: InstrumentationPlan,
    stimuli: Mapping[str, Stimulus],
    options: SimulationOptions,
) -> tuple[str, ProgramLayout]:
    """Generate the legacy (baked-in stimuli) C source: ``(source, layout)``."""
    return _generate(prog, plan, options, stimuli=stimuli)


def generate_reusable_c_program(
    prog: FlatProgram,
    plan: InstrumentationPlan,
    options: SimulationOptions,
) -> tuple[str, ProgramLayout]:
    """Generate the stimulus-agnostic, batch-capable C source.

    The text depends only on the program, the plan, and the *structural*
    options (coverage/diagnostics/collect/diagnose/custom via the plan,
    plus ``halt_on``/``monitor_limit``/``checksum``) — never on stimuli,
    ``steps``, or ``time_budget``, which arrive per case on stdin.  The
    artifact-cache key therefore stays constant across an entire seed
    campaign: one gcc invocation serves every case.
    """
    return _generate(prog, plan, options, stimuli=None)


def _generate(
    prog: FlatProgram,
    plan: InstrumentationPlan,
    options: SimulationOptions,
    stimuli: Optional[Mapping[str, Stimulus]],
) -> tuple[str, ProgramLayout]:
    reusable = stimuli is None
    ctx = EmitContext(prog=prog, plan=plan)
    layout = ProgramLayout()
    halt_kinds = options.halt_on or frozenset()
    use_halt_label = bool(halt_kinds)

    # ---- diagnosis slot assignment (flat order, deterministic) ----
    slot_of: dict[tuple[int, str], int] = {}
    custom_slot_of: dict[tuple[int, int], int] = {}
    for inst in plan.actors:
        for kind in sorted(inst.diagnose_kinds, key=lambda k: k.value):
            slot_of[(inst.actor_index, kind.value)] = len(layout.diag_slots)
            layout.diag_slots.append((inst.path, kind, ""))
        for j, diag in enumerate(inst.custom):
            custom_slot_of[(inst.actor_index, j)] = len(layout.diag_slots)
            layout.diag_slots.append((inst.path, DiagnosticKind.CUSTOM, diag.message))

    # ---- monitors ----
    for inst in plan.actors:
        if not inst.collect:
            continue
        fa = prog.actors[inst.actor_index]
        if fa.output_sids:
            sid = fa.output_sids[0]
        elif fa.input_sids:
            sid = fa.input_sids[0]
        else:
            continue
        layout.monitors.append(
            MonitorLayout(
                mid=len(layout.monitors),
                path=inst.path,
                dtype=prog.signals[sid].dtype,
                value_var=svar(sid),
            )
        )

    layout.outports = [(b.name, b.dtype) for b in prog.outports]

    # ---- per-node body (fills ctx.decls as templates declare state) ----
    step_body = _emit_step_body(
        ctx, prog, plan, slot_of, custom_slot_of, layout, halt_kinds, options
    )
    update_body = _emit_update_body(ctx, prog)
    if reusable:
        stim_body = _emit_descriptor_stimuli(prog)
        stim_decls = [
            f"#define ACC_NPORTS {len(prog.inports)}",
            stimulus_runtime().rstrip(),
        ]
    else:
        stim_body, stim_decls = _emit_stimuli(prog, stimuli)

    # ---- globals ----
    globals_: list[str] = []
    globals_.append("/* ---- signals (persistent across steps) ---- */")
    for sig in prog.signals:
        globals_.append(f"static {sig.dtype.c_name} {svar(sig.sid)}; /* {sig.name} */")
    globals_.append("/* ---- guards ---- */")
    for guard in prog.guards:
        globals_.append(f"static uint8_t g{guard.gid}; /* {guard.path} */")
    globals_.append("/* ---- data stores ---- */")
    store_inits: list[tuple[str, str]] = []
    for info in prog.stores.values():
        if info.dtype.is_float:
            init = value_literal(coerce_float(float(info.initial), info.dtype), info.dtype)
        else:
            init = value_literal(int_param(info.initial, info.dtype), info.dtype)
        store_inits.append((f"store_{info.name}", init))
        globals_.append(f"static {info.dtype.c_name} store_{info.name} = {init};")
    globals_.append("/* ---- actor state ---- */")
    globals_.extend(ctx.decls)
    globals_.append("/* ---- stimuli state ---- */")
    globals_.extend(stim_decls)

    points = plan.points
    if plan.coverage_enabled:
        globals_.append("/* ---- coverage bitmaps ---- */")
        globals_.append(f"static uint8_t cov_actor[{max(1, points.n_actor)}];")
        globals_.append(f"static uint8_t cov_cond[{max(1, points.n_condition)}];")
        globals_.append(f"static uint8_t cov_dec[{max(1, points.n_decision)}];")
        globals_.append(f"static uint8_t cov_mcdc[{max(1, points.n_mcdc)}];")

    n_slots = max(1, len(layout.diag_slots))
    globals_.append("/* ---- diagnosis slots ---- */")
    globals_.append(f"static int64_t diag_first[{n_slots}];")
    globals_.append(f"static uint64_t diag_count[{n_slots}];")
    globals_.append(
        "#define ACC_DIAG(k) do { if (diag_first[k] < 0) diag_first[k] = step; "
        "diag_count[k]++; } while (0)"
    )

    globals_.append("/* ---- signal monitors ---- */")
    mon_limit = max(1, options.monitor_limit)
    for mon in layout.monitors:
        globals_.append(f"static int64_t mon{mon.mid}_step[{mon_limit}];")
        globals_.append(f"static {mon.dtype.c_name} mon{mon.mid}_val[{mon_limit}];")
        globals_.append(f"static int mon{mon.mid}_n;")

    globals_.append("/* ---- output checksums ---- */")
    for i, _ in enumerate(prog.outports):
        globals_.append(f"static uint64_t chk{i};")

    if reusable:
        from repro.inproc.abi import ABI_VERSION, ResultDecoder

        reset_fn = _emit_case_reset(
            prog, plan, layout, ctx, store_inits, globals_
        )
        sim_fn = _emit_sim_case_fn(
            prog, options,
            stim_body=stim_body, step_body=step_body,
            update_body=update_body, use_halt_label=use_halt_label,
        )
        main_lines = _emit_batch_main(prog, plan, layout, options)
        lib_fn = _emit_lib_exports(
            prog, plan, layout, options,
            abi_version=ABI_VERSION,
            result_size=ResultDecoder(layout, plan, options).size,
        )
        chunks = [
            runtime_header(), "\n".join(globals_), "", reset_fn, "",
            sim_fn, "", "\n".join(main_lines), "", lib_fn, "",
        ]
        return "\n".join(chunks), layout

    # ---- main (legacy: one baked-in case per process run) ----
    main_lines: list[str] = []
    main_lines.append("int main(void) {")
    main_lines.append("    int64_t halt_step = -1;")
    main_lines.append("    int64_t steps_run = 0;")
    main_lines.append("    struct timespec _t0, _t1;")
    main_lines.append("    int64_t step;")
    for i in range(max(1, len(layout.diag_slots))):
        main_lines.append(f"    diag_first[{i}] = -1;")
    main_lines.append("    clock_gettime(CLOCK_MONOTONIC, &_t0);")
    main_lines.append(f"    for (step = 0; step < {options.steps}LL; step++) {{")
    if options.time_budget is not None:
        main_lines.append("        if ((step & 511) == 0) {")
        main_lines.append("            clock_gettime(CLOCK_MONOTONIC, &_t1);")
        main_lines.append(
            "            if ((double)(_t1.tv_sec - _t0.tv_sec) + "
            "1e-9 * (double)(_t1.tv_nsec - _t0.tv_nsec) >= "
            f"{options.time_budget!r}) break;"
        )
        main_lines.append("        }")
    main_lines.append("        /* ---- test case import ---- */")
    main_lines.append(_indent(stim_body, 8))
    main_lines.append("        /* ---- model step (execution order) ---- */")
    main_lines.append(_indent(step_body, 8))
    main_lines.append("        /* ---- state update phase ---- */")
    main_lines.append(_indent(update_body, 8))
    if options.checksum and prog.outports:
        main_lines.append("        /* ---- output checksums ---- */")
        for i, binding in enumerate(prog.outports):
            main_lines.append(
                f"        ACC_CHK(chk{i}, {_bits_expr(svar(binding.sid), binding.dtype)});"
            )
    main_lines.append("        steps_run = step + 1;")
    if use_halt_label:
        main_lines.append("        continue;")
        main_lines.append("    sim_halt:")
        main_lines.append("        halt_step = step;")
        main_lines.append("        steps_run = step + 1;")
        main_lines.append("        break;")
    main_lines.append("    }")
    main_lines.append("    clock_gettime(CLOCK_MONOTONIC, &_t1);")
    main_lines.append(
        "    double _elapsed = (double)(_t1.tv_sec - _t0.tv_sec) + "
        "1e-9 * (double)(_t1.tv_nsec - _t0.tv_nsec);"
    )
    main_lines.append(_indent(_emit_report(prog, plan, layout, options), 4))
    main_lines.append("    return 0;")
    main_lines.append("}")

    source = "\n".join(
        [runtime_header(), "\n".join(globals_), "", "\n".join(main_lines), ""]
    )
    return source, layout


# ----------------------------------------------------------------------
# pieces
# ----------------------------------------------------------------------
def _indent(code: str, by: int) -> str:
    pad = " " * by
    return "\n".join(pad + line if line.strip() else line for line in code.split("\n"))


def _bits_expr(var: str, dtype: DType) -> str:
    if dtype is DType.F64:
        return f"acc_bits_f64({var})"
    if dtype is DType.F32:
        return f"acc_bits_f32({var})"
    return f"(uint64_t)(int64_t){var}"


def _emit_stimuli(prog: FlatProgram, stimuli: Mapping[str, Stimulus]):
    body: list[str] = []
    decls: list[str] = []
    for i, binding in enumerate(prog.inports):
        stim = stimuli[binding.name]
        prefix = f"stim{i}"
        decl = stim.c_decls(prefix)
        if decl:
            decls.append(decl)
        body.append(stim.c_step(svar(binding.sid), binding.dtype, prefix))
    return "\n".join(body), decls


def _emit_descriptor_stimuli(prog: FlatProgram) -> str:
    """Per-port stimulus interpretation from runtime descriptors.

    Each port gets a switch specialized on its dtype at codegen time, so
    the int-vs-float slot selection — and therefore every C conversion —
    matches what the baked-in emitters would have produced for the same
    stimulus, keeping the streams bit-identical.
    """
    adv = f"_st->state = _st->state * {LCG_MUL}ULL + {LCG_INC}ULL;"
    scale = c_double_literal(1.0 / 9007199254740992.0)
    lines: list[str] = []
    for i, binding in enumerate(prog.inports):
        t = binding.dtype.c_name
        target = svar(binding.sid)
        floaty = binding.dtype.is_float
        v0 = "_st->fv0" if floaty else "_st->iv0"
        v1 = "_st->fv1" if floaty else "_st->iv1"
        lines.append(f"{{ acc_stim *_st = &acc_stims[{i}]; /* {binding.name} */")
        lines.append("switch ((int)_st->kind) {")
        lines.append(
            f"case {STIM_KIND_CONSTANT}: {target} = ({t}){v0}; break;"
        )
        # Table reads stay in separate if/else branches: a ?: would unify
        # the operand types to double and round int64 values > 2**53.
        lines.append(
            f"case {STIM_KIND_SEQUENCE}: {{ long long _k = step % _st->tab_len; "
            f"if (_st->tab_is_float) {target} = ({t})_st->tab_f[_k]; "
            f"else {target} = ({t})_st->tab_i[_k]; }} break;"
        )
        lines.append(
            f"case {STIM_KIND_RAMP}: "
            f"{target} = ({t})(_st->f0 + _st->f1 * (double)step); break;"
        )
        lines.append(
            f"case {STIM_KIND_SINE}: {target} = ({t})(_st->f0 * "
            f"sin(_st->f1 * (double)step + _st->f2) + _st->f3); break;"
        )
        lines.append(
            f"case {STIM_KIND_STEP}: {target} = (step < _st->i0) ? "
            f"({t}){v0} : ({t}){v1}; break;"
        )
        lines.append(
            f"case {STIM_KIND_PULSE}: {target} = ((step % _st->i0) < _st->i1) ? "
            f"({t}){v0} : ({t}){v1}; break;"
        )
        lines.append(
            f"case {STIM_KIND_UNIFORM}: {{ unsigned long long _r = _st->state; "
            f"{adv} {target} = ({t})(_st->f0 + ((double)(_r >> 11) * {scale}) * "
            f"(_st->f1 - _st->f0)); }} break;"
        )
        lines.append(
            f"case {STIM_KIND_INT_RANDOM}: {{ unsigned long long _r = _st->state; "
            f"{adv} {target} = ({t})(_st->i0 + "
            f"(long long)((_r >> 33) % _st->u0)); }} break;"
        )
        lines.append(f"default: {target} = ({t})0; break;")
        lines.append("} }")
    return "\n".join(lines) if lines else "/* no inports */"


def _emit_case_reset(
    prog: FlatProgram,
    plan: InstrumentationPlan,
    layout: ProgramLayout,
    ctx: EmitContext,
    store_inits: list[tuple[str, str]],
    globals_: list[str],
) -> str:
    """``acc_case_reset()``: restore every global to its load-time value
    so case N+1 of a batch sees exactly the state a fresh process would.
    Appends the shadow ``const`` initializer copies for state arrays to
    ``globals_``.
    """
    shadows, state_resets = state_reset_statements(ctx.decls)
    if shadows:
        globals_.append("/* ---- state-array initial images (batch reset) ---- */")
        globals_.extend(shadows)

    body: list[str] = []
    body.append("/* signals */")
    for sig in prog.signals:
        body.append(f"{svar(sig.sid)} = 0;")
    for guard in prog.guards:
        body.append(f"g{guard.gid} = 0;")
    if store_inits:
        body.append("/* data stores */")
        for name, init in store_inits:
            body.append(f"{name} = {init};")
    if state_resets:
        body.append("/* actor state */")
        body.extend(state_resets)
    if plan.coverage_enabled:
        body.append("/* coverage */")
        for array in ("cov_actor", "cov_cond", "cov_dec", "cov_mcdc"):
            body.append(f"memset({array}, 0, sizeof({array}));")
    n_slots = max(1, len(layout.diag_slots))
    body.append("/* diagnosis slots */")
    body.append(
        f"for (int _i = 0; _i < {n_slots}; _i++) "
        "{ diag_first[_i] = -1; diag_count[_i] = 0; }"
    )
    if layout.monitors:
        body.append("/* monitors */")
        for mon in layout.monitors:
            body.append(f"mon{mon.mid}_n = 0;")
    if prog.outports:
        body.append("/* checksums */")
        for i, _ in enumerate(prog.outports):
            body.append(f"chk{i} = 0;")
    return (
        "static void acc_case_reset(void) {\n"
        + _indent("\n".join(body), 4)
        + "\n}"
    )


def _emit_sim_case_fn(
    prog: FlatProgram,
    options: SimulationOptions,
    *,
    stim_body: str,
    step_body: str,
    update_body: str,
    use_halt_label: bool,
) -> str:
    """``acc_sim_case()``: one case end to end — reset, simulation loop,
    budget/deadline checks, timings.  Shared verbatim by the stdin-driven
    ``main`` and the exported in-process entry point, so the two paths
    cannot diverge.  Returns 1 when the per-case deadline tripped.
    """
    lines: list[str] = []
    lines.append(
        "static int acc_sim_case(long long _case_steps, double _case_budget, "
        "double _case_deadline,"
    )
    lines.append(
        "                        int64_t *_out_steps_run, "
        "int64_t *_out_halt_step, double *_out_elapsed) {"
    )
    lines.append("    int64_t halt_step = -1;")
    lines.append("    int64_t steps_run = 0;")
    lines.append("    int _case_timed_out = 0;")
    lines.append("    int64_t step;")
    lines.append("    struct timespec _t0, _t1;")
    lines.append("    acc_case_reset();")
    lines.append("    clock_gettime(CLOCK_MONOTONIC, &_t0);")
    lines.append("    for (step = 0; step < (int64_t)_case_steps; step++) {")
    lines.append(
        "        if ((_case_budget > 0.0 || _case_deadline > 0.0) && "
        "(step & 511) == 0) {"
    )
    lines.append("            clock_gettime(CLOCK_MONOTONIC, &_t1);")
    lines.append(
        "            double _el = (double)(_t1.tv_sec - _t0.tv_sec) + "
        "1e-9 * (double)(_t1.tv_nsec - _t0.tv_nsec);"
    )
    lines.append(
        "            if (_case_deadline > 0.0 && _el >= _case_deadline) "
        "{ _case_timed_out = 1; break; }"
    )
    lines.append(
        "            if (_case_budget > 0.0 && _el >= _case_budget) break;"
    )
    lines.append("        }")
    lines.append("        /* ---- test case import (descriptors) ---- */")
    lines.append(_indent(stim_body, 8))
    lines.append("        /* ---- model step (execution order) ---- */")
    lines.append(_indent(step_body, 8))
    lines.append("        /* ---- state update phase ---- */")
    lines.append(_indent(update_body, 8))
    if options.checksum and prog.outports:
        lines.append("        /* ---- output checksums ---- */")
        for i, binding in enumerate(prog.outports):
            lines.append(
                f"        ACC_CHK(chk{i}, "
                f"{_bits_expr(svar(binding.sid), binding.dtype)});"
            )
    lines.append("        steps_run = step + 1;")
    if use_halt_label:
        lines.append("        continue;")
        lines.append("    sim_halt:")
        lines.append("        halt_step = step;")
        lines.append("        steps_run = step + 1;")
        lines.append("        break;")
    lines.append("    }")
    lines.append("    clock_gettime(CLOCK_MONOTONIC, &_t1);")
    lines.append(
        "    *_out_elapsed = (double)(_t1.tv_sec - _t0.tv_sec) + "
        "1e-9 * (double)(_t1.tv_nsec - _t0.tv_nsec);"
    )
    lines.append("    *_out_steps_run = steps_run;")
    lines.append("    *_out_halt_step = halt_step;")
    lines.append("    return _case_timed_out;")
    lines.append("}")
    return "\n".join(lines)


def _emit_batch_main(
    prog: FlatProgram,
    plan: InstrumentationPlan,
    layout: ProgramLayout,
    options: SimulationOptions,
) -> list[str]:
    """``main`` for the reusable program: loop over stdin case records.

    Invoked with ``--serve`` the same loop becomes a persistent server:
    it prints a ``ready`` handshake up front and flushes stdout after
    every case's ``done <i>`` trailer, so a host process can stream case
    records in and parse each result frame as soon as it completes —
    one warm process, zero respawns, until stdin closes.
    """
    lines: list[str] = []
    lines.append("int main(int argc, char **argv) {")
    lines.append("    long long _case_steps;")
    lines.append("    double _case_budget, _case_deadline;")
    lines.append("    int _case_index = 0;")
    lines.append("    int _rc;")
    lines.append("    int _serve = acc_serve_mode(argc, argv);")
    lines.append('    if (_serve) { printf("ready\\n"); fflush(stdout); }')
    lines.append(
        "    while ((_rc = acc_read_case(&_case_steps, &_case_budget, "
        "&_case_deadline)) == 1) {"
    )
    lines.append("        int64_t steps_run, halt_step;")
    lines.append("        double _elapsed;")
    lines.append('        printf("case %d\\n", _case_index);')
    lines.append(
        "        int _case_timed_out = acc_sim_case(_case_steps, "
        "_case_budget, _case_deadline,"
    )
    lines.append(
        "                                            &steps_run, &halt_step, "
        "&_elapsed);"
    )
    lines.append(_indent(_emit_report(prog, plan, layout, options), 8))
    lines.append(
        '        if (_case_timed_out) printf("timeout 1\\n");'
    )
    lines.append(
        '        if (_serve) { printf("done %d\\n", _case_index); '
        "fflush(stdout); }"
    )
    lines.append("        _case_index++;")
    lines.append("    }")
    lines.append("    if (_rc < 0) {")
    lines.append(
        '        fprintf(stderr, "accmos: malformed stimulus descriptor '
        'input\\n");'
    )
    lines.append("        return 2;")
    lines.append("    }")
    lines.append("    return 0;")
    lines.append("}")
    return lines


def _emit_binary_report(
    prog: FlatProgram,
    plan: InstrumentationPlan,
    layout: ProgramLayout,
    options: SimulationOptions,
) -> str:
    """The packed-result body of ``acc_lib_run_case``: every 8-byte word
    the text protocol would print, in the fixed order ``inproc.abi``
    decodes — checksums, output bits, coverage words, diagnosis slots,
    monitor samples.  Floats travel as canonical IEEE bits (same
    ``acc_bits_*`` NaN canonicalization the checksums use).
    """
    lines: list[str] = []
    if options.checksum:
        for i, _binding in enumerate(prog.outports):
            lines.append(f"acc_put_u((unsigned long long)chk{i});")
    for binding in prog.outports:
        var = svar(binding.sid)
        if binding.dtype.is_float:
            lines.append(f"acc_put_u(acc_bits_f64((double){var}));")
        else:
            lines.append(
                f"acc_put_u((unsigned long long)(uint64_t)(int64_t){var});"
            )
    if plan.coverage_enabled:
        points = plan.points
        for array, n in (
            ("cov_actor", points.n_actor),
            ("cov_cond", points.n_condition),
            ("cov_dec", points.n_decision),
            ("cov_mcdc", points.n_mcdc),
        ):
            lines.append(f"for (int _i = 0; _i < {n}; _i += 64) {{")
            lines.append("    uint64_t _w = 0;")
            lines.append(f"    for (int _b = 0; _b < 64 && _i + _b < {n}; _b++)")
            lines.append(f"        _w |= (uint64_t)({array}[_i + _b] & 1) << _b;")
            lines.append("    acc_put_u((unsigned long long)_w);")
            lines.append("}")
    for slot in range(len(layout.diag_slots)):
        lines.append(f"acc_put_i((long long)diag_first[{slot}]);")
        lines.append(f"acc_put_u((unsigned long long)diag_count[{slot}]);")
    for mon in layout.monitors:
        if mon.dtype.is_float:
            value = f"acc_bits_f64((double)mon{mon.mid}_val[_i])"
        else:
            value = (
                f"(unsigned long long)(uint64_t)(int64_t)mon{mon.mid}_val[_i]"
            )
        lines.append(f"acc_put_u((unsigned long long)mon{mon.mid}_n);")
        lines.append(f"for (int _i = 0; _i < mon{mon.mid}_n; _i++) {{")
        lines.append(f"    acc_put_i((long long)mon{mon.mid}_step[_i]);")
        lines.append(f"    acc_put_u({value});")
        lines.append("}")
    return "\n".join(lines) if lines else "/* header only */"


def _emit_lib_exports(
    prog: FlatProgram,
    plan: InstrumentationPlan,
    layout: ProgramLayout,
    options: SimulationOptions,
    *,
    abi_version: int,
    result_size: int,
) -> str:
    """The in-process entry points (``repro.inproc``): same reusable
    source compiled with ``-shared -fPIC`` becomes a loadable engine.

    ``acc_lib_run_case`` reads one packed binary case record and fills a
    caller-provided result buffer — no stdio on either side.  Returns
    0 on success, -1 for a malformed record (including trailing bytes),
    -2 for a port-count mismatch, -3 when the result buffer is smaller
    than ``acc_lib_result_size()``.  A tripped per-case deadline is a
    *success* with result flag bit 0 set, mirroring the text protocol's
    ``timeout 1`` trailer.  ``acc_lib_init`` returns 0 on success — the
    loader treats any non-zero init status as a fatal fault and refuses
    the instance (the ABI version travels via ``acc_lib_abi_version``).
    """
    lines: list[str] = []
    lines.append("/* ---- in-process shared-library ABI (repro.inproc) ---- */")
    lines.append(f"#define ACC_LIB_ABI_VERSION {abi_version}")
    lines.append(f"#define ACC_LIB_RESULT_SIZE {result_size}LL")
    lines.append("")
    lines.append("static unsigned char *acc_wp;")
    lines.append(
        "static void acc_put_i(long long v) { memcpy(acc_wp, &v, 8); "
        "acc_wp += 8; }"
    )
    lines.append(
        "static void acc_put_u(unsigned long long v) { memcpy(acc_wp, &v, 8); "
        "acc_wp += 8; }"
    )
    lines.append(
        "static void acc_put_f(double v) { memcpy(acc_wp, &v, 8); "
        "acc_wp += 8; }"
    )
    lines.append("")
    lines.append("int acc_lib_abi_version(void) { return ACC_LIB_ABI_VERSION; }")
    lines.append(
        "long long acc_lib_result_size(void) { return ACC_LIB_RESULT_SIZE; }"
    )
    lines.append("void acc_lib_reset(void) { acc_case_reset(); }")
    lines.append(
        "int acc_lib_init(void) { acc_case_reset(); return 0; }"
    )
    lines.append("")
    lines.append(
        "int acc_lib_run_case(const unsigned char *record, "
        "long long record_len,"
    )
    lines.append(
        "                     unsigned char *result, long long result_len) {"
    )
    lines.append("    long long _case_steps;")
    lines.append("    double _case_budget, _case_deadline;")
    lines.append("    int64_t steps_run, halt_step;")
    lines.append("    double _elapsed;")
    lines.append(
        "    acc_cur _c = { record, "
        "record + (record_len > 0 ? record_len : 0) };"
    )
    lines.append(
        "    int _rc = acc_read_case_bin(&_c, &_case_steps, &_case_budget, "
        "&_case_deadline);"
    )
    lines.append("    if (_rc != 1) return _rc == -2 ? -2 : -1;")
    lines.append("    if (_c.p != _c.end) return -1;")
    lines.append("    if (result_len < ACC_LIB_RESULT_SIZE) return -3;")
    lines.append(
        "    int _case_timed_out = acc_sim_case(_case_steps, _case_budget, "
        "_case_deadline,"
    )
    lines.append(
        "                                       &steps_run, &halt_step, "
        "&_elapsed);"
    )
    lines.append("    acc_wp = result;")
    lines.append("    acc_put_i((long long)steps_run);")
    lines.append("    acc_put_i((long long)halt_step);")
    lines.append("    acc_put_f(_elapsed);")
    lines.append("    acc_put_u(_case_timed_out ? 1ULL : 0ULL);")
    lines.append(_indent(_emit_binary_report(prog, plan, layout, options), 4))
    lines.append("    return 0;")
    lines.append("}")
    return "\n".join(lines)


def _mcdc_block(op: str, truth_exprs: list[str], base: int) -> str:
    """Inline masking MC/DC; mirrors coverage.mcdc.mcdc_sides."""
    n = len(truth_exprs)
    if op in ("AND", "NAND"):
        count = " + ".join(f"(!{t})" for t in truth_exprs)
        all_hits = " ".join(f"cov_mcdc[{base + 2 * i + 1}] = 1;" for i in range(n))
        chain = []
        for i, t in enumerate(truth_exprs):
            kw = "if" if i == 0 else "else if"
            chain.append(f"{kw} (!{t}) cov_mcdc[{base + 2 * i}] = 1;")
        return (
            f"{{ int _nf2 = {count}; "
            f"if (_nf2 == 0) {{ {all_hits} }} "
            f"else if (_nf2 == 1) {{ {' '.join(chain)} }} }}"
        )
    if op in ("OR", "NOR"):
        count = " + ".join(f"({t})" for t in truth_exprs)
        all_hits = " ".join(f"cov_mcdc[{base + 2 * i}] = 1;" for i in range(n))
        chain = []
        for i, t in enumerate(truth_exprs):
            kw = "if" if i == 0 else "else if"
            chain.append(f"{kw} ({t}) cov_mcdc[{base + 2 * i + 1}] = 1;")
        return (
            f"{{ int _nt2 = {count}; "
            f"if (_nt2 == 0) {{ {all_hits} }} "
            f"else if (_nt2 == 1) {{ {' '.join(chain)} }} }}"
        )
    if op == "XOR":
        return " ".join(
            f"cov_mcdc[{base + 2 * i} + ({t} ? 1 : 0)] = 1;"
            for i, t in enumerate(truth_exprs)
        )
    return ""


def _emit_step_body(
    ctx: EmitContext,
    prog: FlatProgram,
    plan: InstrumentationPlan,
    slot_of: dict,
    custom_slot_of: dict,
    layout: ProgramLayout,
    halt_kinds: frozenset,
    options: SimulationOptions,
) -> str:
    monitor_by_index = {m.path: m for m in layout.monitors}
    lines: list[str] = []
    for node in prog.order:
        if isinstance(node, EvalGuard):
            guard = prog.guards[node.gid]
            parent = f"g{guard.parent} && " if guard.parent is not None else ""
            lines.append(
                f"g{node.gid} = (uint8_t)({parent}({svar(guard.signal)} > 0));"
            )
            continue

        fa = prog.actors[node.actor_index]
        inst = plan.actors[node.actor_index]
        block: list[str] = [f"/* {fa.path} ({fa.block_type}) */"]
        block.append("FLAGS_RESET();")
        block.append(emit_actor_output(ctx, fa))

        if plan.coverage_enabled:
            block.append(f"cov_actor[{inst.actor_point}] = 1;")
            if inst.decision_base is not None:
                out = svar(fa.output_sids[0])
                block.append(
                    f"cov_dec[{inst.decision_base} + ({out} != 0 ? 1 : 0)] = 1;"
                )
            if inst.mcdc_base is not None:
                truths = [f"({svar(s)} != 0)" for s in fa.input_sids]
                block.append(
                    _mcdc_block(inst.logic_op, truths, inst.mcdc_base[0])
                )

        if plan.diagnostics_enabled:
            # FLAG_KINDS order, matching the interpreted engine's checks.
            for flag_name, kind in FLAG_KINDS:
                if kind not in inst.diagnose_kinds:
                    continue
                slot = slot_of[(fa.index, kind.value)]
                flag = _FLAG_VARS[flag_name]
                halt = " goto sim_halt;" if kind in halt_kinds else ""
                block.append(f"if ({flag}) {{ ACC_DIAG({slot});{halt} }}")
            for j, diag in enumerate(inst.custom):
                slot = custom_slot_of[(fa.index, j)]
                pred = _substitute_custom_predicate(diag, fa, prog)
                halt = (
                    " goto sim_halt;" if DiagnosticKind.CUSTOM in halt_kinds else ""
                )
                block.append(f"if ({pred}) {{ ACC_DIAG({slot});{halt} }}")

        if inst.collect and inst.path in monitor_by_index:
            mon = monitor_by_index[inst.path]
            limit = max(1, options.monitor_limit)
            block.append(
                f"if (mon{mon.mid}_n < {limit}) {{ "
                f"mon{mon.mid}_step[mon{mon.mid}_n] = step; "
                f"mon{mon.mid}_val[mon{mon.mid}_n] = {mon.value_var}; "
                f"mon{mon.mid}_n++; }}"
            )

        body = "\n".join(b for b in block if b)
        if fa.guard is not None:
            lines.append(f"if (g{fa.guard}) {{\n{_indent(body, 4)}\n}}")
        else:
            lines.append(body)
    return "\n".join(lines)


def _flag_for(kind: DiagnosticKind) -> str:
    for flag_name, flag_kind in FLAG_KINDS:
        if flag_kind is kind:
            return flag_name
    raise CodegenError(f"kind {kind} has no runtime flag")


def _emit_update_body(ctx: EmitContext, prog: FlatProgram) -> str:
    lines = []
    for node in prog.order:
        if isinstance(node, EvalGuard):
            continue
        fa = prog.actors[node.actor_index]
        update = emit_actor_update(ctx, fa)
        if not update:
            continue
        if fa.guard is not None:
            lines.append(f"if (g{fa.guard}) {{ {update} }}")
        else:
            lines.append(update)
    return "\n".join(lines) if lines else "/* no stateful actors */"


def _emit_report(
    prog: FlatProgram,
    plan: InstrumentationPlan,
    layout: ProgramLayout,
    options: SimulationOptions,
) -> str:
    lines: list[str] = []
    lines.append('printf("steps_run %lld\\n", (long long)steps_run);')
    lines.append('printf("halt %lld\\n", (long long)halt_step);')
    lines.append('printf("sim_seconds %.9f\\n", _elapsed);')
    for i, binding in enumerate(prog.outports):
        if options.checksum:
            lines.append(
                f'printf("checksum {binding.name} %llu\\n", '
                f"(unsigned long long)chk{i});"
            )
        var = svar(binding.sid)
        if binding.dtype.is_float:
            lines.append(f'printf("output {binding.name} %a\\n", (double){var});')
        elif binding.dtype.is_signed:
            lines.append(
                f'printf("output {binding.name} %lld\\n", (long long){var});'
            )
        else:
            lines.append(
                f'printf("output {binding.name} %llu\\n", '
                f"(unsigned long long){var});"
            )
    if plan.coverage_enabled:
        points = plan.points
        # Bitmaps travel as 64-point hex words (LSB = lowest point index):
        # 64x fewer bytes and parse iterations than one ASCII 0/1 per point.
        for metric, array, n in (
            ("actor", "cov_actor", points.n_actor),
            ("condition", "cov_cond", points.n_condition),
            ("decision", "cov_dec", points.n_decision),
            ("mcdc", "cov_mcdc", points.n_mcdc),
        ):
            lines.append(f'printf("cov {metric} {n}");')
            lines.append(f"for (int _i = 0; _i < {n}; _i += 64) {{")
            lines.append("    uint64_t _w = 0;")
            lines.append(
                f"    for (int _b = 0; _b < 64 && _i + _b < {n}; _b++)"
            )
            lines.append(
                f"        _w |= (uint64_t)({array}[_i + _b] & 1) << _b;"
            )
            lines.append('    printf(" %llx", (unsigned long long)_w);')
            lines.append("}")
            lines.append("putchar('\\n');")
    for slot in range(len(layout.diag_slots)):
        lines.append(
            f"if (diag_first[{slot}] >= 0) "
            f'printf("diag {slot} %lld %llu\\n", '
            f"(long long)diag_first[{slot}], "
            f"(unsigned long long)diag_count[{slot}]);"
        )
    for mon in layout.monitors:
        if mon.dtype.is_float:
            value_fmt, value_cast = "%a", "(double)"
        elif mon.dtype.is_signed:
            value_fmt, value_cast = "%lld", "(long long)"
        else:
            value_fmt, value_cast = "%llu", "(unsigned long long)"
        lines.append(
            f"for (int _i = 0; _i < mon{mon.mid}_n; _i++) "
            f'printf("mon {mon.mid} %lld {value_fmt}\\n", '
            f"(long long)mon{mon.mid}_step[_i], {value_cast}mon{mon.mid}_val[_i]);"
        )
    return "\n".join(lines)
