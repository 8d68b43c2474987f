"""Which diagnoses apply where.

The paper: "the type and number of diagnoses vary depending on the actor
type and its operator.  For example, a Product actor with the '/' operator
needs to diagnose division by zero errors; ... with the '*' operator, this
diagnosing becomes unnecessary."  :func:`applicable_kinds` is that table;
the instrumentation step uses it to decide what to wire into each actor,
and the generated diagnostic functions only contain the applicable checks.

:func:`static_downcast_warnings` is the paper's Figure 4 sizeof-style
check: an integer calculation actor whose output type is narrower than an
input type is flagged once, statically.
"""

from __future__ import annotations

from repro.actors.registry import get_spec
from repro.diagnosis.events import DiagnosticEvent, DiagnosticKind
from repro.schedule.program import FlatActor, FlatProgram

_K = DiagnosticKind


def applicable_kinds(fa: FlatActor) -> frozenset[DiagnosticKind]:
    """Runtime diagnosis kinds that can fire at this actor."""
    spec = get_spec(fa.block_type)
    if not spec.is_calculation:
        # Branch actors can still raise out-of-bounds (MultiportSwitch).
        if fa.block_type == "MultiportSwitch":
            return frozenset({_K.ARRAY_OUT_OF_BOUNDS})
        return frozenset()

    out_dtype = fa.actor.outputs[0].dtype if fa.actor.outputs else None
    kinds: set[DiagnosticKind] = set()
    bt, op = fa.block_type, fa.actor.operator

    integer_out = out_dtype is not None and out_dtype.is_integer
    float_out = out_dtype is not None and out_dtype.is_float

    if bt in ("Sum", "Gain", "Bias", "Abs", "UnaryMinus", "Accumulator", "Shift"):
        if integer_out:
            kinds.add(_K.WRAP_ON_OVERFLOW)
    if bt == "Product":
        if integer_out:
            kinds.add(_K.WRAP_ON_OVERFLOW)
        if op and "/" in op:
            kinds.add(_K.DIV_BY_ZERO)
    if bt == "Mod":
        kinds.add(_K.DIV_BY_ZERO)
        if integer_out:
            kinds.add(_K.WRAP_ON_OVERFLOW)
    if bt == "Math":
        kinds.add(_K.NON_FINITE)
        if op == "reciprocal":
            kinds.add(_K.DIV_BY_ZERO)
    if bt in ("Sqrt", "Power", "Polynomial"):
        kinds.add(_K.NON_FINITE)
    if bt == "DataTypeConversion":
        if integer_out:
            kinds.update({_K.WRAP_ON_OVERFLOW, _K.PRECISION_LOSS})
        else:
            kinds.update({_K.PRECISION_LOSS, _K.NON_FINITE})
    if bt == "DataStoreWrite":
        kinds.add(_K.WRAP_ON_OVERFLOW)
    if bt == "DirectLookup":
        kinds.add(_K.ARRAY_OUT_OF_BOUNDS)
    if bt in ("DiscreteIntegrator", "DiscreteFilter", "DiscreteDerivative"):
        kinds.add(_K.NON_FINITE)

    # Any integer calculation whose inputs are wider can lose bits on the
    # implicit input casts (runtime precision loss / wrap); mixed
    # float-to-int casts likewise.
    if integer_out:
        for port in fa.actor.inputs:
            if port.dtype is None:
                continue
            if port.dtype.is_float:
                kinds.update({_K.PRECISION_LOSS, _K.WRAP_ON_OVERFLOW})
            elif port.dtype.is_integer and port.dtype.bits > out_dtype.bits:
                kinds.add(_K.WRAP_ON_OVERFLOW)
    if float_out and bt in ("Sum", "Product", "Gain", "Bias"):
        kinds.add(_K.NON_FINITE)

    return frozenset(kinds)


def downcast_pairs(fa: FlatActor) -> list[tuple[str, str]]:
    """(input dtype, output dtype) pairs that statically narrow.

    Mirrors Figure 4's ``sizeof(out) < sizeof(in)`` test, in bits and only
    for integer-to-integer calculation paths (float narrowing is reported
    through runtime precision loss instead).
    """
    spec = get_spec(fa.block_type)
    if not spec.is_calculation or not fa.actor.outputs:
        return []
    out_dtype = fa.actor.outputs[0].dtype
    if out_dtype is None or not out_dtype.is_integer:
        return []
    pairs = []
    for port in fa.actor.inputs:
        if port.dtype is not None and port.dtype.is_integer and (
            port.dtype.bits > out_dtype.bits
        ):
            pairs.append((port.dtype.short_name, out_dtype.short_name))
    return pairs


def static_downcast_warnings(prog: FlatProgram) -> list[DiagnosticEvent]:
    """All static downcast findings of a program (Figure 4 semantics)."""
    warnings = []
    for fa in prog.actors:
        for in_name, out_name in downcast_pairs(fa):
            warnings.append(
                DiagnosticEvent(
                    path=fa.path,
                    kind=DiagnosticKind.DOWNCAST,
                    first_step=-1,
                    count=1,
                    message=(
                        f"output type {out_name} is narrower than input type "
                        f"{in_name}; downcast may exist"
                    ),
                )
            )
    return warnings
