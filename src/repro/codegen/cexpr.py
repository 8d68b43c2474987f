"""Small C expression-building utilities shared by the actor templates."""

from __future__ import annotations

from repro.dtypes import DType
from repro.stimuli.base import c_double_literal, c_int_literal


def svar(sid: int) -> str:
    """The C variable holding a signal's current value."""
    return f"s{sid}"


def state_var(actor_index: int, suffix: str = "") -> str:
    """The C variable(s) holding an actor's internal state."""
    return f"st{actor_index}{suffix}"


def emit_cast(expr: str, src: DType, dst: DType) -> str:
    """A checked-conversion expression; mirrors ``checked_cast``.

    Bool sources fit everywhere (plain cast, no flags), bool destinations
    use truthiness, identical types pass through.
    """
    if src is dst:
        return expr
    if dst.is_bool:
        return f"ACC_TO_BOOL({expr})"
    if src.is_bool:
        return f"({dst.c_name})({expr})"
    if src is DType.F32 and dst.is_integer:
        # The float→int helpers take double; f32→f64 promotion is exact.
        return f"acc_cast_f64_{dst.short_name}((double)({expr}))"
    return f"acc_cast_{src.short_name}_{dst.short_name}({expr})"


def float_literal(value: float, dtype: DType) -> str:
    """An exact float literal in the compute type."""
    lit = c_double_literal(float(value))
    if dtype is DType.F32:
        return f"(float){lit}"
    return lit


def value_literal(value, dtype: DType) -> str:
    """A literal of ``value`` conformed to ``dtype``.

    Integer values are routed through :func:`int_param` — the same
    wrap/truncate the interpreter applies — so an out-of-range parameter
    (e.g. 300 on an INT8 port) emits the wrapped value rather than a
    literal the C compiler would conform differently.
    """
    if dtype.is_float:
        return float_literal(value, dtype)
    from repro.actors.math_ops import int_param

    return f"({dtype.c_name}){c_int_literal(int_param(value, dtype), dtype)}"


def indent(code: str, by: str = "    ") -> str:
    return "\n".join(by + line if line.strip() else line for line in code.split("\n"))
