"""The generated C runtime prelude.

This module assembles (as text) the helper layer every generated simulation
program starts with: checked wrap arithmetic and conversions that mirror
:mod:`repro.dtypes.arith` operation for operation, flag for flag.  The
mirroring contract is load-bearing — the cross-engine equivalence tests
compare interpreted and compiled runs bit for bit — so each helper's
comment names the Python function it shadows.

Flags are module-level ints (``f_ov``, ``f_dz``, ``f_pl``, ``f_nf``,
``f_ob``) reset at the top of every generated actor block and inspected by
that block's diagnosis code; gcc's optimizer removes the dead ones.
"""

from __future__ import annotations

import functools

from repro.dtypes.dtype import INTEGER_DTYPES
from repro.stimuli.base import DESCRIPTOR_FIELDS

_HEADER_TOP = r"""/* Generated by the AccMoS reproduction. Do not edit. */
#define _POSIX_C_SOURCE 199309L
#include <stdint.h>
#include <stdio.h>
#include <string.h>
#include <math.h>
#include <time.h>

/* ---- arithmetic status flags (reset per actor block) ---- */
static int f_ov, f_dz, f_pl, f_nf, f_ob;
#define FLAGS_RESET() (f_ov = f_dz = f_pl = f_nf = f_ob = 0)

/* round half away from zero; mirrors math_ops.c_round */
static inline double acc_round(double x) {
    return x >= 0.0 ? floor(x + 0.5) : ceil(x - 0.5);
}

/* reduce an integral double to 64 wrap bits; mirrors checked_cast's
 * out-of-range float-to-int path (wrap(int(v), dst)).  fmod is exact, and
 * |fmod(t, 2^64)| < 2^64 always converts to uint64 exactly; the negative
 * branch completes the two's complement in integer arithmetic (adding
 * 2^64 as a double would round away the low bits). */
static inline uint64_t acc_wrap_f64_u64(double t) {
    double m = fmod(t, 18446744073709551616.0);
    if (m < 0.0) {
        uint64_t u = (uint64_t)(-m);
        return (uint64_t)0 - u;
    }
    return (uint64_t)m;
}

/* float division; mirrors checked_div (float path) */
static inline double acc_div_f64(double a, double b) {
    if (b == 0.0) {
        f_dz = 1;
        return a == 0.0 ? (0.0 / 0.0) : (a > 0.0 ? (1.0 / 0.0) : -(1.0 / 0.0));
    }
    return a / b;
}
static inline float acc_div_f32(float a, float b) {
    if (b == 0.0f) {
        f_dz = 1;
        return a == 0.0f ? (0.0f / 0.0f) : (a > 0.0f ? (1.0f / 0.0f) : -(1.0f / 0.0f));
    }
    return a / b;
}

/* float remainder; mirrors checked_mod (float path) */
static inline double acc_fmod_f64(double a, double b) {
    if (b == 0.0) { f_dz = 1; return 0.0 / 0.0; }
    return fmod(a, b);
}

/* ---- output checksums; mirror engines.base.signal_bits ---- */
static inline uint64_t acc_bits_f64(double v) {
    uint64_t u;
    if (isnan(v)) return 0x7ff8000000000000ULL;
    memcpy(&u, &v, 8);
    return u;
}
static inline uint64_t acc_bits_f32(float v) {
    uint32_t u;
    if (isnan(v)) return 0x7fc00000u;
    memcpy(&u, &v, 4);
    return (uint64_t)u;
}
#define ACC_CHK(acc, bits) ((acc) = (acc) * 1099511628211ULL + (bits))
"""


def _int_literal_i128(value: int) -> str:
    """An __int128-typed literal for any value in [-2^63, 2^64-1]."""
    if value == -(1 << 63):
        return "(-(__int128)9223372036854775807LL - 1)"
    if value >= (1 << 63):
        return f"(__int128){value}ULL"
    suffix = "LL" if (value < 0 or value <= (1 << 63) - 1) else "ULL"
    return f"(__int128)({value}{suffix})"


def _int_arith_helpers() -> list[str]:
    """Checked add/sub/mul/neg/div/mod per integer dtype.

    Mirrors checked_add / checked_sub / checked_mul / checked_neg /
    checked_div / checked_mod (integer paths): two's-complement wrap with
    the overflow flag, C truncating division with a guarded zero divisor.
    """
    parts = []
    for dt in INTEGER_DTYPES:
        t = dt.c_name
        s = dt.short_name
        for op, builtin in (("add", "__builtin_add_overflow"),
                            ("sub", "__builtin_sub_overflow"),
                            ("mul", "__builtin_mul_overflow")):
            parts.append(
                f"static inline {t} acc_{op}_{s}({t} a, {t} b) "
                f"{{ {t} r; if ({builtin}(a, b, &r)) f_ov = 1; return r; }}"
            )
        parts.append(
            f"static inline {t} acc_neg_{s}({t} a) "
            f"{{ {t} r; if (__builtin_sub_overflow(({t})0, a, &r)) f_ov = 1; return r; }}"
        )
        if dt.is_signed:
            min_lit = (
                "(-9223372036854775807LL - 1)" if dt.bits == 64
                else f"({t})({dt.min_value})"
            )
            parts.append(
                f"static inline {t} acc_div_{s}({t} a, {t} b) {{\n"
                f"    if (b == 0) {{ f_dz = 1; return 0; }}\n"
                f"    if (a == {min_lit} && b == -1) {{ f_ov = 1; return a; }}\n"
                f"    return ({t})(a / b);\n"
                f"}}"
            )
            parts.append(
                f"static inline {t} acc_mod_{s}({t} a, {t} b) {{\n"
                f"    if (b == 0) {{ f_dz = 1; return 0; }}\n"
                f"    if (b == -1) return 0;\n"
                f"    return ({t})(a % b);\n"
                f"}}"
            )
        else:
            parts.append(
                f"static inline {t} acc_div_{s}({t} a, {t} b) "
                f"{{ if (b == 0) {{ f_dz = 1; return 0; }} return ({t})(a / b); }}"
            )
            parts.append(
                f"static inline {t} acc_mod_{s}({t} a, {t} b) "
                f"{{ if (b == 0) {{ f_dz = 1; return 0; }} return ({t})(a % b); }}"
            )
    return parts


def _int_cast_helpers() -> list[str]:
    """Integer-to-integer checked casts; mirror checked_cast (int→int)."""
    parts = []
    for src in INTEGER_DTYPES:
        for dst in INTEGER_DTYPES:
            if src is dst:
                continue
            # Does any src value fall outside dst's range?
            needs_low = src.min_value < dst.min_value
            needs_high = src.max_value > dst.max_value
            checks = []
            if needs_low:
                checks.append(f"w < {_int_literal_i128(dst.min_value)}")
            if needs_high:
                checks.append(f"w > {_int_literal_i128(dst.max_value)}")
            body = f"return ({dst.c_name})v;"
            if checks:
                body = (
                    f"__int128 w = (__int128)v; "
                    f"if ({' || '.join(checks)}) f_ov = 1; return ({dst.c_name})v;"
                )
            parts.append(
                f"static inline {dst.c_name} acc_cast_{src.short_name}_"
                f"{dst.short_name}({src.c_name} v) {{ {body} }}"
            )
    return parts


def _float_int_cast_helpers() -> list[str]:
    """double→int checked casts; mirror checked_cast (float→int)."""
    parts = []
    for dst in INTEGER_DTYPES:
        t, s = dst.c_name, dst.short_name
        low = f"{float(dst.min_value)!r}"
        if dst.bits >= 63 or (not dst.is_signed and dst.bits == 64):
            # max+1 is an exact power-of-two double; max itself is not.
            high_check = f"t >= {float(dst.max_value + 1)!r}"
        else:
            high_check = f"t > {float(dst.max_value)!r}"
        parts.append(
            f"static inline {t} acc_cast_f64_{s}(double v) {{\n"
            f"    double t;\n"
            f"    if (isnan(v) || isinf(v)) {{ f_nf = 1; return 0; }}\n"
            f"    t = trunc(v);\n"
            f"    if (t != v) f_pl = 1;\n"
            f"    if (t < {low} || {high_check}) "
            f"{{ f_ov = 1; return ({t})acc_wrap_f64_u64(t); }}\n"
            f"    return ({t})t;\n"
            f"}}"
        )
    return parts


def _int_float_cast_helpers() -> list[str]:
    """int→float checked casts; mirror checked_cast (int→float)."""
    parts = []
    for src in INTEGER_DTYPES:
        t, s = src.c_name, src.short_name
        # to double: widths <= 32 bits are always exact.
        if src.bits <= 32:
            parts.append(
                f"static inline double acc_cast_{s}_f64({t} v) "
                f"{{ return (double)v; }}"
            )
        else:
            hi = f"{float(src.max_value + 1)!r}"
            lo_check = (
                f"r < {float(src.min_value)!r}" if src.is_signed else "0"
            )
            parts.append(
                f"static inline double acc_cast_{s}_f64({t} v) {{\n"
                f"    double r = (double)v;\n"
                f"    if (r >= {hi} || {lo_check}) f_pl = 1;\n"
                f"    else if (({t})r != v) f_pl = 1;\n"
                f"    return r;\n"
                f"}}"
            )
        # to float (f32): exactness tested through the double image.
        if src.bits <= 16:
            parts.append(
                f"static inline float acc_cast_{s}_f32({t} v) "
                f"{{ return (float)v; }}"
            )
        else:
            hi = f"{float(src.max_value + 1)!r}"
            lo_check = (
                f"d < {float(src.min_value)!r}" if src.is_signed else "0"
            )
            parts.append(
                f"static inline float acc_cast_{s}_f32({t} v) {{\n"
                f"    float r = (float)v;\n"
                f"    double d = (double)r;\n"
                f"    if (d >= {hi} || {lo_check}) f_pl = 1;\n"
                f"    else if (({t})d != v) f_pl = 1;\n"
                f"    return r;\n"
                f"}}"
            )
    return parts


def _float_float_cast_helpers() -> list[str]:
    """f64↔f32 checked casts; mirror checked_cast (float→float)."""
    return [
        "static inline float acc_cast_f64_f32(double v) "
        "{ float r = (float)v; if (isnan(r) || isinf(r)) f_nf = 1; return r; }",
        "static inline double acc_cast_f32_f64(float v) "
        "{ if (isnan(v) || isinf(v)) f_nf = 1; return (double)v; }",
    ]


_STIM_RUNTIME = r"""/* ---- runtime stimulus descriptors (compile-once / run-many) ---- */
#include <stdlib.h>

typedef struct {
    long long kind;
    long long i0, i1;              /* step-at / pulse period, duty, irand lo */
    unsigned long long u0, state;  /* irand span, LCG state */
    long long iv0, iv1;            /* int value slots */
    double f0, f1, f2, f3;         /* float params */
    double fv0, fv1;               /* float value slots */
    long long tab_is_float, tab_len;
    double *tab_f;
    long long *tab_i;
} acc_stim;

static acc_stim acc_stims[ACC_NPORTS > 0 ? ACC_NPORTS : 1];

"""

# The getter spelling per descriptor slot kind.  The per-port field
# sequence below is generated from stimuli.base.DESCRIPTOR_FIELDS so the
# C reader and the Python encoder (inproc.abi) can never drift apart.
_GETTERS = {"i": "acc_get_i", "u": "acc_get_u", "f": "acc_get_f"}


def _field_read_conditions() -> str:
    """``!get(c, &st->member) || ...`` over the shared descriptor slots."""
    terms = [
        f"!{_GETTERS[kind]}(c, &st->{member})"
        for _attr, member, kind in DESCRIPTOR_FIELDS
    ]
    lines = []
    for i in range(0, len(terms), 3):
        lines.append(" || ".join(terms[i : i + 3]))
    return ("\n            || ").join(lines)


def _binary_reader() -> str:
    """The packed-record reader behind ``acc_lib_run_case``.

    All slots are 8-byte little-endian-native fields read through memcpy
    (no struct casting, so record buffers need no alignment), in exactly
    the DESCRIPTOR_FIELDS order the Python binary encoder writes.
    """
    return f"""
/* ---- packed binary case records (repro.inproc) ---- */
typedef struct {{ const unsigned char *p; const unsigned char *end; }} acc_cur;

static int acc_get_i(acc_cur *c, long long *v) {{
    if (c->end - c->p < 8) return 0;
    memcpy(v, c->p, 8); c->p += 8; return 1;
}}
static int acc_get_u(acc_cur *c, unsigned long long *v) {{
    if (c->end - c->p < 8) return 0;
    memcpy(v, c->p, 8); c->p += 8; return 1;
}}
static int acc_get_f(acc_cur *c, double *v) {{
    if (c->end - c->p < 8) return 0;
    memcpy(v, c->p, 8); c->p += 8; return 1;
}}

/* 1 = case read; -1 = malformed record; -2 = port-count mismatch */
static int acc_read_case_bin(acc_cur *c, long long *steps, double *budget,
                             double *deadline) {{
    long long nports;
    if (!acc_get_i(c, steps) || !acc_get_f(c, budget) || !acc_get_f(c, deadline))
        return -1;
    if (!acc_get_i(c, &nports)) return -1;
    if (nports != (long long)ACC_NPORTS) return -2;
    for (int p = 0; p < ACC_NPORTS; p++) {{
        acc_stim *st = &acc_stims[p];
        free(st->tab_f); st->tab_f = 0;
        free(st->tab_i); st->tab_i = 0;
        if ({_field_read_conditions()}
            || !acc_get_i(c, &st->tab_len))
            return -1;
        if (st->tab_len < 0) return -1;
        if (st->tab_len > 0) {{
            long long k;
            if (st->tab_is_float) {{
                st->tab_f = (double *)malloc((size_t)st->tab_len * sizeof(double));
                if (!st->tab_f) return -1;
                for (k = 0; k < st->tab_len; k++)
                    if (!acc_get_f(c, &st->tab_f[k])) return -1;
            }} else {{
                st->tab_i = (long long *)malloc((size_t)st->tab_len * sizeof(long long));
                if (!st->tab_i) return -1;
                for (k = 0; k < st->tab_len; k++)
                    if (!acc_get_i(c, &st->tab_i[k])) return -1;
            }}
        }}
    }}
    return 1;
}}
"""


def stimulus_runtime() -> str:
    """The descriptor struct + packed-record reader; the including
    program must ``#define ACC_NPORTS <n>`` first."""
    return _STIM_RUNTIME + _binary_reader()


@functools.cache
def runtime_header() -> str:
    """The complete prelude text (the same on every call, so built
    once)."""
    parts = [_HEADER_TOP]
    parts.append("/* checked integer arithmetic; mirrors dtypes.arith.checked_* */")
    parts.extend(_int_arith_helpers())
    parts.append("\n/* checked conversions; mirror dtypes.arith.checked_cast */")
    parts.append("#define ACC_TO_BOOL(v) ((uint8_t)((v) != 0))")
    parts.extend(_int_cast_helpers())
    parts.extend(_float_int_cast_helpers())
    parts.extend(_int_float_cast_helpers())
    parts.extend(_float_float_cast_helpers())
    # bool sources behave as u8 in conversions.
    parts.append("/* bool participates in conversions as u8 */")
    return "\n".join(parts) + "\n"
