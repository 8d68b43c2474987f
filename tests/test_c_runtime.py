"""Fuzz the generated C runtime helpers against the Python reference.

One harness is compiled per session from the real runtime prelude
(:func:`repro.codegen.runtime.runtime_header`), once at the shipped
``CFLAGS`` and once at ``-O3``; it reads operation requests on stdin and
reports result + flags.  Hypothesis supplies the operands, both builds
must answer alike, and every response must match ``checked_*`` /
``checked_cast`` exactly — value and flags both.
"""

from __future__ import annotations

import math
import subprocess

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.codegen.driver import CFLAGS
from repro.codegen.runtime import runtime_header
from repro.dtypes import DType, F32, F64
from repro.dtypes.arith import (
    checked_add,
    checked_cast,
    checked_div,
    checked_mod,
    checked_mul,
    checked_neg,
    checked_sub,
)
from repro.dtypes.dtype import INTEGER_DTYPES

from conftest import HAS_CC

pytestmark = pytest.mark.skipif(not HAS_CC, reason="needs a C compiler")

_ARITH = ("add", "sub", "mul", "div", "mod")
_PY_ARITH = {
    "add": checked_add, "sub": checked_sub, "mul": checked_mul,
    "div": checked_div, "mod": checked_mod,
}


def _harness_source() -> str:
    lines = [runtime_header()]
    lines.append(r"""
static void report_i(long long v) {
    printf("%lld %d %d %d %d\n", v, f_ov, f_dz, f_pl, f_nf);
}
static void report_d(double v) {
    printf("%a %d %d %d %d\n", v, f_ov, f_dz, f_pl, f_nf);
}
int main(void) {
    char op[32];
    while (scanf("%31s", op) == 1) {
        FLAGS_RESET();
""")
    branches = []
    for dt in INTEGER_DTYPES:
        t, s = dt.c_name, dt.short_name
        for name in _ARITH:
            branches.append(
                f'if (!strcmp(op, "{name}_{s}")) {{ long long a, b; '
                f'scanf("%lld %lld", &a, &b); '
                f"report_i((long long)acc_{name}_{s}(({t})a, ({t})b)); continue; }}"
            )
        branches.append(
            f'if (!strcmp(op, "neg_{s}")) {{ long long a; scanf("%lld", &a); '
            f"report_i((long long)acc_neg_{s}(({t})a)); continue; }}"
        )
        branches.append(
            f'if (!strcmp(op, "cast_f64_{s}")) {{ double a; scanf("%la", &a); '
            f"report_i((long long)acc_cast_f64_{s}(a)); continue; }}"
        )
        branches.append(
            f'if (!strcmp(op, "cast_{s}_f64")) {{ long long a; scanf("%lld", &a); '
            f"report_d(acc_cast_{s}_f64(({t})a)); continue; }}"
        )
        branches.append(
            f'if (!strcmp(op, "cast_{s}_f32")) {{ long long a; scanf("%lld", &a); '
            f"report_d((double)acc_cast_{s}_f32(({t})a)); continue; }}"
        )
        for dst in INTEGER_DTYPES:
            if dst is dt:
                continue
            branches.append(
                f'if (!strcmp(op, "cast_{s}_{dst.short_name}")) '
                f'{{ long long a; scanf("%lld", &a); '
                f"report_i((long long)acc_cast_{s}_{dst.short_name}(({t})a)); "
                f"continue; }}"
            )
    branches.append(
        'if (!strcmp(op, "cast_f64_f32")) { double a; scanf("%la", &a); '
        "report_d((double)acc_cast_f64_f32(a)); continue; }"
    )
    lines.append("        " + "\n        ".join(branches))
    lines.append("""
        return 2;  /* unknown op */
    }
    return 0;
}
""")
    return "\n".join(lines)


# The shipped flag vector, and -O3: the helpers must answer alike at
# the level that ships and at the one the paper used.
_LEVELS = list(dict.fromkeys(
    [tuple(CFLAGS), ("-O3", "-ffp-contract=off", "-std=c11")]
))


def _run_binary(binary, requests: list[str]) -> list[tuple]:
    proc = subprocess.run(
        [str(binary)], input="\n".join(requests) + "\n",
        capture_output=True, text=True, check=True,
    )
    out = []
    for line in proc.stdout.splitlines():
        value, ov, dz, pl, nf = line.split()
        out.append((value, int(ov), int(dz), int(pl), int(nf)))
    return out


@pytest.fixture(scope="module")
def harness(tmp_path_factory):
    """Runs requests on the harness compiled at every level of
    ``_LEVELS``; the levels must agree, and their answer is returned."""
    workdir = tmp_path_factory.mktemp("c_runtime")
    c_file = workdir / "harness.c"
    c_file.write_text(_harness_source())
    binaries = []
    for i, flags in enumerate(_LEVELS):
        binary = workdir / f"harness{i}"
        subprocess.run(
            ["gcc", *flags, "-o", str(binary), str(c_file), "-lm"],
            check=True, capture_output=True,
        )
        binaries.append(binary)

    def run(requests: list[str]) -> list[tuple]:
        first, *rest = [_run_binary(b, requests) for b in binaries]
        assert all(answer == first for answer in rest), _LEVELS
        return first

    return run


def _i64_range(dt: DType):
    return st.integers(min_value=dt.min_value, max_value=dt.max_value)


def _enc(value: int) -> int:
    """Send operands in signed-64 two's complement (scanf reads %lld)."""
    return value - 2**64 if value >= 2**63 else value


def _expected_flags(flags):
    return (int(flags.overflow), int(flags.div_by_zero),
            int(flags.precision_loss), int(flags.non_finite))


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_integer_arith_matches(harness, data):
    requests, expected = [], []
    for dt in INTEGER_DTYPES:
        s = dt.short_name
        for name in _ARITH:
            a = data.draw(_i64_range(dt))
            b = data.draw(_i64_range(dt))
            requests.append(f"{name}_{s} {_enc(a)} {_enc(b)}")
            value, flags = _PY_ARITH[name](a, b, dt)
            expected.append((str(value), *_expected_flags(flags)))
        a = data.draw(_i64_range(dt))
        requests.append(f"neg_{s} {_enc(a)}")
        value, flags = checked_neg(a, dt)
        expected.append((str(value), *_expected_flags(flags)))
    # u64 results print as signed long long; normalize expectations.
    normalized = []
    for (value, *flags), request in zip(expected, requests):
        v = int(value)
        if v >= 2**63:
            v -= 2**64
        normalized.append((str(v), *flags))
    assert harness(requests) == normalized


@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_int_to_int_casts_match(harness, data):
    requests, expected = [], []
    for src in INTEGER_DTYPES:
        for dst in INTEGER_DTYPES:
            if src is dst:
                continue
            a = data.draw(_i64_range(src))
            requests.append(f"cast_{src.short_name}_{dst.short_name} {_enc(a)}")
            value, flags = checked_cast(a, src, dst)
            if value >= 2**63:
                value -= 2**64
            expected.append((str(value), *_expected_flags(flags)))
    assert harness(requests) == expected


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(
    st.floats(allow_nan=True, allow_infinity=True),
    st.floats(min_value=-1e20, max_value=1e20, allow_nan=False),
)
def test_float_to_int_casts_match(harness, value, medium):
    requests, expected = [], []
    for operand in (value, medium):
        for dt in INTEGER_DTYPES:
            requests.append(f"cast_f64_{dt.short_name} {operand.hex()}")
            out, flags = checked_cast(operand, F64, dt)
            if out >= 2**63:
                out -= 2**64
            expected.append((str(out), *_expected_flags(flags)))
    assert harness(requests) == expected


@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.data())
def test_int_to_float_casts_match(harness, data):
    requests, expected = [], []
    for src in INTEGER_DTYPES:
        a = data.draw(_i64_range(src))
        for target, name in ((F64, "f64"), (F32, "f32")):
            requests.append(f"cast_{src.short_name}_{name} {_enc(a)}")
            out, flags = checked_cast(a, src, target)
            expected.append((float(out).hex(), *_expected_flags(flags)))
    got = harness(requests)
    normalized = [(float.fromhex(v).hex(), *flags) for v, *flags in got]
    assert normalized == expected


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.floats(allow_nan=True, allow_infinity=True))
def test_f64_to_f32_matches(harness, value):
    out, flags = checked_cast(value, F64, F32)
    (got_value, *got_flags), = harness([f"cast_f64_f32 {value.hex()}"])
    got = float.fromhex(got_value)
    if math.isnan(out):
        assert math.isnan(got)
    else:
        assert got == out
    assert tuple(got_flags) == _expected_flags(flags)
