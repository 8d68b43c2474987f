"""Unit and property tests for the dtype lattice and checked arithmetic."""

from __future__ import annotations

import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dtypes import (
    BOOL, F32, F64, I8, I16, I32, I64, U8, U16, U32, U64,
    DType, INTEGER_DTYPES, promote, wrap,
    checked_add, checked_cast, checked_div, checked_mod, checked_mul,
    checked_neg, checked_sub, coerce_float,
)
from repro.dtypes.arith import ArithFlags, _trunc_div, _trunc_mod


# ----------------------------------------------------------------------
# DType basics
# ----------------------------------------------------------------------
class TestDTypeProperties:
    def test_bits(self):
        assert I8.bits == 8 and U8.bits == 8
        assert I16.bits == 16 and U16.bits == 16
        assert I32.bits == 32 and F32.bits == 32
        assert I64.bits == 64 and U64.bits == 64 and F64.bits == 64

    def test_signedness(self):
        assert I8.is_signed and I64.is_signed
        assert not U8.is_signed and not U64.is_signed
        assert F32.is_signed and F64.is_signed
        assert not BOOL.is_signed

    def test_classification(self):
        assert I32.is_integer and not I32.is_float and not I32.is_bool
        assert F64.is_float and not F64.is_integer
        assert BOOL.is_bool and not BOOL.is_integer and not BOOL.is_float

    def test_precomputed_classification_matches_the_definitions(self):
        """Each member's stored flags equal the membership tests they
        replace, for all 11 members."""
        assert len(DType) == 11
        for dt in DType:
            is_float = dt in (F32, F64)
            is_bool = dt is BOOL
            assert dt.is_float is is_float
            assert dt.is_bool is is_bool
            assert dt.is_integer is (not is_float and not is_bool)
            assert dt.is_signed is (is_float or dt in (I8, I16, I32, I64))

    def test_ranges(self):
        assert I8.min_value == -128 and I8.max_value == 127
        assert U8.min_value == 0 and U8.max_value == 255
        assert I32.min_value == -(2**31) and I32.max_value == 2**31 - 1
        assert U64.max_value == 2**64 - 1
        assert BOOL.min_value == 0 and BOOL.max_value == 1

    def test_float_has_no_integer_range(self):
        with pytest.raises(ValueError):
            _ = F64.min_value
        with pytest.raises(ValueError):
            _ = F32.max_value

    def test_c_names(self):
        assert I32.c_name == "int32_t"
        assert U16.c_name == "uint16_t"
        assert F32.c_name == "float"
        assert F64.c_name == "double"
        assert BOOL.c_name == "uint8_t"

    def test_short_names_roundtrip_through_parse(self):
        for dt in DType:
            assert DType.parse(dt.short_name) is dt
            if dt is not BOOL:  # 'uint8_t' is U8's spelling, not BOOL's
                assert DType.parse(dt.c_name) is dt

    def test_parse_aliases(self):
        assert DType.parse("double") is F64
        assert DType.parse("single") is F32
        assert DType.parse("boolean") is BOOL
        assert DType.parse("short int") is I16
        assert DType.parse("unsigned char") is U8
        assert DType.parse(" Int32 ") is I32  # trims and lowercases

    def test_parse_unknown(self):
        with pytest.raises(ValueError, match="unknown data type"):
            DType.parse("quadword")


class TestPromote:
    def test_identity(self):
        for dt in DType:
            assert promote(dt, dt) is dt

    def test_float_wins(self):
        assert promote(I32, F64) is F64
        assert promote(F32, I64) is F32
        assert promote(F32, F64) is F64

    def test_wider_integer_wins(self):
        assert promote(I8, I32) is I32
        assert promote(U16, U64) is U64

    def test_equal_width_signed_wins(self):
        assert promote(I32, U32) is I32
        assert promote(U64, I64) is I64

    def test_bool_defers(self):
        assert promote(BOOL, I16) is I16
        assert promote(F64, BOOL) is F64


# ----------------------------------------------------------------------
# wrap
# ----------------------------------------------------------------------
class TestWrap:
    def test_identity_in_range(self):
        assert wrap(100, I8) == 100
        assert wrap(-128, I8) == -128
        assert wrap(255, U8) == 255

    def test_wraps_above(self):
        assert wrap(128, I8) == -128
        assert wrap(256, U8) == 0
        assert wrap(2**31, I32) == -(2**31)

    def test_wraps_below(self):
        assert wrap(-129, I8) == 127
        assert wrap(-1, U8) == 255
        assert wrap(-(2**63) - 1, I64) == 2**63 - 1

    def test_bool(self):
        assert wrap(0, BOOL) == 0
        assert wrap(17, BOOL) == 1
        assert wrap(-3, BOOL) == 1

    def test_float_rejected(self):
        with pytest.raises(ValueError):
            wrap(1, F64)

    @given(st.integers(min_value=-(2**80), max_value=2**80))
    def test_wrap_is_mod_2n(self, value):
        for dt in (I8, U8, I32, U32, I64, U64):
            wrapped = wrap(value, dt)
            assert dt.min_value <= wrapped <= dt.max_value
            assert (wrapped - value) % (1 << dt.bits) == 0

    @given(st.integers(), st.integers())
    def test_wrap_add_homomorphic(self, a, b):
        for dt in (I16, U32):
            assert wrap(wrap(a, dt) + wrap(b, dt), dt) == wrap(a + b, dt)


# ----------------------------------------------------------------------
# checked arithmetic
# ----------------------------------------------------------------------
class TestCheckedInteger:
    def test_add_in_range(self):
        assert checked_add(3, 4, I8) == (7, ArithFlags())

    def test_add_overflow(self):
        value, flags = checked_add(127, 1, I8)
        assert value == -128 and flags.overflow

    def test_sub_underflow_unsigned(self):
        value, flags = checked_sub(0, 1, U8)
        assert value == 255 and flags.overflow

    def test_mul_overflow(self):
        value, flags = checked_mul(2**16, 2**16, I32)
        assert value == -(2**32 - 2**32) or flags.overflow  # wraps to 0
        assert value == 0 and flags.overflow

    def test_neg_int_min(self):
        value, flags = checked_neg(-128, I8)
        assert value == -128 and flags.overflow

    def test_div_truncates_toward_zero(self):
        assert checked_div(7, 2, I32)[0] == 3
        assert checked_div(-7, 2, I32)[0] == -3
        assert checked_div(7, -2, I32)[0] == -3

    def test_div_by_zero(self):
        value, flags = checked_div(5, 0, I32)
        assert value == 0 and flags.div_by_zero

    def test_div_int_min_by_minus_one(self):
        value, flags = checked_div(-(2**31), -1, I32)
        assert value == -(2**31) and flags.overflow

    def test_mod_sign_of_dividend(self):
        assert checked_mod(7, 3, I32)[0] == 1
        assert checked_mod(-7, 3, I32)[0] == -1
        assert checked_mod(7, -3, I32)[0] == 1

    def test_mod_by_zero(self):
        value, flags = checked_mod(5, 0, I32)
        assert value == 0 and flags.div_by_zero

    def test_mod_int_min_by_minus_one(self):
        value, flags = checked_mod(-(2**31), -1, I32)
        assert value == 0 and not flags

    @given(st.integers(-(10**9), 10**9), st.integers(-(10**9), 10**9))
    def test_divmod_identity(self, a, b):
        if b == 0:
            return
        q, r = _trunc_div(a, b), _trunc_mod(a, b)
        assert q * b + r == a
        assert abs(r) < abs(b)

    @given(st.integers(), st.integers())
    def test_checked_add_flag_iff_out_of_range(self, a, b):
        for dt in (I8, U16, I64):
            a_w, b_w = wrap(a, dt), wrap(b, dt)
            value, flags = checked_add(a_w, b_w, dt)
            in_range = dt.min_value <= a_w + b_w <= dt.max_value
            assert flags.overflow == (not in_range)
            assert value == wrap(a_w + b_w, dt)


class TestCheckedFloat:
    def test_add(self):
        value, flags = checked_add(1.5, 2.5, F64)
        assert value == 4.0 and not flags

    def test_overflow_to_inf_flags_non_finite(self):
        value, flags = checked_add(1.7e308, 1.7e308, F64)
        assert math.isinf(value) and flags.non_finite

    def test_f32_rounds(self):
        value, _ = checked_add(0.1, 0.2, F32)
        assert value == coerce_float(coerce_float(0.1, F32) + coerce_float(0.2, F32), F32)

    def test_div_by_zero_float(self):
        value, flags = checked_div(1.0, 0.0, F64)
        assert math.isinf(value) and value > 0 and flags.div_by_zero
        value, flags = checked_div(-1.0, 0.0, F64)
        assert math.isinf(value) and value < 0 and flags.div_by_zero
        value, flags = checked_div(0.0, 0.0, F64)
        assert math.isnan(value) and flags.div_by_zero

    def test_fmod(self):
        value, _ = checked_mod(7.5, 2.0, F64)
        assert value == math.fmod(7.5, 2.0)

    def test_fmod_by_zero(self):
        value, flags = checked_mod(1.0, 0.0, F64)
        assert math.isnan(value) and flags.div_by_zero


class TestCheckedCast:
    def test_widening_int_ok(self):
        assert checked_cast(100, I8, I64) == (100, ArithFlags())

    def test_narrowing_in_range_ok(self):
        assert checked_cast(100, I64, I8) == (100, ArithFlags())

    def test_narrowing_wraps(self):
        value, flags = checked_cast(300, I32, U8)
        assert value == 44 and flags.overflow

    def test_signed_to_unsigned_negative(self):
        value, flags = checked_cast(-1, I32, U32)
        assert value == 2**32 - 1 and flags.overflow

    def test_float_to_int_exact(self):
        assert checked_cast(42.0, F64, I32) == (42, ArithFlags())

    def test_float_to_int_truncates_with_precision_loss(self):
        value, flags = checked_cast(42.9, F64, I32)
        assert value == 42 and flags.precision_loss
        value, flags = checked_cast(-42.9, F64, I32)
        assert value == -42 and flags.precision_loss

    def test_float_to_int_out_of_range_wraps(self):
        value, flags = checked_cast(float(2**40), F64, I32)
        assert flags.overflow
        assert value == wrap(2**40, I32)

    def test_nan_to_int(self):
        value, flags = checked_cast(math.nan, F64, I32)
        assert value == 0 and flags.non_finite

    def test_inf_to_int(self):
        value, flags = checked_cast(math.inf, F64, I64)
        assert value == 0 and flags.non_finite

    def test_int_to_float_exact(self):
        assert checked_cast(2**52, I64, F64) == (float(2**52), ArithFlags())

    def test_int_to_float_precision_loss(self):
        value, flags = checked_cast(2**53 + 1, I64, F64)
        assert flags.precision_loss
        assert value == float(2**53 + 1)  # rounded

    def test_int64_max_to_float_precision_loss(self):
        _, flags = checked_cast(2**63 - 1, I64, F64)
        assert flags.precision_loss

    def test_to_bool(self):
        assert checked_cast(5, I32, BOOL) == (1, ArithFlags())
        assert checked_cast(0.0, F64, BOOL) == (0, ArithFlags())
        assert checked_cast(math.nan, F64, BOOL)[0] == 1  # nan is truthy

    def test_f64_to_f32_inf_flags(self):
        value, flags = checked_cast(1e308, F64, F32)
        assert math.isinf(value) and flags.non_finite

    @given(st.integers(min_value=-(2**63), max_value=2**63 - 1))
    def test_cast_i64_anywhere_matches_wrap(self, value):
        for dt in INTEGER_DTYPES:
            out, flags = checked_cast(value, I64, dt)
            assert out == wrap(value, dt)
            assert flags.overflow == (not (dt.min_value <= value <= dt.max_value))

    @given(st.floats(allow_nan=False, allow_infinity=False, width=64))
    def test_float_to_i64_matches_spec(self, value):
        out, flags = checked_cast(value, F64, I64)
        truncated = int(value)
        assert out == wrap(truncated, I64)
        assert flags.precision_loss == (float(truncated) != value)


class TestArithFlags:
    def test_falsy_when_clear(self):
        assert not ArithFlags()

    def test_truthy_when_any_set(self):
        assert ArithFlags(overflow=True)
        assert ArithFlags(div_by_zero=True)
        assert ArithFlags(precision_loss=True)
        assert ArithFlags(non_finite=True)
        assert ArithFlags(out_of_bounds=True)

    def test_merge(self):
        merged = ArithFlags(overflow=True).merge(ArithFlags(div_by_zero=True))
        assert merged.overflow and merged.div_by_zero
        assert not merged.precision_loss

    def test_merge_with_empty_is_identity(self):
        flags = ArithFlags(non_finite=True)
        assert flags.merge(ArithFlags()) is flags
        assert ArithFlags().merge(flags) is flags


class TestCoerceFloat:
    def test_f64_identity(self):
        assert coerce_float(0.1, F64) == 0.1

    def test_f32_rounds(self):
        assert coerce_float(0.1, F32) != 0.1
        assert coerce_float(0.5, F32) == 0.5  # exactly representable

    @given(st.floats(allow_nan=False))
    def test_f32_idempotent(self, value):
        once = coerce_float(value, F32)
        assert coerce_float(once, F32) == once or math.isnan(once)
