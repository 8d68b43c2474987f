"""The scalar data-type lattice shared by every subsystem.

The set of types mirrors the Simulink built-in numeric types the paper's
diagnosis rules operate on: the eight fixed-width integers, IEEE single and
double, and boolean.
"""

from __future__ import annotations

import enum
from functools import lru_cache


class DType(enum.Enum):
    """A scalar signal data type.

    Members carry everything the rest of the library needs: bit width,
    signedness, value range, and the C / numpy spellings used by the code
    generator and the interpreted engines respectively.
    """

    I8 = "i8"
    I16 = "i16"
    I32 = "i32"
    I64 = "i64"
    U8 = "u8"
    U16 = "u16"
    U32 = "u32"
    U64 = "u64"
    F32 = "f32"
    F64 = "f64"
    BOOL = "bool"

    # ------------------------------------------------------------------
    # classification: plain member attributes, set once per member (the
    # stimulus and codec paths read them per port, per case)
    # ------------------------------------------------------------------
    is_float: bool
    is_bool: bool
    is_integer: bool
    #: True for signed integers and floats (bool is unsigned).
    is_signed: bool

    def __init__(self, value: str) -> None:
        self.is_float = value in ("f32", "f64")
        self.is_bool = value == "bool"
        self.is_integer = not self.is_float and not self.is_bool
        self.is_signed = self.is_float or value in ("i8", "i16", "i32", "i64")

    @property
    def bits(self) -> int:
        return _BITS[self]

    # ------------------------------------------------------------------
    # integer range
    # ------------------------------------------------------------------
    @property
    def min_value(self) -> int:
        """Smallest representable value (integers and bool only)."""
        if self.is_float:
            raise ValueError(f"{self} has no exact integer range")
        if self.is_bool:
            return 0
        if self.is_signed:
            return -(1 << (self.bits - 1))
        return 0

    @property
    def max_value(self) -> int:
        """Largest representable value (integers and bool only)."""
        if self.is_float:
            raise ValueError(f"{self} has no exact integer range")
        if self.is_bool:
            return 1
        if self.is_signed:
            return (1 << (self.bits - 1)) - 1
        return (1 << self.bits) - 1

    # ------------------------------------------------------------------
    # spellings
    # ------------------------------------------------------------------
    @property
    def c_name(self) -> str:
        """The stdint.h spelling used in generated C code."""
        return _C_NAMES[self]

    @property
    def numpy_name(self) -> str:
        return _NUMPY_NAMES[self]

    @property
    def short_name(self) -> str:
        """The compact spelling used in result protocols, e.g. ``i32``."""
        return self.value

    @property
    def c_literal_suffix(self) -> str:
        if self is DType.I64:
            return "LL"
        if self is DType.U64:
            return "ULL"
        if self in (DType.U8, DType.U16, DType.U32):
            return "U"
        if self is DType.F32:
            return "f"
        return ""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"DType.{self.name}"

    # ------------------------------------------------------------------
    # parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "DType":
        """Parse any accepted spelling (``i32``, ``int32``, ``double`` ...)."""
        key = text.strip().lower()
        try:
            return _ALIASES[key]
        except KeyError:
            raise ValueError(f"unknown data type spelling: {text!r}") from None


_BITS = {
    DType.I8: 8,
    DType.I16: 16,
    DType.I32: 32,
    DType.I64: 64,
    DType.U8: 8,
    DType.U16: 16,
    DType.U32: 32,
    DType.U64: 64,
    DType.F32: 32,
    DType.F64: 64,
    DType.BOOL: 8,
}

_C_NAMES = {
    DType.I8: "int8_t",
    DType.I16: "int16_t",
    DType.I32: "int32_t",
    DType.I64: "int64_t",
    DType.U8: "uint8_t",
    DType.U16: "uint16_t",
    DType.U32: "uint32_t",
    DType.U64: "uint64_t",
    DType.F32: "float",
    DType.F64: "double",
    DType.BOOL: "uint8_t",
}

_NUMPY_NAMES = {
    DType.I8: "int8",
    DType.I16: "int16",
    DType.I32: "int32",
    DType.I64: "int64",
    DType.U8: "uint8",
    DType.U16: "uint16",
    DType.U32: "uint32",
    DType.U64: "uint64",
    DType.F32: "float32",
    DType.F64: "float64",
    DType.BOOL: "bool",
}

_ALIASES: dict[str, DType] = {}
for _dt in DType:
    _ALIASES[_dt.value] = _dt
    if _dt is not DType.BOOL:
        # BOOL shares uint8_t storage with U8; 'uint8_t' must parse as U8.
        _ALIASES[_dt.c_name] = _dt
    _ALIASES[_dt.numpy_name] = _dt
_ALIASES.update(
    {
        "boolean": DType.BOOL,
        "single": DType.F32,
        "double": DType.F64,
        "int": DType.I32,
        "uint": DType.U32,
        "char": DType.I8,
        "short": DType.I16,
        "short int": DType.I16,
        "long": DType.I64,
        "long long": DType.I64,
        "unsigned char": DType.U8,
        "unsigned short": DType.U16,
        "unsigned int": DType.U32,
        "unsigned long": DType.U64,
    }
)

I8 = DType.I8
I16 = DType.I16
I32 = DType.I32
I64 = DType.I64
U8 = DType.U8
U16 = DType.U16
U32 = DType.U32
U64 = DType.U64
F32 = DType.F32
F64 = DType.F64
BOOL = DType.BOOL

SIGNED_DTYPES = (I8, I16, I32, I64)
UNSIGNED_DTYPES = (U8, U16, U32, U64)
INTEGER_DTYPES = SIGNED_DTYPES + UNSIGNED_DTYPES
FLOAT_DTYPES = (F32, F64)


@lru_cache(maxsize=None)
def promote(a: DType, b: DType) -> DType:
    """Result type of a binary arithmetic op, following Simulink's rule of
    thumb for same-family operands and a float-wins rule across families.

    This is deliberately simpler than C's usual arithmetic conversions:
    Simulink blocks carry an explicit output type, and the model builder
    normally makes operand types agree.  ``promote`` is the default when the
    model does not specify an output type.
    """
    if a is b:
        return a
    if a.is_float or b.is_float:
        if DType.F64 in (a, b):
            return DType.F64
        return DType.F32
    if a.is_bool:
        return b
    if b.is_bool:
        return a
    # Both integers.  Wider wins; on equal width, signed wins (so that
    # mixed-sign models keep their sign information — diagnosis cares).
    if a.bits != b.bits:
        return a if a.bits > b.bits else b
    return a if a.is_signed else b
