"""A plain bit set used to record hit coverage points.

The generated C keeps one ``uint8_t`` per point (byte-per-point is faster
to set than bit twiddling in C) and ships the tables as 64-bit words.
Here a bitmap is one Python int, bit ``i`` = point ``i``: decoding the
words is one ``int.from_bytes``, merging is an OR and counting is
``bit_count()``, with no per-point Python loop.  :meth:`Bitmap.to_bytes`
gives back the C side's byte-per-point layout.
"""

from __future__ import annotations

import struct
from typing import Iterable, Iterator

_WORD_MASK = (1 << 64) - 1

# byte value -> its 8 bits as one byte-per-bit chunk, LSB first; lets
# to_bytes expand 8 points per Python iteration instead of 1.
_BYTE_BITS = [bytes((byte >> k) & 1 for k in range(8)) for byte in range(256)]


class Bitmap:
    """Fixed-size hit table."""

    __slots__ = ("_size", "_bits")

    def __init__(self, size: int):
        if size < 0:
            raise ValueError("bitmap size must be non-negative")
        self._size = size
        self._bits = 0

    @classmethod
    def from_hits(cls, size: int, hits: Iterable[int]) -> "Bitmap":
        bm = cls(size)
        for index in hits:
            bm.set(index)
        return bm

    @classmethod
    def from_words(cls, size: int, words: Iterable[int]) -> "Bitmap":
        """From 64-bit words, bit ``i`` of word ``w`` = point ``w*64+i``
        (the generated programs' ``cov`` wire format).  Bits past
        ``size`` are dropped; missing words read as zero."""
        words = tuple(words)
        return cls.from_bytes(size, struct.pack(f"<{len(words)}Q", *words))

    @classmethod
    def from_bytes(cls, size: int, data: bytes) -> "Bitmap":
        """From the little-endian bytes of the 64-bit words
        :meth:`from_words` takes (a result buffer's coverage tables)."""
        return cls.from_int(size, int.from_bytes(data, "little"))

    @classmethod
    def from_int(cls, size: int, bits: int) -> "Bitmap":
        """From an int whose bit ``i`` is point ``i``; bits past
        ``size`` are dropped."""
        bm = cls(size)
        bm._bits = bits & ((1 << size) - 1)
        return bm

    def __len__(self) -> int:
        return self._size

    def _check(self, index: int) -> int:
        if not 0 <= index < self._size:
            raise IndexError(
                f"point {index} outside a {self._size}-point bitmap"
            )
        return index

    def set(self, index: int) -> None:
        self._bits |= 1 << self._check(index)

    def test(self, index: int) -> bool:
        return bool(self._bits >> self._check(index) & 1)

    def count(self) -> int:
        return self._bits.bit_count()

    def hit_indices(self) -> Iterator[int]:
        bits = self._bits
        return (i for i in range(bits.bit_length()) if bits >> i & 1)

    def _same_size(self, other: "Bitmap") -> None:
        if other._size != self._size:
            raise ValueError(
                f"bitmap size mismatch: {self._size} vs {other._size}"
            )

    def merge(self, other: "Bitmap") -> None:
        """OR another bitmap of the same size into this one."""
        self._same_size(other)
        self._bits |= other._bits

    def or_into(self, target: "Bitmap") -> int:
        """OR this bitmap into ``target``; returns how many points were
        newly set there (the AFL-style novelty of this run against the
        accumulated map)."""
        novel = self.new_bits(target)
        target._bits |= self._bits
        return novel

    def new_bits(self, baseline: "Bitmap") -> int:
        """Points set here but not in ``baseline`` — novelty without
        mutating either side (``or_into``'s read-only counterpart)."""
        self._same_size(baseline)
        return (self._bits & ~baseline._bits).bit_count()

    def to_words(self) -> list[int]:
        """Pack into 64-bit words, the inverse of :meth:`from_words`
        (and the generated programs' ``cov`` wire format)."""
        bits = self._bits
        return [
            bits >> shift & _WORD_MASK for shift in range(0, self._size, 64)
        ]

    def to_bytes(self) -> bytes:
        """One byte (0 or 1) per point, point order: the generated C's
        in-memory layout."""
        packed = self._bits.to_bytes((self._size + 7) // 8, "little")
        return b"".join(_BYTE_BITS[byte] for byte in packed)[: self._size]

    def copy(self) -> "Bitmap":
        bm = Bitmap(self._size)
        bm._bits = self._bits
        return bm

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Bitmap):
            return NotImplemented
        return self._size == other._size and self._bits == other._bits

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Bitmap({self.count()}/{len(self)})"
