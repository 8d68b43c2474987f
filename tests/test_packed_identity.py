"""Byte identity of the packed fast paths against plain references.

The int-backed :class:`Bitmap` is checked against a byte-per-point
table kept here (the layout the generated C uses), the service digest
against ``sha256`` of plain point bytes, and :func:`encode_case_binary`
against a per-slot encoder that packs one 8-byte slot at a time.
"""

from __future__ import annotations

import hashlib
import struct

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.codegen.descriptor import _i64, _u64
from repro.coverage import Bitmap, CoverageReport
from repro.coverage.metrics import ALL_METRICS, Metric
from repro.inproc import encode_case_binary
from repro.service.codec import _coverage_record
from repro.stimuli.base import DESCRIPTOR_FIELDS, StimulusDescriptor


# ----------------------------------------------------------------------
# Bitmap against a byte-per-point reference
# ----------------------------------------------------------------------
def _points(size: int) -> st.SearchStrategy:
    return st.lists(st.integers(0, 1), min_size=size, max_size=size)


def _bitmap(points: "list[int]") -> Bitmap:
    hits = [i for i, point in enumerate(points) if point]
    return Bitmap.from_hits(len(points), hits)


def _words(points: "list[int]") -> "list[int]":
    """The 64-bit ``cov`` words of a byte-per-point table."""
    return [
        sum(bit << i for i, bit in enumerate(points[base:base + 64]))
        for base in range(0, len(points), 64)
    ]


@st.composite
def _point_pairs(draw):
    size = draw(st.integers(0, 300))
    return draw(_points(size)), draw(_points(size))


@given(_point_pairs())
@settings(max_examples=200, deadline=None)
def test_bitmap_matches_byte_per_point_reference(pair):
    a_points, b_points = pair
    size = len(a_points)
    a, b = _bitmap(a_points), _bitmap(b_points)

    assert len(a) == size
    assert a.count() == sum(a_points)
    assert a.to_bytes() == bytes(a_points)
    assert [a.test(i) for i in range(size)] == [bool(p) for p in a_points]
    assert list(a.hit_indices()) == [i for i, p in enumerate(a_points) if p]

    # from_words / to_words round trip, sizes off the 64-bit grid too.
    assert a.to_words() == _words(a_points)
    assert Bitmap.from_words(size, _words(a_points)) == a
    assert Bitmap.from_words(size, a.to_words()) == a

    # new_bits is or_into's read-only twin; or_into ORs.
    novel = sum(1 for x, y in zip(b_points, a_points) if x and not y)
    assert b.new_bits(a) == novel
    assert a.count() == sum(a_points)  # new_bits left a alone
    target = a.copy()
    assert b.or_into(target) == novel
    union = [x | y for x, y in zip(a_points, b_points)]
    assert target.to_bytes() == bytes(union)
    assert a.to_bytes() == bytes(a_points)  # copy was independent

    merged = a.copy()
    merged.merge(b)
    assert merged == target == _bitmap(union)
    assert (a == b) == (a_points == b_points)
    assert Bitmap(size) != Bitmap(size + 1)


@given(st.integers(0, 200), st.lists(st.integers(0, 2**64 - 1), max_size=5))
@settings(max_examples=100, deadline=None)
def test_from_words_drops_bits_past_size(size, words):
    """Bits past ``size`` are dropped and missing words read as zero,
    exactly like the byte-per-point expansion truncated and padded."""
    expanded = [
        (word >> i) & 1 for word in words for i in range(64)
    ][:size]
    expanded += [0] * (size - len(expanded))
    assert Bitmap.from_words(size, words).to_bytes() == bytes(expanded)


@given(st.lists(_points(70), min_size=4, max_size=4))
@settings(max_examples=50, deadline=None)
def test_codec_digest_is_sha256_of_point_bytes(tables):
    bitmaps = {m: _bitmap(points) for m, points in zip(ALL_METRICS, tables)}
    record = _coverage_record(CoverageReport.from_bitmaps(None, bitmaps))
    for metric, points in zip(ALL_METRICS, tables):
        assert record[metric.value] == {
            "covered": sum(points),
            "total": len(points),
            "digest": hashlib.sha256(bytes(points)).hexdigest()[:16],
        }


def test_metric_hash_is_usable_as_a_key():
    assert {m: m.value for m in ALL_METRICS}[Metric.MCDC] == "mcdc"
    assert len(set(ALL_METRICS) | set(Metric)) == 4


# ----------------------------------------------------------------------
# encode_case_binary against a per-slot reference encoder
# ----------------------------------------------------------------------
def _reference_record(descriptors, *, steps, time_budget, deadline) -> bytes:
    """One 8-byte slot per ``pack`` call, every value converted first."""
    i64, u64 = struct.Struct("<q"), struct.Struct("<Q")
    f64 = struct.Struct("<d")
    slot = {
        "i": lambda v: i64.pack(_i64(v)),
        "u": lambda v: u64.pack(_u64(v)),
        "f": lambda v: f64.pack(float(v)),
    }
    out = [
        i64.pack(int(steps)),
        f64.pack(-1.0 if time_budget is None else float(time_budget)),
        f64.pack(-1.0 if deadline is None else float(deadline)),
        i64.pack(len(descriptors)),
    ]
    for d in descriptors:
        for attr, _member, kind in DESCRIPTOR_FIELDS:
            out.append(slot[kind](getattr(d, attr)))
        out.append(i64.pack(len(d.table)))
        for value in d.table:
            out.append(slot["f" if d.table_is_float else "i"](value))
    return b"".join(out)


# Ints well outside int64/uint64, so both wrap paths run.
_wide_ints = st.integers(-(2**70), 2**70)
_floats = st.floats() | st.integers(-(2**40), 2**40)


@st.composite
def _descriptor(draw) -> StimulusDescriptor:
    values = {}
    for attr, _member, kind in DESCRIPTOR_FIELDS:
        if attr == "table_is_float":
            continue
        values[attr] = draw(_floats if kind == "f" else _wide_ints)
    is_float = draw(st.booleans())
    table = draw(st.lists(_floats if is_float else _wide_ints, max_size=6))
    return StimulusDescriptor(
        **values, table_is_float=is_float, table=tuple(table)
    )


@given(
    st.lists(_descriptor(), max_size=4),
    st.integers(0, 10**6),
    st.none() | st.floats(0.0, 1e3),
    st.none() | st.floats(0.0, 1e3),
)
@settings(max_examples=200, deadline=None)
def test_encode_case_binary_matches_per_slot_reference(
    descriptors, steps, time_budget, deadline
):
    kwargs = dict(steps=steps, time_budget=time_budget, deadline=deadline)
    assert encode_case_binary(descriptors, **kwargs) == _reference_record(
        descriptors, **kwargs
    )


def test_encode_case_binary_in_range_values():
    """In-range ints, an int in a float slot, a bool flag and an empty
    table pack to the reference's bytes."""
    descriptor = StimulusDescriptor(
        kind=6, i0=-5, u0=2**64 - 1, state=7, f0=1, fv1=-0.5,
        table_is_float=True, table=(),
    )
    record = encode_case_binary([descriptor], steps=32)
    assert record == _reference_record(
        [descriptor], steps=32, time_budget=None, deadline=None
    )
