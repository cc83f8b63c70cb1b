"""Property-based tests: codecs, pages, and row encoding."""

import random
import struct
from datetime import date
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import repro.relational.schema as schema_module
from repro.errors import PageError, SchemaError
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.storage.compression import (
    DeltaCodec,
    DictionaryCodec,
    LzLiteCodec,
    NoneCodec,
    RleCodec,
)
from repro.storage.column import ColumnFile
from repro.storage.heap import HeapFile
from repro.storage.page import SlottedPage

int64s = st.integers(min_value=-2**62, max_value=2**62)
small_strings = st.text(min_size=0, max_size=20)
dates = st.dates(min_value=date(1970, 1, 1), max_value=date(2100, 1, 1))


@settings(max_examples=60)
@given(st.lists(int64s, max_size=200))
def test_int_codecs_round_trip(values):
    for codec in (NoneCodec(), RleCodec(), DictionaryCodec(),
                  DeltaCodec(), LzLiteCodec()):
        encoded = codec.encode(values, DataType.INT64)
        assert codec.decode(encoded, DataType.INT64) == values


@settings(max_examples=60)
@given(st.lists(small_strings, max_size=150))
def test_string_codecs_round_trip(values):
    for codec in (NoneCodec(), RleCodec(), DictionaryCodec(),
                  LzLiteCodec()):
        encoded = codec.encode(values, DataType.VARCHAR)
        assert codec.decode(encoded, DataType.VARCHAR) == values


@settings(max_examples=60)
@given(st.lists(dates, max_size=150))
def test_date_delta_round_trip(values):
    codec = DeltaCodec()
    assert codec.decode(codec.encode(values, DataType.DATE),
                        DataType.DATE) == values


@settings(max_examples=60)
@given(st.binary(max_size=5000))
def test_lz_bytes_round_trip(raw):
    codec = LzLiteCodec()
    assert codec.decompress_bytes(codec.compress_bytes(raw)) == raw


def reference_lz_compress(raw):
    """``LzLiteCodec.compress_bytes`` as first written: one position per
    turn, attribute lookups and ``struct.pack`` inside the loop."""
    def flush(out, start, end):
        pos = start
        while pos < end:
            chunk = raw[pos:min(pos + 255, end)]
            out.append(0x00)
            out.append(len(chunk))
            out += chunk
            pos += len(chunk)

    out = bytearray(struct.pack("<I", len(raw)))
    table = {}
    i = 0
    literal_start = 0
    n = len(raw)
    while i < n:
        match_len = 0
        match_offset = 0
        if i + 4 <= n:
            key = raw[i:i + 4]
            candidate = table.get(key, -1)
            table[key] = i
            if candidate >= 0 and i - candidate <= 65535:
                length = 4
                limit = min(255, n - i)
                while (length < limit
                       and raw[candidate + length] == raw[i + length]):
                    length += 1
                match_len = length
                match_offset = i - candidate
        if match_len >= 4:
            flush(out, literal_start, i)
            out.append(0x01)
            out += struct.pack("<HB", match_offset, match_len)
            i += match_len
            literal_start = i
        else:
            i += 1
    flush(out, literal_start, n)
    return bytes(out)


def runs(pairs):
    return b"".join(bytes([byte]) * count for byte, count in pairs)


LZ_INPUTS = st.one_of(
    st.binary(max_size=3000),
    # a small alphabet: short matches everywhere
    st.lists(st.sampled_from(b"ab"), max_size=3000).map(bytes),
    # runs longer than a match or a literal token holds
    st.lists(st.tuples(st.sampled_from(b"ab\x00"),
                       st.integers(1, 700)), max_size=12).map(runs),
    # a short period repeated: every match overlaps its own output
    st.tuples(st.binary(min_size=1, max_size=9),
              st.integers(1, 400)).map(lambda p: p[0] * p[1]),
)


# a block repeated 66,000 bytes later: too far back for a match
_BLOCK = random.Random(5).randbytes(2_000)
PAST_THE_WINDOW = (_BLOCK + random.Random(6).randbytes(66_000) + _BLOCK
                   + b"xyz" * 300)


@settings(max_examples=200)
@given(LZ_INPUTS)
@example(PAST_THE_WINDOW)
def test_lz_compress_is_byte_equal_to_the_reference_loop(raw):
    codec = LzLiteCodec()
    compressed = codec.compress_bytes(raw)
    assert compressed == reference_lz_compress(raw)
    assert codec.decompress_bytes(compressed) == raw


@settings(max_examples=40)
@given(st.lists(st.binary(min_size=1, max_size=120), max_size=120),
       st.integers(256, 8192))
def test_page_operations_preserve_records(payloads, page_size):
    """Random inserts until the page fills: every stored record reads
    back intact, and a refused record changes nothing."""
    page = SlottedPage(0, page_size=page_size)
    live: dict[int, bytes] = {}
    for payload in payloads:
        if not page.has_room_for(len(payload)):
            with pytest.raises(PageError):
                page.insert(payload)
            continue
        slot = page.insert(payload)
        live[slot] = payload
    assert dict(page.records()) == live
    for slot, payload in live.items():
        assert page.read(slot) == payload


row_values = st.tuples(
    st.one_of(st.none(), int64s),
    st.one_of(st.none(), small_strings),
    st.one_of(st.none(), st.floats(allow_nan=False, allow_infinity=False)),
    st.one_of(st.none(), st.booleans()),
    st.one_of(st.none(), dates),
)


@settings(max_examples=100)
@given(row_values)
def test_row_encoding_round_trip(row):
    schema = TableSchema("t", [
        Column("a", DataType.INT64),
        Column("b", DataType.VARCHAR),
        Column("c", DataType.FLOAT64),
        Column("d", DataType.BOOL),
        Column("e", DataType.DATE),
    ])
    decoded = schema.decode_row(schema.encode_row(row))
    assert decoded == row


# -- the compiled row codec against the per-value reference ----------------

#: what ``validate`` lets into a column of each type -- including an
#: ``int`` in a FLOAT64 column and a ``bool`` in an INT32 column
COLUMN_VALUES = {
    DataType.INT32: st.one_of(st.integers(-2**31, 2**31 - 1), st.booleans()),
    DataType.INT64: st.integers(-2**63, 2**63 - 1),
    DataType.FLOAT64: st.one_of(st.floats(allow_nan=False),
                                st.integers(-2**53, 2**53)),
    DataType.DATE: st.dates(),
    DataType.VARCHAR: st.text(max_size=12),  # any code point, not ASCII
    DataType.BOOL: st.booleans(),
}


@st.composite
def schemas_with_rows(draw):
    dtypes = draw(st.lists(st.sampled_from(list(DataType)),
                           min_size=1, max_size=12))
    # half the rows carry no NULL (the compiled path), half may
    nulls = st.none() if draw(st.booleans()) else st.nothing()
    row = tuple(draw(st.one_of(nulls, COLUMN_VALUES[t])) for t in dtypes)
    schema = TableSchema(
        "t", [Column(f"c{i}", t) for i, t in enumerate(dtypes)])
    return schema, row


@settings(max_examples=200)
@given(schemas_with_rows())
def test_row_codec_is_the_concatenation_of_the_value_codecs(case):
    schema, row = case
    bitmap = bytearray((len(row) + 7) // 8)
    for i, value in enumerate(row):
        if value is None:
            bitmap[i // 8] |= 1 << (i % 8)
    reference = bytes(bitmap) + b"".join(
        col.dtype.encode(value)
        for col, value in zip(schema.columns, row) if value is not None)
    record = schema.encode_row(row)
    assert record == reference
    assert schema.decode_row(record) == row


@settings(max_examples=200)
@given(schemas_with_rows(), st.data())
def test_damaged_records_end_in_schema_error(case, data):
    schema, row = case
    record = schema.encode_row(row)
    # every field takes at least one byte, so any proper prefix is cut
    # inside the bitmap, a fixed-width field, a length or a payload
    cut = data.draw(st.integers(0, len(record) - 1))
    with pytest.raises(SchemaError):
        schema.decode_row(record[:cut])
    with pytest.raises(SchemaError, match="trailing"):
        schema.decode_row(record + data.draw(st.binary(min_size=1,
                                                       max_size=4)))


@pytest.mark.parametrize("cut", [3, 10])
def test_record_cut_inside_a_fixed_width_field(cut):
    # byte 3 is inside the INT64, byte 10 inside the VARCHAR's length;
    # the second row carries a NULL, so it takes the per-column walk
    schema = TableSchema("t", [Column("k", DataType.INT64),
                               Column("s", DataType.VARCHAR),
                               Column("n", DataType.INT32)])
    for row in [(7, "seven", 7), (7, "seven", None)]:
        with pytest.raises(SchemaError):
            schema.decode_row(schema.encode_row(row)[:cut])


def test_record_shorter_than_its_bitmap():
    schema = TableSchema(
        "t", [Column(f"c{i}", DataType.BOOL) for i in range(9)])
    with pytest.raises(SchemaError, match="null bitmap"):
        schema.decode_row(b"\x00")


# -- the column-at-a-time load path against the per-value reference --------

class Ordinal(int):
    """A subclass: valid, but not by the batch test's class check."""


#: what a column of any type may be *offered*: NULLs, bools, integers
#: either side of both ranges, datetimes, non-ASCII text, a subclass
OFFERED = st.one_of(
    st.none(), st.booleans(), st.integers(-2**65, 2**65),
    st.sampled_from([-2**63 - 1, -2**63, -2**31 - 1, -2**31,
                     2**31 - 1, 2**31, 2**63 - 1, 2**63, Ordinal(7)]),
    st.floats(allow_nan=False), st.dates(), st.datetimes(),
    st.text(max_size=6))


def outcome(call):
    """What ``call`` returns, or the class and text of what it raises."""
    try:
        return call()
    except Exception as exc:  # the differential *is* about the errors
        return type(exc), str(exc)


@pytest.mark.parametrize("dtype", list(DataType), ids=lambda t: t.value)
@settings(max_examples=100)
@given(data=st.data())
def test_batch_forms_are_the_per_value_forms(dtype, data):
    values = data.draw(st.lists(COLUMN_VALUES[dtype], max_size=40))
    encoded = dtype.encode_many(values)
    assert encoded == b"".join(map(dtype.encode, values))
    assert dtype.encoded_size_many(values) == len(encoded)
    decoded, offset = dtype.decode_many(b"\xff" + encoded + b"\xff", 1,
                                        len(values))
    assert offset == 1 + len(encoded)
    # what one-value ``decode`` returns: a bool stored as INT32 is an int
    assert decoded == [dtype.decode(dtype.encode(v))[0] for v in values]
    assert list(map(type, decoded)) \
        == [type(dtype.decode(dtype.encode(v))[0]) for v in values]
    for codec in (NoneCodec(), LzLiteCodec()):
        assert codec.decode(codec.encode(values, dtype), dtype) == decoded


@pytest.mark.parametrize("dtype", list(DataType), ids=lambda t: t.value)
@settings(max_examples=100)
@given(data=st.data())
def test_encode_many_fails_as_the_encode_loop_fails(dtype, data):
    # unvalidated input: a NULL, a str in a numeric column, an int out
    # of range -- same bytes or same exception, class and message
    values = data.draw(st.lists(
        st.one_of(COLUMN_VALUES[dtype], OFFERED), max_size=8))
    assert outcome(lambda: dtype.encode_many(values)) \
        == outcome(lambda: b"".join(map(dtype.encode, values)))


@st.composite
def schemas_with_batches(draw, valid=False):
    dtypes = draw(st.lists(st.sampled_from(list(DataType)),
                           min_size=1, max_size=5))
    schema = TableSchema("t", [
        Column(f"c{i}", t, nullable=draw(st.booleans()))
        for i, t in enumerate(dtypes)])
    # most batches are wholly valid (the column-at-a-time path); the
    # rest mix in what a column may be offered, and rows of wrong arity
    stray = (OFFERED if not valid and draw(st.integers(0, 2)) == 0
             else st.nothing())
    row = st.tuples(*(st.one_of(COLUMN_VALUES[t], stray) for t in dtypes))
    if not valid and draw(st.integers(0, 5)) == 0:
        row = st.one_of(row, row.map(lambda r: r[:-1]),
                        row.map(lambda r: r + (1,)))
    return schema, draw(st.lists(row, max_size=12))


@settings(max_examples=300)
@given(schemas_with_batches())
def test_validate_rows_is_the_validate_row_loop(case):
    schema, rows = case

    def row_by_row():
        for row in rows:
            schema.validate_row(row)

    # stretches of three rows, so a batch spans several
    with mock.patch.object(schema_module, "_BATCH_ROWS", 3):
        assert outcome(lambda: schema.validate_rows(rows)) \
            == outcome(row_by_row)


@settings(max_examples=100)
@given(schemas_with_batches(valid=True), st.integers(1, 5),
       st.integers(0, 12))
def test_bulk_load_stores_what_row_at_a_time_load_stores(case, segment_rows,
                                                         split):
    schema, rows = case

    def load(bulk):
        columnar = ColumnFile(schema, segment_rows=segment_rows)
        heap = HeapFile(schema)
        for many, one in ((columnar.append_many, columnar.append),
                          (heap.insert_many, heap.insert)):
            for batch in (rows[:split], rows[split:]):
                if bulk:
                    many(batch)
                else:
                    for row in batch:
                        one(row)
        columnar.seal()
        segments = {
            name: [(seg.row_count, seg.data) for seg in segment_list]
            for name, segment_list in columnar._segments.items()}
        return (segments, columnar._plain_bytes, columnar.row_count,
                [(page.page_id, page._free_ptr, list(page.records()))
                 for page in heap.pages],
                heap.row_count)

    assert load(bulk=True) == load(bulk=False)
