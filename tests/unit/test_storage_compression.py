"""Unit tests for compression codecs."""

import struct
from datetime import date

import pytest

from repro.errors import CompressionError
from repro.relational.types import DataType
from repro.storage.compression import (
    DeltaCodec,
    DictionaryCodec,
    LzLiteCodec,
    NoneCodec,
    RleCodec,
    codec_by_name,
)

ALL_CODECS = [NoneCodec(), RleCodec(), DictionaryCodec(), DeltaCodec(),
              LzLiteCodec()]

INT_VALUES = [5, 5, 5, 7, 7, 1, 1, 1, 1, 0, -3, -3, 2**40, 2**40]
STR_VALUES = ["ship", "ship", "air", "ship", "rail", "rail", "air"]
DATE_VALUES = [date(1998, 1, 1), date(1998, 1, 1), date(1998, 1, 5),
               date(1998, 2, 1), date(1997, 12, 31)]


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
def test_int64_round_trip(codec):
    encoded = codec.encode(INT_VALUES, DataType.INT64)
    assert codec.decode(encoded, DataType.INT64) == INT_VALUES


@pytest.mark.parametrize("codec", [NoneCodec(), RleCodec(),
                                   DictionaryCodec(), LzLiteCodec()],
                         ids=lambda c: c.name)
def test_varchar_round_trip(codec):
    encoded = codec.encode(STR_VALUES, DataType.VARCHAR)
    assert codec.decode(encoded, DataType.VARCHAR) == STR_VALUES


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
def test_date_round_trip(codec):
    encoded = codec.encode(DATE_VALUES, DataType.DATE)
    assert codec.decode(encoded, DataType.DATE) == DATE_VALUES


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
def test_empty_input_round_trip(codec):
    encoded = codec.encode([], DataType.INT32)
    assert codec.decode(encoded, DataType.INT32) == []


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
@pytest.mark.parametrize("dtype, values", [
    (DataType.INT64, INT_VALUES),
    (DataType.VARCHAR, STR_VALUES + ["née", ""]),
    (DataType.DATE, DATE_VALUES),
    (DataType.BOOL, [True, True, False]),
    (DataType.INT32, []),
], ids=["int64", "varchar", "date", "bool", "empty"])
def test_every_cut_of_a_segment_is_a_compression_error(codec, dtype, values):
    # raw struct.error / IndexError / SchemaError used to escape from
    # most cuts; only some delta and dictionary ones were reported
    if not codec.supports(dtype):
        pytest.skip("codec does not take this type")
    encoded = codec.encode(values, dtype)
    assert codec.decode(encoded, dtype) == values
    for cut in range(len(encoded)):
        with pytest.raises(CompressionError):
            codec.decode(encoded[:cut], dtype)


@pytest.mark.parametrize("codec", ALL_CODECS, ids=lambda c: c.name)
def test_damaged_payloads_are_compression_errors(codec):
    # not cuts: bytes that are not UTF-8, and days no date has
    if codec.supports(DataType.VARCHAR):
        text = codec.encode(["abcd", "abcd", "abcd"], DataType.VARCHAR)
        with pytest.raises(CompressionError):
            codec.decode(text.replace(b"abcd", b"ab\xff\xfe"),
                         DataType.VARCHAR)
    if codec.supports(DataType.DATE):
        days = codec.encode([2**31 - 1], DataType.INT32)
        with pytest.raises(CompressionError):
            codec.decode(days, DataType.DATE)


def test_rle_compresses_runs():
    values = [42] * 1000
    rle = RleCodec().encode(values, DataType.INT64)
    plain = NoneCodec().encode(values, DataType.INT64)
    assert len(rle) < len(plain) / 50


def test_rle_expands_unique_values():
    values = list(range(100))
    rle = RleCodec().encode(values, DataType.INT64)
    plain = NoneCodec().encode(values, DataType.INT64)
    assert len(rle) > len(plain)  # honest codec: no free lunch


def test_dictionary_compresses_low_cardinality_strings():
    values = ["pending", "shipped", "delivered"] * 500
    encoded = DictionaryCodec().encode(values, DataType.VARCHAR)
    plain = NoneCodec().encode(values, DataType.VARCHAR)
    assert len(encoded) < len(plain) / 10


def test_dictionary_index_width_is_minimal():
    # 2 distinct values -> 1 bit per row
    values = ["a", "b"] * 4000
    encoded = DictionaryCodec().encode(values, DataType.VARCHAR)
    assert len(encoded) < 8000 / 8 + 100


def test_delta_compresses_sorted_ints():
    values = list(range(1_000_000, 1_001_000))
    encoded = DeltaCodec().encode(values, DataType.INT64)
    plain = NoneCodec().encode(values, DataType.INT64)
    assert len(encoded) < len(plain) / 5


def test_delta_rejects_strings():
    with pytest.raises(CompressionError):
        DeltaCodec().encode(["a"], DataType.VARCHAR)
    assert not DeltaCodec().supports(DataType.VARCHAR)


def test_delta_handles_negative_jumps():
    values = [100, 5, 90, -1000, 2**50, 0]
    codec = DeltaCodec()
    assert codec.decode(codec.encode(values, DataType.INT64),
                        DataType.INT64) == values


def test_lzlite_compresses_repetitive_bytes():
    codec = LzLiteCodec()
    raw = b"abcdefgh" * 1000
    compressed = codec.compress_bytes(raw)
    assert len(compressed) < len(raw) / 10
    assert codec.decompress_bytes(compressed) == raw


def test_lzlite_handles_incompressible_bytes():
    import random
    rng = random.Random(7)
    raw = bytes(rng.randrange(256) for _ in range(5000))
    codec = LzLiteCodec()
    assert codec.decompress_bytes(codec.compress_bytes(raw)) == raw


def test_lzlite_overlapping_match():
    # Classic LZ edge case: run of one byte forces overlapping copies.
    codec = LzLiteCodec()
    raw = b"a" * 300
    assert codec.decompress_bytes(codec.compress_bytes(raw)) == raw


# a damaged stream: a 4-byte length, then one literal token "ab"
_LZ_HEAD = struct.pack("<I", 6) + b"\x00\x02ab"


@pytest.mark.parametrize("data", [
    _LZ_HEAD + b"\x01" + struct.pack("<HB", 0, 4),  # match at offset 0
    _LZ_HEAD + b"\x01\x02\x00",                     # match token cut short
    _LZ_HEAD + b"\x00",                             # literal with no length
], ids=["zero-offset", "truncated-match", "truncated-literal"])
def test_lzlite_damaged_stream_raises_compression_error(data):
    with pytest.raises(CompressionError):
        LzLiteCodec().decompress_bytes(data)


def test_rle_rejects_nulls():
    with pytest.raises(CompressionError):
        RleCodec().encode([1, None, 2], DataType.INT64)


def test_dictionary_rejects_nulls():
    with pytest.raises(CompressionError):
        DictionaryCodec().encode([None], DataType.VARCHAR)


def test_codec_by_name():
    assert codec_by_name("rle").name == "rle"
    with pytest.raises(CompressionError):
        codec_by_name("zstd")


def smallest_codec(values, dtype):
    sizes = {codec.name: len(codec.encode(values, dtype))
             for codec in ALL_CODECS if codec.supports(dtype)}
    return min(sizes, key=sizes.get)


def test_best_codec_prefers_rle_for_runs():
    assert smallest_codec([3] * 5000, DataType.INT64) == "rle"


def test_best_codec_prefers_delta_for_sorted():
    assert smallest_codec(list(range(5000)), DataType.INT64) == "delta"


def test_decode_cycles_cost_models_ordered():
    # Heavier codecs must charge more CPU: the Figure 2 trade-off
    # depends on this ordering being sane.
    assert NoneCodec().decode_cycles_per_byte == 0.0
    assert (RleCodec().decode_cycles_per_byte
            < DictionaryCodec().decode_cycles_per_byte
            < LzLiteCodec().decode_cycles_per_byte)
