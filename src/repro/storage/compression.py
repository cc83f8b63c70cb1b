"""Compression codecs.

The paper's Figure 2 hinges on compression "trading CPU cycles for
reduced bandwidth requirements" (§4.1).  These codecs are real — they
produce actual bytes and round-trip losslessly — so compression ratios
are measured, and each codec carries a CPU cost model (cycles per byte)
that the executor charges to the simulated CPU when scanning compressed
segments.

Codecs
------
* :class:`NoneCodec` — plain concatenated encoding.
* :class:`RleCodec` — run-length encoding, best for sorted/low-churn data.
* :class:`DictionaryCodec` — distinct-value table + bit-packed indices.
* :class:`DeltaCodec` — zigzag varint deltas for integers and dates.
* :class:`LzLiteCodec` — a small LZ77/LZSS byte compressor.
"""

from __future__ import annotations

import struct
from typing import Any, Sequence

from repro.errors import CompressionError, SchemaError
from repro.relational.types import DataType, _date_to_days, _days_to_date

_COUNT = struct.Struct("<I")
_MATCH = struct.Struct("<HB")  # an LZ match token's offset and length


def _encode_plain(values: Sequence[Any], dtype: DataType) -> bytes:
    return _COUNT.pack(len(values)) + dtype.encode_many(values)


def _decode_plain(data: bytes, dtype: DataType) -> list[Any]:
    (count,) = _COUNT.unpack_from(data, 0)
    values, offset = dtype.decode_many(data, _COUNT.size, count)
    if offset != len(data):
        raise CompressionError("trailing bytes after plain segment")
    return values


class Codec:
    """Base codec: byte-real encode/decode plus a CPU cost model."""

    name = "abstract"
    #: cycles charged per *compressed* byte when decoding during a scan
    decode_cycles_per_byte = 0.0
    #: cycles charged per *uncompressed* byte when encoding at load time
    encode_cycles_per_byte = 0.0

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        raise NotImplementedError

    def decode(self, data: bytes, dtype: DataType) -> list[Any]:
        """The values of a segment :meth:`encode` produced."""
        try:
            return self._decode(data, dtype)
        except (struct.error, IndexError, ValueError, OverflowError,
                SchemaError) as exc:
            # short reads, text that is not UTF-8, days no date has
            raise CompressionError(
                f"damaged {self.name} segment: {exc}") from None

    def _decode(self, data: bytes, dtype: DataType) -> list[Any]:
        raise NotImplementedError

    def supports(self, dtype: DataType) -> bool:
        """Whether this codec can encode the given type."""
        return True


class NoneCodec(Codec):
    """No compression: values stored in their plain encoding."""

    name = "none"
    decode_cycles_per_byte = 0.0
    encode_cycles_per_byte = 0.0

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        return _encode_plain(values, dtype)

    def _decode(self, data: bytes, dtype: DataType) -> list[Any]:
        return _decode_plain(data, dtype)


class RleCodec(Codec):
    """Run-length encoding: (run_length:u32, value) pairs."""

    name = "rle"
    decode_cycles_per_byte = 1.2
    encode_cycles_per_byte = 1.5

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        out = bytearray(_COUNT.pack(len(values)))
        i = 0
        n = len(values)
        while i < n:
            j = i
            while j < n and values[j] == values[i]:
                j += 1
            if values[i] is None:
                raise CompressionError("RLE does not encode NULLs")
            out += _COUNT.pack(j - i)
            out += dtype.encode(values[i])
            i = j
        return bytes(out)

    def _decode(self, data: bytes, dtype: DataType) -> list[Any]:
        (count,) = _COUNT.unpack_from(data, 0)
        offset = _COUNT.size
        values: list[Any] = []
        while offset < len(data):
            (run,) = _COUNT.unpack_from(data, offset)
            offset += _COUNT.size
            value, consumed = dtype.decode(data, offset)
            offset += consumed
            values.extend([value] * run)
        if len(values) != count:
            raise CompressionError(
                f"RLE decoded {len(values)} values, expected {count}")
        return values


class DictionaryCodec(Codec):
    """Distinct-value dictionary with bit-packed indices."""

    name = "dictionary"
    decode_cycles_per_byte = 2.2
    encode_cycles_per_byte = 3.0

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        if any(v is None for v in values):
            raise CompressionError("dictionary codec does not encode NULLs")
        distinct: dict[Any, int] = {}
        for v in values:
            if v not in distinct:
                distinct[v] = len(distinct)
        entries = list(distinct)
        width = max(1, (len(entries) - 1).bit_length()) if entries else 1
        out = bytearray(_COUNT.pack(len(values)))
        out += _COUNT.pack(len(entries))
        out.append(width)
        for entry in entries:
            out += dtype.encode(entry)
        out += _pack_bits([distinct[v] for v in values], width)
        return bytes(out)

    def _decode(self, data: bytes, dtype: DataType) -> list[Any]:
        (count,) = _COUNT.unpack_from(data, 0)
        (n_entries,) = _COUNT.unpack_from(data, _COUNT.size)
        width = data[2 * _COUNT.size]
        offset = 2 * _COUNT.size + 1
        entries = []
        for _ in range(n_entries):
            value, consumed = dtype.decode(data, offset)
            offset += consumed
            entries.append(value)
        indices = _unpack_bits(data[offset:], width, count)
        try:
            return [entries[i] for i in indices]
        except IndexError:
            raise CompressionError("dictionary index out of range") from None


class DeltaCodec(Codec):
    """First value + zigzag varint deltas (integers and dates)."""

    name = "delta"
    decode_cycles_per_byte = 1.8
    encode_cycles_per_byte = 2.0

    _INT_TYPES = (DataType.INT32, DataType.INT64, DataType.DATE)

    def supports(self, dtype: DataType) -> bool:
        return dtype in self._INT_TYPES

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        if not self.supports(dtype):
            raise CompressionError(f"delta codec cannot encode {dtype.value}")
        if any(v is None for v in values):
            raise CompressionError("delta codec does not encode NULLs")
        out = bytearray(_COUNT.pack(len(values)))
        prev = 0
        if dtype is DataType.DATE:
            values = map(_date_to_days, values)
        for current in values:
            out += _zigzag_varint(current - prev)
            prev = current
        return bytes(out)

    def _decode(self, data: bytes, dtype: DataType) -> list[Any]:
        (count,) = _COUNT.unpack_from(data, 0)
        offset = _COUNT.size
        values = []
        prev = 0
        for _ in range(count):
            delta, offset = _read_zigzag_varint(data, offset)
            prev += delta
            values.append(prev)
        if offset != len(data):
            raise CompressionError("trailing bytes after delta segment")
        if dtype is DataType.DATE:
            return list(map(_days_to_date, values))
        return values


class LzLiteCodec(Codec):
    """A small LZ77/LZSS byte compressor over the plain encoding.

    Token stream: ``0x00 len literal-bytes`` or ``0x01 offset:u16 len:u8``
    (match of ``len`` bytes starting ``offset`` back).  Deliberately
    simple; its job is to be a *real* heavier-weight codec whose CPU cost
    the energy model can price against its bandwidth savings.
    """

    name = "lzlite"
    decode_cycles_per_byte = 3.5
    encode_cycles_per_byte = 12.0

    _MIN_MATCH = 4
    _MAX_MATCH = 255
    _WINDOW = 65535

    def encode(self, values: Sequence[Any], dtype: DataType) -> bytes:
        return self.compress_bytes(_encode_plain(values, dtype))

    def _decode(self, data: bytes, dtype: DataType) -> list[Any]:
        return _decode_plain(self.decompress_bytes(data), dtype)

    def compress_bytes(self, raw: bytes) -> bytes:
        """LZ-compress an arbitrary byte string."""
        out = bytearray(_COUNT.pack(len(raw)))
        table: dict[bytes, int] = {}
        get = table.get
        pack_match = _MATCH.pack
        min_match = self._MIN_MATCH
        max_match = self._MAX_MATCH
        window = self._WINDOW
        n = len(raw)
        i = 0
        literal_start = 0
        # the last MIN_MATCH - 1 bytes start no match: they end as literals
        while i <= n - min_match:
            key = raw[i:i + min_match]
            candidate = get(key, -1)
            table[key] = i
            if candidate >= 0 and i - candidate <= window:
                length = min_match
                limit = min(max_match, n - i)
                while (length < limit
                       and raw[candidate + length] == raw[i + length]):
                    length += 1
                if literal_start < i:
                    self._flush_literals(out, raw, literal_start, i)
                out.append(0x01)
                out += pack_match(i - candidate, length)
                i += length
                literal_start = i
            else:
                i += 1
        self._flush_literals(out, raw, literal_start, n)
        return bytes(out)

    def _flush_literals(self, out: bytearray, raw: bytes,
                        start: int, end: int) -> None:
        pos = start
        while pos < end:
            chunk = raw[pos:min(pos + 255, end)]
            out.append(0x00)
            out.append(len(chunk))
            out += chunk
            pos += len(chunk)

    def decompress_bytes(self, data: bytes) -> bytes:
        """Inverse of :meth:`compress_bytes`."""
        offset = _COUNT.size
        out = bytearray()
        unpack_match = _MATCH.unpack_from
        try:
            (expected,) = _COUNT.unpack_from(data, 0)
            while offset < len(data):
                tag = data[offset]
                if tag == 0x00:
                    length = data[offset + 1]
                    offset += 2
                    out += data[offset:offset + length]
                    offset += length
                elif tag == 0x01:
                    match_offset, length = unpack_match(data, offset + 1)
                    offset += 4
                    start = len(out) - match_offset
                    if start < 0:
                        raise CompressionError("LZ match before stream start")
                    if match_offset >= length:
                        out += out[start:start + length]
                    elif match_offset:
                        # an overlapping copy repeats its last offset bytes
                        reps = length // match_offset + 1
                        out += (out[start:] * reps)[:length]
                    else:
                        raise CompressionError("LZ match at offset 0")
                else:
                    raise CompressionError(f"bad LZ token tag {tag}")
        except (IndexError, struct.error):
            raise CompressionError(
                f"LZ stream truncated at byte {offset}") from None
        if len(out) != expected:
            raise CompressionError(
                f"LZ stream decoded {len(out)} bytes, expected {expected}")
        return bytes(out)


# --- bit packing / varints ---------------------------------------------------

def _pack_bits(indices: Sequence[int], width: int) -> bytes:
    acc = 0
    nbits = 0
    out = bytearray()
    for idx in indices:
        acc |= idx << nbits
        nbits += width
        while nbits >= 8:
            out.append(acc & 0xFF)
            acc >>= 8
            nbits -= 8
    if nbits:
        out.append(acc & 0xFF)
    return bytes(out)


def _unpack_bits(data: bytes, width: int, count: int) -> list[int]:
    mask = (1 << width) - 1
    acc = 0
    nbits = 0
    pos = 0
    out = []
    for _ in range(count):
        while nbits < width:
            if pos >= len(data):
                raise CompressionError("bit stream exhausted")
            acc |= data[pos] << nbits
            pos += 1
            nbits += 8
        out.append(acc & mask)
        acc >>= width
        nbits -= width
    return out


def _zigzag_varint(value: int) -> bytes:
    encoded = ((-value) << 1) - 1 if value < 0 else value << 1
    out = bytearray()
    while True:
        byte = encoded & 0x7F
        encoded >>= 7
        if encoded:
            out.append(byte | 0x80)
        else:
            out.append(byte)
            return bytes(out)


def _read_zigzag_varint(data: bytes, offset: int) -> tuple[int, int]:
    shift = 0
    value = 0
    while True:
        if offset >= len(data):
            raise CompressionError("varint truncated")
        byte = data[offset]
        offset += 1
        value |= (byte & 0x7F) << shift
        if not byte & 0x80:
            break
        shift += 7
    if value & 1:
        return -((value + 1) >> 1), offset
    return value >> 1, offset


# --- registry ----------------------------------------------------------------

_CODECS: dict[str, Codec] = {
    codec.name: codec
    for codec in (NoneCodec(), RleCodec(), DictionaryCodec(),
                  DeltaCodec(), LzLiteCodec())
}


def codec_by_name(name: str) -> Codec:
    """Look up a codec instance by its registered name."""
    try:
        return _CODECS[name]
    except KeyError:
        raise CompressionError(
            f"unknown codec {name!r}; known: {sorted(_CODECS)}") from None
