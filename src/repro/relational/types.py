"""Column data types and their physical encodings.

The storage engine is byte-accurate: every type knows how to encode a
value to bytes and back, so table sizes, compression ratios, and
therefore simulated I/O times are grounded in real encoded bytes.
"""

from __future__ import annotations

import enum
import struct
from datetime import date, timedelta
from typing import Any, Optional, Sequence

from repro.errors import SchemaError

_EPOCH = date(1970, 1, 1)


class DataType(enum.Enum):
    """Supported column types with fixed or variable width."""

    INT32 = "int32"
    INT64 = "int64"
    FLOAT64 = "float64"
    DATE = "date"
    VARCHAR = "varchar"
    BOOL = "bool"

    @property
    def fixed_width(self) -> int | None:
        """Encoded width in bytes, or None for variable-width types."""
        return _WIDTHS[self]

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` unless ``value`` fits this type."""
        if value is None:
            return  # NULLs are allowed in any column unless schema says not
        expected = _PYTHON_TYPES[self]
        if self is DataType.FLOAT64 and isinstance(value, int):
            return  # ints are acceptable floats
        if not isinstance(value, expected):
            raise SchemaError(
                f"value {value!r} is not valid for {self.value}")
        if self is DataType.INT32 and not -2**31 <= value < 2**31:
            raise SchemaError(f"{value} out of int32 range")

    def encode(self, value: Any) -> bytes:
        """Encode a non-NULL value to its physical bytes."""
        if value is None:
            raise SchemaError("cannot encode NULL; handle at record level")
        if self is DataType.INT32:
            return struct.pack("<i", value)
        if self is DataType.INT64:
            return struct.pack("<q", value)
        if self is DataType.FLOAT64:
            return struct.pack("<d", float(value))
        if self is DataType.DATE:
            return struct.pack("<i", _date_to_days(value))
        if self is DataType.BOOL:
            return struct.pack("<?", value)
        if self is DataType.VARCHAR:
            raw = value.encode("utf-8")
            return struct.pack("<I", len(raw)) + raw
        raise SchemaError(f"unhandled type {self}")

    def decode(self, data: bytes, offset: int = 0) -> tuple[Any, int]:
        """Decode one value at ``offset``; returns (value, bytes consumed)."""
        if self is DataType.INT32:
            return struct.unpack_from("<i", data, offset)[0], 4
        if self is DataType.INT64:
            return struct.unpack_from("<q", data, offset)[0], 8
        if self is DataType.FLOAT64:
            return struct.unpack_from("<d", data, offset)[0], 8
        if self is DataType.DATE:
            return _days_to_date(struct.unpack_from("<i", data, offset)[0]), 4
        if self is DataType.BOOL:
            return struct.unpack_from("<?", data, offset)[0], 1
        if self is DataType.VARCHAR:
            (length,) = struct.unpack_from("<I", data, offset)
            start = offset + 4
            raw = data[start:start + length]
            if len(raw) != length:
                raise SchemaError("truncated varchar")
            return raw.decode("utf-8"), 4 + length
        raise SchemaError(f"unhandled type {self}")

    def encoded_size(self, value: Any) -> int:
        """Bytes this value occupies when encoded."""
        if self.fixed_width is not None:
            return self.fixed_width
        return 4 + len(value.encode("utf-8"))


def _date_to_days(value: date) -> int:
    return (value - _EPOCH).days


def _days_to_date(days: int) -> date:
    return _EPOCH + timedelta(days=days)


_WIDTHS = {
    DataType.INT32: 4,
    DataType.INT64: 8,
    DataType.FLOAT64: 8,
    DataType.DATE: 4,
    DataType.BOOL: 1,
    DataType.VARCHAR: None,
}

#: struct code of each fixed-width encoding above (little-endian, no
#: padding); the row codec packs a run of fixed-width columns at once
_STRUCT_CODES = {
    DataType.INT32: "i",
    DataType.INT64: "q",
    DataType.FLOAT64: "d",
    DataType.DATE: "i",
    DataType.BOOL: "?",
}

_PYTHON_TYPES = {
    DataType.INT32: int,
    DataType.INT64: int,
    DataType.FLOAT64: float,
    DataType.DATE: date,
    DataType.BOOL: bool,
    DataType.VARCHAR: str,
}

_VARCHAR_LENGTH = struct.Struct("<I")


class _ValuesCodec:
    """The codec for one non-NULL value of each of ``dtypes``, in order.

    Compiled once per schema: the types are cut into steps, one
    :class:`struct.Struct` per run of fixed-width types and one step
    per VARCHAR, so a row costs a call per step rather than per value.
    The bytes are those of :meth:`DataType.encode`, concatenated.
    """

    def __init__(self, dtypes: Sequence[DataType]) -> None:
        #: (struct of the run or None for a VARCHAR, first position,
        #: one past the last, offsets in the run holding a DATE)
        self.steps: list[tuple[Optional[struct.Struct], int, int,
                               tuple[int, ...]]] = []
        start = 0
        while start < len(dtypes):
            stop = start
            while stop < len(dtypes) and dtypes[stop] in _STRUCT_CODES:
                stop += 1
            if stop == start:
                self.steps.append((None, start, start + 1, ()))
                start += 1
                continue
            run = dtypes[start:stop]
            self.steps.append((
                struct.Struct("<" + "".join(_STRUCT_CODES[t] for t in run)),
                start, stop,
                tuple(i for i, t in enumerate(run) if t is DataType.DATE)))
            start = stop

    def encode(self, values: Sequence[Any], prefix: bytes) -> bytes:
        """``prefix`` followed by the encoded ``values``."""
        parts = [prefix]
        for packer, start, stop, dates in self.steps:
            if packer is None:
                raw = values[start].encode("utf-8")
                parts.append(_VARCHAR_LENGTH.pack(len(raw)))
                parts.append(raw)
            elif dates:
                run = list(values[start:stop])
                for i in dates:
                    run[i] = _date_to_days(run[i])
                parts.append(packer.pack(*run))
            else:
                parts.append(packer.pack(*values[start:stop]))
        return b"".join(parts)

    def decode(self, data: bytes, offset: int) -> tuple[list[Any], int]:
        """The values starting at ``offset`` and the offset past them."""
        values: list[Any] = []
        for unpacker, _start, _stop, dates in self.steps:
            if unpacker is None:
                (length,) = _VARCHAR_LENGTH.unpack_from(data, offset)
                offset += 4
                raw = data[offset:offset + length]
                if len(raw) != length:
                    raise SchemaError("truncated varchar")
                values.append(raw.decode("utf-8"))
                offset += length
                continue
            run = unpacker.unpack_from(data, offset)
            offset += unpacker.size
            if dates:
                run = list(run)
                for i in dates:
                    run[i] = _days_to_date(run[i])
            values += run
        return values, offset
