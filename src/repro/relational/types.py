"""Column data types and their physical encodings.

The storage engine is byte-accurate: every type knows how to encode a
value to bytes and back, so table sizes, compression ratios, and
therefore simulated I/O times are grounded in real encoded bytes.
"""

from __future__ import annotations

import enum
import struct
from datetime import date, datetime
from typing import Any, Optional, Sequence

from repro.errors import SchemaError

#: proleptic ordinal of 1970-01-01, day zero of the DATE encoding
_EPOCH_ORDINAL = date(1970, 1, 1).toordinal()
_VARCHAR_LENGTH = struct.Struct("<I")


class DataType(enum.Enum):
    """Supported column types with fixed or variable width.

    A member carries its ``fixed_width`` in bytes (None for VARCHAR),
    the ``struct_code`` of that encoding (little-endian, no padding),
    the ``python_type`` its values are instances of and the
    ``exact_types`` a column is checked against at once (a bool is an
    int, an int an acceptable float).  The ``*_many`` methods are the
    per-value ones over a whole column: the same bytes, sizes and
    errors, without a Python-level call per value.
    """

    INT32 = "int32", 4, "i", int, {int, bool}
    INT64 = "int64", 8, "q", int, {int, bool}
    FLOAT64 = "float64", 8, "d", (float, int), {float, int, bool}
    DATE = "date", 4, "i", date, {date}
    VARCHAR = "varchar", None, None, str, {str}
    BOOL = "bool", 1, "?", bool, {bool}

    def __new__(cls, label: str, fixed_width: Optional[int],
                struct_code: Optional[str], python_type: Any,
                exact_types: set[type]) -> "DataType":
        member = object.__new__(cls)
        member._value_ = label
        member.fixed_width = fixed_width
        member.struct_code = struct_code
        member.python_type = python_type
        member.exact_types = frozenset(exact_types)
        #: integers lie in [-int_limit, int_limit); None for the rest
        member.int_limit = (
            2 ** (8 * fixed_width - 1) if python_type is int else None)
        return member

    def validate(self, value: Any) -> None:
        """Raise :class:`SchemaError` unless ``value`` fits this type."""
        if value is None:
            return  # NULLs are allowed in any column unless schema says not
        if (not isinstance(value, self.python_type)
                or self is DataType.DATE and isinstance(value, datetime)):
            raise SchemaError(
                f"value {value!r} is not valid for {self.value}")
        limit = self.int_limit
        if limit is not None and not -limit <= value < limit:
            raise SchemaError(f"{value} out of {self.value} range")

    def plainly_valid(self, values: Sequence[Any]) -> bool:
        """Whether a non-empty column passes on class and range alone;
        False only means :meth:`validate` has to be asked (a NULL, a
        subclass, a bad value)."""
        if not self.exact_types.issuperset(map(type, values)):
            return False
        limit = self.int_limit
        return limit is None or -limit <= min(values) and max(values) < limit

    def encode(self, value: Any) -> bytes:
        """Encode a non-NULL value to its physical bytes."""
        if value is None:
            raise SchemaError("cannot encode NULL; handle at record level")
        if self is DataType.VARCHAR:
            raw = value.encode("utf-8")
            return _VARCHAR_LENGTH.pack(len(raw)) + raw
        if self is DataType.DATE:
            value = _date_to_days(value)
        elif self is DataType.FLOAT64:
            value = float(value)
        return struct.pack("<" + self.struct_code, value)

    def encode_many(self, values: Sequence[Any]) -> bytes:
        """``b"".join(map(self.encode, values))``."""
        if None not in values:  # ``?`` would pack a NULL as False
            try:
                if self is DataType.VARCHAR:
                    raws = [value.encode("utf-8") for value in values]
                    return b"".join([part for raw in raws for part in
                                     (_VARCHAR_LENGTH.pack(len(raw)), raw)])
                if self is DataType.DATE:
                    values = list(map(_date_to_days, values))
                return struct.pack(f"<{len(values)}{self.struct_code}",
                                   *values)
            except (struct.error, AttributeError):
                pass
        # a NULL or a value ``validate`` rejects: the one-value form
        # says what is wrong with it
        return b"".join(map(self.encode, values))

    def decode(self, data: bytes, offset: int = 0) -> tuple[Any, int]:
        """Decode one value at ``offset``; returns (value, bytes consumed)."""
        if self is DataType.VARCHAR:
            (length,) = _VARCHAR_LENGTH.unpack_from(data, offset)
            start = offset + 4
            raw = data[start:start + length]
            if len(raw) != length:
                raise SchemaError("truncated varchar")
            return raw.decode("utf-8"), 4 + length
        (value,) = struct.unpack_from("<" + self.struct_code, data, offset)
        if self is DataType.DATE:
            value = _days_to_date(value)
        return value, self.fixed_width

    def decode_many(self, data: bytes, offset: int,
                    count: int) -> tuple[list[Any], int]:
        """``count`` values starting at ``offset`` and the offset past them."""
        if self is DataType.VARCHAR:
            values = []
            for _ in range(count):
                value, consumed = self.decode(data, offset)
                offset += consumed
                values.append(value)
            return values, offset
        values = struct.unpack_from(
            f"<{count}{self.struct_code}", data, offset)
        if self is DataType.DATE:
            values = map(_days_to_date, values)
        return list(values), offset + count * self.fixed_width

    def encoded_size_many(self, values: Sequence[Any]) -> int:
        """Bytes ``values`` occupy when encoded."""
        if self.fixed_width is not None:
            return self.fixed_width * len(values)
        return 4 * len(values) + len("".join(values).encode("utf-8"))


def _date_to_days(value: date) -> int:
    return value.toordinal() - _EPOCH_ORDINAL


def _days_to_date(days: int) -> date:
    return date.fromordinal(days + _EPOCH_ORDINAL)


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
            while stop < len(dtypes) and dtypes[stop].struct_code is not None:
                stop += 1
            if stop == start:
                self.steps.append((None, start, start + 1, ()))
                start += 1
                continue
            run = dtypes[start:stop]
            self.steps.append((
                struct.Struct("<" + "".join(t.struct_code for t in run)),
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
