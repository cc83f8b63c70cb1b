"""Table schemas and record (row) encoding.

Rows are encoded with a null bitmap followed by the encoded values of
the non-NULL fields, so row-store tables have realistic physical sizes.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import Any, Iterator, Sequence

from repro.errors import SchemaError
from repro.relational.types import DataType, _ValuesCodec

#: rows transposed at a time by :meth:`TableSchema.validate_rows`, so a
#: bulk load never holds a second copy of the whole batch
_BATCH_ROWS = 4096


@dataclass(frozen=True)
class Column:
    """One column: a name, a type, and a nullability flag."""

    name: str
    dtype: DataType
    nullable: bool = True

    def __post_init__(self) -> None:
        if not self.name or not self.name.isidentifier():
            raise SchemaError(f"bad column name {self.name!r}")


class TableSchema:
    """An ordered list of named, typed columns."""

    def __init__(self, name: str, columns: Sequence[Column]) -> None:
        if not name:
            raise SchemaError("table name cannot be empty")
        if not columns:
            raise SchemaError(f"table {name!r} needs at least one column")
        names = [c.name for c in columns]
        if len(set(names)) != len(names):
            raise SchemaError(f"table {name!r} has duplicate column names")
        self.name = name
        self.columns = list(columns)
        self._index = {c.name: i for i, c in enumerate(columns)}
        #: the null bitmap of a row without NULLs
        self._no_nulls = bytes((len(columns) + 7) // 8)

    # -- lookup ----------------------------------------------------------
    def __len__(self) -> int:
        return len(self.columns)

    def __contains__(self, column_name: str) -> bool:
        return column_name in self._index

    def column(self, name: str) -> Column:
        """Column by name."""
        try:
            return self.columns[self._index[name]]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}") from None

    def position(self, name: str) -> int:
        """Ordinal position of a column."""
        try:
            return self._index[name]
        except KeyError:
            raise SchemaError(
                f"table {self.name!r} has no column {name!r}") from None

    def column_names(self) -> list[str]:
        return [c.name for c in self.columns]

    # -- row validation and encoding --------------------------------------
    def validate_row(self, row: Sequence[Any]) -> None:
        """Check arity, types, and nullability of a row."""
        if len(row) != len(self.columns):
            raise SchemaError(
                f"table {self.name!r}: row has {len(row)} fields, "
                f"schema has {len(self.columns)}")
        for value, col in zip(row, self.columns):
            if value is None:
                if not col.nullable:
                    raise SchemaError(
                        f"column {col.name!r} is NOT NULL")
                continue
            col.dtype.validate(value)

    def validate_rows(self, rows: Sequence[Sequence[Any]]) -> None:
        """Raise what :meth:`validate_row` raises for the first bad row.

        A stretch of rows whose columns are all plainly valid costs a
        test per column; any other (a NULL, a subclass, a wrong arity,
        a bad value) goes to :meth:`validate_row` row by row.
        """
        arity = {len(self.columns)}
        for start in range(0, len(rows), _BATCH_ROWS):
            batch = rows[start:start + _BATCH_ROWS]
            if set(map(len, batch)) != arity or not all(
                    col.dtype.plainly_valid(values)
                    for col, values in zip(self.columns, zip(*batch))):
                for row in batch:
                    self.validate_row(row)

    @functools.cached_property
    def _dense_codec(self) -> _ValuesCodec:
        # for rows without NULLs; compiled on first use, since most
        # schemas (projections, join outputs) never encode a row
        return _ValuesCodec([c.dtype for c in self.columns])

    def encode_row(self, row: Sequence[Any]) -> bytes:
        """Encode a row: null bitmap + encoded non-NULL values.

        >>> from repro.relational.types import DataType
        >>> schema = TableSchema("t", [Column("k", DataType.INT32),
        ...                            Column("name", DataType.VARCHAR),
        ...                            Column("price", DataType.FLOAT64)])
        >>> record = schema.encode_row((7, "née", None))
        >>> record.hex()
        '0407000000040000006ec3a965'
        >>> schema.decode_row(record)
        (7, 'née', None)
        """
        self.validate_row(row)
        return self._encode_valid(row)

    def encode_rows(self, rows: Sequence[Sequence[Any]]) -> Iterator[bytes]:
        """The record of each row, after validating them as one batch."""
        self.validate_rows(rows)
        return map(self._encode_valid, rows)

    def _encode_valid(self, row: Sequence[Any]) -> bytes:
        if None not in row:
            return self._dense_codec.encode(row, self._no_nulls)
        bitmap = bytearray(self._no_nulls)
        encoded = bytearray()
        for i, (value, col) in enumerate(zip(row, self.columns)):
            if value is None:
                bitmap[i // 8] |= 1 << (i % 8)
            else:
                encoded += col.dtype.encode(value)
        return bytes(bitmap + encoded)

    def decode_row(self, data: bytes) -> tuple[Any, ...]:
        """Decode a row previously produced by :meth:`encode_row`."""
        nbytes = len(self._no_nulls)
        if len(data) < nbytes:
            raise SchemaError("record shorter than its null bitmap")
        bitmap = data[:nbytes]
        try:
            if bitmap == self._no_nulls:
                values, offset = self._dense_codec.decode(data, nbytes)
            else:
                values, offset = self._decode_with_nulls(data, bitmap)
        except struct.error:
            raise SchemaError(
                "record truncated inside a fixed-width field") from None
        if offset != len(data):
            raise SchemaError(
                f"record has {len(data) - offset} trailing bytes")
        return tuple(values)

    def _decode_with_nulls(self, data: bytes,
                           bitmap: bytes) -> tuple[list[Any], int]:
        offset = len(bitmap)
        values: list[Any] = []
        for i, col in enumerate(self.columns):
            if bitmap[i // 8] & (1 << (i % 8)):
                values.append(None)
                continue
            value, consumed = col.dtype.decode(data, offset)
            offset += consumed
            values.append(value)
        return values, offset

    def __repr__(self) -> str:
        cols = ", ".join(f"{c.name} {c.dtype.value}" for c in self.columns)
        return f"TableSchema({self.name!r}: {cols})"
