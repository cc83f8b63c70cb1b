"""Column files: per-column segmented storage with optional compression.

The Figure 2 scanner reads only the projected columns, so a column file
tracks encoded bytes per column; the executor charges I/O for exactly
the segments a query touches, and CPU for decompressing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional, Sequence

from repro.errors import StorageError
from repro.relational.schema import TableSchema
from repro.storage.compression import Codec, NoneCodec, codec_by_name

DEFAULT_SEGMENT_ROWS = 4096


@dataclass
class ColumnSegment:
    """One sealed run of values for a single column."""

    row_count: int
    data: bytes
    codec: Codec

    @property
    def compressed_bytes(self) -> int:
        return len(self.data)


class ColumnFile:
    """A columnar table: each column is a list of encoded segments."""

    def __init__(self, schema: TableSchema,
                 codecs: Optional[dict[str, Codec | str]] = None,
                 segment_rows: int = DEFAULT_SEGMENT_ROWS) -> None:
        if segment_rows < 1:
            raise StorageError("segment_rows must be >= 1")
        self.schema = schema
        self.segment_rows = segment_rows
        codecs = codecs or {}
        unknown = sorted(set(codecs).difference(schema.column_names()))
        if unknown:
            raise StorageError(
                f"codecs given for {unknown}, not columns of "
                f"{schema.name!r}: {', '.join(schema.column_names())}")
        self._codecs: dict[str, Codec] = {}
        for col in schema.columns:
            chosen = codecs.get(col.name, NoneCodec())
            if isinstance(chosen, str):
                chosen = codec_by_name(chosen)
            if not chosen.supports(col.dtype):
                raise StorageError(
                    f"codec {chosen.name!r} cannot encode column "
                    f"{col.name!r} of type {col.dtype.value}")
            self._codecs[col.name] = chosen
        self._segments: dict[str, list[ColumnSegment]] = {
            c.name: [] for c in schema.columns}
        self._pending: list[Sequence[Any]] = []
        self._sealed_rows = 0
        self._plain_bytes: dict[str, int] = {c.name: 0 for c in schema.columns}

    # -- sizing -------------------------------------------------------------
    @property
    def row_count(self) -> int:
        return self._sealed_rows + len(self._pending)

    def codec_for(self, column: str) -> Codec:
        """The codec configured for a column."""
        try:
            return self._codecs[column]
        except KeyError:
            raise StorageError(f"no column {column!r}") from None

    def column_compressed_bytes(self, column: str) -> int:
        """Encoded (on-storage) bytes of one column, pending rows sealed."""
        self.seal()
        return sum(seg.compressed_bytes for seg in self._segment_list(column))

    def column_plain_bytes(self, column: str) -> int:
        """Bytes the column would occupy uncompressed."""
        self.seal()
        return self._plain_bytes[column]

    def size_bytes(self, columns: Optional[Sequence[str]] = None) -> int:
        """Total encoded bytes across the given columns (default: all)."""
        names = list(columns) if columns else self.schema.column_names()
        return sum(self.column_compressed_bytes(n) for n in names)

    def compression_ratio(self, columns: Optional[Sequence[str]] = None
                          ) -> float:
        """compressed / plain bytes over the given columns."""
        names = list(columns) if columns else self.schema.column_names()
        plain = sum(self.column_plain_bytes(n) for n in names)
        if plain == 0:
            return 1.0
        return self.size_bytes(names) / plain

    # -- loading ------------------------------------------------------------
    def append(self, row: Sequence[Any]) -> None:
        """Buffer one row; segments seal every ``segment_rows`` rows."""
        self.schema.validate_row(row)
        self._pending.append(tuple(row))
        if len(self._pending) >= self.segment_rows:
            self._seal_pending()

    def append_many(self, rows: Sequence[Sequence[Any]]) -> None:
        """Bulk load; an invalid row rejects the whole batch."""
        self.schema.validate_rows(rows)
        start = 0
        while start < len(rows):
            stop = start + self.segment_rows - len(self._pending)
            self._pending.extend(map(tuple, rows[start:stop]))
            if len(self._pending) >= self.segment_rows:
                self._seal_pending()
            start = stop

    def seal(self) -> None:
        """Flush any buffered rows into (possibly short) segments."""
        if self._pending:
            self._seal_pending()

    def _seal_pending(self) -> None:
        # every column is encoded before any segment is kept: rows that
        # cannot be encoded (a NULL under ``delta``, say) leave the file,
        # all of them, and ``row_count`` with them
        rows, self._pending = self._pending, []
        sealed = []
        for col, values in zip(self.schema.columns, zip(*rows)):
            codec = self._codecs[col.name]
            data = codec.encode(values, col.dtype)
            sealed.append((col.name, ColumnSegment(len(rows), data, codec),
                           col.dtype.encoded_size_many(values)))
        for name, segment, plain_bytes in sealed:
            self._segments[name].append(segment)
            self._plain_bytes[name] += plain_bytes
        self._sealed_rows += len(rows)

    # -- scanning -----------------------------------------------------------
    def scan(self, columns: Optional[Sequence[str]] = None
             ) -> Iterator[tuple[Any, ...]]:
        """Yield tuples of the requested columns, in load order."""
        self.seal()
        names = list(columns) if columns else self.schema.column_names()
        for name in names:
            if name not in self._segments:
                raise StorageError(f"no column {name!r}")
        if not names:
            raise StorageError("must scan at least one column")
        segment_lists = [self._segment_list(name) for name in names]
        dtypes = [self.schema.column(name).dtype for name in names]
        n_segments = len(segment_lists[0])
        for seg_idx in range(n_segments):
            decoded = [
                seg_list[seg_idx].codec.decode(seg_list[seg_idx].data, dtype)
                for seg_list, dtype in zip(segment_lists, dtypes)]
            yield from zip(*decoded)

    def _segment_list(self, column: str) -> list[ColumnSegment]:
        try:
            return self._segments[column]
        except KeyError:
            raise StorageError(f"no column {column!r}") from None

    def __repr__(self) -> str:
        return (f"ColumnFile({self.schema.name!r}, rows={self.row_count}, "
                f"bytes={self.size_bytes()})")
