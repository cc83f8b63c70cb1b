"""Storage manager: tables, their layouts, and their placement.

A :class:`Table` couples a schema with a physical representation (row
heap or column file) and a placement (the RAID array it lives on), so
the executor can (a) iterate real tuples and (b) charge simulated I/O to
the right devices for the bytes the physical layout actually occupies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional, Sequence

from repro.errors import StorageError
from repro.relational.schema import TableSchema
from repro.storage.column import ColumnFile
from repro.storage.compression import Codec
from repro.storage.heap import HeapFile

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.raid import RaidArray
    from repro.sim.engine import Simulation
    from repro.storage.index import TableIndex

ROW_LAYOUT = "row"
COLUMN_LAYOUT = "column"


class Table:
    """A stored table: schema + physical file + placement."""

    def __init__(self, schema: TableSchema, layout: str,
                 placement: "RaidArray",
                 codecs: Optional[dict[str, Codec | str]] = None,
                 page_size: int = 8192,
                 segment_rows: int = 4096) -> None:
        if layout not in (ROW_LAYOUT, COLUMN_LAYOUT):
            raise StorageError(f"unknown layout {layout!r}")
        if layout == ROW_LAYOUT and codecs:
            raise StorageError("row layout does not support column codecs")
        self.schema = schema
        self.layout = layout
        self.placement = placement
        self.heap: Optional[HeapFile] = None
        self.columnar: Optional[ColumnFile] = None
        self.indexes: dict[str, "TableIndex"] = {}
        if layout == ROW_LAYOUT:
            self.heap = HeapFile(schema, page_size=page_size)
        else:
            self.columnar = ColumnFile(schema, codecs=codecs,
                                       segment_rows=segment_rows)

    @property
    def name(self) -> str:
        return self.schema.name

    @property
    def row_count(self) -> int:
        if self.heap is not None:
            return self.heap.row_count
        assert self.columnar is not None
        return self.columnar.row_count

    # -- loading -----------------------------------------------------------
    def load(self, rows: Sequence[Sequence[Any]]) -> None:
        """Bulk-load rows into the physical layout."""
        if self.heap is not None:
            self.heap.insert_many(rows)
        else:
            assert self.columnar is not None
            self.columnar.append_many(rows)
            self.columnar.seal()

    # -- sizing ------------------------------------------------------------
    def scan_bytes(self, columns: Optional[Sequence[str]] = None) -> int:
        """Bytes a scan of the given columns reads from storage.

        A row store always reads whole pages regardless of projection;
        a column store reads only the projected columns' segments.
        """
        if self.heap is not None:
            return self.heap.size_bytes()
        assert self.columnar is not None
        return self.columnar.size_bytes(columns)

    def plain_bytes(self, columns: Optional[Sequence[str]] = None) -> int:
        """Uncompressed size of the given columns (CPU-side volume)."""
        if self.heap is not None:
            return self.heap.size_bytes()
        assert self.columnar is not None
        names = list(columns) if columns else self.schema.column_names()
        return sum(self.columnar.column_plain_bytes(n) for n in names)

    def decode_cycles_per_scan_byte(self,
                                    columns: Optional[Sequence[str]] = None
                                    ) -> float:
        """Weighted decompression cost over the scanned columns."""
        if self.columnar is None:
            return 0.0
        names = list(columns) if columns else self.schema.column_names()
        total_bytes = 0
        weighted = 0.0
        for name in names:
            nbytes = self.columnar.column_compressed_bytes(name)
            codec = self.columnar.codec_for(name)
            total_bytes += nbytes
            weighted += codec.decode_cycles_per_byte * nbytes
        if total_bytes == 0:
            return 0.0
        return weighted / total_bytes

    # -- tuple access -----------------------------------------------------
    def iterate(self, columns: Optional[Sequence[str]] = None
                ) -> Iterator[tuple[Any, ...]]:
        """Yield real tuples (projected for column stores)."""
        if self.heap is not None:
            if columns is None:
                yield from self.heap.scan()
            else:
                positions = [self.schema.position(c) for c in columns]
                for row in self.heap.scan():
                    yield tuple(row[p] for p in positions)
            return
        assert self.columnar is not None
        yield from self.columnar.scan(columns)

    # -- indexing ----------------------------------------------------------
    def create_index(self, column: str,
                     clustered: bool = False) -> "TableIndex":
        """Build a B+tree index on ``column`` (row-store tables only)."""
        from repro.storage.index import TableIndex
        if column in self.indexes:
            raise StorageError(
                f"table {self.name!r} already has an index on {column!r}")
        index = TableIndex(self, column, clustered=clustered)
        self.indexes[column] = index
        return index

    def index_on(self, column: str) -> Optional["TableIndex"]:
        """The index on ``column``, or None."""
        return self.indexes.get(column)

    def __repr__(self) -> str:
        return (f"Table({self.name!r}, {self.layout}, rows={self.row_count}, "
                f"on={self.placement.name})")


class StorageManager:
    """The catalog of stored tables and their placements."""

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self._tables: dict[str, Table] = {}

    def create_table(self, schema: TableSchema, layout: str,
                     placement: "RaidArray",
                     codecs: Optional[dict[str, Codec | str]] = None,
                     **kwargs: Any) -> Table:
        """Register a new table; names are unique."""
        if schema.name in self._tables:
            raise StorageError(f"table {schema.name!r} already exists")
        table = Table(schema, layout, placement, codecs=codecs, **kwargs)
        self._tables[schema.name] = table
        return table

    def table(self, name: str) -> Table:
        """Look up a table by name."""
        try:
            return self._tables[name]
        except KeyError:
            raise StorageError(f"no table named {name!r}") from None

    def tables(self) -> list[Table]:
        return [self._tables[k] for k in sorted(self._tables)]

    def __contains__(self, name: str) -> bool:
        return name in self._tables
