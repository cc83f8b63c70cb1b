"""Secondary indexes over stored tables.

A :class:`TableIndex` wraps a B+tree built over one column of a
row-store table and models its physical footprint: entries pack into
8 KiB leaf pages, upper levels are assumed buffer-resident (the
classic costing assumption), so an exact-match probe reads one leaf
page and a range scan reads the touched leaves plus the heap pages of
matching rows — sequentially if the index is clustered, randomly if
not.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator

from repro.errors import StorageError
from repro.storage.btree import BPlusTree
from repro.storage.page import DEFAULT_PAGE_SIZE

if TYPE_CHECKING:  # pragma: no cover
    from repro.storage.manager import Table

#: bytes per (key, rid) leaf entry, for page-count modeling
LEAF_ENTRY_BYTES = 24


class TableIndex:
    """A B+tree index on one column of a row-store table."""

    def __init__(self, table: "Table", column: str,
                 clustered: bool = False) -> None:
        if table.heap is None:
            raise StorageError(
                f"table {table.name!r} is columnar; indexes are "
                "supported on row-store tables")
        if column not in table.schema:
            raise StorageError(
                f"table {table.name!r} has no column {column!r}")
        self.table = table
        self.column = column
        self.page_size = DEFAULT_PAGE_SIZE
        self.clustered = clustered
        order = max(8, DEFAULT_PAGE_SIZE // LEAF_ENTRY_BYTES)
        self.tree = BPlusTree(order=order)
        position = table.schema.position(column)
        previous = None
        sorted_so_far = True
        for page_no, page in enumerate(table.heap.pages):
            for slot, payload in page.records():
                row = table.schema.decode_row(payload)
                key = row[position]
                if key is None:
                    raise StorageError(
                        f"cannot index NULLs in {table.name}.{column}")
                if previous is not None and key < previous:
                    sorted_so_far = False
                previous = key
                self.tree.insert(key, (page_no, slot))
        # a clustered index requires the heap to actually be in key order
        if clustered and not sorted_so_far:
            raise StorageError(
                f"{table.name}.{column}: heap is not in key order; "
                "cannot declare the index clustered")
        self._naturally_sorted = sorted_so_far

    # -- physical modeling ---------------------------------------------------
    def probe_io_bytes(self) -> int:
        """Bytes one exact-match probe reads (one leaf page; upper
        levels assumed cached)."""
        return self.page_size

    def range_leaf_bytes(self, low: Any = None, high: Any = None) -> int:
        """Leaf bytes a range scan reads."""
        return self.tree.leaves_touched(low, high) * self.page_size

    def heap_fetch_plan(self, n_rows: int) -> tuple[int, int]:
        """(bytes, random_requests) for fetching ``n_rows`` heap rows.

        Clustered: matching rows are contiguous, so the heap read is a
        sequential run of ceil(rows/rows-per-page) pages (0 random
        requests).  Unclustered: one random page read per row, capped at
        the page count (beyond that every page is touched anyway).
        """
        heap = self.table.heap
        assert heap is not None
        if n_rows <= 0 or heap.page_count == 0:
            return 0, 0
        rows_per_page = max(1, heap.row_count // heap.page_count)
        if self.clustered:
            pages = -(-n_rows // rows_per_page)
            return pages * heap.page_size, 0
        pages = min(n_rows, heap.page_count)
        return pages * heap.page_size, pages

    # -- lookups -----------------------------------------------------------
    def search_rows(self, key: Any) -> list[tuple]:
        """Decoded rows matching an exact key."""
        heap = self.table.heap
        assert heap is not None
        return [heap.fetch(rid) for rid in self.tree.search(key)]

    def range_rows(self, low: Any = None,
                   high: Any = None) -> Iterator[tuple]:
        """Decoded rows with keys in ``[low, high]``, in key order."""
        heap = self.table.heap
        assert heap is not None
        for _key, rid in self.tree.range_scan(low, high):
            yield heap.fetch(rid)
