"""Heap files: unordered collections of slotted pages (row store)."""

from __future__ import annotations

from typing import Any, Iterator, Sequence

from repro.errors import StorageError
from repro.relational.schema import TableSchema
from repro.storage.page import DEFAULT_PAGE_SIZE, SlottedPage

RecordId = tuple[int, int]  # (page_no, slot)


class HeapFile:
    """A row-store file: rows encoded into slotted pages, in insert order."""

    def __init__(self, schema: TableSchema,
                 page_size: int = DEFAULT_PAGE_SIZE) -> None:
        self.schema = schema
        self.page_size = page_size
        self.pages: list[SlottedPage] = []
        self._row_count = 0

    # -- sizing ------------------------------------------------------------
    @property
    def row_count(self) -> int:
        """Live rows in the file."""
        return self._row_count

    @property
    def page_count(self) -> int:
        return len(self.pages)

    def size_bytes(self) -> int:
        """Physical size: page count times page size (what I/O reads)."""
        return len(self.pages) * self.page_size

    def payload_bytes(self) -> int:
        """Bytes of live record payloads (excludes page overhead)."""
        return sum(len(payload)
                   for page in self.pages
                   for _slot, payload in page.records())

    # -- mutation -----------------------------------------------------------
    def insert(self, row: Sequence[Any]) -> RecordId:
        """Append a row; returns its record id."""
        return self._place(self.schema.encode_row(row))

    def insert_many(self, rows: Sequence[Sequence[Any]]) -> None:
        """Bulk append; an invalid row rejects the whole batch."""
        for payload in self.schema.encode_rows(rows):
            self._place(payload)

    def _place(self, payload: bytes) -> RecordId:
        if len(payload) > self.page_size // 2:
            raise StorageError(
                f"row of {len(payload)} bytes exceeds half a page; "
                "oversized rows are not supported")
        if not self.pages or not self.pages[-1].has_room_for(len(payload)):
            self.pages.append(SlottedPage(len(self.pages), self.page_size))
        slot = self.pages[-1].insert(payload)
        self._row_count += 1
        return (len(self.pages) - 1, slot)

    def fetch(self, rid: RecordId) -> tuple[Any, ...]:
        """Decode the row at ``rid``."""
        page_no, slot = rid
        return self.schema.decode_row(self._page(page_no).read(slot))

    # -- scanning -----------------------------------------------------------
    def scan(self) -> Iterator[tuple[Any, ...]]:
        """Yield all live rows in (page, slot) order."""
        for page in self.pages:
            for _slot, payload in page.records():
                yield self.schema.decode_row(payload)

    def _page(self, page_no: int) -> SlottedPage:
        if not 0 <= page_no < len(self.pages):
            raise StorageError(
                f"heap {self.schema.name!r}: page {page_no} out of range")
        return self.pages[page_no]

    def __repr__(self) -> str:
        return (f"HeapFile({self.schema.name!r}, rows={self._row_count}, "
                f"pages={len(self.pages)})")
