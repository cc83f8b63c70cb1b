"""Unit tests for slotted pages and heap files."""

import pytest

from repro.errors import PageError, SchemaError, StorageError
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.storage.heap import HeapFile
from repro.storage.page import SlottedPage


class TestSlottedPage:
    def test_insert_and_read(self):
        page = SlottedPage(0)
        slot = page.insert(b"hello")
        assert page.read(slot) == b"hello"

    def test_slots_are_sequential(self):
        page = SlottedPage(0)
        assert [page.insert(b"x"), page.insert(b"y"), page.insert(b"z")] == \
            [0, 1, 2]

    def test_free_space_decreases(self):
        page = SlottedPage(0, page_size=128)
        before = page.free_space()
        page.insert(b"0123456789")
        assert page.free_space() == before - 10 - 4  # payload + slot entry

    def test_page_full_rejected(self):
        page = SlottedPage(0, page_size=64)
        page.insert(b"x" * page.free_space())
        with pytest.raises(PageError):
            page.insert(b"y")

    def test_empty_record_rejected(self):
        with pytest.raises(PageError):
            SlottedPage(0).insert(b"")

    def test_bad_slot_rejected(self):
        page = SlottedPage(0)
        with pytest.raises(PageError):
            page.read(5)

    def test_records_iterates_live_in_slot_order(self):
        page = SlottedPage(0)
        for payload in (b"a", b"b", b"c"):
            page.insert(payload)
        assert [(slot, payload) for slot, payload in page.records()] == \
            [(0, b"a"), (1, b"b"), (2, b"c")]

    def test_tiny_page_size_rejected(self):
        with pytest.raises(PageError):
            SlottedPage(0, page_size=4)

    def test_oversized_page_rejected(self):
        with pytest.raises(PageError):
            SlottedPage(0, page_size=100_000)


def people_schema():
    return TableSchema("people", [
        Column("id", DataType.INT64, nullable=False),
        Column("name", DataType.VARCHAR),
        Column("score", DataType.FLOAT64),
    ])


class TestHeapFile:
    def test_insert_and_fetch(self):
        heap = HeapFile(people_schema())
        rid = heap.insert((1, "ada", 9.5))
        assert heap.fetch(rid) == (1, "ada", 9.5)

    def test_scan_returns_rows_in_order(self):
        heap = HeapFile(people_schema())
        rows = [(i, f"p{i}", float(i)) for i in range(100)]
        heap.insert_many(rows)
        assert list(heap.scan()) == rows

    def test_insert_many_rejects_a_batch_whole(self):
        heap = HeapFile(people_schema())
        rows = [(i, f"p{i}", float(i)) for i in range(10)]
        with pytest.raises(SchemaError, match="not valid for float64"):
            heap.insert_many(rows + [(10, "p10", "ten")])
        assert heap.row_count == 0 and heap.page_count == 0
        heap.insert_many(rows + [(10, None, None)])  # NULLs: row by row
        assert heap.row_count == 11

    def test_nulls_round_trip(self):
        heap = HeapFile(people_schema())
        rid = heap.insert((1, None, None))
        assert heap.fetch(rid) == (1, None, None)

    def test_pages_allocated_as_needed(self):
        heap = HeapFile(people_schema(), page_size=256)
        heap.insert_many([(i, "name" * 5, 1.0) for i in range(50)])
        assert heap.page_count > 1
        assert heap.row_count == 50

    def test_size_bytes_counts_whole_pages(self):
        heap = HeapFile(people_schema(), page_size=1024)
        heap.insert((1, "a", 1.0))
        assert heap.size_bytes() == 1024

    def test_oversized_row_rejected(self):
        heap = HeapFile(people_schema(), page_size=128)
        with pytest.raises(StorageError):
            heap.insert((1, "z" * 200, 1.0))

    def test_bad_page_access_rejected(self):
        heap = HeapFile(people_schema())
        with pytest.raises(StorageError):
            heap.fetch((3, 0))
