"""Unit tests for the B+tree and table indexes."""

import random

import pytest

from repro.errors import StorageError
from repro.hardware.raid import RaidArray
from repro.hardware.ssd import FlashSsd, SsdSpec
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sim import Simulation
from repro.storage.btree import BPlusTree
from repro.storage.manager import StorageManager
from repro.units import MB


class TestBPlusTree:
    def test_insert_and_search(self):
        tree = BPlusTree(order=4)
        for key in [5, 3, 8, 1, 9, 7]:
            tree.insert(key, f"rid{key}")
        assert tree.search(8) == ["rid8"]
        assert tree.search(42) == []

    def test_duplicate_keys_accumulate(self):
        tree = BPlusTree(order=4)
        tree.insert(7, "a")
        tree.insert(7, "b")
        assert sorted(tree.search(7)) == ["a", "b"]
        assert len(tree) == 2

    def test_splits_keep_all_keys_findable(self):
        tree = BPlusTree(order=4)
        keys = list(range(500))
        random.Random(3).shuffle(keys)
        for key in keys:
            tree.insert(key, key * 10)
        for key in range(500):
            assert tree.search(key) == [key * 10]
        tree.validate()

    def test_height_grows_logarithmically(self):
        tree = BPlusTree(order=8)
        for key in range(1000):
            tree.insert(key, key)
        assert 3 <= tree.height <= 6

    def test_range_scan_ordered(self):
        tree = BPlusTree(order=4)
        keys = [9, 2, 7, 4, 1, 8, 3]
        for key in keys:
            tree.insert(key, key)
        got = [k for k, _ in tree.range_scan(3, 8)]
        assert got == [3, 4, 7, 8]

    def test_range_scan_open_ends(self):
        tree = BPlusTree(order=4)
        for key in range(10):
            tree.insert(key, key)
        assert [k for k, _ in tree.range_scan(low=7)] == [7, 8, 9]
        assert [k for k, _ in tree.range_scan(high=2)] == [0, 1, 2]
        assert len(list(tree.range_scan())) == 10

    def test_count_and_leaves(self):
        tree = BPlusTree(order=4)
        for key in range(100):
            tree.insert(key, key)
        assert sum(1 for _ in tree.range_scan(10, 19)) == 10
        assert tree.leaf_count() >= 100 // 5
        assert 1 <= tree.leaves_touched(10, 19) < tree.leaf_count()

    def test_string_keys(self):
        tree = BPlusTree(order=4)
        for word in ["pear", "apple", "fig", "date", "cherry"]:
            tree.insert(word, word.upper())
        assert [k for k, _ in tree.range_scan("b", "e")] == \
            ["cherry", "date"]

    def test_null_key_rejected(self):
        with pytest.raises(StorageError):
            BPlusTree().insert(None, "x")

    def test_tiny_order_rejected(self):
        with pytest.raises(StorageError):
            BPlusTree(order=2)


@pytest.fixture
def indexed_table():
    sim = Simulation()
    ssd = FlashSsd(sim, SsdSpec(name="s", capacity_bytes=1000 * MB))
    array = RaidArray(sim, [ssd])
    storage = StorageManager(sim)
    table = storage.create_table(
        TableSchema("t", [
            Column("k", DataType.INT64, nullable=False),
            Column("grp", DataType.INT64, nullable=False),
            Column("v", DataType.FLOAT64, nullable=False),
        ]), layout="row", placement=array)
    table.load([(i, i % 20, float(i)) for i in range(2000)])
    return table


class TestTableIndex:
    def test_create_and_lookup(self, indexed_table):
        index = indexed_table.create_index("k")
        assert indexed_table.index_on("k") is index
        assert len(index.tree) == 2000
        assert index.search_rows(77) == [(77, 17, 77.0)]

    def test_duplicate_key_index(self, indexed_table):
        index = indexed_table.create_index("grp")
        rows = index.search_rows(5)
        assert len(rows) == 100
        assert all(r[1] == 5 for r in rows)

    def test_range_rows_in_key_order(self, indexed_table):
        index = indexed_table.create_index("k")
        rows = list(index.range_rows(100, 109))
        assert [r[0] for r in rows] == list(range(100, 110))

    def test_clustered_requires_sorted_heap(self, indexed_table):
        # heap loaded in k order -> clustered on k is fine
        indexed_table.create_index("k", clustered=True)
        # but grp repeats non-monotonically
        with pytest.raises(StorageError):
            indexed_table.create_index("grp", clustered=True)

    def test_duplicate_index_rejected(self, indexed_table):
        indexed_table.create_index("k")
        with pytest.raises(StorageError):
            indexed_table.create_index("k")

    def test_unknown_column_rejected(self, indexed_table):
        with pytest.raises(StorageError):
            indexed_table.create_index("ghost")

    def test_columnar_table_rejected(self, indexed_table):
        sim = Simulation()
        ssd = FlashSsd(sim, SsdSpec(name="s2", capacity_bytes=1000 * MB))
        array = RaidArray(sim, [ssd])
        storage = StorageManager(sim)
        table = storage.create_table(
            TableSchema("c", [Column("k", DataType.INT64,
                                     nullable=False)]),
            layout="column", placement=array)
        table.load([(1,)])
        with pytest.raises(StorageError):
            table.create_index("k")

    def test_fetch_plan_clustered_vs_unclustered(self, indexed_table):
        clustered = indexed_table.create_index("k", clustered=True)
        unclustered = indexed_table.create_index("grp")
        c_bytes, c_requests = clustered.heap_fetch_plan(100)
        u_bytes, u_requests = unclustered.heap_fetch_plan(100)
        assert c_requests == 0
        assert u_requests > 0
        assert c_bytes < u_bytes

    def test_fetch_plan_caps_at_page_count(self, indexed_table):
        index = indexed_table.create_index("grp")
        _bytes, requests = index.heap_fetch_plan(10**9)
        assert requests == indexed_table.heap.page_count

    def test_size_modeling(self, indexed_table):
        index = indexed_table.create_index("k")
        assert index.probe_io_bytes() == index.page_size
        full = index.range_leaf_bytes()
        partial = index.range_leaf_bytes(0, 10)
        assert partial <= full
