"""Unit tests for column files and the buffer pool."""

import pytest

from repro.errors import (
    BufferPoolError,
    CompressionError,
    SchemaError,
    StorageError,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.storage.buffer import BufferPool, ReplacementPolicy
from repro.storage.column import ColumnFile


def orders_schema():
    return TableSchema("orders", [
        Column("okey", DataType.INT64, nullable=False),
        Column("status", DataType.VARCHAR, nullable=False),
        Column("total", DataType.FLOAT64, nullable=False),
    ])


def sample_rows(n=500):
    return [(i, ["P", "F", "O"][i % 3], float(i) * 1.5) for i in range(n)]


class TestColumnFile:
    def test_scan_returns_all_rows(self):
        cf = ColumnFile(orders_schema(), segment_rows=64)
        rows = sample_rows()
        cf.append_many(rows)
        assert list(cf.scan()) == rows

    def test_projection_scan(self):
        cf = ColumnFile(orders_schema(), segment_rows=64)
        cf.append_many(sample_rows(10))
        assert list(cf.scan(["okey"])) == [(i,) for i in range(10)]

    def test_column_order_in_projection(self):
        cf = ColumnFile(orders_schema())
        cf.append_many(sample_rows(3))
        got = list(cf.scan(["total", "okey"]))
        assert got[0] == (0.0, 0)

    def test_compression_reduces_bytes(self):
        cf = ColumnFile(orders_schema(), codecs={"status": "dictionary"},
                        segment_rows=128)
        cf.append_many(sample_rows())
        assert cf.column_compressed_bytes("status") < \
            cf.column_plain_bytes("status") / 3

    def test_compression_ratio_uncompressed_near_one(self):
        cf = ColumnFile(orders_schema(), segment_rows=128)
        cf.append_many(sample_rows())
        # plain encoding carries small segment headers
        assert cf.compression_ratio() == pytest.approx(1.0, abs=0.05)

    def test_codec_by_string_name(self):
        cf = ColumnFile(orders_schema(), codecs={"okey": "delta"})
        cf.append_many(sample_rows(100))
        assert cf.codec_for("okey").name == "delta"
        assert list(cf.scan(["okey"])) == [(i,) for i in range(100)]

    def test_unsupported_codec_type_rejected(self):
        with pytest.raises(StorageError):
            ColumnFile(orders_schema(), codecs={"status": "delta"})

    def test_unknown_column_rejected(self):
        cf = ColumnFile(orders_schema())
        cf.append_many(sample_rows(5))
        with pytest.raises(StorageError):
            list(cf.scan(["ghost"]))

    def test_partial_segment_sealed_on_scan(self):
        cf = ColumnFile(orders_schema(), segment_rows=1000)
        cf.append_many(sample_rows(5))  # below segment threshold
        assert len(list(cf.scan())) == 5

    def test_size_bytes_of_projection_smaller(self):
        cf = ColumnFile(orders_schema(), segment_rows=128)
        cf.append_many(sample_rows())
        assert cf.size_bytes(["okey"]) < cf.size_bytes()

    def test_failed_seal_rejects_the_batch_whole(self):
        # ``total`` is delta-coded and nullable: a NULL passes validation
        # and cannot be encoded.  The seal used to keep ``okey``'s segment,
        # drop the rows and still count them; ``scan`` then died with
        # IndexError on the shorter column.
        schema = TableSchema("t", [Column("okey", DataType.INT64),
                                   Column("total", DataType.INT64)])
        cf = ColumnFile(schema, codecs={"total": "delta"}, segment_rows=4)
        good = [(i, 10 * i) for i in range(6)]
        cf.append_many(good)
        with pytest.raises(CompressionError):
            cf.append_many([(6, 60), (7, None), (8, 80)])
        assert cf.row_count == 4
        assert cf._pending == []
        assert {name: len(segments)
                for name, segments in cf._segments.items()} \
            == {"okey": 1, "total": 1}
        assert list(cf.scan()) == good[:4]
        assert cf.column_plain_bytes("okey") == 4 * 8
        cf.append_many(good[4:])
        assert list(cf.scan()) == good

    def test_rejected_batch_appends_nothing(self):
        cf = ColumnFile(orders_schema(), segment_rows=4)
        rows = sample_rows(10)
        with pytest.raises(SchemaError, match="NOT NULL"):
            cf.append_many(rows + [(10, None, 1.0)])
        assert cf.row_count == 0
        cf.append_many(rows)
        assert list(cf.scan()) == rows

    def test_append_many_tops_up_a_partial_segment(self):
        cf = ColumnFile(orders_schema(), segment_rows=4)
        rows = sample_rows(11)
        cf.append(rows[0])
        cf.append_many(rows[1:10])
        cf.append(rows[10])
        assert [seg.row_count for seg in cf._segment_list("okey")] == [4, 4]
        assert cf.row_count == 11
        assert list(cf.scan()) == rows

    def test_row_count(self):
        cf = ColumnFile(orders_schema())
        cf.append_many(sample_rows(42))
        assert cf.row_count == 42


class TestBufferPool:
    def make_pool(self, capacity=3, policy=ReplacementPolicy.LRU, **kw):
        from repro.sim import Simulation
        sim = Simulation()
        return sim, BufferPool(sim, capacity, policy=policy, **kw)

    def test_miss_then_hit(self):
        _sim, pool = self.make_pool()
        assert pool.get("p1") is None
        pool.put("p1", "payload")
        assert pool.get("p1") == "payload"
        assert pool.hits == 1
        assert pool.misses == 1

    def test_lru_evicts_least_recent(self):
        _sim, pool = self.make_pool(capacity=2)
        pool.put("a", 1)
        pool.put("b", 2)
        pool.get("a")
        evicted = pool.put("c", 3)
        assert [e.key for e in evicted] == ["b"]

    def test_clock_gives_second_chance(self):
        _sim, pool = self.make_pool(capacity=2,
                                    policy=ReplacementPolicy.CLOCK)
        pool.put("a", 1)
        pool.put("b", 2)
        pool.get("a")  # sets a's ref bit (already set on insert)
        evicted = pool.put("c", 3)
        # clock clears ref bits on first sweep, evicts first unreferenced
        assert len(evicted) == 1

    def test_pinned_pages_not_evicted(self):
        _sim, pool = self.make_pool(capacity=2)
        pool.put("a", 1, pin=True)
        pool.put("b", 2)
        evicted = pool.put("c", 3)
        assert [e.key for e in evicted] == ["b"]

    def test_all_pinned_raises(self):
        _sim, pool = self.make_pool(capacity=1)
        pool.put("a", 1, pin=True)
        with pytest.raises(BufferPoolError):
            pool.put("b", 2)

    def test_dirty_flag_travels_with_eviction(self):
        _sim, pool = self.make_pool(capacity=1)
        pool.put("a", 1, dirty=True)
        evicted = pool.put("b", 2)
        assert evicted[0].dirty

    def test_duplicate_put_rejected(self):
        _sim, pool = self.make_pool()
        pool.put("a", 1)
        with pytest.raises(BufferPoolError):
            pool.put("a", 2)

    def test_energy_aware_prefers_evicting_cheap_pages(self):
        sim, pool = self.make_pool(capacity=2,
                                   policy=ReplacementPolicy.ENERGY_AWARE,
                                   page_residency_watts=0.001)
        pool.put("ssd-page", 1, fetch_energy_joules=0.01)
        pool.put("disk-page", 2, fetch_energy_joules=5.0)
        # Same recency; the cheap-to-refetch SSD page should go.
        evicted = pool.put("new", 3, fetch_energy_joules=1.0)
        assert [e.key for e in evicted] == ["ssd-page"]

    def test_energy_aware_uses_reaccess_interval(self):
        from repro.sim import Simulation
        sim = Simulation()
        pool = BufferPool(sim, 2, policy=ReplacementPolicy.ENERGY_AWARE,
                          page_residency_watts=0.001)

        def scenario():
            pool.put("hot", 1, fetch_energy_joules=1.0)
            pool.put("cold", 2, fetch_energy_joules=1.0)
            # hot page re-accessed frequently -> short EWMA interval
            for _ in range(5):
                yield sim.timeout(0.1)
                pool.get("hot")
            yield sim.timeout(10.0)
            pool.get("cold")  # long interval for cold
            evicted = pool.put("new", 3, fetch_energy_joules=1.0)
            assert [e.key for e in evicted] == ["cold"]

        sim.run(until=sim.spawn(scenario()))

    def test_hit_rate(self):
        _sim, pool = self.make_pool()
        pool.get("x")
        pool.put("x", 1)
        pool.get("x")
        pool.get("x")
        assert pool.hit_rate == pytest.approx(2 / 3)

    def test_capacity_validation(self):
        from repro.sim import Simulation
        with pytest.raises(BufferPoolError):
            BufferPool(Simulation(), 0)
