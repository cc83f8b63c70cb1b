"""Property-based tests: operators agree with Python oracles."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.raid import RaidArray
from repro.hardware.ssd import FlashSsd, SsdSpec
from repro.relational.expr import col
from repro.relational.operators import (
    AggregateSpec,
    BlockNestedLoopJoin,
    CostCollector,
    Filter,
    HashAggregate,
    HashJoin,
    Sort,
    SortMergeJoin,
    TableScan,
)
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.sim import Simulation
from repro.storage.buffer import BufferPool, ReplacementPolicy
from repro.storage.manager import StorageManager
from repro.units import MB

rows_strategy = st.lists(
    st.tuples(st.integers(min_value=0, max_value=30),
              st.integers(min_value=-100, max_value=100)),
    min_size=0, max_size=80)


def make_table(rows, name="t"):
    sim = Simulation()
    ssd = FlashSsd(sim, SsdSpec(name="s", capacity_bytes=1000 * MB))
    array = RaidArray(sim, [ssd])
    storage = StorageManager(sim)
    table = storage.create_table(
        TableSchema(name, [
            Column("k", DataType.INT64, nullable=False),
            Column("v", DataType.INT64, nullable=False),
        ]), layout="row", placement=array)
    table.load(rows)
    return table


def run(op):
    return op.execute(CostCollector())


@settings(max_examples=40, deadline=None)
@given(rows_strategy, st.integers(min_value=-100, max_value=100))
def test_filter_matches_comprehension(rows, threshold):
    table = make_table(rows)
    got = run(Filter(TableScan(table), col("v") > threshold))
    assert got == [r for r in rows if r[1] > threshold]


@settings(max_examples=40, deadline=None)
@given(rows_strategy)
def test_sort_matches_sorted(rows):
    table = make_table(rows)
    got = run(Sort(TableScan(table), ["v", "k"]))
    assert got == sorted(rows, key=lambda r: (r[1], r[0]))


@settings(max_examples=30, deadline=None)
@given(rows_strategy)
def test_aggregate_matches_oracle(rows):
    table = make_table(rows)
    got = run(HashAggregate(
        TableScan(table), ["k"],
        [AggregateSpec("count", None, "n"),
         AggregateSpec("sum", col("v"), "total"),
         AggregateSpec("min", col("v"), "lo"),
         AggregateSpec("max", col("v"), "hi")]))
    oracle: dict[int, list[int]] = {}
    for k, v in rows:
        oracle.setdefault(k, []).append(v)
    assert len(got) == len(oracle)
    for k, n, total, lo, hi in got:
        values = oracle[k]
        assert n == len(values)
        assert total == sum(values)
        assert lo == min(values)
        assert hi == max(values)


@settings(max_examples=25, deadline=None)
@given(rows_strategy, rows_strategy)
def test_join_algorithms_agree(left_rows, right_rows):
    """Hash join, sort-merge join and nested-loop join must produce the
    same multiset of results for the same equi-join."""
    left = make_table(left_rows, "l")
    right = make_table(
        [(k, v) for k, v in right_rows], "r")
    # rename right columns to avoid collisions
    right.schema.columns[0] = Column("rk", DataType.INT64, nullable=False)
    right.schema.columns[1] = Column("rv", DataType.INT64, nullable=False)
    right.schema._index = {"rk": 0, "rv": 1}

    hash_rows = run(HashJoin(TableScan(left), TableScan(right),
                             ["k"], ["rk"]))
    smj_rows = run(SortMergeJoin(TableScan(left), TableScan(right),
                                 ["k"], ["rk"]))
    nlj_rows = run(BlockNestedLoopJoin(TableScan(left), TableScan(right),
                                       predicate=col("k") == col("rk"),
                                       block_rows=7))
    oracle = sorted((lk, lv, rk, rv)
                    for lk, lv in left_rows
                    for rk, rv in right_rows if lk == rk)
    assert sorted(hash_rows) == oracle
    assert sorted(smj_rows) == oracle
    assert sorted(nlj_rows) == oracle


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=50), min_size=1,
                max_size=200),
       st.integers(min_value=1, max_value=10),
       st.sampled_from(list(ReplacementPolicy)))
def test_buffer_pool_invariants(accesses, capacity, policy):
    """The pool never exceeds capacity, always returns what was put,
    and hit+miss counts match the access count."""
    sim = Simulation()
    pool = BufferPool(sim, capacity, policy=policy)
    for key in accesses:
        page = pool.get(key)
        if page is None:
            pool.put(key, f"page-{key}")
        else:
            assert page == f"page-{key}"
        assert len(pool) <= capacity
    assert pool.hits + pool.misses == len(accesses)
