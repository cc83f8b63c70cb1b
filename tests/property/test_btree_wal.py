"""Property-based tests: B+tree vs sorted-dict oracle, WAL invariants."""

from collections import defaultdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware.ssd import FlashSsd, SsdSpec
from repro.sim import Simulation
from repro.storage.btree import BPlusTree
from repro.storage.wal import WriteAheadLog
from repro.units import MB

keys = st.integers(min_value=-1000, max_value=1000)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(keys, st.integers()), max_size=300),
       st.integers(min_value=3, max_value=32))
def test_btree_matches_dict_oracle(entries, order):
    tree = BPlusTree(order=order)
    oracle: dict[int, list[int]] = defaultdict(list)
    for key, rid in entries:
        tree.insert(key, rid)
        oracle[key].append(rid)
    tree.validate()
    assert len(tree) == len(entries)
    for key, rids in oracle.items():
        assert tree.search(key) == rids
    # full range scan yields every entry in key order
    scanned = [k for k, _ in tree.range_scan()]
    assert scanned == sorted(scanned)
    assert len(scanned) == len(entries)


@settings(max_examples=60, deadline=None)
@given(st.lists(keys, min_size=1, max_size=300),
       keys, keys,
       st.integers(min_value=3, max_value=16))
def test_btree_range_matches_comprehension(inserted, lo, hi, order):
    low, high = min(lo, hi), max(lo, hi)
    tree = BPlusTree(order=order)
    for key in inserted:
        tree.insert(key, key)
    got = [k for k, _ in tree.range_scan(low, high)]
    expected = sorted(k for k in inserted if low <= k <= high)
    assert got == expected


@settings(max_examples=60, deadline=None)
@given(st.lists(keys, min_size=2, max_size=200))
def test_btree_leaves_touched_bounded(inserted):
    tree = BPlusTree(order=4)
    for key in inserted:
        tree.insert(key, key)
    lo, hi = min(inserted), max(inserted)
    assert 1 <= tree.leaves_touched(lo, hi) <= tree.leaf_count()


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(min_value=0, max_value=4000),
                min_size=1, max_size=60),
       st.integers(min_value=1, max_value=16),
       st.floats(min_value=0.0, max_value=0.05, allow_nan=False))
def test_wal_commits_everything_exactly_once(payload_sizes, batch,
                                             timeout):
    """Every append commits exactly once; flushed bytes account for
    every record plus per-flush overhead; latencies are non-negative."""
    from repro.storage.wal import (
        FLUSH_OVERHEAD_BYTES,
        RECORD_OVERHEAD_BYTES,
    )
    sim = Simulation()
    device = FlashSsd(sim, SsdSpec(
        name="log", capacity_bytes=1000 * MB,
        read_bandwidth_bytes_per_s=100 * MB,
        write_bandwidth_bytes_per_s=100 * MB,
        read_watts=2.0, write_watts=2.0, idle_watts=0.0))
    wal = WriteAheadLog(sim, device, batch_records=batch,
                        batch_timeout_seconds=timeout)
    committed = []

    def txn(size):
        yield wal.append(size)
        committed.append(size)

    for size in payload_sizes:
        sim.spawn(txn(size))
    sim.run()
    assert sorted(committed) == sorted(payload_sizes)
    assert wal.stats.records_appended == len(payload_sizes)
    expected_bytes = (sum(payload_sizes)
                      + len(payload_sizes) * RECORD_OVERHEAD_BYTES
                      + wal.stats.flushes * FLUSH_OVERHEAD_BYTES)
    assert wal.stats.bytes_flushed == expected_bytes
    assert all(latency >= 0 for latency in wal.stats.commit_latencies)
    assert len(wal.stats.commit_latencies) == len(payload_sizes)
