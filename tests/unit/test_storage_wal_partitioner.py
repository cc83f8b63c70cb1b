"""Unit tests for the WAL (group commit) and the partitioner."""

import pytest

from repro.errors import ConsolidationError, WalError
from repro.hardware.ssd import FlashSsd, SsdSpec
from repro.sim import Simulation
from repro.storage.partitioner import (
    DeviceSlot,
    Partition,
    Partitioner,
)
from repro.storage.wal import (
    FLUSH_OVERHEAD_BYTES,
    RECORD_OVERHEAD_BYTES,
    WriteAheadLog,
)
from repro.units import MB


def make_log_device(sim, bw=100 * MB):
    return FlashSsd(sim, SsdSpec(
        name="log", capacity_bytes=1000 * MB,
        read_bandwidth_bytes_per_s=bw, write_bandwidth_bytes_per_s=bw,
        read_watts=2.0, write_watts=2.0, idle_watts=0.0))


class TestWal:
    def test_single_append_commits(self):
        sim = Simulation()
        device = make_log_device(sim)
        wal = WriteAheadLog(sim, device)

        def txn():
            yield wal.append(100)
            return sim.now

        committed_at = sim.run(until=sim.spawn(txn()))
        assert committed_at > 0
        assert wal.stats.flushes == 1
        assert wal.stats.bytes_flushed == \
            FLUSH_OVERHEAD_BYTES + 100 + RECORD_OVERHEAD_BYTES

    def test_batching_reduces_flushes(self):
        def run_with_batch(batch):
            sim = Simulation()
            device = make_log_device(sim)
            wal = WriteAheadLog(sim, device, batch_records=batch,
                                batch_timeout_seconds=0.01)

            def txn():
                yield wal.append(100)

            for _ in range(20):
                sim.spawn(txn())
            sim.run()
            return wal.stats

        eager = run_with_batch(1)
        batched = run_with_batch(10)
        assert batched.flushes < eager.flushes
        assert batched.bytes_flushed < eager.bytes_flushed

    def test_batching_increases_latency(self):
        sim = Simulation()
        device = make_log_device(sim)
        wal = WriteAheadLog(sim, device, batch_records=100,
                            batch_timeout_seconds=0.5)

        def txn():
            yield wal.append(10)

        sim.spawn(txn())
        sim.run()
        # lone record waits out the batch window
        assert wal.stats.commit_latencies[0] >= 0.5

    def test_full_batch_flushes_before_timeout(self):
        sim = Simulation()
        device = make_log_device(sim)
        wal = WriteAheadLog(sim, device, batch_records=3,
                            batch_timeout_seconds=100.0)

        def txn():
            yield wal.append(10)

        for _ in range(3):
            sim.spawn(txn())
        sim.run()
        assert wal.stats.flushes == 1
        assert sim.now < 1.0

    def test_records_per_flush(self):
        sim = Simulation()
        device = make_log_device(sim)
        wal = WriteAheadLog(sim, device, batch_records=5,
                            batch_timeout_seconds=1.0)

        def txn():
            yield wal.append(10)

        for _ in range(10):
            sim.spawn(txn())
        sim.run()
        assert (wal.stats.records_appended, wal.stats.flushes) == (10, 2)

    def test_negative_size_rejected(self):
        sim = Simulation()
        wal = WriteAheadLog(sim, make_log_device(sim))
        with pytest.raises(WalError):
            wal.append(-1)

    def test_bad_config_rejected(self):
        sim = Simulation()
        with pytest.raises(WalError):
            WriteAheadLog(sim, make_log_device(sim), batch_records=0)


def make_devices(n=4, capacity=1000 * MB, bw=100 * MB):
    return [DeviceSlot(name=f"d{i}", capacity_bytes=capacity,
                       bandwidth_bytes_per_s=bw,
                       idle_watts=12.0, active_watts=17.0)
            for i in range(n)]


class TestPartitioner:
    def test_consolidation_packs_onto_fewer_devices(self):
        p = Partitioner(make_devices(4, capacity=1000 * MB))
        parts = [Partition(f"p{i}", 200 * MB, read_bytes_per_s=1 * MB)
                 for i in range(4)]
        current = {f"p{i}": f"d{i}" for i in range(4)}
        plan = p.plan_consolidation(parts, current)
        assert len(plan.devices_kept) == 1
        assert len(plan.devices_released) == 3
        assert plan.idle_savings_watts == pytest.approx(36.0)

    def test_consolidation_respects_bandwidth_headroom(self):
        p = Partitioner(make_devices(4, bw=100 * MB))
        parts = [Partition(f"p{i}", 10 * MB, read_bytes_per_s=40 * MB)
                 for i in range(4)]
        current = {f"p{i}": f"d{i}" for i in range(4)}
        plan = p.plan_consolidation(parts, current)
        # 50 MB/s headroom per device -> only one 40 MB/s partition each
        assert len(plan.devices_kept) == 4

    def test_consolidation_breakeven(self):
        p = Partitioner(make_devices(2))
        parts = [Partition("hot", 100 * MB, read_bytes_per_s=1 * MB),
                 Partition("cold", 100 * MB, read_bytes_per_s=0.0)]
        current = {"hot": "d0", "cold": "d1"}
        plan = p.plan_consolidation(parts, current)
        assert len(plan.devices_released) == 1
        assert plan.migration_joules > 0
        assert plan.idle_savings_watts > 0

    def test_consolidation_no_move_when_already_packed(self):
        p = Partitioner(make_devices(2))
        parts = [Partition("a", 10 * MB), Partition("b", 10 * MB)]
        current = {"a": "d0", "b": "d0"}
        plan = p.plan_consolidation(parts, current)
        assert plan.moves == []
        assert plan.migration_joules == 0.0

    def test_partition_too_big_rejected(self):
        p = Partitioner(make_devices(2, capacity=10 * MB))
        parts = [Partition("huge", 100 * MB)]
        with pytest.raises(ConsolidationError):
            p.plan_consolidation(parts, {"huge": "d0"})

    def test_unknown_placement_rejected(self):
        p = Partitioner(make_devices(2))
        with pytest.raises(ConsolidationError):
            p.plan_consolidation([Partition("a", 1)], {"a": "ghost"})
