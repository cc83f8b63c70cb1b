"""Unit tests for the burst prefetcher ([PS04], §4.2)."""

import pytest

from repro.errors import StorageError
from repro.hardware.disk import DiskSpec, HardDisk
from repro.hardware.memory import Dram, DramSpec
from repro.sim import Simulation
from repro.storage.prefetcher import BurstPrefetcher, trickle_stream
from repro.units import GIB, MB


def make_disk(sim):
    return HardDisk(sim, DiskSpec(
        name="d0", capacity_bytes=100_000 * MB,
        bandwidth_bytes_per_s=100 * MB,
        average_seek_seconds=0.004, rpm=15000,
        per_request_overhead_seconds=0.0,
        active_watts=17.0, idle_watts=12.0, standby_watts=2.0,
        spinup_seconds=6.0, spinup_joules=90.0,
        spindown_seconds=1.5, spindown_joules=6.0))


def test_idle_period_arithmetic():
    sim = Simulation()
    prefetcher = BurstPrefetcher(sim, make_disk(sim),
                                 buffer_bytes=600 * MB,
                                 consume_rate_bytes_per_s=10 * MB)
    # drain 60 s - fill 6 s = 54 s of idle per burst
    assert prefetcher.idle_period_seconds() == pytest.approx(54.0)
    assert prefetcher.spin_down_pays_off()


def test_small_buffer_does_not_pay_off():
    sim = Simulation()
    prefetcher = BurstPrefetcher(sim, make_disk(sim),
                                 buffer_bytes=20 * MB,
                                 consume_rate_bytes_per_s=10 * MB)
    assert not prefetcher.spin_down_pays_off()


def test_stream_delivers_all_bytes_and_spins_down():
    sim = Simulation()
    disk = make_disk(sim)
    prefetcher = BurstPrefetcher(sim, disk, buffer_bytes=600 * MB,
                                 consume_rate_bytes_per_s=10 * MB)
    sim.run(until=sim.spawn(prefetcher.stream(1800 * MB)))
    assert prefetcher.stats.bytes_streamed == 1800 * MB
    assert prefetcher.stats.bursts == 3
    assert prefetcher.stats.spin_downs == 2  # not after the final burst
    assert disk.bytes_read == 1800 * MB


def test_burst_saves_energy_vs_trickle():
    def run_trickle():
        sim = Simulation()
        disk = make_disk(sim)
        sim.run(until=sim.spawn(trickle_stream(
            sim, disk, 1800 * MB, consume_rate_bytes_per_s=10 * MB)))
        return disk.energy_joules(), sim.now

    def run_burst():
        sim = Simulation()
        disk = make_disk(sim)
        prefetcher = BurstPrefetcher(sim, disk, buffer_bytes=600 * MB,
                                     consume_rate_bytes_per_s=10 * MB)
        sim.run(until=sim.spawn(prefetcher.stream(1800 * MB)))
        return disk.energy_joules(), sim.now

    trickle_energy, trickle_time = run_trickle()
    burst_energy, burst_time = run_burst()
    # similar wall time (the consumer rate dominates both)...
    assert burst_time == pytest.approx(trickle_time, rel=0.1)
    # ...but the bursty disk sleeps through much of it (the tail burst
    # drains with the disk awake, so savings cap out around 40 %)
    assert burst_energy < 0.7 * trickle_energy


def test_buffer_charged_to_dram():
    sim = Simulation()
    disk = make_disk(sim)
    dram = Dram(sim, DramSpec(capacity_bytes=2 * GIB,
                              rank_bytes=1 * GIB))
    prefetcher = BurstPrefetcher(sim, disk, buffer_bytes=600 * MB,
                                 consume_rate_bytes_per_s=10 * MB,
                                 dram=dram)
    power_before = dram.power_watts

    def observe():
        yield sim.timeout(1.0)
        assert dram.allocated_bytes == 600 * MB
        assert dram.power_watts > power_before

    sim.spawn(prefetcher.stream(1200 * MB))
    sim.spawn(observe())
    sim.run()
    assert dram.allocated_bytes == 0  # released at the end


def test_validation():
    sim = Simulation()
    disk = make_disk(sim)
    with pytest.raises(StorageError):
        BurstPrefetcher(sim, disk, buffer_bytes=0,
                        consume_rate_bytes_per_s=1.0)
    with pytest.raises(StorageError):
        BurstPrefetcher(sim, disk, buffer_bytes=1.0,
                        consume_rate_bytes_per_s=0.0)
