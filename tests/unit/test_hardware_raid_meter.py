"""Unit tests for RAID arrays and the energy meter."""

import pytest

from repro.errors import HardwareError
from repro.hardware.disk import DiskSpec, HardDisk
from repro.hardware.meter import EnergyMeter
from repro.hardware.raid import RaidArray, RaidLevel
from repro.hardware.server import BaseLoad
from repro.hardware.ssd import FlashSsd, SsdSpec
from repro.sim import Simulation
from repro.units import MB


def make_ssd(sim, i, bw=100 * MB):
    return FlashSsd(sim, SsdSpec(
        name=f"s{i}", capacity_bytes=1000 * MB,
        read_bandwidth_bytes_per_s=bw, write_bandwidth_bytes_per_s=bw,
        per_request_latency_seconds=0.0,
        read_watts=2.0, write_watts=2.0, idle_watts=0.0))


def make_disk(sim, i):
    return HardDisk(sim, DiskSpec(
        name=f"d{i}", capacity_bytes=1000 * MB,
        bandwidth_bytes_per_s=100 * MB,
        average_seek_seconds=0.0, rpm=60_000_000,
        per_request_overhead_seconds=0.0,
        active_watts=17.0, idle_watts=12.0, standby_watts=2.0))


class TestRaid:
    def test_raid0_read_parallelizes(self):
        sim = Simulation()
        array = RaidArray(sim, [make_ssd(sim, i) for i in range(4)],
                          level=RaidLevel.RAID0)
        sim.run(until=sim.spawn(array.read(400 * MB)))
        # 100 MB per member at 100 MB/s, in parallel
        assert sim.now == pytest.approx(1.0, rel=1e-3)

    def test_raid0_capacity_is_sum(self):
        sim = Simulation()
        array = RaidArray(sim, [make_ssd(sim, i) for i in range(4)],
                          level=RaidLevel.RAID0)
        assert array.capacity_bytes == 4000 * MB

    def test_raid5_capacity_loses_one_member(self):
        sim = Simulation()
        array = RaidArray(sim, [make_ssd(sim, i) for i in range(4)],
                          level=RaidLevel.RAID5)
        assert array.capacity_bytes == 3000 * MB

    def test_raid5_full_stripe_write_parity_overhead(self):
        sim = Simulation()
        members = [make_ssd(sim, i) for i in range(5)]
        array = RaidArray(sim, members, level=RaidLevel.RAID5)
        sim.run(until=sim.spawn(array.write(400 * MB, full_stripe=True)))
        total_written = sum(m.bytes_written for m in members)
        assert total_written == pytest.approx(400 * MB * 5 / 4, rel=1e-6)

    def test_raid5_small_write_amplifies_4x(self):
        sim = Simulation()
        members = [make_ssd(sim, i) for i in range(5)]
        array = RaidArray(sim, members, level=RaidLevel.RAID5)
        sim.run(until=sim.spawn(array.write(10 * MB, full_stripe=False)))
        total_written = sum(m.bytes_written for m in members)
        assert total_written == pytest.approx(40 * MB, rel=1e-6)

    def test_raid5_needs_three_members(self):
        sim = Simulation()
        with pytest.raises(HardwareError):
            RaidArray(sim, [make_ssd(sim, 0), make_ssd(sim, 1)],
                      level=RaidLevel.RAID5)

    def test_empty_array_rejected(self):
        sim = Simulation()
        with pytest.raises(HardwareError):
            RaidArray(sim, [])

    def test_zero_byte_read_is_noop(self):
        sim = Simulation()
        array = RaidArray(sim, [make_ssd(sim, 0)])
        sim.run(until=sim.spawn(array.read(0)))
        assert sim.now == 0.0

    def test_split_conserves_bytes(self):
        sim = Simulation()
        array = RaidArray(sim, [make_ssd(sim, i) for i in range(7)])
        for n in [1, 1000, 12345678, 400 * MB]:
            assert sum(array._split(n)) == n

    def test_spin_down_all_members(self):
        sim = Simulation()
        disks = [make_disk(sim, i) for i in range(3)]
        array = RaidArray(sim, disks, level=RaidLevel.RAID5)
        sim.run(until=sim.spawn(array.spin_down()))
        assert all(d.state == "standby" for d in disks)
        assert array.power_watts() == pytest.approx(6.0)

    def test_wider_array_is_faster_for_big_reads(self):
        def duration(width):
            sim = Simulation()
            array = RaidArray(sim, [make_ssd(sim, i) for i in range(width)])
            sim.run(until=sim.spawn(array.read(400 * MB)))
            return sim.now

        assert duration(8) < duration(4) < duration(2)


class TestEnergyMeter:
    def test_total_energy_sums_devices(self):
        sim = Simulation()
        meter = EnergyMeter(sim)
        meter.attach(BaseLoad(sim, 10.0, name="a"))
        meter.attach(BaseLoad(sim, 5.0, name="b"))
        sim.run(until=4.0)
        assert meter.energy_joules() == pytest.approx(60.0)

    def test_breakdown(self):
        sim = Simulation()
        meter = EnergyMeter(sim)
        meter.attach(BaseLoad(sim, 10.0, name="a"))
        meter.attach(BaseLoad(sim, 5.0, name="b"))
        sim.run(until=2.0)
        assert meter.breakdown_joules() == {
            "a": pytest.approx(20.0), "b": pytest.approx(10.0)}

    def test_interval_energy(self):
        sim = Simulation()
        meter = EnergyMeter(sim)
        meter.attach(BaseLoad(sim, 10.0, name="a"))
        sim.run(until=10.0)
        assert meter.energy_joules(4.0, 6.0) == pytest.approx(20.0)

    def test_duplicate_name_rejected(self):
        sim = Simulation()
        meter = EnergyMeter(sim)
        meter.attach(BaseLoad(sim, 1.0, name="a"))
        with pytest.raises(HardwareError):
            meter.attach(BaseLoad(sim, 1.0, name="a"))

    def test_average_power(self):
        sim = Simulation()
        meter = EnergyMeter(sim)
        meter.attach(BaseLoad(sim, 7.0, name="a"))
        sim.run(until=5.0)
        assert meter.average_power_watts() == pytest.approx(7.0)

    def test_active_energy_accounting_matches_fig2_convention(self):
        sim = Simulation()
        meter = EnergyMeter(sim)
        ssd = make_ssd(sim, 0)
        meter.attach(ssd)

        def scenario():
            yield from ssd.read(100 * MB)  # busy 1 s at 2 W active
            yield sim.timeout(9.0)         # idle time must NOT be charged

        sim.run(until=sim.spawn(scenario()))
        assert meter.active_energy_joules() == pytest.approx(2.0)
