"""Unit tests for the disk and SSD models."""

import pytest

from repro.errors import HardwareError
from repro.hardware.disk import DiskSpec, HardDisk
from repro.hardware.ssd import REQUEST_LATENCY_SECONDS, FlashSsd, SsdSpec
from repro.sim import Simulation
from repro.units import MB


def make_disk(sim, **overrides):
    defaults = dict(
        name="d0", capacity_bytes=1000 * MB,
        bandwidth_bytes_per_s=100 * MB,
        average_seek_seconds=0.004, rpm=15000,
        per_request_overhead_seconds=0.0,
        active_watts=17.0, idle_watts=12.0, standby_watts=2.0,
        spinup_seconds=6.0, spinup_joules=90.0,
        spindown_seconds=1.5, spindown_joules=6.0,
    )
    defaults.update(overrides)
    return HardDisk(sim, DiskSpec(**defaults))


def run(sim, gen):
    return sim.run(until=sim.spawn(gen))


class TestHardDisk:
    def test_first_read_pays_positioning(self):
        sim = Simulation()
        disk = make_disk(sim)
        run(sim, disk.read(100 * MB, stream="s1"))
        expected = disk.spec.positioning_seconds + 1.0
        assert sim.now == pytest.approx(expected)

    def test_same_stream_skips_positioning(self):
        sim = Simulation()
        disk = make_disk(sim)

        def scenario():
            yield from disk.read(100 * MB, stream="s1")
            t_after_first = sim.now
            yield from disk.read(100 * MB, stream="s1")
            return sim.now - t_after_first

        second_duration = run(sim, scenario())
        assert second_duration == pytest.approx(1.0)

    def test_stream_switch_pays_positioning(self):
        sim = Simulation()
        disk = make_disk(sim)

        def scenario():
            yield from disk.read(100 * MB, stream="s1")
            t0 = sim.now
            yield from disk.read(100 * MB, stream="s2")
            return sim.now - t0

        duration = run(sim, scenario())
        assert duration == pytest.approx(disk.spec.positioning_seconds + 1.0)

    def test_anonymous_requests_always_position(self):
        sim = Simulation()
        disk = make_disk(sim)

        def scenario():
            yield from disk.read(100 * MB)
            yield from disk.read(100 * MB)

        run(sim, scenario())
        assert disk.positioning_count == 2

    def test_rotational_latency_from_rpm(self):
        spec = DiskSpec(rpm=15000)
        assert spec.rotational_latency_seconds == pytest.approx(0.002)

    def test_power_states_during_transfer(self):
        sim = Simulation()
        disk = make_disk(sim)
        samples = []

        def observe():
            yield sim.timeout(0.5)
            samples.append(disk.power_watts)

        sim.spawn(disk.read(100 * MB, stream="s"))
        sim.spawn(observe())
        sim.run()
        assert samples == [pytest.approx(17.0)]
        assert disk.power_watts == pytest.approx(12.0)

    def test_energy_integration(self):
        sim = Simulation()
        disk = make_disk(sim, average_seek_seconds=0.0, rpm=60_000_000)

        def scenario():
            yield from disk.read(100 * MB, stream="s")  # ~1 s active
            yield sim.timeout(1.0)                      # 1 s idle

        run(sim, scenario())
        # positioning ~ 0 here: energy = 17*1 + 12*1
        assert disk.energy_joules(0.0, sim.now) == pytest.approx(29.0, rel=1e-3)

    def test_spin_down_reduces_power_and_charges_transition(self):
        sim = Simulation()
        disk = make_disk(sim)
        run(sim, disk.spin_down())
        assert disk.state == HardDisk.STANDBY
        assert disk.power_watts == pytest.approx(2.0)
        assert sim.now == pytest.approx(1.5)
        # lifetime energy includes the spin-down spike
        lifetime = disk.energy_joules()
        assert lifetime == pytest.approx(12.0 * 1.5 + 6.0, rel=1e-6)

    def test_read_from_standby_spins_up_first(self):
        sim = Simulation()
        disk = make_disk(sim)

        def scenario():
            yield from disk.spin_down()
            t0 = sim.now
            yield from disk.read(100 * MB, stream="s")
            return sim.now - t0

        duration = run(sim, scenario())
        expected = 6.0 + disk.spec.positioning_seconds + 1.0
        assert duration == pytest.approx(expected)
        assert disk.state == HardDisk.IDLE

    def test_spindle_serializes_concurrent_requests(self):
        sim = Simulation()
        disk = make_disk(sim, average_seek_seconds=0.0, rpm=60_000_000)
        sim.spawn(disk.read(100 * MB, stream="a"))
        sim.spawn(disk.read(100 * MB, stream="b"))
        sim.run()
        assert sim.now == pytest.approx(2.0, rel=1e-3)

    def test_counters(self):
        sim = Simulation()
        disk = make_disk(sim)

        def scenario():
            yield from disk.read(10 * MB, stream="s")
            yield from disk.write(5 * MB, stream="s")

        run(sim, scenario())
        assert disk.bytes_read == 10 * MB
        assert disk.bytes_written == 5 * MB
        assert disk.requests_served == 2

    def test_spec_validation(self):
        with pytest.raises(HardwareError):
            DiskSpec(active_watts=5.0, idle_watts=12.0)
        with pytest.raises(HardwareError):
            DiskSpec(rpm=0)

    def test_negative_transfer_rejected(self):
        sim = Simulation()
        disk = make_disk(sim)
        with pytest.raises(HardwareError):
            run(sim, disk.read(-1))


class TestFlashSsd:
    def make(self, sim, **overrides):
        defaults = dict(
            name="s0", capacity_bytes=1000 * MB,
            read_bandwidth_bytes_per_s=100 * MB,
            write_bandwidth_bytes_per_s=50 * MB,
            read_watts=2.0, write_watts=3.0, idle_watts=0.1,
        )
        defaults.update(overrides)
        return FlashSsd(sim, SsdSpec(**defaults))

    def test_read_time(self):
        sim = Simulation()
        ssd = self.make(sim)
        run(sim, ssd.read(100 * MB))
        assert sim.now == pytest.approx(1.0 + REQUEST_LATENCY_SECONDS)

    def test_write_slower_than_read(self):
        sim = Simulation()
        ssd = self.make(sim)
        run(sim, ssd.write(100 * MB))
        assert sim.now == pytest.approx(2.0 + REQUEST_LATENCY_SECONDS)

    def test_no_positioning_cost_between_streams(self):
        sim = Simulation()
        ssd = self.make(sim)

        def scenario():
            yield from ssd.read(50 * MB, stream="a")
            yield from ssd.read(50 * MB, stream="b")

        run(sim, scenario())
        assert sim.now == pytest.approx(1.0 + 2 * REQUEST_LATENCY_SECONDS)

    def test_power_during_read_and_write(self):
        sim = Simulation()
        ssd = self.make(sim)
        samples = []

        def scenario():
            yield from ssd.read(100 * MB)
            yield from ssd.write(100 * MB)

        def observe():
            yield sim.timeout(0.5)
            samples.append(ssd.power_watts)   # reading
            yield sim.timeout(1.0)
            samples.append(ssd.power_watts)   # writing

        sim.spawn(scenario())
        sim.spawn(observe())
        sim.run()
        assert samples == [pytest.approx(2.0), pytest.approx(3.0)]
        assert ssd.power_watts == pytest.approx(0.1)

    def test_energy_integration(self):
        sim = Simulation()
        ssd = self.make(sim)

        def scenario():
            yield from ssd.read(100 * MB)   # 1 s (+ latency) at 2 W
            yield sim.timeout(1.0)          # 1 s at 0.1 W

        run(sim, scenario())
        assert ssd.energy_joules(0.0, sim.now) == pytest.approx(
            2.0 * (1.0 + REQUEST_LATENCY_SECONDS) + 0.1)

    def test_per_request_latency_added(self):
        sim = Simulation()
        ssd = self.make(sim)
        run(sim, ssd.read(0))
        assert sim.now == REQUEST_LATENCY_SECONDS

    def test_channel_serialization(self):
        sim = Simulation()
        ssd = self.make(sim)
        sim.spawn(ssd.read(100 * MB))
        sim.spawn(ssd.read(100 * MB))
        sim.run()
        assert sim.now == pytest.approx(2.0 + 2 * REQUEST_LATENCY_SECONDS)

    def test_spec_validation(self):
        with pytest.raises(HardwareError):
            SsdSpec(idle_watts=5.0, read_watts=2.0, write_watts=9.0)
