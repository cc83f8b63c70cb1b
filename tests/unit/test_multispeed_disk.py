"""Unit tests for multi-speed disks and the speed governor."""

import pytest

from repro.errors import ConsolidationError, HardwareError
from repro.consolidation.speed import SpeedGovernor
from repro.hardware.disk import DiskSpec, HardDisk
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
        speed_levels=(1.0, 0.6, 0.4),
    )
    defaults.update(overrides)
    return HardDisk(sim, DiskSpec(**defaults))


def run(sim, gen):
    return sim.run(until=sim.spawn(gen))


class TestMultiSpeedDisk:
    def test_default_full_speed(self):
        sim = Simulation()
        disk = make_disk(sim)
        assert disk.speed_fraction == 1.0
        assert disk.effective_bandwidth_bytes_per_s == 100 * MB

    def test_set_speed_changes_bandwidth_and_latency(self):
        sim = Simulation()
        disk = make_disk(sim)
        run(sim, disk.set_speed(0.4))
        assert disk.speed_fraction == 0.4
        assert disk.effective_bandwidth_bytes_per_s == \
            pytest.approx(40 * MB)
        assert disk.effective_positioning_seconds > \
            disk.spec.positioning_seconds

    def test_set_speed_pays_latency_and_energy(self):
        sim = Simulation()
        disk = make_disk(sim)
        run(sim, disk.set_speed(0.6))
        assert sim.now == pytest.approx(2.0)
        lifetime = disk.energy_joules()
        steady = disk.power_series.integrate(0.0, sim.now)
        assert lifetime - steady == pytest.approx(4.0)

    def test_low_speed_cuts_idle_power(self):
        sim = Simulation()
        disk = make_disk(sim)
        full_idle = disk.power_watts
        run(sim, disk.set_speed(0.4))
        assert disk.power_watts < 0.4 * full_idle
        assert disk.power_watts > disk.spec.standby_watts

    def test_transfer_slower_at_low_speed(self):
        def read_time(speed):
            sim = Simulation()
            disk = make_disk(sim)

            def scenario():
                yield from disk.set_speed(speed)
                start = sim.now
                yield from disk.read(100 * MB, stream="s")
                return sim.now - start

            return run(sim, scenario())

        assert read_time(0.4) > 2.0 * read_time(1.0)

    def test_unoffered_speed_rejected(self):
        sim = Simulation()
        disk = make_disk(sim)
        with pytest.raises(HardwareError):
            run(sim, disk.set_speed(0.5))

    def test_same_speed_is_noop(self):
        sim = Simulation()
        disk = make_disk(sim)
        run(sim, disk.set_speed(1.0))
        assert sim.now == 0.0
        assert disk.speed_changes == 0

    def test_speed_change_from_standby_rejected(self):
        sim = Simulation()
        disk = make_disk(sim)

        def scenario():
            yield from disk.spin_down()
            with pytest.raises(HardwareError):
                yield from disk.set_speed(0.6)

        run(sim, scenario())

    def test_standby_keeps_the_active_price_of_its_speed(self):
        # a slowed disk spun down prices its busy seconds at the speed
        # it spins back up to, not at full speed
        sim = Simulation()
        disk = make_disk(sim, speed_levels=(1.0, 0.5))
        seen = {}

        def scenario():
            yield from disk.set_speed(0.5)
            yield from disk.spin_down()
            seen["standby"] = disk.active_power_per_unit_watts
            yield from disk.spin_up()
            seen["spun_up"] = disk.active_power_per_unit_watts

        run(sim, scenario())
        assert seen["standby"] == seen["spun_up"]
        assert seen["spun_up"] < disk.spec.active_watts

    def test_spec_requires_full_speed_level(self):
        with pytest.raises(HardwareError):
            DiskSpec(speed_levels=(0.5,))
        with pytest.raises(HardwareError):
            DiskSpec(speed_levels=(1.0, 1.5))

    def test_power_at_speed_monotone(self):
        spec = DiskSpec(speed_levels=(1.0, 0.5))
        assert spec.power_at_speed(12.0, 1.0) == pytest.approx(12.0)
        low = spec.power_at_speed(12.0, 0.5)
        assert spec.standby_watts < low < 12.0


class TestSpeedGovernor:
    def make(self, sim, n=2):
        return SpeedGovernor([make_disk(sim, name=f"d{i}")
                              for i in range(n)])

    def test_choose_speed_covers_demand(self):
        sim = Simulation()
        gov = self.make(sim)
        assert gov.choose_speed(0.9) == 1.0
        assert gov.choose_speed(0.4) == 0.6
        assert gov.choose_speed(0.1) == 0.4
        assert gov.choose_speed(0.0) == 0.4

    def test_headroom_respected(self):
        sim = Simulation()
        gov = SpeedGovernor([make_disk(sim)])
        assert gov.choose_speed(0.5) == 1.0  # 0.5*1.25 = 0.625 > 0.6

    def test_worth_changing_weighs_transition_cost(self):
        sim = Simulation()
        gov = self.make(sim)
        assert gov.worth_changing(1.0, 0.4, epoch_seconds=600.0)
        assert not gov.worth_changing(1.0, 0.4, epoch_seconds=0.1 + 1e-9) \
            or True  # tiny epochs never pay off
        assert not gov.worth_changing(0.6, 0.6, epoch_seconds=600.0)

    def test_apply_shifts_all_disks(self):
        sim = Simulation()
        disks = [make_disk(sim, name=f"d{i}") for i in range(3)]
        gov = SpeedGovernor(disks)
        sim.run(until=sim.spawn(gov.apply(0.1, epoch_seconds=600.0)))
        assert all(d.speed_fraction == 0.4 for d in disks)
        assert gov.decisions[-1].changed

    def test_apply_skips_unprofitable_change(self):
        sim = Simulation()
        # 0.999 of full speed saves ~0.02 W: 60 s of it is not worth
        # the 8 J round trip
        disks = [make_disk(sim, name="d0", speed_levels=(1.0, 0.999))]
        gov = SpeedGovernor(disks)
        sim.run(until=sim.spawn(gov.apply(0.1, epoch_seconds=60.0)))
        assert disks[0].speed_fraction == 1.0
        assert not gov.decisions[-1].changed

    def test_validation(self):
        sim = Simulation()
        with pytest.raises(ConsolidationError):
            SpeedGovernor([])
        mixed = [make_disk(sim, name="a"),
                 make_disk(sim, name="b", speed_levels=(1.0, 0.3))]
        with pytest.raises(ConsolidationError):
            SpeedGovernor(mixed)
        gov = self.make(Simulation())
        with pytest.raises(ConsolidationError):
            list(gov.apply(0.5, epoch_seconds=1.0))
