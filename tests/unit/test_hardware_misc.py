"""Unit tests for DRAM, server, proportionality, profiles."""

import pytest

from repro.errors import HardwareError
from repro.hardware.memory import Dram, DramSpec
from repro.hardware.proportionality import (
    IdealProportionalDevice,
    proportionality_index,
)
from repro.hardware import profiles
from repro.sim import Simulation
from repro.units import GB, GIB, MB


class TestDram:
    def make(self, sim, capacity=4 * GIB, rank=1 * GIB):
        return Dram(sim, DramSpec(
            capacity_bytes=capacity, background_watts_per_gib=1.0,
            active_extra_watts=4.0, bandwidth_bytes_per_s=1 * GB,
            rank_bytes=rank))

    def test_allocate_beyond_powered_rejected(self):
        sim = Simulation()
        dram = self.make(sim)
        dram.allocate(3 * GIB)
        with pytest.raises(HardwareError):
            dram.allocate(2 * GIB)

    def test_free_more_than_allocated_rejected(self):
        sim = Simulation()
        dram = self.make(sim)
        dram.allocate(100)
        with pytest.raises(HardwareError):
            dram.free(200)

    def test_residency_watts(self):
        sim = Simulation()
        dram = self.make(sim)
        assert dram.residency_watts(2 * GIB) == pytest.approx(2.0)
        # the whole powered capacity draws background power
        assert dram.power_watts == pytest.approx(4.0)


class TestProportionality:
    def test_perfectly_proportional_scores_one(self):
        utils = [0.0, 0.5, 1.0]
        powers = [0.0, 50.0, 100.0]
        assert proportionality_index(utils, powers) == pytest.approx(1.0)

    def test_constant_power_scores_zero(self):
        utils = [0.0, 0.5, 1.0]
        powers = [100.0, 100.0, 100.0]
        assert proportionality_index(utils, powers) == pytest.approx(0.0)

    def test_typical_server_between_zero_and_one(self):
        utils = [0.0, 0.25, 0.5, 0.75, 1.0]
        powers = [60.0, 70.0, 80.0, 90.0, 100.0]
        index = proportionality_index(utils, powers)
        assert 0.0 < index < 1.0

    def test_requires_full_span(self):
        with pytest.raises(HardwareError):
            proportionality_index([0.1, 1.0], [10.0, 100.0])

    def test_ideal_device_power_follows_load(self):
        sim = Simulation()
        dev = IdealProportionalDevice(sim, "ideal", peak_watts=100.0)

        def scenario():
            yield from dev.occupy(2.0)
            yield sim.timeout(3.0)

        sim.run(until=sim.spawn(scenario()))
        assert dev.energy_joules(0.0, sim.now) == pytest.approx(200.0)


class TestProfiles:
    def test_dl785_disk_count(self):
        sim = Simulation()
        server, array = profiles.dl785(sim, n_disks=36)
        assert len(server.storage) == 36
        assert array.width == 36
        assert array.level.value == "raid5"

    def test_dl785_disks_dominate_power_at_full_config(self):
        sim = Simulation()
        server, _array = profiles.dl785(sim, n_disks=204)
        disk_idle = sum(d.spec.idle_watts for d in server.storage)
        assert disk_idle > 0.5 * server.idle_power_watts()

    def test_flash_scan_node_matches_paper_constants(self):
        sim = Simulation()
        server, array = profiles.flash_scan_node(sim)
        assert server.cpu.active_power_per_unit_watts == pytest.approx(90.0)
        active = sum(s.spec.read_watts for s in server.storage)
        assert active == pytest.approx(5.0)
        assert array.width == 3

    def test_flash_array_aggregate_bandwidth(self):
        sim = Simulation()
        _server, array = profiles.flash_scan_node(sim)
        bw = sum(s.spec.read_bandwidth_bytes_per_s for s in array.members)
        assert bw == pytest.approx(240 * MB)

    def test_commodity_builds(self):
        sim = Simulation()
        server, array = profiles.commodity(sim)
        assert server.idle_power_watts() > 0
        assert array.width == 2
