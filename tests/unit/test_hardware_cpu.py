"""Unit tests for the CPU model."""

import pytest

from repro.errors import HardwareError
from repro.hardware.cpu import Cpu, CpuSpec
from repro.sim import Simulation
from repro.units import GHZ


def make_cpu(sim, cores=2, freq=1 * GHZ, idle=10.0, peak=50.0):
    return Cpu(sim, CpuSpec(cores=cores, frequency_hz=freq,
                            idle_watts=idle, peak_watts=peak))


def test_execute_time_equals_cycles_over_frequency():
    sim = Simulation()
    cpu = make_cpu(sim)

    def work():
        yield from cpu.execute(2_000_000_000)  # 2e9 cycles at 1 GHz = 2 s

    sim.run(until=sim.spawn(work()))
    assert sim.now == pytest.approx(2.0)


def test_parallel_execution_divides_time():
    sim = Simulation()
    cpu = make_cpu(sim, cores=4)

    def work():
        yield from cpu.execute(4_000_000_000, parallelism=4)

    sim.run(until=sim.spawn(work()))
    assert sim.now == pytest.approx(1.0)


def test_idle_power_at_rest():
    sim = Simulation()
    cpu = make_cpu(sim)
    assert cpu.power_watts == pytest.approx(10.0)


def test_power_scales_with_busy_cores():
    sim = Simulation()
    cpu = make_cpu(sim, cores=2)
    observed = []

    def work():
        yield from cpu.execute(1_000_000_000)

    def observe():
        yield sim.timeout(0.5)
        observed.append(cpu.power_watts)

    sim.spawn(work())
    sim.spawn(observe())
    sim.run()
    # one of two cores busy: 10 + 40 * 0.5 = 30 W
    assert observed == [pytest.approx(30.0)]
    assert cpu.power_watts == pytest.approx(10.0)  # idle again


def test_energy_integration_matches_hand_calculation():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1)

    def work():
        yield from cpu.execute(3_000_000_000)  # 3 s busy at 50 W
        yield sim.timeout(1.0)                 # 1 s idle at 10 W

    sim.run(until=sim.spawn(work()))
    assert cpu.energy_joules(0.0, sim.now) == pytest.approx(3 * 50 + 1 * 10)


def test_busy_seconds_counts_core_seconds():
    sim = Simulation()
    cpu = make_cpu(sim, cores=4)

    def work():
        yield from cpu.execute(2_000_000_000, parallelism=2)  # 1 s on 2 cores

    sim.run(until=sim.spawn(work()))
    assert cpu.busy_seconds() == pytest.approx(2.0)


def test_core_contention_serializes():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1)

    def work():
        yield from cpu.execute(1_000_000_000)

    sim.spawn(work())
    sim.spawn(work())
    sim.run()
    assert sim.now == pytest.approx(2.0)


def test_dvfs_slows_and_cheapens():
    sim = Simulation()
    spec = CpuSpec(cores=1, frequency_hz=1 * GHZ, idle_watts=10.0,
                   peak_watts=50.0,
                   dvfs_fractions=(1.0, 0.5))
    cpu = Cpu(sim, spec)
    cpu.set_dvfs(0.5)

    def work():
        yield from cpu.execute(1_000_000_000)

    sim.run(until=sim.spawn(work()))
    assert sim.now == pytest.approx(2.0)  # half frequency, double time
    # dynamic power scaled by 0.5^3: 10 + 40*0.125 = 15 W for 2 s
    assert cpu.energy_joules(0.0, 2.0) == pytest.approx(30.0)


def test_dvfs_rejects_unoffered_fraction():
    sim = Simulation()
    cpu = make_cpu(sim)
    with pytest.raises(HardwareError):
        cpu.set_dvfs(0.33)


def test_dvfs_rejected_while_busy():
    sim = Simulation()
    spec = CpuSpec(cores=1, frequency_hz=1 * GHZ, idle_watts=10.0,
                   peak_watts=50.0,
                   dvfs_fractions=(1.0, 0.5))
    cpu = Cpu(sim, spec)

    def work():
        yield from cpu.execute(1_000_000_000)

    def meddle():
        yield sim.timeout(0.5)
        with pytest.raises(HardwareError):
            cpu.set_dvfs(0.5)

    sim.spawn(work())
    sim.spawn(meddle())
    sim.run()


def test_active_power_per_unit_full_package_for_single_core():
    sim = Simulation()
    cpu = make_cpu(sim, cores=1, idle=0.0, peak=90.0)
    assert cpu.active_power_per_unit_watts == pytest.approx(90.0)


def test_zero_cycles_is_noop():
    sim = Simulation()
    cpu = make_cpu(sim)

    def work():
        yield from cpu.execute(0)

    sim.run(until=sim.spawn(work()))
    assert sim.now == 0.0


def test_negative_cycles_rejected():
    sim = Simulation()
    cpu = make_cpu(sim)
    with pytest.raises(HardwareError):
        list(cpu.execute(-1))


def test_parallelism_bounds_enforced():
    sim = Simulation()
    cpu = make_cpu(sim, cores=2)
    with pytest.raises(HardwareError):
        list(cpu.execute(100, parallelism=3))


def test_spec_validation():
    with pytest.raises(HardwareError):
        CpuSpec(cores=0)
    with pytest.raises(HardwareError):
        CpuSpec(idle_watts=100.0, peak_watts=50.0)
    with pytest.raises(HardwareError):
        CpuSpec(dvfs_fractions=(1.5,))
