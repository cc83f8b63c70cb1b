"""Unit tests for the DVFS governor and power coordinator."""

import pytest

from repro.core.coordination import (
    DvfsGovernor,
    PowerCoordinator,
)
from repro.errors import ReproError
from repro.hardware.cpu import Cpu, CpuSpec
from repro.sim import Simulation
from repro.units import GHZ


def make_cpu(sim):
    return Cpu(sim, CpuSpec(cores=2, frequency_hz=2 * GHZ,
                            idle_watts=10.0, peak_watts=60.0,
                            cstate_watts=2.0,
                            dvfs_fractions=(1.0, 0.8, 0.6)))


def test_governor_steps_down_when_idle():
    sim = Simulation()
    cpu = make_cpu(sim)
    governor = DvfsGovernor(cpu)
    sim.run(until=10.0)          # a silent epoch
    assert governor.react() == 0.8
    sim.run(until=20.0)
    assert governor.react() == 0.6
    sim.run(until=30.0)
    assert governor.react() == 0.6  # already at the floor


def test_governor_steps_up_under_load():
    sim = Simulation()
    cpu = make_cpu(sim)
    governor = DvfsGovernor(cpu)
    sim.run(until=10.0)
    governor.react()             # down to 0.8
    # burn both cores for most of the next epoch
    def work():
        yield from cpu.execute(2 * 0.8 * 2e9 * 9.0, parallelism=2)
    sim.run(until=sim.spawn(work()))
    sim.run(until=20.0)
    assert governor.react() == 1.0


def test_governor_skips_while_busy():
    sim = Simulation()
    cpu = make_cpu(sim)
    governor = DvfsGovernor(cpu)

    def long_work():
        yield from cpu.execute(2e9 * 100)

    def observe():
        yield sim.timeout(10.0)
        # CPU at 50% utilization (1 of 2 cores): between thresholds,
        # but even a low-util reading must not shift mid-burst
        fraction = governor.react()
        assert fraction == 1.0

    sim.spawn(long_work())
    sim.spawn(observe())
    sim.run()


def test_observe_epoch_measures_utilization():
    sim = Simulation()
    cpu = make_cpu(sim)
    governor = DvfsGovernor(cpu)

    def work():
        yield from cpu.execute(2e9 * 5)  # one core busy 5 s

    sim.run(until=sim.spawn(work()))
    sim.run(until=10.0)
    # 5 core-seconds over 10 s x 2 cores = 0.25
    assert governor.observe_epoch() == pytest.approx(0.25)


def test_pin_blocks_reactions_and_unpin_restores():
    sim = Simulation()
    cpu = make_cpu(sim)
    governor = DvfsGovernor(cpu)
    coordinator = PowerCoordinator(governor)
    coordinator.request_frequency("query-7", 1.0)
    sim.run(until=10.0)
    assert governor.react() == 1.0   # pinned: no downshift
    coordinator.release("query-7")
    sim.run(until=20.0)
    assert governor.react() == 0.8


def test_pin_conflicts_rejected():
    sim = Simulation()
    governor = DvfsGovernor(make_cpu(sim))
    governor.pin("a", 1.0)
    with pytest.raises(ReproError):
        governor.pin("b", 0.8)
    with pytest.raises(ReproError):
        governor.unpin("b")


def test_pin_unoffered_fraction_rejected():
    sim = Simulation()
    governor = DvfsGovernor(make_cpu(sim))
    with pytest.raises(ReproError):
        governor.pin("a", 0.5)


def test_effective_frequency_reflects_governor():
    sim = Simulation()
    cpu = make_cpu(sim)
    governor = DvfsGovernor(cpu)
    coordinator = PowerCoordinator(governor)
    sim.run(until=10.0)
    governor.react()
    assert coordinator.effective_frequency_fraction() == 0.8
