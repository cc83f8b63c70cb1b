"""Whole-server composition.

A :class:`Server` bundles a CPU, DRAM, storage devices, and a constant
base draw (fans, chipset, NICs) behind one :class:`EnergyMeter`, giving
experiments a single object with "wall plug" semantics.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence, Union

from repro.errors import HardwareError
from repro.hardware.cpu import Cpu
from repro.hardware.device import Device
from repro.hardware.disk import HardDisk
from repro.hardware.memory import Dram
from repro.hardware.meter import EnergyMeter
from repro.hardware.ssd import FlashSsd

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation

StorageDevice = Union[HardDisk, FlashSsd]


class BaseLoad(Device):
    """Constant power draw for components not modeled individually."""

    def __init__(self, sim: "Simulation", watts: float,
                 name: str = "base") -> None:
        if watts < 0:
            raise HardwareError("base load cannot be negative")
        super().__init__(sim, name, initial_power_watts=watts)
        self._watts = watts


class Server:
    """A CPU + DRAM + storage node with unified energy accounting."""

    def __init__(self, sim: "Simulation", name: str, cpu: Cpu, dram: Dram,
                 storage: Sequence[StorageDevice],
                 base_watts: float = 50.0) -> None:
        self.sim = sim
        self.name = name
        self.cpu = cpu
        self.dram = dram
        self.storage = list(storage)
        self.base = BaseLoad(sim, base_watts, name=f"{name}.base")
        self.meter = EnergyMeter(sim)
        self.meter.attach(cpu)
        self.meter.attach(dram)
        self.meter.attach(self.base)
        for device in self.storage:
            self.meter.attach(device)

    def idle_power_watts(self) -> float:
        """Component power when every device is idle (spec arithmetic)."""
        disks = sum(
            d.spec.idle_watts if isinstance(d, HardDisk) else d.spec.idle_watts
            for d in self.storage)
        return (self.cpu.spec.idle_watts
                + self.dram.residency_watts(self.dram.powered_bytes)
                + self.base._watts + disks)

    def peak_power_watts(self) -> float:
        """Component power with every device active (spec arithmetic)."""
        disks = 0.0
        for d in self.storage:
            if isinstance(d, HardDisk):
                disks += d.spec.active_watts
            else:
                disks += max(d.spec.read_watts, d.spec.write_watts)
        return (self.cpu.spec.peak_watts
                + self.dram.residency_watts(self.dram.capacity_bytes)
                + self.dram.spec.active_extra_watts
                + self.base._watts + disks)
