"""Hardware substrate: calibrated device power/performance models.

Every component the paper's experiments exercised — CPUs with DVFS,
DRAM, 15K-RPM SCSI disks, flash SSDs, RAID trays — is
modeled as a :class:`~repro.hardware.device.Device` whose power draw is a
step function of its activity, integrated over simulated time by the
:class:`~repro.hardware.meter.EnergyMeter`.
"""

from repro.hardware.cpu import Cpu, CpuSpec
from repro.hardware.device import Device
from repro.hardware.disk import DiskSpec, HardDisk
from repro.hardware.memory import Dram, DramSpec
from repro.hardware.meter import EnergyMeter
from repro.hardware.power import PowerState, PowerStateMachine, Transition
from repro.hardware.proportionality import (
    IdealProportionalDevice,
    proportionality_index,
)
from repro.hardware.raid import RaidArray, RaidLevel
from repro.hardware.server import Server
from repro.hardware.ssd import FlashSsd, SsdSpec

__all__ = [
    "Cpu",
    "CpuSpec",
    "Device",
    "DiskSpec",
    "Dram",
    "DramSpec",
    "EnergyMeter",
    "FlashSsd",
    "HardDisk",
    "IdealProportionalDevice",
    "PowerState",
    "PowerStateMachine",
    "RaidArray",
    "RaidLevel",
    "Server",
    "SsdSpec",
    "Transition",
    "proportionality_index",
]
