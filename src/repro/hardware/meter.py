"""Energy metering.

The :class:`EnergyMeter` plays the role of the wall-plug power meter in
the paper's experiments: it aggregates the power step functions of all
attached devices and integrates them over any simulated interval, with
per-device breakdowns.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import HardwareError
from repro.hardware.device import Device
from repro.observe import current_collector

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


class EnergyMeter:
    """Aggregates energy across a set of devices."""

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self._devices: dict[str, Device] = {}
        collector = current_collector()
        if collector is not None:
            # telemetry capture is on: let the collector discover this
            # run's devices without the experiment passing anything
            collector.register_meter(self)

    # -- device registry ---------------------------------------------------
    def attach(self, device: Device) -> Device:
        """Register a device; returns it for chaining."""
        if device.name in self._devices:
            raise HardwareError(f"device name {device.name!r} already attached")
        self._devices[device.name] = device
        return device

    def devices(self) -> list[Device]:
        """All attached devices, sorted by name."""
        return [self._devices[k] for k in sorted(self._devices)]

    # -- energy queries -----------------------------------------------------
    def _interval(self, t0: Optional[float], t1: Optional[float]
                  ) -> tuple[float, float]:
        start = 0.0 if t0 is None else t0
        end = self.sim.now if t1 is None else t1
        if end < start:
            raise HardwareError(f"bad metering interval [{start}, {end}]")
        return start, end

    def energy_joules(self, t0: Optional[float] = None,
                      t1: Optional[float] = None) -> float:
        """Total component (DC) energy over the interval."""
        start, end = self._interval(t0, t1)
        return sum(d.energy_joules(start, end) for d in self._devices.values())

    def breakdown_joules(self, t0: Optional[float] = None,
                         t1: Optional[float] = None) -> dict[str, float]:
        """Per-device energy over the interval."""
        start, end = self._interval(t0, t1)
        return {name: dev.energy_joules(start, end)
                for name, dev in sorted(self._devices.items())}

    def average_power_watts(self, t0: Optional[float] = None,
                            t1: Optional[float] = None) -> float:
        """Mean component power over the interval."""
        start, end = self._interval(t0, t1)
        if end <= start:
            return sum(d.power_watts for d in self._devices.values())
        return self.energy_joules(start, end) / (end - start)
