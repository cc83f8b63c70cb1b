"""Flash SSD model.

"An order of magnitude more energy efficient than regular hard drives"
(paper §3.2): no moving parts, so no positioning cost, near-zero idle
power, and asymmetric read/write bandwidth.  Figure 2's three flash
drives draw 5 W in aggregate while streaming.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.errors import HardwareError
from repro.hardware.device import Device
from repro.sim.resources import Resource
from repro.units import GB, MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation

#: controller latency added to every request
REQUEST_LATENCY_SECONDS = 60e-6


@dataclass(frozen=True)
class SsdSpec:
    """Static parameters of a flash SSD."""

    name: str = "ssd"
    capacity_bytes: int = 128 * GB
    read_bandwidth_bytes_per_s: float = 250 * MB
    write_bandwidth_bytes_per_s: float = 180 * MB
    read_watts: float = 1.7
    write_watts: float = 2.2
    idle_watts: float = 0.1

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise HardwareError(f"{self.name}: capacity must be positive")
        if (self.read_bandwidth_bytes_per_s <= 0
                or self.write_bandwidth_bytes_per_s <= 0):
            raise HardwareError(f"{self.name}: bandwidth must be positive")
        if not (0 <= self.idle_watts <= min(self.read_watts, self.write_watts)):
            raise HardwareError(
                f"{self.name}: need idle <= active power")


class FlashSsd(Device):
    """A flash drive with one channel: requests queue behind each other."""

    def __init__(self, sim: "Simulation", spec: SsdSpec) -> None:
        super().__init__(sim, spec.name, initial_power_watts=spec.idle_watts)
        self.spec = spec
        self.channels = Resource(sim, capacity=1,
                                 name=f"{spec.name}.channels")
        self.bytes_read = 0
        self.bytes_written = 0
        self.requests_served = 0
        self._writing = 0

    # -- service-time arithmetic ---------------------------------------------
    def read_seconds(self, nbytes: int) -> float:
        """Service time for a read (no queueing): a batch of one."""
        if nbytes < 0:
            raise HardwareError(f"{self.name}: negative transfer size")
        return self.batch_seconds(nbytes, 1)

    def write_seconds(self, nbytes: int) -> float:
        """Service time for a write (no queueing)."""
        if nbytes < 0:
            raise HardwareError(f"{self.name}: negative transfer size")
        return (nbytes / self.spec.write_bandwidth_bytes_per_s
                + REQUEST_LATENCY_SECONDS)

    def batch_seconds(self, nbytes: float, n_requests: float) -> float:
        """Service time of :meth:`read_batch` (no queueing)."""
        return (n_requests * REQUEST_LATENCY_SECONDS
                + nbytes / self.spec.read_bandwidth_bytes_per_s)

    def service_seconds(self, nbytes: int, positioned: bool,
                        is_write: bool = False) -> float:
        """One request; flash has no positioning to skip."""
        return (self.write_seconds(nbytes) if is_write
                else self.read_seconds(nbytes))

    @property
    def effective_bandwidth_bytes_per_s(self) -> float:
        """Streaming read rate."""
        return self.spec.read_bandwidth_bytes_per_s

    # -- transfers --------------------------------------------------------
    def read(self, nbytes: int, stream=None) -> Generator:
        """Read ``nbytes`` (process).  ``stream`` accepted for API parity
        with :class:`~repro.hardware.disk.HardDisk`; flash has no
        positioning cost so it is ignored."""
        yield from self._transfer(nbytes, is_write=False)

    def write(self, nbytes: int, stream=None) -> Generator:
        """Write ``nbytes`` (process)."""
        yield from self._transfer(nbytes, is_write=True)

    def read_batch(self, nbytes: float, n_requests: float) -> Generator:
        """A batch of random reads in one simulation step (process)."""
        if nbytes < 0 or n_requests < 0:
            raise HardwareError(f"{self.name}: negative batch transfer")
        seconds = self.batch_seconds(nbytes, n_requests)
        yield self.channels.acquire()
        self._mark_busy()
        self._update_power()
        try:
            yield self.sim.timeout(seconds)
        finally:
            self._mark_idle()
            self._update_power()
            self.channels.release()
        self.requests_served += int(round(n_requests))
        self.bytes_read += int(nbytes)

    def _transfer(self, nbytes: int, is_write: bool) -> Generator:
        seconds = (self.write_seconds(nbytes) if is_write
                   else self.read_seconds(nbytes))
        yield self.channels.acquire()
        self._mark_busy()
        if is_write:
            self._writing += 1
        self._update_power()
        try:
            yield self.sim.timeout(seconds)
        finally:
            self._mark_idle()
            if is_write:
                self._writing -= 1
            self._update_power()
            self.channels.release()
        self.requests_served += 1
        if is_write:
            self.bytes_written += nbytes
        else:
            self.bytes_read += nbytes

    # -- power ---------------------------------------------------------------
    def _update_power(self) -> None:
        if self.busy_units == 0:
            self._set_power(self.spec.idle_watts)
        elif self._writing > 0:
            self._set_power(self.spec.write_watts)
        else:
            self._set_power(self.spec.read_watts)

    def _on_activity_change(self) -> None:
        # power already updated by _transfer, which knows read vs write
        pass

    @property
    def active_power_per_unit_watts(self) -> float:
        """Active power charged per busy second (Figure 2 style)."""
        return self.spec.read_watts

    @property
    def idle_power_watts(self) -> float:
        """What the drive draws idle."""
        return self.spec.idle_watts
