"""DRAM model.

The paper (§4.3) points out that "keeping a page in RAM will require
energy, proportional to the time the page is cached".  This model makes
that cost explicit: powered capacity draws a constant background
(refresh + standby) power per GiB, allocations add a per-GiB term and
accesses an active-power term for their duration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.errors import HardwareError
from repro.hardware.device import Device
from repro.units import GB, GIB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


@dataclass(frozen=True)
class DramSpec:
    """Static parameters of a DRAM subsystem."""

    name: str = "dram"
    capacity_bytes: int = 16 * GIB
    background_watts_per_gib: float = 0.6
    #: extra draw per GiB actually allocated (rows kept open / traffic);
    #: this is what makes a big hash-table grant cost power (§4.1)
    allocated_watts_per_gib: float = 1.2
    active_extra_watts: float = 4.0
    bandwidth_bytes_per_s: float = 10 * GB
    rank_bytes: int = 4 * GIB

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0:
            raise HardwareError(f"{self.name}: capacity must be positive")
        if self.background_watts_per_gib < 0 or self.active_extra_watts < 0:
            raise HardwareError(f"{self.name}: negative power parameter")
        if self.bandwidth_bytes_per_s <= 0:
            raise HardwareError(f"{self.name}: bandwidth must be positive")
        if self.rank_bytes <= 0 or self.rank_bytes > self.capacity_bytes:
            raise HardwareError(f"{self.name}: bad rank size")


class Dram(Device):
    """Byte-addressable memory with background and active power."""

    def __init__(self, sim: "Simulation", spec: DramSpec) -> None:
        self.spec = spec
        self._powered_bytes = spec.capacity_bytes
        self._allocated_bytes = 0
        super().__init__(sim, spec.name,
                         initial_power_watts=self._background_watts())

    # -- capacity management ---------------------------------------------
    @property
    def capacity_bytes(self) -> int:
        return self.spec.capacity_bytes

    @property
    def powered_bytes(self) -> int:
        """Bytes of capacity currently drawing background power."""
        return self._powered_bytes

    @property
    def allocated_bytes(self) -> int:
        """Bytes currently allocated by clients (buffer pools etc.)."""
        return self._allocated_bytes

    def allocate(self, nbytes: int) -> None:
        """Reserve ``nbytes`` of powered capacity."""
        if nbytes < 0:
            raise HardwareError(f"{self.name}: negative allocation")
        if self._allocated_bytes + nbytes > self._powered_bytes:
            raise HardwareError(
                f"{self.name}: allocation of {nbytes} exceeds powered "
                f"capacity ({self._allocated_bytes} of "
                f"{self._powered_bytes} in use)")
        self._allocated_bytes += nbytes
        self._update_power()

    def free(self, nbytes: int) -> None:
        """Release ``nbytes`` previously allocated."""
        if nbytes < 0 or nbytes > self._allocated_bytes:
            raise HardwareError(
                f"{self.name}: freeing {nbytes} with only "
                f"{self._allocated_bytes} allocated")
        self._allocated_bytes -= nbytes
        self._update_power()

    # -- access ------------------------------------------------------------
    def access(self, nbytes: int) -> Generator:
        """Stream ``nbytes`` through the memory bus (process)."""
        if nbytes < 0:
            raise HardwareError(f"{self.name}: negative access size")
        if nbytes == 0:
            return
        self._mark_busy()
        try:
            yield self.sim.timeout(nbytes / self.spec.bandwidth_bytes_per_s)
        finally:
            self._mark_idle()

    # -- energy helpers -------------------------------------------------------
    def residency_watts(self, nbytes: int) -> float:
        """Background power attributable to keeping ``nbytes`` resident.

        Used by the energy-aware buffer manager (§4.3) to price caching a
        page against re-fetching it later.
        """
        if nbytes < 0:
            raise HardwareError(f"{self.name}: negative residency size")
        return self.spec.background_watts_per_gib * nbytes / GIB

    def _background_watts(self) -> float:
        return self.spec.background_watts_per_gib * self._powered_bytes / GIB

    def _update_power(self) -> None:
        power = self._background_watts()
        power += self.spec.allocated_watts_per_gib * self._allocated_bytes / GIB
        if self.busy_units > 0:
            power += self.spec.active_extra_watts
        self._set_power(power)

    def _on_activity_change(self) -> None:
        self._update_power()
