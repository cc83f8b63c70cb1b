"""Energy proportionality [BH07].

"Servers should use no power when not used and power only in proportion
to delivered performance" (paper §1).  This module quantifies how far a
device or server is from that ideal, and provides an idealized
proportional device for what-if comparisons (experiment A8).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Sequence

from repro.errors import HardwareError
from repro.hardware.device import Device

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


def proportionality_index(utilizations: Sequence[float],
                          powers_watts: Sequence[float]) -> float:
    """Energy-proportionality index in [.., 1].

    Normalizes the measured power curve by its peak and compares the area
    under it to the ideal diagonal (power == utilization):

        EP = 2 - 2 * area(P_norm(u))

    1.0 means perfectly proportional; 0.0 means constant power at all
    loads; negative values mean worse than constant (higher relative
    power at low load).  Utilizations must span [0, 1] monotonically.
    """
    if len(utilizations) != len(powers_watts):
        raise HardwareError("utilization/power length mismatch")
    if len(utilizations) < 2:
        raise HardwareError("need at least two samples")
    if list(utilizations) != sorted(utilizations):
        raise HardwareError("utilizations must be sorted ascending")
    if abs(utilizations[0]) > 1e-9 or abs(utilizations[-1] - 1.0) > 1e-9:
        raise HardwareError("utilizations must span [0, 1]")
    peak = powers_watts[-1]
    if peak <= 0:
        raise HardwareError("peak power must be positive")
    area = 0.0
    for (u0, p0), (u1, p1) in zip(zip(utilizations, powers_watts),
                                  zip(utilizations[1:], powers_watts[1:])):
        area += 0.5 * (p0 + p1) / peak * (u1 - u0)
    return 2.0 - 2.0 * area


class IdealProportionalDevice(Device):
    """A synthetic device drawing power exactly proportional to load.

    Useful as a drop-in for sensitivity studies: run the same workload
    against real and ideal devices and compare energy (experiment A8).
    """

    def __init__(self, sim: "Simulation", name: str,
                 peak_watts: float) -> None:
        if peak_watts < 0:
            raise HardwareError("peak power cannot be negative")
        super().__init__(sim, name, initial_power_watts=0.0)
        self.peak_watts = peak_watts

    def occupy(self, seconds: float):
        """Hold the device busy for ``seconds`` (process)."""
        if seconds < 0:
            raise HardwareError("negative duration")
        self._mark_busy()
        try:
            yield self.sim.timeout(seconds)
        finally:
            self._mark_idle()

    def _on_activity_change(self) -> None:
        # a unit-capacity device: peak draw per busy occupant
        self._set_power(float(self.peak_watts * self.busy_units))
