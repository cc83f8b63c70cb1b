"""CPU model with DVFS P-states.

Work is expressed in *cycles*; the CPU converts cycles to simulated
seconds at its current effective frequency.  Power follows the classic
utilization-linear model with a cubic DVFS term (dynamic power is
proportional to f * V^2 and voltage scales roughly with frequency):

    P = P_idle + (P_peak - P_idle) * dvfs_fraction^3 * (busy_cores / cores)

The paper's Figure 2 charges an active CPU at its full 90 W and an idle
CPU at zero; :attr:`Cpu.active_power_per_unit_watts` exposes the per-core
active power so the executor and the telemetry collector can reproduce
that accounting convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator

from repro.errors import HardwareError
from repro.hardware.device import Device
from repro.sim.resources import Resource
from repro.units import GHZ

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


@dataclass(frozen=True)
class CpuSpec:
    """Static parameters of a CPU package."""

    cores: int = 4
    frequency_hz: float = 2.4 * GHZ
    idle_watts: float = 15.0
    peak_watts: float = 90.0
    dvfs_fractions: tuple[float, ...] = (1.0, 0.85, 0.7, 0.55)

    def __post_init__(self) -> None:
        if self.cores < 1:
            raise HardwareError("cpu: cores must be >= 1")
        if self.frequency_hz <= 0:
            raise HardwareError("cpu: frequency must be positive")
        if not 0 <= self.idle_watts <= self.peak_watts:
            raise HardwareError(
                f"cpu: need 0 <= idle ({self.idle_watts}) "
                f"<= peak ({self.peak_watts})")
        if not self.dvfs_fractions or any(
                not 0 < f <= 1.0 for f in self.dvfs_fractions):
            raise HardwareError(
                "cpu: DVFS fractions must be in (0, 1]")


class Cpu(Device):
    """A multi-core CPU executing cycle-denominated work."""

    def __init__(self, sim: "Simulation", spec: CpuSpec) -> None:
        super().__init__(sim, "cpu", initial_power_watts=spec.idle_watts)
        self.spec = spec
        self.cores = Resource(sim, capacity=spec.cores, name="cpu.cores")
        self._dvfs_fraction = spec.dvfs_fractions[0]
        self._dynamic_watts = self._dynamic_range_watts()
        self._update_power()

    # -- frequency scaling -------------------------------------------------
    @property
    def dvfs_fraction(self) -> float:
        """Current frequency as a fraction of nominal."""
        return self._dvfs_fraction

    @property
    def effective_frequency_hz(self) -> float:
        """Cycles per second at the current P-state."""
        return self.spec.frequency_hz * self._dvfs_fraction

    def set_dvfs(self, fraction: float) -> None:
        """Switch to the P-state with the given frequency fraction.

        Only offered fractions are legal, and the CPU must be idle (a
        frequency change mid-computation would silently misprice the
        already-scheduled timeout).
        """
        if fraction not in self.spec.dvfs_fractions:
            raise HardwareError(
                f"{self.name}: {fraction} not an offered DVFS fraction "
                f"{self.spec.dvfs_fractions}")
        if self.busy_units > 0:
            raise HardwareError(
                f"{self.name}: cannot change DVFS while {self.busy_units} "
                "cores are busy")
        self._dvfs_fraction = fraction
        self._dynamic_watts = self._dynamic_range_watts()
        self._update_power()

    # -- execution -----------------------------------------------------------
    def execute(self, cycles: float, parallelism: int = 1) -> Generator:
        """Run ``cycles`` of work using ``parallelism`` cores (process).

        With ``parallelism > 1`` the cycles are divided evenly across the
        cores (perfect speed-up); contention with other work is modeled by
        the core resource queue.
        """
        if cycles < 0:
            raise HardwareError(f"{self.name}: negative cycle count {cycles}")
        if not 1 <= parallelism <= self.spec.cores:
            raise HardwareError(
                f"{self.name}: parallelism {parallelism} outside "
                f"1..{self.spec.cores}")
        if cycles == 0:
            return
        for _ in range(parallelism):
            yield self.cores.acquire()
        self._mark_busy(parallelism)
        try:
            yield self.sim.timeout(self.execute_seconds(cycles, parallelism))
        finally:
            self._mark_idle(parallelism)
            for _ in range(parallelism):
                self.cores.release()

    def execute_seconds(self, cycles: float, parallelism: int = 1) -> float:
        """Seconds :meth:`execute` takes (no queueing)."""
        return cycles / (self.effective_frequency_hz * parallelism)

    # -- power ---------------------------------------------------------------
    def _dynamic_range_watts(self) -> float:
        return ((self.spec.peak_watts - self.spec.idle_watts)
                * self._dvfs_fraction ** 3)

    def dynamic_watts(self, busy_cores: float) -> float:
        """What ``busy_cores`` busy cores add above idle."""
        return self._dynamic_watts * (busy_cores / self.spec.cores)

    def _update_power(self) -> None:
        self._set_power(self.spec.idle_watts
                        + self.dynamic_watts(self._busy_units))

    def _on_activity_change(self) -> None:
        self._update_power()

    @property
    def active_power_per_unit_watts(self) -> float:
        """Full package power per busy core (Figure 2 accounting).

        One busy core on a c-core package is charged peak/c at the current
        P-state, so a fully-busy package is charged exactly its peak power.
        """
        full = self.spec.idle_watts + self._dynamic_watts
        return full / self.spec.cores
