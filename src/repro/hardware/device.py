"""Base device model.

A :class:`Device` is anything that draws power in the simulated machine.
Its power draw is a right-continuous step function of time, recorded in a
:class:`~repro.sim.tracing.TimeSeries` at every change, so that

    energy(t0, t1) = integral of power over [t0, t1]

holds exactly.  Subclasses change power by calling :meth:`_set_power`,
and account for activity via :meth:`_mark_busy` / :meth:`_mark_idle`
(which tracks unit-seconds of busy time — e.g. core-seconds for a CPU,
and calls the subclass's ``_on_activity_change()`` to recompute power).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import HardwareError
from repro.sim.tracing import TimeSeries

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation


class Device:
    """A powered component with activity accounting."""

    def __init__(self, sim: "Simulation", name: str,
                 initial_power_watts: float = 0.0) -> None:
        self.sim = sim
        self.name = name
        self.power_series = TimeSeries(name=name)
        self._created_at = sim.now
        self.power_series.record(sim.now, initial_power_watts)
        self._busy_units = 0
        self._busy_integral = 0.0
        self._last_busy_change = sim.now
        self._transition_energy = 0.0

    # -- power -----------------------------------------------------------
    @property
    def power_watts(self) -> float:
        """Instantaneous power draw."""
        return self.power_series.value_at(self.sim.now)

    def _set_power(self, watts: float) -> None:
        if watts < 0:
            raise HardwareError(f"{self.name}: negative power {watts}")
        self.power_series.record(self.sim.clock._now, watts)

    def _charge_transition_energy(self, joules: float) -> None:
        """Add a lump of transition energy (spin-up spikes etc.)."""
        if joules < 0:
            raise HardwareError(f"{self.name}: negative transition energy")
        self._transition_energy += joules

    def energy_joules(self, t0: Optional[float] = None,
                      t1: Optional[float] = None) -> float:
        """Energy consumed over ``[t0, t1]`` (defaults: creation .. now).

        Includes lump transition energy, which is attributed to the whole
        lifetime (only full-lifetime queries include it; interval queries
        return the steady-state integral).
        """
        start = self._created_at if t0 is None else t0
        end = self.sim.now if t1 is None else t1
        steady = self.power_series.integrate(start, end)
        if t0 is None and t1 is None:
            return steady + self._transition_energy
        return steady

    # -- activity ----------------------------------------------------------
    def _mark_busy(self, units: int = 1) -> None:
        """Record that ``units`` more internal units became busy."""
        self._account_busy()
        self._busy_units += units
        self._on_activity_change()

    def _mark_idle(self, units: int = 1) -> None:
        """Record that ``units`` internal units became idle."""
        if self._busy_units < units:
            raise HardwareError(
                f"{self.name}: marking idle more units than busy")
        self._account_busy()
        self._busy_units -= units
        self._on_activity_change()

    def _account_busy(self) -> None:
        now = self.sim.clock._now
        self._busy_integral += self._busy_units * (now - self._last_busy_change)
        self._last_busy_change = now

    @property
    def busy_units(self) -> int:
        """Internal units currently busy (cores, spindles, ...)."""
        return self._busy_units

    def busy_seconds(self) -> float:
        """Accumulated unit-seconds of busy time."""
        self._account_busy()
        return self._busy_integral
