"""Coordinating the DBMS with platform power management (paper §5.3).

"Consider a hardware controller that changes the voltage and frequency
in parallel with the query optimizer which is making decisions based on
current runtime power states.  If these two do not communicate and
coordinate their choices, they may end up working cross purposes
[RRT+08].  The software needs to ensure there is an efficient handoff
from one controller to another."

:class:`DvfsGovernor` is a reactive utilization-driven frequency
controller; :class:`PowerCoordinator` is the handoff protocol: the
query engine can *ask* what frequency will actually be in effect
(adaptive planning) or *request* a frequency for a query's duration
(negotiated planning).  Experiment A13 shows the cross-purposes failure
and both remedies.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.errors import ReproError

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.cpu import Cpu


class DvfsGovernor:
    """A hardware frequency controller reacting to observed utilization.

    Steps down one P-state after an epoch under 30 % utilization, up
    one after an epoch over 70 % (ondemand-style thresholds).  The
    database does not control it — unless it goes through the
    :class:`PowerCoordinator`.
    """

    def __init__(self, cpu: "Cpu") -> None:
        self.cpu = cpu
        self._levels = sorted(cpu.spec.dvfs_fractions, reverse=True)
        self._pinned_by: Optional[str] = None
        self._busy_baseline = cpu.busy_seconds()
        self._epoch_started = cpu.sim.now
        self.transitions = 0

    # -- observation --------------------------------------------------------
    def observe_epoch(self) -> float:
        """Utilization since the last observation; resets the window."""
        now = self.cpu.sim.now
        busy = self.cpu.busy_seconds()
        elapsed = now - self._epoch_started
        capacity = elapsed * self.cpu.spec.cores
        utilization = ((busy - self._busy_baseline) / capacity
                       if capacity > 0 else 0.0)
        self._busy_baseline = busy
        self._epoch_started = now
        return min(1.0, utilization)

    def react(self) -> float:
        """One governor step: observe, maybe shift a P-state.

        Returns the frequency fraction now in effect.  Skips shifting
        while the CPU is busy (a frequency change mid-burst would be
        unsafe) or while a coordinator pin is held.
        """
        utilization = self.observe_epoch()
        if self._pinned_by is not None or self.cpu.busy_units > 0:
            return self.cpu.dvfs_fraction
        current = self._levels.index(self.cpu.dvfs_fraction)
        target = current
        if utilization < 0.3:
            target = min(len(self._levels) - 1, current + 1)
        elif utilization > 0.7:
            target = max(0, current - 1)
        if target != current:
            self.cpu.set_dvfs(self._levels[target])
            self.transitions += 1
        return self.cpu.dvfs_fraction

    # -- pinning (used by the coordinator) -----------------------------------
    def pin(self, owner: str, fraction: float) -> None:
        if self._pinned_by is not None and self._pinned_by != owner:
            raise ReproError(
                f"governor already pinned by {self._pinned_by!r}")
        if fraction not in self.cpu.spec.dvfs_fractions:
            raise ReproError(f"{fraction} is not an offered P-state")
        self._pinned_by = owner
        if self.cpu.dvfs_fraction != fraction:
            self.cpu.set_dvfs(fraction)
            self.transitions += 1

    def unpin(self, owner: str) -> None:
        if self._pinned_by != owner:
            raise ReproError(f"{owner!r} does not hold the pin")
        self._pinned_by = None


class PowerCoordinator:
    """The §5.3 handoff between the DBMS and the platform governor."""

    def __init__(self, governor: DvfsGovernor) -> None:
        self.governor = governor

    def effective_frequency_fraction(self) -> float:
        """What the optimizer should plan against (adaptive mode)."""
        return self.governor.cpu.dvfs_fraction

    def request_frequency(self, owner: str, fraction: float) -> None:
        """Negotiated mode: hold a P-state for a query's duration."""
        self.governor.pin(owner, fraction)

    def release(self, owner: str) -> None:
        """Return control to the reactive governor."""
        self.governor.unpin(owner)
