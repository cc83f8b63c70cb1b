"""Disk speed control (paper §5.3 "multi-speed drives", [ZCT+05]).

Hibernator's idea: rather than binary spin-up/spin-down, serve light
load at a lower RPM — less bandwidth, much less spindle power (drag
grows superlinearly with RPM).  :class:`SpeedGovernor` picks, per
epoch, the slowest offered speed whose bandwidth still covers the
observed demand with headroom, and only shifts when the change is worth
its transition cost.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Sequence

from repro.errors import ConsolidationError
from repro.hardware.disk import SPEED_CHANGE_JOULES

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.disk import HardDisk


@dataclass
class SpeedDecision:
    """One epoch's choice."""

    epoch: int
    demand_fraction: float
    chosen_speed: float
    changed: bool


class SpeedGovernor:
    """Per-epoch speed selection for a set of multi-speed disks."""

    #: bandwidth headroom over the observed demand
    HEADROOM = 1.25
    #: shortest epoch the governor will plan for
    MIN_EPOCH_SECONDS = 60.0

    def __init__(self, disks: Sequence["HardDisk"]) -> None:
        if not disks:
            raise ConsolidationError("governor needs at least one disk")
        levels = set(disks[0].spec.speed_levels)
        for disk in disks[1:]:
            if set(disk.spec.speed_levels) != levels:
                raise ConsolidationError(
                    "governor requires homogeneous speed levels")
        self.disks = list(disks)
        self.decisions: list[SpeedDecision] = []

    def choose_speed(self, demand_fraction: float) -> float:
        """Slowest offered speed covering ``demand_fraction`` of full
        bandwidth, with headroom."""
        if demand_fraction < 0:
            raise ConsolidationError("negative demand")
        required = min(1.0, demand_fraction * self.HEADROOM)
        candidates = sorted(self.disks[0].spec.speed_levels)
        for level in candidates:
            if level >= required:
                return level
        return candidates[-1]

    def worth_changing(self, current: float, target: float,
                       epoch_seconds: float) -> bool:
        """Does shifting save more than the transition costs?

        Compares idle power at the two speeds over the epoch against the
        shift's energy (both directions, pessimistically).
        """
        if current == target:
            return False
        spec = self.disks[0].spec
        saving_watts = abs(spec.power_at_speed(spec.idle_watts, current)
                           - spec.power_at_speed(spec.idle_watts, target))
        round_trip = 2 * SPEED_CHANGE_JOULES
        return saving_watts * epoch_seconds > round_trip

    def apply(self, demand_fraction: float,
              epoch_seconds: float) -> Generator:
        """Set every disk for the coming epoch (process)."""
        if epoch_seconds < self.MIN_EPOCH_SECONDS:
            raise ConsolidationError(
                f"epoch {epoch_seconds}s below the governor's minimum "
                f"{self.MIN_EPOCH_SECONDS}s")
        target = self.choose_speed(demand_fraction)
        current = self.disks[0].speed_fraction
        change = self.worth_changing(current, target, epoch_seconds)
        self.decisions.append(SpeedDecision(
            epoch=len(self.decisions), demand_fraction=demand_fraction,
            chosen_speed=target if change else current, changed=change))
        if not change:
            return
        shifts = [self.disks[0].sim.spawn(disk.set_speed(target),
                                          name=f"shift-{disk.name}")
                  for disk in self.disks]
        yield self.disks[0].sim.all_of(shifts)
