"""Knob-sweep profiler: Figure 1 generalized to any knob.

A sweep of any configuration knob (one :class:`ProfilePoint` per
setting, e.g. per point of a runner sweep) gives the performance /
power / efficiency curves and locates the diminishing-returns point —
"in configuring and tuning a system for energy efficiency, one ought
to balance system components such that the incremental benefits among
all types outweigh the additional power cost" (§3.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.errors import ReproError
from repro.records import Record


@dataclass(frozen=True)
class ProfilePoint(Record):
    """One evaluated knob setting.

    >>> p = ProfilePoint(knob_value=12, seconds=2.0,
    ...                  energy_joules=100.0, work_done=10.0)
    >>> p.performance        # work per second
    5.0
    >>> p.efficiency         # work per Joule
    0.1
    """

    knob_value: Any
    seconds: float
    energy_joules: float
    work_done: float = 1.0

    @property
    def performance(self) -> float:
        """Work per second."""
        return self.work_done / self.seconds

    @property
    def efficiency(self) -> float:
        """Work per Joule."""
        return self.work_done / self.energy_joules


@dataclass
class EnergyProfile(Record):
    """A full sweep plus its derived summary.

    Two disk counts, where the smaller one is slower but thriftier —
    the Figure 1 situation in miniature:

    >>> profile = EnergyProfile(knob_name="disks", points=[
    ...     ProfilePoint(12, seconds=2.0, energy_joules=150.0),
    ...     ProfilePoint(24, seconds=1.0, energy_joules=200.0),
    ... ])
    >>> profile.best_performance().knob_value
    24
    >>> profile.best_efficiency().knob_value
    12
    >>> gain, drop = profile.tradeoff()
    >>> round(gain, 3), round(drop, 3)   # +33% efficiency, -50% speed
    (0.333, 0.5)
    """

    knob_name: str
    points: list[ProfilePoint] = field(default_factory=list)

    def best_efficiency(self) -> ProfilePoint:
        """The most energy-efficient setting."""
        if not self.points:
            raise ReproError("empty profile")
        return max(self.points, key=lambda p: p.efficiency)

    def best_performance(self) -> ProfilePoint:
        """The fastest setting."""
        if not self.points:
            raise ReproError("empty profile")
        return max(self.points, key=lambda p: p.performance)

    def tradeoff(self) -> tuple[float, float]:
        """(efficiency gain, performance drop) of the best-EE point vs.
        the best-performance point — the numbers the paper quotes for
        Figure 1 ("a 14 % increase in efficiency for a 45 % drop in
        performance")."""
        eff = self.best_efficiency()
        fast = self.best_performance()
        gain = eff.efficiency / fast.efficiency - 1.0
        drop = 1.0 - eff.performance / fast.performance
        return gain, drop
