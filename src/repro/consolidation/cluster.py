"""Cluster-level consolidation (paper §2.4, [TWM+08] analogue).

Servers are not energy proportional — but an *ensemble* can approximate
proportionality by migrating load onto fewer nodes and powering the rest
off.  :func:`simulate_cluster` plays a load trace against three
policies and reports energy, the effective power-vs-load curve, and its
proportionality index.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConsolidationError
from repro.hardware.proportionality import proportionality_index


class ClusterPolicy(enum.Enum):
    """How the ensemble reacts to load."""

    ALL_ON = "all-on"                  # every server up, load spread thin
    CONSOLIDATE = "consolidate"        # pack load, power off the rest
    CONSOLIDATE_LAZY = "consolidate-lazy"  # packing with +1 server headroom


@dataclass(frozen=True)
class ServerPowerModel:
    """Utilization-linear power curve of one node."""

    idle_watts: float = 200.0
    peak_watts: float = 350.0
    #: energy to boot/shut a node once (migration + power cycling)
    cycle_joules: float = 20_000.0

    def power(self, utilization: float) -> float:
        if not 0.0 <= utilization <= 1.0 + 1e-9:
            raise ConsolidationError(f"utilization {utilization} out of range")
        return self.idle_watts + \
            (self.peak_watts - self.idle_watts) * min(1.0, utilization)


@dataclass
class ClusterReport:
    """Outcome of one policy over a trace."""

    policy: ClusterPolicy
    energy_joules: float
    cycle_energy_joules: float
    server_hours: float
    #: (cluster load fraction, cluster power) samples for the EP curve
    power_curve: list[tuple[float, float]] = field(default_factory=list)

    @property
    def total_energy_joules(self) -> float:
        return self.energy_joules + self.cycle_energy_joules

    def proportionality(self) -> float:
        """EP index of the observed cluster power curve."""
        points = sorted(set(self.power_curve))
        if len(points) < 2 or points[0][0] > 0.0 or points[-1][0] < 1.0:
            # extend with the trivial endpoints implied by the policy
            peak = max(p for _, p in points) if points else 1.0
            extended = dict(points)
            extended.setdefault(0.0, min(p for _, p in points))
            extended.setdefault(1.0, peak)
            points = sorted(extended.items())
        loads = [l for l, _ in points]
        powers = [p for _, p in points]
        return proportionality_index(loads, powers)


def diurnal_trace() -> list[float]:
    """A smooth day/night load curve (fraction of cluster capacity),
    one value per hour of a day: 15 % at the trough, 90 % at the peak."""
    mid = (0.9 + 0.15) / 2
    amplitude = (0.9 - 0.15) / 2
    return [mid + amplitude * math.sin(2 * math.pi * (h - 9) / 24)
            for h in range(24)]


def simulate_cluster(trace: Sequence[float], n_servers: int,
                     policy: ClusterPolicy,
                     model: ServerPowerModel = ServerPowerModel()
                     ) -> ClusterReport:
    """Play a load trace (fractions of total cluster capacity), one
    value per one-hour epoch."""
    if n_servers < 1:
        raise ConsolidationError("need at least one server")
    if any(not 0.0 <= load <= 1.0 for load in trace):
        raise ConsolidationError("trace loads must be fractions in [0, 1]")
    energy = 0.0
    cycles = 0
    server_hours = 0.0
    curve = []
    previous_active = n_servers
    for load in trace:
        demand = load * n_servers  # server-equivalents of work
        if policy is ClusterPolicy.ALL_ON:
            active = n_servers
        elif policy is ClusterPolicy.CONSOLIDATE:
            active = max(1, math.ceil(demand))
        else:
            active = min(n_servers, max(1, math.ceil(demand) + 1))
        utilization = min(1.0, demand / active)
        power = active * model.power(utilization)
        energy += power * 3600.0
        cycles += abs(active - previous_active)
        previous_active = active
        server_hours += active
        curve.append((load, power))
    return ClusterReport(
        policy=policy,
        energy_joules=energy,
        cycle_energy_joules=cycles * model.cycle_joules,
        server_hours=server_hours,
        power_curve=curve,
    )
