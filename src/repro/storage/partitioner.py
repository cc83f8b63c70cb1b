"""Partition placement and consolidation planning.

§4.2's consolidation — "move data across resources so unused hardware
can be powered down" — is :meth:`Partitioner.plan_consolidation`, which
packs partitions onto the fewest devices whose bandwidth still covers
the observed access rates, and prices the migration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.errors import ConsolidationError


@dataclass(frozen=True)
class Partition:
    """A unit of placeable data with an observed access rate."""

    name: str
    size_bytes: int
    read_bytes_per_s: float = 0.0

    def __post_init__(self) -> None:
        if self.size_bytes < 0 or self.read_bytes_per_s < 0:
            raise ConsolidationError(f"partition {self.name!r}: negative size "
                                     "or rate")


@dataclass(frozen=True)
class DeviceSlot:
    """A placement target: capacity, bandwidth, and power if kept on."""

    name: str
    capacity_bytes: int
    bandwidth_bytes_per_s: float
    idle_watts: float
    active_watts: float

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.bandwidth_bytes_per_s <= 0:
            raise ConsolidationError(
                f"device {self.name!r}: capacity/bandwidth must be positive")


@dataclass
class Move:
    """One planned data movement."""

    partition: str
    source: str
    target: str
    size_bytes: int


@dataclass
class ConsolidationPlan:
    """Placement after consolidation, plus what it costs and saves."""

    assignments: dict[str, str]           # partition -> device
    moves: list[Move] = field(default_factory=list)
    devices_kept: list[str] = field(default_factory=list)
    devices_released: list[str] = field(default_factory=list)
    migration_seconds: float = 0.0
    migration_joules: float = 0.0
    idle_savings_watts: float = 0.0

    def breakeven_seconds(self) -> float:
        """How long the new placement must hold to repay the migration."""
        if self.idle_savings_watts <= 0:
            return float("inf")
        return self.migration_joules / self.idle_savings_watts


class Partitioner:
    """Placement planner over a homogeneous device set."""

    def __init__(self, devices: Sequence[DeviceSlot]) -> None:
        if not devices:
            raise ConsolidationError("need at least one device")
        names = [d.name for d in devices]
        if len(set(names)) != len(names):
            raise ConsolidationError("duplicate device names")
        self.devices = list(devices)
        self._by_name = {d.name: d for d in devices}

    # -- consolidation --------------------------------------------------------
    def plan_consolidation(self, partitions: Sequence[Partition],
                           current: dict[str, str],
                           bandwidth_headroom: float = 0.5
                           ) -> ConsolidationPlan:
        """Pack partitions onto the fewest devices and plan the migration.

        ``current`` maps partition name to its current device.
        ``bandwidth_headroom`` caps how much of a device's bandwidth the
        packed access rates may use (leaving room for bursts).

        First-fit-decreasing by size; a device accepts a partition if both
        remaining capacity and remaining bandwidth allow it.
        """
        if not 0 < bandwidth_headroom <= 1:
            raise ConsolidationError("headroom must be in (0, 1]")
        for part in partitions:
            if part.name not in current:
                raise ConsolidationError(
                    f"partition {part.name!r} has no current placement")
            if current[part.name] not in self._by_name:
                raise ConsolidationError(
                    f"partition {part.name!r} placed on unknown device "
                    f"{current[part.name]!r}")
        ordered = sorted(partitions, key=lambda p: p.size_bytes, reverse=True)
        remaining_cap = {d.name: d.capacity_bytes for d in self.devices}
        remaining_bw = {d.name: d.bandwidth_bytes_per_s * bandwidth_headroom
                        for d in self.devices}
        assignments: dict[str, str] = {}
        used: list[str] = []
        for part in ordered:
            placed = False
            for name in used:
                if (remaining_cap[name] >= part.size_bytes
                        and remaining_bw[name] >= part.read_bytes_per_s):
                    self._place(part, name, assignments,
                                remaining_cap, remaining_bw)
                    placed = True
                    break
            if not placed:
                for device in self.devices:
                    if device.name in used:
                        continue
                    if (remaining_cap[device.name] >= part.size_bytes
                            and remaining_bw[device.name]
                            >= part.read_bytes_per_s):
                        used.append(device.name)
                        self._place(part, device.name, assignments,
                                    remaining_cap, remaining_bw)
                        placed = True
                        break
            if not placed:
                raise ConsolidationError(
                    f"partition {part.name!r} fits no device")
        moves = [Move(p.name, current[p.name], assignments[p.name],
                      p.size_bytes)
                 for p in ordered if current[p.name] != assignments[p.name]]
        released = [d.name for d in self.devices if d.name not in used]
        seconds, joules = self._migration_cost(moves)
        savings = sum(self._by_name[name].idle_watts for name in released)
        return ConsolidationPlan(
            assignments=assignments, moves=moves, devices_kept=used,
            devices_released=released, migration_seconds=seconds,
            migration_joules=joules, idle_savings_watts=savings)

    def _place(self, part: Partition, device: str,
               assignments: dict[str, str], cap: dict[str, int],
               bw: dict[str, float]) -> None:
        assignments[part.name] = device
        cap[device] -= part.size_bytes
        bw[device] -= part.read_bytes_per_s

    def _migration_cost(self, moves: Sequence[Move]
                        ) -> tuple[float, float]:
        seconds = 0.0
        joules = 0.0
        for move in moves:
            src = self._by_name[move.source]
            dst = self._by_name[move.target]
            rate = min(src.bandwidth_bytes_per_s, dst.bandwidth_bytes_per_s)
            duration = move.size_bytes / rate
            seconds += duration
            joules += duration * (src.active_watts + dst.active_watts)
        return seconds, joules
