"""Energy spans: named sim-time intervals that energy is attributed to.

An :class:`EnergySpan` marks a phase of a run — a query, a pipeline, a
flush — by its ``[started_at, ended_at]`` interval on the simulation
clock, plus a snapshot of every device's cumulative busy-seconds at
both endpoints.  Attribution happens later (in
:meth:`~repro.telemetry.collector.TelemetryCollector.finalize`): the
interval is integrated against each device's power step function for
*metered* Joules, and the busy-second deltas are priced at each
device's active power for *busy-time* Joules (the paper's Figure 2
convention).  Recording only endpoints keeps the in-run overhead to two
dict snapshots per span.

:class:`SpanStack` maintains the open-span stack and the resulting
forest.  Closing is tolerant of non-LIFO order (concurrent simulation
processes may interleave spans); an explicit ``parent`` pins a span
into the right tree regardless of what else is open.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.errors import ReproError


@dataclass
class EnergySpan:
    """One named phase: a sim-time interval with busy-time snapshots."""

    name: str
    started_at: float
    busy_at_start: dict[str, float] = field(default_factory=dict)
    ended_at: Optional[float] = None
    busy_at_end: dict[str, float] = field(default_factory=dict)
    parent: Optional["EnergySpan"] = None
    children: list["EnergySpan"] = field(default_factory=list)

    @property
    def closed(self) -> bool:
        return self.ended_at is not None

    def busy_delta(self, device: str) -> float:
        """Busy unit-seconds the device accumulated inside this span."""
        if self.ended_at is None:
            raise ReproError(f"span {self.name!r} is still open")
        return (self.busy_at_end.get(device, 0.0)
                - self.busy_at_start.get(device, 0.0))


class SpanStack:
    """The open-span stack plus the closed-span forest it produces."""

    def __init__(self) -> None:
        self.roots: list[EnergySpan] = []
        self._open: list[EnergySpan] = []

    @property
    def current(self) -> Optional[EnergySpan]:
        """The innermost open span (default parent for new spans)."""
        return self._open[-1] if self._open else None

    def open(self, name: str, now: float, busy: dict[str, float],
             parent: Optional[EnergySpan] = None,
             root: bool = False) -> EnergySpan:
        """Open a span at ``now``; attach it under ``parent`` (or the
        innermost open span, or as a new root).

        ``root=True`` refuses the default parent: whatever span happens
        to be open belongs to some *other* concurrently simulating
        process, and this span must start its own tree.
        """
        if parent is None and not root:
            parent = self.current
        span = EnergySpan(name=name, started_at=now,
                          busy_at_start=dict(busy), parent=parent)
        if parent is None:
            self.roots.append(span)
        else:
            if parent.closed:
                raise ReproError(
                    f"cannot open span {name!r} under closed span "
                    f"{parent.name!r}")
            parent.children.append(span)
        self._open.append(span)
        return span

    def close(self, span: EnergySpan, now: float,
              busy: dict[str, float]) -> None:
        """Close ``span`` at ``now``.

        The span need not be the innermost open one: interleaved
        simulation processes close spans out of LIFO order, and that is
        fine — each span's interval is its own.
        """
        if span.closed:
            raise ReproError(f"span {span.name!r} closed twice")
        if now < span.started_at:
            raise ReproError(
                f"span {span.name!r} would close before it opened")
        span.ended_at = now
        span.busy_at_end = dict(busy)
        try:
            self._open.remove(span)
        except ValueError:
            raise ReproError(
                f"span {span.name!r} is not open on this stack") from None

    def close_all(self, now: float, busy: dict[str, float]) -> None:
        """Force-close any spans still open (end-of-capture cleanup)."""
        while self._open:
            self.close(self._open[-1], now, busy)
