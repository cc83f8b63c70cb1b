"""Queued resources for the simulation engine.

A :class:`Resource` models a server with fixed capacity (CPU cores, a disk
spindle, a RAID controller queue slot).  Processes ``yield
resource.acquire()`` to obtain a unit, and must call ``release()`` exactly
once per acquisition.  The resource keeps busy-time accounting so device
models can convert occupancy into utilization and power.

Example
-------
>>> from repro.sim import Resource, Simulation
>>> sim = Simulation()
>>> spindle = Resource(sim, capacity=1, name="spindle")
>>> def reader(seconds):
...     yield spindle.acquire()
...     yield sim.timeout(seconds)
...     spindle.release()
>>> _ = sim.spawn(reader(2.0))
>>> _ = sim.spawn(reader(1.0))
>>> sim.run(until=4.0)
>>> spindle
Resource('spindle', 0/1 busy, 0 queued)
>>> spindle.busy_seconds(), spindle.utilization()
(3.0, 0.75)
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation

from repro.sim.events import Event


class _Request(Event):
    """The event handed to a waiting process; succeeds on grant."""

    __slots__ = ()


class Resource:
    """A FIFO multi-server resource with utilization accounting."""

    def __init__(self, sim: "Simulation", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or f"resource@{id(self):#x}"
        self._in_use = 0
        self._waiting: deque[_Request] = deque()
        # busy-time integral: sum over time of (units in use) dt
        self._busy_integral = 0.0
        self._last_change = sim.now
        self._observed_since = sim.now

    # -- acquisition ---------------------------------------------------
    def acquire(self) -> _Request:
        """Request one unit.  Yield the returned event to wait for grant."""
        request = _Request(self.sim)
        if self._in_use < self.capacity:
            self._grant(request)
        else:
            self._waiting.append(request)
        return request

    def release(self) -> None:
        """Return one unit, granting it to the longest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release() without acquire()")
        self._account()
        self._in_use -= 1
        if self._waiting:
            self._grant(self._waiting.popleft())

    def _grant(self, request: _Request) -> None:
        self._account()
        self._in_use += 1
        request.succeed(self)

    # -- accounting ------------------------------------------------------
    def _account(self) -> None:
        now = self.sim.clock._now
        self._busy_integral += self._in_use * (now - self._last_change)
        self._last_change = now

    @property
    def queue_length(self) -> int:
        """Requests waiting for a unit."""
        return len(self._waiting)

    def utilization(self) -> float:
        """Mean fraction of capacity in use since the last reset."""
        self._account()
        elapsed = self.sim.now - self._observed_since
        if elapsed <= 0:
            return 0.0
        return self._busy_integral / (elapsed * self.capacity)

    def busy_seconds(self) -> float:
        """Unit-seconds of busy time since the last reset."""
        self._account()
        return self._busy_integral

    def reset_accounting(self) -> None:
        """Restart the utilization window at the current time."""
        self._busy_integral = 0.0
        self._last_change = self.sim.now
        self._observed_since = self.sim.now

    def __repr__(self) -> str:
        return (f"Resource({self.name!r}, {self._in_use}/{self.capacity} busy, "
                f"{len(self._waiting)} queued)")
