"""Queued resources for the simulation engine.

A :class:`Resource` models a server with fixed capacity (CPU cores, a disk
spindle, a RAID controller queue slot).  Processes ``yield
resource.acquire()`` to obtain a unit, and must call ``release()`` exactly
once per acquisition; waiters are granted in arrival order.

Example
-------
>>> from repro.sim import Resource, Simulation
>>> sim = Simulation()
>>> spindle = Resource(sim, capacity=1, name="spindle")
>>> done = []
>>> def reader(name, seconds):
...     yield spindle.acquire()
...     yield sim.timeout(seconds)
...     spindle.release()
...     done.append((name, sim.now))
>>> _ = sim.spawn(reader("a", 2.0))
>>> _ = sim.spawn(reader("b", 1.0))
>>> sim.run()
>>> done
[('a', 2.0), ('b', 3.0)]
"""

from __future__ import annotations

from collections import deque
from heapq import heappush
from typing import TYPE_CHECKING

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation

from repro.sim.events import Event


class _Request(Event):
    """The event handed to a waiting process; succeeds on grant, with
    the resource as its value."""

    __slots__ = ()

    def __init__(self, sim: "Simulation") -> None:
        self.sim = sim
        self.callbacks = []
        self._triggered = False
        self._ok = None
        self._value = None
        self._dispatched = False


class Resource:
    """A FIFO multi-server resource.

    A grant triggers its request in place: :meth:`acquire` and
    :meth:`release` push the request's heap entry themselves, exactly
    as ``Event.succeed`` would.
    """

    def __init__(self, sim: "Simulation", capacity: int = 1, name: str = "") -> None:
        if capacity < 1:
            raise SimulationError(f"capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.name = name or f"resource@{id(self):#x}"
        self._in_use = 0
        self._waiting: deque[_Request] = deque()

    # -- acquisition ---------------------------------------------------
    def acquire(self) -> _Request:
        """Request one unit.  Yield the returned event to wait for grant."""
        sim = self.sim
        request = _Request(sim)
        if self._in_use < self.capacity:
            self._in_use += 1
            request._triggered = True
            request._ok = True
            request._value = self
            heappush(sim._queue, (sim.clock._now, sim._seq, request))
            sim._seq += 1
        else:
            self._waiting.append(request)
        return request

    def release(self) -> None:
        """Return one unit, granting it to the longest waiter if any."""
        if self._in_use <= 0:
            raise SimulationError(f"{self.name}: release() without acquire()")
        if self._waiting:
            # the unit passes straight to the waiter: in use stays put
            request = self._waiting.popleft()
            request._triggered = True
            request._ok = True
            request._value = self
            sim = self.sim
            heappush(sim._queue, (sim.clock._now, sim._seq, request))
            sim._seq += 1
        else:
            self._in_use -= 1
