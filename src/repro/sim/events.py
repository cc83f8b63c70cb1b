"""Event primitives for the simulation engine.

An :class:`Event` is a one-shot future: it starts pending, is triggered
exactly once (with a value or an exception), and then runs its callbacks.
Processes wait on events by ``yield``-ing them; the engine wires the
resumption up through a callback.
"""

from __future__ import annotations

from heapq import heappush
from typing import TYPE_CHECKING, Any, Callable, Iterable

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type hints
    from repro.sim.engine import Simulation

Callback = Callable[["Event"], None]


class Event:
    """A one-shot occurrence that processes can wait on.

    Events are triggered with either :meth:`succeed` (carrying an optional
    value) or :meth:`fail` (carrying an exception that will be re-raised
    inside every waiting process).
    """

    __slots__ = ("sim", "callbacks", "_triggered", "_ok", "_value",
                 "_dispatched")

    def __init__(self, sim: "Simulation") -> None:
        # Timeout, AllOf, Process and the resource request set these
        # six slots themselves (one call less per event): keep them in
        # step with this list.
        self.sim = sim
        #: ``None`` once dispatched: a later waiter is scheduled instead
        self.callbacks: list[Callback] | None = []
        self._triggered = False
        self._ok: bool | None = None
        self._value: Any = None
        #: set by ``Simulation.step`` once the callbacks have been taken
        self._dispatched = False

    # -- state ---------------------------------------------------------
    @property
    def triggered(self) -> bool:
        """True once the event has succeeded or failed."""
        return self._triggered

    @property
    def ok(self) -> bool:
        """True if the event succeeded.  Only valid once triggered."""
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return bool(self._ok)

    @property
    def value(self) -> Any:
        """The success value or failure exception carried by the event."""
        if not self._triggered:
            raise SimulationError("event not yet triggered")
        return self._value

    # -- triggering ----------------------------------------------------
    def succeed(self, value: Any = None) -> "Event":
        """Mark the event successful and schedule its callbacks."""
        self._trigger(ok=True, value=value)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Mark the event failed; waiting processes see the exception."""
        if not isinstance(exception, BaseException):
            raise SimulationError(f"fail() needs an exception, got {exception!r}")
        self._trigger(ok=False, value=exception)
        return self

    def _trigger(self, ok: bool, value: Any) -> None:
        if self._triggered:
            raise SimulationError(f"{self!r} triggered twice")
        self._triggered = True
        self._ok = ok
        self._value = value
        sim = self.sim
        heappush(sim._queue, (sim.clock._now, sim._seq, self))
        sim._seq += 1

    # -- waiting -------------------------------------------------------
    def add_callback(self, callback: Callback) -> None:
        """Register ``callback`` to run when the event fires.

        If the event already fired *and was dispatched*, the callback runs
        via a fresh zero-delay dispatch so ordering stays deterministic.
        """
        if self._dispatched:
            self.sim._schedule_call(lambda _carrier: callback(self))
        else:
            self.callbacks.append(callback)


class Timeout(Event):
    """An event that succeeds after a fixed simulated delay."""

    __slots__ = ("delay",)

    def __init__(self, sim: "Simulation", delay: float) -> None:
        if delay < 0:
            raise SimulationError(f"timeout delay must be non-negative, got {delay}")
        self.sim = sim
        self.callbacks = []
        self._triggered = True  # scheduled at construction, cannot re-trigger
        self._ok = True
        self._value = None
        self._dispatched = False
        self.delay = delay
        heappush(sim._queue, (sim.clock._now + delay, sim._seq, self))
        sim._seq += 1


class AllOf(Event):
    """Succeeds when every child event has succeeded.

    Fails as soon as any child fails (with that child's exception).
    The success value is the list of child values, in input order.
    """

    __slots__ = ("_children", "_pending")

    def __init__(self, sim: "Simulation", events: Iterable[Event]) -> None:
        self.sim = sim
        self.callbacks = []
        self._triggered = False
        self._ok = None
        self._value = None
        self._dispatched = False
        self._children = children = list(events)
        self._pending = len(children)
        if not children:
            self.succeed([])
            return
        on_child = self._on_child
        for child in children:
            if child._dispatched:
                child.add_callback(on_child)
            else:
                child.callbacks.append(on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return
        if not child._ok:
            self.fail(child._value)
            return
        self._pending -= 1
        if self._pending == 0:
            self._trigger(True, [c._value for c in self._children])


class AnyOf(Event):
    """Succeeds (or fails) as soon as the first child event triggers."""

    __slots__ = ("_children",)

    def __init__(self, sim: "Simulation", events: Iterable[Event]) -> None:
        super().__init__(sim)
        self._children = list(events)
        if not self._children:
            raise SimulationError("AnyOf needs at least one event")
        for child in self._children:
            child.add_callback(self._on_child)

    def _on_child(self, child: Event) -> None:
        if self._triggered:
            return
        if child.ok:
            self.succeed(child.value)
        else:
            self.fail(child.value)
