"""The discrete-event simulation engine.

Processes are generators that yield :class:`~repro.sim.events.Event`
instances; the engine resumes a process when the event it waits on
triggers.  Scheduling is deterministic: events fire in (time, sequence)
order, so two runs of the same simulation produce identical traces.

Example
-------
>>> from repro.sim import Simulation
>>> sim = Simulation()
>>> log = []
>>> def worker(name, delay):
...     yield sim.timeout(delay)
...     log.append((sim.now, name))
>>> _ = sim.spawn(worker("a", 2.0))
>>> _ = sim.spawn(worker("b", 1.0))
>>> sim.run()
>>> log
[(1.0, 'b'), (2.0, 'a')]
"""

from __future__ import annotations

from heapq import heappop, heappush
from typing import Any, Generator, Iterable

from repro.errors import SimulationError
from repro.sim.clock import Clock
from repro.sim.events import AllOf, AnyOf, Callback, Event, Timeout

ProcessGenerator = Generator[Event, Any, Any]


class Process(Event):
    """A running process.

    A ``Process`` is itself an event: it triggers with the generator's
    return value when the generator finishes, or fails with the exception
    that escaped it.  This lets processes wait on each other by yielding
    the :class:`Process` object.
    """

    __slots__ = ("name", "_generator", "_spawn_seq", "__weakref__")

    def __init__(self, sim: "Simulation", generator: ProcessGenerator,
                 name: str = "") -> None:
        super().__init__(sim)
        if not hasattr(generator, "send"):
            raise SimulationError(
                f"spawn() needs a generator, got {type(generator).__name__}"
            )
        self.name = name or getattr(generator, "__name__", "process")
        self._generator = generator
        #: spawn order, which picks among several orphaned failures
        self._spawn_seq = sim._seq
        # Kick the process off at the current time.
        sim._schedule_call(self._resume_first)

    def _resume_first(self, _carrier: Event) -> None:
        self._step(None, ok=True)

    def _on_event(self, event: Event) -> None:
        # only a dispatched, hence triggered, event gets here
        self._step(event._value, event._ok)

    def _step(self, value: Any, ok: bool) -> None:
        if self._triggered:
            return
        try:
            if ok:
                target = self._generator.send(value)
            else:
                target = self._generator.throw(value)
        except StopIteration as stop:
            self._trigger(True, stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate via event
            self._trigger(False, exc)
            return
        if not isinstance(target, Event):
            self.fail(SimulationError(
                f"process {self.name!r} yielded {target!r}; "
                "processes must yield Event instances"))
            return
        if target.sim is not self.sim:
            self.fail(SimulationError(
                f"process {self.name!r} yielded an event from another simulation"))
            return
        # add_callback, without the call on the path every wait takes
        if target._dispatched:
            target.add_callback(self._on_event)
        else:
            target.callbacks.append(self._on_event)


class Simulation:
    """Event queue, clock, and process scheduler."""

    def __init__(self) -> None:
        self.clock = Clock()
        self._queue: list[tuple[float, int, Event]] = []
        self._seq = 0
        #: failed processes nobody was waiting on when they were dispatched
        self._orphans: list[Process] = []

    # -- time ------------------------------------------------------------
    @property
    def now(self) -> float:
        """Current simulated time, in seconds."""
        return self.clock._now

    # -- event construction ------------------------------------------------
    def timeout(self, delay: float) -> Timeout:
        """Create an event that fires ``delay`` simulated seconds from now."""
        return Timeout(self, delay)

    def all_of(self, events: Iterable[Event]) -> AllOf:
        """An event that fires once every given event has succeeded."""
        return AllOf(self, events)

    def any_of(self, events: Iterable[Event]) -> AnyOf:
        """An event that fires when the first of the given events triggers."""
        return AnyOf(self, events)

    def spawn(self, generator: ProcessGenerator, name: str = "") -> Process:
        """Start a new process from a generator and return its Process event."""
        return Process(self, generator, name=name)

    # -- scheduling (internal) ----------------------------------------------
    def _schedule_call(self, callback: Callback) -> None:
        """Schedule a bare callback for now; it is handed the event that
        carries it."""
        carrier = Event(self)
        carrier.callbacks.append(callback)
        carrier._triggered = True
        carrier._ok = True
        heappush(self._queue, (self.clock._now, self._seq, carrier))
        self._seq += 1

    # -- running ------------------------------------------------------------
    def step(self) -> None:
        """Dispatch the single next event in the queue."""
        if not self._queue:
            raise SimulationError("no events left to step")
        when, _seq, event = heappop(self._queue)
        clock = self.clock
        if when < clock._now:
            clock.advance_to(when)  # raises: time cannot move backwards
        clock._now = when
        event._dispatched = True
        callbacks = event.callbacks
        event.callbacks = []
        if not (event._ok or callbacks) and isinstance(event, Process):
            # Nobody is handling this failure; run() re-raises it.
            self._orphans.append(event)
        for callback in callbacks:
            callback(event)

    def run(self, until: float | Event | None = None) -> Any:
        """Run the simulation.

        ``until`` may be ``None`` (run until the event queue drains), a
        float (run up to that simulated time), or an :class:`Event` (run
        until it triggers, returning its value or raising its exception).
        """
        if isinstance(until, Event):
            return self._run_until_event(until)
        if until is not None and until < self.now:
            raise SimulationError(
                f"cannot run until {until}: already at {self.now}")
        while self._queue:
            when = self._queue[0][0]
            if until is not None and when > until:
                self.clock.advance_to(until)
                return None
            self.step()
        if until is not None:
            self.clock.advance_to(until)
        self._raise_orphaned_failures()
        return None

    def _run_until_event(self, until: Event) -> Any:
        while not until._triggered:
            if not self._queue:
                raise SimulationError(
                    "event queue drained before the awaited event triggered")
            self.step()
        if until.ok:
            return until.value
        raise until.value

    def _raise_orphaned_failures(self) -> None:
        """Surface process crashes nobody waited on.

        Errors should never pass silently: if a spawned process failed and
        no other process observed the failure, raise it at the end of the
        run instead of swallowing it.
        """
        if self._orphans:
            raise min(self._orphans, key=lambda p: p._spawn_seq)._value
