"""Discrete-event simulation kernel.

A small, deterministic, SimPy-flavoured engine: processes are Python
generators that ``yield`` events (timeouts, resource acquisitions, other
processes), and the :class:`~repro.sim.engine.Simulation` advances a
virtual clock from event to event.  All hardware models in
:mod:`repro.hardware` and all workload drivers are built on this kernel.
"""

from repro.sim.clock import Clock
from repro.sim.events import AllOf, AnyOf, Event, Timeout
from repro.sim.engine import Process, Simulation
from repro.sim.resources import Resource
from repro.sim.tracing import TimeSeries

__all__ = [
    "AllOf",
    "AnyOf",
    "Clock",
    "Event",
    "Process",
    "Resource",
    "Simulation",
    "TimeSeries",
    "Timeout",
]
