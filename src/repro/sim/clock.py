"""Simulated clock.

The clock only moves forward, and only the simulation engine should move
it.  It is factored out of the engine so device models can hold a
reference to "the current time" without depending on the full engine.

The time lives in one slot, ``_now``.  The per-event paths of
:mod:`repro.sim` and :mod:`repro.hardware` read it directly (a property
read per event per device was a measurable share of a Figure 1 run);
only :meth:`Clock.advance_to` and ``Simulation.step`` write it, and both
refuse to move it backwards.
"""

from __future__ import annotations

from repro.errors import SimulationError


class Clock:
    """A monotonically non-decreasing virtual clock, in seconds."""

    __slots__ = ("_now",)

    def __init__(self) -> None:
        self._now = 0.0

    def advance_to(self, t: float) -> None:
        """Move the clock forward to time ``t``.

        Raises :class:`SimulationError` if ``t`` is in the past; advancing
        to the current time is a no-op.
        """
        if t < self._now:
            raise SimulationError(
                f"clock cannot move backwards: now={self._now}, requested={t}"
            )
        self._now = t
