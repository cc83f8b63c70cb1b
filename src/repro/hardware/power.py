"""Power-state machines.

The paper (§2.4) observes that components "are either on (and at full
performance and power) or off, and the transitions can be expensive".
:class:`PowerStateMachine` captures exactly that: a set of named states
with power draws, and explicit transitions carrying a latency and an
energy cost.  Disk spin-up/spin-down is the instance the models use.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import PowerStateError


@dataclass(frozen=True)
class PowerState:
    """A named operating point with a steady-state power draw."""

    name: str
    power_watts: float

    def __post_init__(self) -> None:
        if self.power_watts < 0:
            raise PowerStateError(
                f"state {self.name!r}: power must be non-negative, "
                f"got {self.power_watts}")


@dataclass(frozen=True)
class Transition:
    """An allowed state change with its latency and energy cost.

    ``energy_joules`` is the total energy of the transition itself (e.g.
    a disk spin-up current spike), *in addition to* the steady-state power
    of the states on either side.
    """

    source: str
    target: str
    latency_seconds: float = 0.0
    energy_joules: float = 0.0

    def __post_init__(self) -> None:
        if self.latency_seconds < 0:
            raise PowerStateError(f"{self}: negative latency")
        if self.energy_joules < 0:
            raise PowerStateError(f"{self}: negative energy")


class PowerStateMachine:
    """States, transitions, and the bookkeeping for moving between them."""

    def __init__(self, states: list[PowerState], transitions: list[Transition],
                 initial: str) -> None:
        self._states = {s.name: s for s in states}
        if len(self._states) != len(states):
            raise PowerStateError("duplicate state names")
        if initial not in self._states:
            raise PowerStateError(f"unknown initial state {initial!r}")
        self._transitions: dict[tuple[str, str], Transition] = {}
        for t in transitions:
            if t.source not in self._states or t.target not in self._states:
                raise PowerStateError(f"transition {t} references unknown state")
            self._transitions[(t.source, t.target)] = t
        self._current = initial

    @property
    def current(self) -> str:
        """Name of the current state."""
        return self._current

    @property
    def power_watts(self) -> float:
        """Steady-state power of the current state."""
        return self._states[self._current].power_watts

    def transition(self, target: str) -> Transition:
        """Move to ``target``; returns the transition (latency + energy).

        The caller is responsible for modeling the latency (e.g. by
        yielding a timeout) and charging the energy.
        """
        if target == self._current:
            return Transition(self._current, target, 0.0, 0.0)
        key = (self._current, target)
        if key not in self._transitions:
            raise PowerStateError(
                f"illegal transition {self._current!r} -> {target!r}")
        self._current = target
        return self._transitions[key]


def breakeven_idle_seconds(active_idle_watts: float, sleep_watts: float,
                           enter: Transition, exit_: Transition) -> float:
    """Minimum idle period for which sleeping saves energy (paper §4.2).

    Sleeping for ``T`` seconds costs the transition energies plus
    ``sleep_watts * T``; staying up costs ``active_idle_watts * T``.
    Returns the ``T`` at which they break even (including the transition
    latencies inside the idle window).
    """
    if active_idle_watts <= sleep_watts:
        return float("inf")
    latency = enter.latency_seconds + exit_.latency_seconds
    fixed = (enter.energy_joules + exit_.energy_joules
             - latency * sleep_watts)
    breakeven = fixed / (active_idle_watts - sleep_watts)
    # The window must at least fit the transitions themselves.
    return max(breakeven, latency)
