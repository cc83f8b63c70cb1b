"""Rotating-disk model (the paper's 15K-RPM SCSI drives).

Service time for a request is

    positioning (seek + half-rotation, charged when the request does not
    continue the previous stream) + transfer (bytes / bandwidth) + a small
    per-request controller overhead.

Power states follow §2.4: ``active`` while transferring, ``idle`` while
spinning without work, ``standby`` when spun down, with expensive
spin-up/spin-down transitions (latency and an energy spike).  Requests
arriving at a standby disk spin it up first.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Generator, Hashable, Optional

from repro.errors import HardwareError
from repro.hardware.device import Device
from repro.hardware.power import PowerState, PowerStateMachine, Transition
from repro.sim.resources import Resource
from repro.units import GB, MB

if TYPE_CHECKING:  # pragma: no cover
    from repro.sim.engine import Simulation

#: what one shift between two offered RPM fractions costs
SPEED_CHANGE_SECONDS = 2.0
SPEED_CHANGE_JOULES = 4.0


@dataclass(frozen=True)
class DiskSpec:
    """Static parameters of a rotating disk.

    Defaults approximate the paper's 73 GB 15K-RPM SCSI drives.
    """

    name: str = "disk"
    capacity_bytes: int = 73 * GB
    bandwidth_bytes_per_s: float = 90 * MB
    average_seek_seconds: float = 0.0035
    rpm: int = 15000
    per_request_overhead_seconds: float = 0.0002
    active_watts: float = 17.0
    idle_watts: float = 12.0
    standby_watts: float = 2.5
    spinup_seconds: float = 6.0
    spinup_joules: float = 90.0
    spindown_seconds: float = 1.5
    spindown_joules: float = 6.0
    #: offered RPM fractions (Hibernator-style multi-speed drives,
    #: [ZCT+05]); bandwidth scales linearly with the fraction, spindle
    #: power roughly as fraction^2.5
    speed_levels: tuple[float, ...] = (1.0,)

    def __post_init__(self) -> None:
        if self.capacity_bytes <= 0 or self.bandwidth_bytes_per_s <= 0:
            raise HardwareError(f"{self.name}: capacity/bandwidth must be positive")
        if self.rpm <= 0:
            raise HardwareError(f"{self.name}: rpm must be positive")
        if not (0 <= self.standby_watts <= self.idle_watts
                <= self.active_watts):
            raise HardwareError(
                f"{self.name}: need standby <= idle <= active power")
        if (not self.speed_levels or 1.0 not in self.speed_levels
                or any(not 0 < f <= 1.0 for f in self.speed_levels)):
            raise HardwareError(
                f"{self.name}: speed levels must be fractions in (0, 1] "
                "and include 1.0")

    #: spindle power exponent: drag grows superlinearly with RPM
    SPEED_POWER_EXPONENT = 2.5

    def power_at_speed(self, full_watts: float, fraction: float) -> float:
        """Scale a full-speed power figure down to an RPM fraction."""
        scalable = max(0.0, full_watts - self.standby_watts)
        return (self.standby_watts
                + scalable * fraction ** self.SPEED_POWER_EXPONENT)

    @property
    def rotational_latency_seconds(self) -> float:
        """Average rotational delay: half a revolution."""
        return 0.5 * 60.0 / self.rpm

    @property
    def positioning_seconds(self) -> float:
        """Average positioning cost for a non-streaming request."""
        return self.average_seek_seconds + self.rotational_latency_seconds


class HardDisk(Device):
    """One spindle with queueing, stream-aware positioning, and spin-down."""

    ACTIVE = "active"
    IDLE = "idle"
    STANDBY = "standby"

    def __init__(self, sim: "Simulation", spec: DiskSpec) -> None:
        self.spec = spec
        states = [PowerState(self.ACTIVE, spec.active_watts),
                  PowerState(self.IDLE, spec.idle_watts),
                  PowerState(self.STANDBY, spec.standby_watts)]
        self._psm = PowerStateMachine(
            states=states,
            transitions=[
                Transition(self.ACTIVE, self.IDLE),
                Transition(self.IDLE, self.ACTIVE),
                Transition(self.IDLE, self.STANDBY,
                           spec.spindown_seconds, spec.spindown_joules),
                Transition(self.STANDBY, self.IDLE,
                           spec.spinup_seconds, spec.spinup_joules),
            ],
            initial=self.IDLE,
        )
        #: (state, speed) -> watts for every offered speed, so a state
        #: change is one lookup (standby is not scaled: the spindle is
        #: stopped)
        self._state_watts = {
            (state.name, fraction):
                (state.power_watts if state.name == self.STANDBY
                 else spec.power_at_speed(state.power_watts, fraction))
            for state in states for fraction in spec.speed_levels}
        super().__init__(sim, spec.name, initial_power_watts=spec.idle_watts)
        self.spindle = Resource(sim, capacity=1, name=f"{spec.name}.spindle")
        self._last_stream: Optional[Hashable] = None
        self._speed = 1.0
        self.bytes_read = 0
        self.bytes_written = 0
        self.requests_served = 0
        self.positioning_count = 0
        self.speed_changes = 0

    # -- state -------------------------------------------------------------
    @property
    def state(self) -> str:
        """Current power state name."""
        return self._psm.current

    # -- multi-speed operation (Hibernator-style, [ZCT+05]) -------------------
    @property
    def speed_fraction(self) -> float:
        """Current RPM as a fraction of nominal."""
        return self._speed

    def set_speed(self, fraction: float) -> Generator:
        """Shift the spindle to an offered RPM fraction (process).

        Waits for the spindle, pays the transition latency/energy, and
        changes service times and power from then on.  Illegal from
        standby (spin up first).
        """
        if fraction not in self.spec.speed_levels:
            raise HardwareError(
                f"{self.name}: {fraction} not an offered speed "
                f"{self.spec.speed_levels}")
        yield self.spindle.acquire()
        try:
            if self._psm.current == self.STANDBY:
                raise HardwareError(
                    f"{self.name}: cannot change speed while spun down")
            if fraction == self._speed:
                return
            self._charge_transition_energy(SPEED_CHANGE_JOULES)
            yield self.sim.timeout(SPEED_CHANGE_SECONDS)
            self._speed = fraction
            self.speed_changes += 1
            self._draw_state_power()
        finally:
            self.spindle.release()

    @property
    def effective_bandwidth_bytes_per_s(self) -> float:
        """Media rate at the current speed (linear in RPM)."""
        return self.spec.bandwidth_bytes_per_s * self._speed

    @property
    def effective_positioning_seconds(self) -> float:
        """Seek plus rotational latency at the current speed."""
        return (self.spec.average_seek_seconds
                + self.spec.rotational_latency_seconds / self._speed)

    # -- service-time arithmetic ----------------------------------------------
    def service_seconds(self, nbytes: int, positioned: bool) -> float:
        """Raw service time for one request (no queueing, no spin-up)."""
        if nbytes < 0:
            raise HardwareError(f"{self.name}: negative transfer size")
        seconds = (nbytes / self.effective_bandwidth_bytes_per_s
                   + self.spec.per_request_overhead_seconds)
        if not positioned:
            seconds += self.effective_positioning_seconds
        return seconds

    # -- transfers ----------------------------------------------------------
    def read(self, nbytes: int,
             stream: Optional[Hashable] = None) -> Generator:
        """Read ``nbytes`` (process).

        ``stream`` identifies a sequential stream: consecutive requests
        from the same stream skip the positioning cost; interleaved
        streams pay a seek each time the head switches between them.
        """
        return self._transfer(nbytes, stream, False)

    def write(self, nbytes: int,
              stream: Optional[Hashable] = None) -> Generator:
        """Write ``nbytes`` (process).  Same streaming rules as reads."""
        return self._transfer(nbytes, stream, True)

    def read_batch(self, nbytes: float, n_requests: float) -> Generator:
        """Serve a batch of random reads in one simulation step (process).

        Service time is ``n_requests`` positionings plus the aggregate
        transfer — the index-probe pattern, where per-request event
        granularity would be wasteful.
        """
        if nbytes < 0 or n_requests < 0:
            raise HardwareError(f"{self.name}: negative batch transfer")
        yield self.spindle.acquire()
        try:
            if self._psm.current == self.STANDBY:
                yield from self._spin_up_locked()
            self._last_stream = None  # the head ends up somewhere random
            self.positioning_count += int(round(n_requests))
            seconds = (n_requests * (self.effective_positioning_seconds
                                     + self.spec.per_request_overhead_seconds)
                       + nbytes / self.effective_bandwidth_bytes_per_s)
            self._start_service()
            try:
                yield self.sim.timeout(seconds)
            finally:
                self._end_service()
            self.requests_served += int(round(n_requests))
            self.bytes_read += int(nbytes)
        finally:
            self.spindle.release()

    def _transfer(self, nbytes: int, stream: Optional[Hashable],
                  is_write: bool) -> Generator:
        if nbytes < 0:
            raise HardwareError(f"{self.name}: negative transfer size")
        yield self.spindle.acquire()
        try:
            if self._psm._current == self.STANDBY:
                yield from self._spin_up_locked()
            positioned = stream is not None and stream == self._last_stream
            self._last_stream = stream
            if not positioned:
                self.positioning_count += 1
            seconds = self.service_seconds(nbytes, positioned)
            self._start_service()
            try:
                yield self.sim.timeout(seconds)
            finally:
                self._end_service()
            self.requests_served += 1
            if is_write:
                self.bytes_written += nbytes
            else:
                self.bytes_read += nbytes
        finally:
            self.spindle.release()

    # -- spin up / down -------------------------------------------------------
    def spin_down(self) -> Generator:
        """Spin the disk down to standby (process)."""
        yield self.spindle.acquire()
        try:
            if self._psm.current == self.STANDBY:
                return
            transition = self._psm.transition(self.STANDBY)
            self._charge_transition_energy(transition.energy_joules)
            yield self.sim.timeout(transition.latency_seconds)
            self._draw_state_power()
        finally:
            self.spindle.release()

    def spin_up(self) -> Generator:
        """Spin the disk up to idle (process)."""
        yield self.spindle.acquire()
        try:
            if self._psm.current != self.STANDBY:
                return
            yield from self._spin_up_locked()
        finally:
            self.spindle.release()

    def _spin_up_locked(self) -> Generator:
        transition = self._psm.transition(self.IDLE)
        self._charge_transition_energy(transition.energy_joules)
        yield self.sim.timeout(transition.latency_seconds)
        self._draw_state_power()
        self._last_stream = None  # head position is stale after standby

    def _start_service(self) -> None:
        """IDLE -> ACTIVE with the spindle busy, in one call.

        The caller holds the spindle, so the disk is idle here; the
        IDLE <-> ACTIVE transitions cost no time or energy, so the state
        is set in place and the watts read from the table rather than
        through ``PowerStateMachine.transition`` and ``_set_power``."""
        now = self.sim.clock._now
        self._psm._current = self.ACTIVE
        self.power_series.record(
            now, self._state_watts[self.ACTIVE, self._speed])
        self._busy_integral += self._busy_units * (
            now - self._last_busy_change)
        self._last_busy_change = now
        self._busy_units += 1

    def _end_service(self) -> None:
        """ACTIVE -> IDLE with the spindle free again."""
        now = self.sim.clock._now
        self._busy_integral += self._busy_units * (
            now - self._last_busy_change)
        self._last_busy_change = now
        self._busy_units -= 1
        self._psm._current = self.IDLE
        self.power_series.record(
            now, self._state_watts[self.IDLE, self._speed])

    def _draw_state_power(self) -> None:
        """Draw the current state's power at the current speed."""
        self._set_power(self._state_watts[self._psm.current, self._speed])

    @property
    def active_power_per_unit_watts(self) -> float:
        """Active power charged per busy spindle-second (Figure 2 style),
        at the current speed in every state."""
        return self._state_watts[self.ACTIVE, self._speed]
