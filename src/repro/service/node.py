"""Serving nodes: calibrated power models and fast analytic servers.

A :class:`FleetNode` is the serving-layer view of one
:class:`~repro.hardware.server.Server`: a single FCFS service pipe with
a utilization-linear power curve.  Under that (paper §3.1) linearity,
energy over any interval is *exactly*

    idle_watts * on_seconds + (peak - idle) * busy_seconds
    + boot/drain transition lumps

so the node integrates its own energy in closed form from three
accumulators instead of replaying a power step function — which is how
a 16-node fleet absorbs a million queries in seconds.  Fidelity to the
hardware layer comes from calibration, not re-simulation:
:meth:`NodePowerModel.from_server` reads idle/peak watts off a real
simulated server profile, so the fast path and the metered path price
Joules identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from repro.observe import suspended
from repro.records import Record
from repro.service.report import NodeStats, ServiceError


@dataclass(frozen=True)
class NodePowerModel(Record):
    """Utilization-linear power curve plus power-cycling costs."""

    name: str = "node"
    idle_watts: float = 200.0
    peak_watts: float = 350.0
    #: seconds a powered-on node is unavailable while booting
    boot_seconds: float = 20.0
    #: energy drawn across the boot window; ``None`` prices it at peak
    #: draw for the window, tracking ``peak_watts``/``boot_seconds``
    #: overrides instead of assuming the default 350 W / 20 s box
    boot_joules: Optional[float] = None
    #: seconds and energy to flush/park state on power-off
    drain_seconds: float = 5.0
    drain_joules: float = 1_000.0
    #: relative service rate (2.0 completes queries twice as fast)
    speed_factor: float = 1.0

    def __post_init__(self) -> None:
        if self.boot_joules is None:
            object.__setattr__(self, "boot_joules",
                               self.peak_watts * self.boot_seconds)
        # written `not x >= bound` so NaN fails too, and every field must
        # be finite: a NaN speed factor would surface only much later,
        # as a policy that admitted no queries
        floors = {"idle_watts": 0.0, "peak_watts": self.idle_watts,
                  "boot_seconds": 0.0, "boot_joules": 0.0,
                  "drain_seconds": 0.0, "drain_joules": 0.0}
        for name, floor in floors.items():
            value = getattr(self, name)
            if not (value >= floor and math.isfinite(value)):
                raise ServiceError(
                    f"{self.name}: {name} must be finite and >= {floor}, "
                    f"got {name}={value}")
        if not (self.speed_factor > 0 and math.isfinite(self.speed_factor)):
            raise ServiceError(
                f"{self.name}: speed_factor must be finite and positive, "
                f"got speed_factor={self.speed_factor}")

    def power(self, utilization: float) -> float:
        if not 0.0 <= utilization <= 1.0 + 1e-9:
            raise ServiceError(f"utilization {utilization} out of range")
        return self.idle_watts + \
            (self.peak_watts - self.idle_watts) * min(1.0, utilization)

    def dvfs_watts(self, f: float) -> float:
        """Busy draw at frequency fraction ``f``: dynamic power falls
        with the cube of frequency (the rule a PVC downclock and a
        throttle fault both price by)."""
        return self.idle_watts + (self.peak_watts - self.idle_watts) * f ** 3

    @property
    def cycle_joules(self) -> float:
        """Energy of one full off/on cycle (boot + drain)."""
        return self.boot_joules + self.drain_joules

    def breakeven_seconds(self) -> float:
        """Minimum off-time before a power cycle saves energy.

        Same arithmetic as
        :meth:`~repro.consolidation.migration.MigrationOutcome.breakeven_seconds`:
        the cycle's transition energy repaid at the idle draw it avoids.
        """
        if self.idle_watts <= 0:
            return float("inf")
        return self.cycle_joules / self.idle_watts

    @classmethod
    def from_server(cls, profile: str = "commodity",
                    speed_factor: float = 1.0,
                    **profile_kwargs) -> "NodePowerModel":
        """Calibrate against a :mod:`repro.hardware.profiles` factory.

        Builds the named profile in a throwaway simulation and reads its
        spec-arithmetic idle/peak watts, so fleet nodes price energy
        exactly like the metered server they stand for.  Boot takes
        20 s at peak draw; drain takes 5 s at idle draw.
        """
        from repro.hardware import profiles
        from repro.sim import Simulation

        try:
            factory = getattr(profiles, profile)
        except AttributeError:
            raise ServiceError(
                f"unknown hardware profile {profile!r}") from None
        # the throwaway calibration server must not register with an
        # active telemetry capture — it never simulates anything
        with suspended("telemetry"):
            server, _array = factory(Simulation(), **profile_kwargs)
        idle = server.idle_power_watts()
        peak = server.peak_power_watts()
        return cls(
            name=profile,
            idle_watts=idle,
            peak_watts=peak,
            boot_seconds=20.0,
            boot_joules=peak * 20.0,
            drain_seconds=5.0,
            drain_joules=idle * 5.0,
            speed_factor=speed_factor,
        )


class FleetNode:
    """One FCFS serving pipe with closed-form energy accounting."""

    __slots__ = ("name", "model", "on", "busy_until", "on_since",
                 "_interval_busy", "_interval_boot", "on_seconds",
                 "busy_seconds", "energy_joules", "boots", "completed",
                 "crashes", "_interval_active_joules",
                 "_interval_linear_busy", "_finalized", "node_class")

    def __init__(self, name: str, model: NodePowerModel,
                 node_class: str = "node") -> None:
        self.name = name
        self.model = model
        self.node_class = node_class
        self.on = True
        #: earliest instant the pipe can start the next query
        self.busy_until = 0.0
        self.on_since = 0.0
        self._interval_busy = 0.0  # busy seconds in the current ON span
        self._interval_boot = 0.0  # boot seconds in the current ON span
        # The ON span's active energy above idle splits into two lanes
        # that may coexist (a PVC run downclocks some queries and not
        # others): serve() seconds accumulate in _interval_linear_busy
        # and are priced by the fleet-wide (peak - idle) * busy
        # identity at close, bit-for-bit as always; serve_active()
        # prices each query's explicit power state into
        # _interval_active_joules as it runs.
        self._interval_active_joules = 0.0
        self._interval_linear_busy = 0.0
        self.on_seconds = 0.0
        self.busy_seconds = 0.0
        self.energy_joules = 0.0
        self.boots = 0
        self.crashes = 0
        self.completed = 0
        self._finalized = False

    def backlog(self, now: float) -> float:
        """Seconds of queued + in-flight work ahead of a new arrival."""
        return self.busy_until - now if self.busy_until > now else 0.0

    @property
    def boot_until(self) -> float:
        """End of the current ON span's atomic boot window (its start
        for a node that was constructed powered on)."""
        return self.on_since + self._interval_boot

    def serve(self, arrival_t: float, service_s: float) -> float:
        """Admit one query; returns its latency (wait + service)."""
        if not self.on:
            raise ServiceError(f"{self.name}: dispatched to a powered-off "
                               "node")
        scaled = service_s / self.model.speed_factor
        start = self.busy_until if self.busy_until > arrival_t else arrival_t
        self.busy_until = start + scaled
        self._interval_busy += scaled
        self._interval_linear_busy += scaled
        self.completed += 1
        return self.busy_until - arrival_t

    def serve_active(self, arrival_t: float, service_s: float,
                     busy_watts: float,
                     speed_mult: float = 1.0) -> tuple[float, float]:
        """Admit one query at an explicit power state; returns its
        ``(start, end)`` execution window.

        The fault engine's entry point: a throttled node runs slower
        (``speed_mult < 1``) at a lower busy draw (``busy_watts``
        below peak, cubic-DVFS priced), so active energy is
        accumulated per query instead of through the fleet-wide
        ``(peak - idle) * busy_seconds`` identity.  Completion is the
        caller's to confirm — a later crash may retract it.
        """
        if not self.on:
            raise ServiceError(f"{self.name}: dispatched to a powered-off "
                               "node")
        if speed_mult <= 0:
            raise ServiceError(f"{self.name}: speed multiplier must be "
                               "positive")
        if busy_watts < self.model.idle_watts:
            raise ServiceError(f"{self.name}: busy draw below idle")
        scaled = service_s / (self.model.speed_factor * speed_mult)
        start = self.busy_until if self.busy_until > arrival_t else arrival_t
        self.busy_until = start + scaled
        self._interval_busy += scaled
        self._interval_active_joules += \
            (busy_watts - self.model.idle_watts) * scaled
        self.completed += 1
        return start, self.busy_until

    def retract(self, busy_seconds: float, active_joules: float,
                count: int) -> None:
        """Take back work a crash destroyed before it completed.

        ``busy_seconds`` / ``active_joules`` are the *unexecuted*
        remainders of in-flight and queued queries; ``count`` is how
        many of them never completed at all.
        """
        if min(busy_seconds, active_joules, count) < 0:
            raise ServiceError(f"{self.name}: negative retraction")
        self._interval_busy -= busy_seconds
        self._interval_active_joules -= active_joules
        self.completed -= count

    def crash(self, now: float, repair_at: float) -> None:
        """Lose the node ungracefully: no drain, books closed at ``now``.

        Unlike :meth:`power_off`, a crash forfeits the drain window
        (and its energy lump — the node just stops drawing power) and
        parks ``busy_until`` at ``repair_at``, the instant the node
        becomes bootable again.  The model treats the boot window as
        atomic, so the caller must not crash a node that is still
        booting (defer to the boot's end instead).
        """
        if not self.on:
            raise ServiceError(f"{self.name}: cannot crash a powered-off "
                               "node")
        if now < self.on_since + self._interval_boot:
            raise ServiceError(
                f"{self.name}: crash at {now} lands inside the atomic "
                f"boot window ending {self.on_since + self._interval_boot}")
        if repair_at < now:
            raise ServiceError(f"{self.name}: repair precedes the crash")
        self._close_interval(now)
        self.on = False
        self.crashes += 1
        # unusable until repaired; power_on() checks busy_until
        self.busy_until = repair_at

    def power_on(self, now: float) -> None:
        """Boot the node; it serves once the boot window passes."""
        if self.on:
            raise ServiceError(f"{self.name}: already powered on")
        if now < self.busy_until:
            raise ServiceError(f"{self.name}: cannot boot mid-drain")
        self.on = True
        self.on_since = now
        self._interval_busy = 0.0
        self._interval_active_joules = 0.0
        self._interval_linear_busy = 0.0
        self._interval_boot = self.model.boot_seconds
        self.busy_until = now + self.model.boot_seconds
        self.boots += 1
        self.energy_joules += self.model.boot_joules

    def power_off(self, now: float) -> None:
        """Cut the node; the caller must have let the pipe drain."""
        if not self.on:
            raise ServiceError(f"{self.name}: already powered off")
        if self.busy_until > now:
            raise ServiceError(
                f"{self.name}: cannot power off with {self.busy_until - now:.3f}s "
                "of backlog")
        self._close_interval(now)
        self.on = False
        self.energy_joules += self.model.drain_joules
        # the pipe is unusable until the drain completes
        self.busy_until = now + self.model.drain_seconds

    def _close_interval(self, now: float) -> None:
        span = now - self.on_since
        self.on_seconds += span
        self.busy_seconds += self._interval_busy
        # the boot window is priced wholly by the boot_joules lump —
        # only the remainder of the interval draws idle-or-busy power;
        # serve_active() seconds carry their own per-query active
        # energy (explicit power states), serve() seconds use the
        # fleet-wide linear identity
        active = (self.model.peak_watts - self.model.idle_watts) \
            * self._interval_linear_busy + self._interval_active_joules
        self.energy_joules += (self.model.idle_watts
                               * (span - self._interval_boot)
                               + active)
        self._interval_busy = 0.0
        self._interval_active_joules = 0.0
        self._interval_linear_busy = 0.0
        self._interval_boot = 0.0

    def finalize(self, end: float) -> NodeStats:
        """Close the books at ``end`` (>= the node's last activity)."""
        if self._finalized:
            raise ServiceError(f"{self.name}: finalized twice")
        if self.on:
            if end < self.busy_until:
                raise ServiceError(
                    f"{self.name}: finalize at {end} precedes backlog "
                    f"drain at {self.busy_until}")
            self._close_interval(end)
            self.on = False
        self._finalized = True
        return NodeStats(
            node=self.name,
            completed=self.completed,
            on_seconds=self.on_seconds,
            busy_seconds=self.busy_seconds,
            energy_joules=self.energy_joules,
            boots=self.boots,
            crashes=self.crashes,
            node_class=self.node_class,
        )


def books_close_at(nodes: Sequence[FleetNode], end: float) -> float:
    """The instant a run's books can close: ``end`` (its last arrival
    or completion), pushed out to the drain of every powered-on pipe.

    The two differ when a node booted at the last autoscaler epoch is
    still inside its atomic boot window when the stream ends and never
    serves: the boot lump is already charged, so the fleet runs on to
    the end of that window rather than finalizing mid-boot.
    """
    for node in nodes:
        if node.on and node.busy_until > end:
            end = node.busy_until
    return end
