"""Duty-cycle utilization sweep (the A8 proportionality driver).

Runs a server at a fixed utilization by alternating busy and idle
phases on a one-second period, meters the average power over the
window, and reports the useful work done — the experiment behind
Barroso & Hölzle's energy-proportionality argument (§2.4, [BH07]).
Two machine kinds are supported: the calibrated ``commodity`` profile
("real") and an :class:`~repro.hardware.proportionality.IdealProportionalDevice`
("ideal", which needs the real machine's ``peak_watts``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import WorkloadError
from repro.hardware.profiles import commodity
from repro.hardware.proportionality import IdealProportionalDevice
from repro.records import Record
from repro.sim import Simulation


@dataclass
class DutyCycleReport(Record):
    """Average power and useful work at one utilization level."""

    kind: str                 # "real" | "ideal"
    utilization: float
    window_seconds: float
    average_watts: float
    work_seconds: float

    @property
    def energy_joules(self) -> float:
        return self.average_watts * self.window_seconds


def _real_window(utilization: float, window_seconds: float,
                 period_seconds: float) -> tuple[float, float]:
    """Duty-cycle the commodity server's CPU+disks; return
    (average watts, work seconds)."""
    sim = Simulation()
    server, array = commodity(sim)
    busy = utilization * period_seconds
    work_seconds = 0.0

    def loop():
        nonlocal work_seconds
        cycles_per_busy = busy * server.cpu.effective_frequency_hz \
            * server.cpu.spec.cores
        while sim.now < window_seconds - 1e-9:
            if busy > 0:
                io = sim.spawn(array.read(busy * 100e6, stream="duty"))
                yield from server.cpu.execute(cycles_per_busy,
                                              parallelism=4)
                yield io
                work_seconds += busy
            next_boundary = (int(sim.now / period_seconds + 1e-9) + 1) \
                * period_seconds
            if busy >= period_seconds - 1e-9:
                continue  # fully loaded: no idle phase
            yield sim.timeout(max(0.0, next_boundary - sim.now))

    sim.run(until=sim.spawn(loop()))
    sim.run(until=window_seconds)
    watts = server.meter.energy_joules(0.0, window_seconds) \
        / window_seconds
    return watts, work_seconds


def _ideal_window(utilization: float, window_seconds: float,
                  period_seconds: float,
                  peak_watts: float) -> tuple[float, float]:
    sim = Simulation()
    device = IdealProportionalDevice(sim, "ideal", peak_watts=peak_watts)
    work_seconds = 0.0

    def loop():
        nonlocal work_seconds
        while sim.now < window_seconds - 1e-9:
            busy = utilization * period_seconds
            if busy > 0:
                yield from device.occupy(busy)
                work_seconds += busy
            if period_seconds - busy > 1e-12:
                yield sim.timeout(period_seconds - busy)

    sim.run(until=sim.spawn(loop()))
    sim.run(until=window_seconds)
    watts = device.energy_joules(0.0, window_seconds) / window_seconds
    return watts, work_seconds


def run_duty_cycle(utilization: float,
                   kind: str = "real",
                   window_seconds: float = 100.0,
                   period_seconds: float = 1.0,
                   peak_watts: float | None = None) -> DutyCycleReport:
    """Meter one utilization level on a real or ideal machine."""
    if not 0.0 <= utilization <= 1.0:
        raise WorkloadError("utilization must be in [0, 1]")
    if window_seconds <= 0 or period_seconds <= 0:
        raise WorkloadError("window and period must be positive")
    if kind == "real":
        watts, work = _real_window(utilization, window_seconds,
                                   period_seconds)
    elif kind == "ideal":
        if peak_watts is None or peak_watts <= 0:
            raise WorkloadError(
                "ideal machine needs the real machine's peak_watts")
        watts, work = _ideal_window(utilization, window_seconds,
                                    period_seconds, peak_watts)
    else:
        raise WorkloadError(f"unknown machine kind {kind!r}")
    return DutyCycleReport(kind=kind, utilization=utilization,
                           window_seconds=window_seconds,
                           average_watts=watts, work_seconds=work)
