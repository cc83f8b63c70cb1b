"""The telemetry collector: live capture of spans, meters, counters.

One :class:`TelemetryCollector` is installed process-wide for the
duration of a capture (see :func:`capture`).  While installed:

* every :class:`~repro.hardware.meter.EnergyMeter` constructed
  registers itself, which is how the collector discovers the run's
  devices without the point function passing anything around;
* the executor (and any other instrumented code) opens
  :class:`~repro.telemetry.spans.EnergySpan` phases via :meth:`span`;
* storage hooks bump :meth:`count` counters (buffer hits, WAL flushes,
  prefetch bursts).

Capture is cheap by construction: opening/closing a span snapshots each
device's cumulative busy-seconds (a dict copy), and *all* energy
integration is deferred to :meth:`finalize`, which replays the spans
against the power step functions the devices were recording anyway.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import TYPE_CHECKING, Iterator, Optional

from repro.observe import current_collector, installed
from repro.telemetry.spans import EnergySpan, SpanStack
from repro.telemetry.trace import DeviceTimeline, SpanNode, TelemetryTrace

if TYPE_CHECKING:  # pragma: no cover
    from repro.hardware.device import Device
    from repro.hardware.meter import EnergyMeter
    from repro.sim.engine import Simulation
    from repro.sim.tracing import TimeSeries

#: timeline samples kept per device in the finalized trace; longer
#: power series are downsampled evenly (energy totals stay exact)
DEFAULT_TIMELINE_SAMPLES = 1024


def _integrate_clipped(series: "TimeSeries", t0: float, t1: float) -> float:
    """Integrate a power series over ``[t0, t1]`` clipped to its domain."""
    if not len(series) or t1 <= t0:
        return 0.0
    first = series.first_time
    return series.integrate(max(t0, first), t1) if t1 > first else 0.0


def _downsample(times: list[float], values: list[float],
                limit: int) -> tuple[list[float], list[float]]:
    """Keep at most ``limit`` evenly-spaced samples (first + last
    always survive, so the plotted envelope keeps its endpoints)."""
    n = len(times)
    if n <= limit:
        return list(times), list(values)
    step = (n - 1) / (limit - 1)
    idx = sorted({round(i * step) for i in range(limit)} | {0, n - 1})
    return [times[i] for i in idx], [values[i] for i in idx]


class TelemetryCollector:
    """Accumulates spans, meters, and counters for one capture."""

    def __init__(self,
                 timeline_samples: int = DEFAULT_TIMELINE_SAMPLES) -> None:
        self.timeline_samples = timeline_samples
        self.stack = SpanStack()
        self.counters: dict[str, float] = {}
        self._meters: list["EnergyMeter"] = []

    # -- discovery ---------------------------------------------------

    def register_meter(self, meter: "EnergyMeter") -> None:
        """Called by :class:`EnergyMeter.__init__` while installed."""
        if meter not in self._meters:
            self._meters.append(meter)

    def devices(self) -> list["Device"]:
        """Every device attached to any registered meter, deduplicated
        by name (first registration wins), in name order."""
        seen: dict[str, "Device"] = {}
        for meter in self._meters:
            for device in meter.devices():
                seen.setdefault(device.name, device)
        return [seen[name] for name in sorted(seen)]

    # -- spans -------------------------------------------------------

    def busy_snapshot(self) -> dict[str, float]:
        """Cumulative busy unit-seconds per device, right now."""
        return {d.name: d.busy_seconds() for d in self.devices()}

    @contextmanager
    def span(self, sim: "Simulation", name: str,
             parent: Optional[EnergySpan] = None,
             root: bool = False) -> Iterator[EnergySpan]:
        """Open an energy span for the ``with`` block's sim-time extent.

        Pass ``parent`` explicitly when the block is a generator that
        other simulation processes can interleave with — it pins the
        span into the right tree regardless of the open-span stack.
        ``root=True`` starts a new tree instead (a concurrent process's
        top-level phase must not nest under its neighbours').
        """
        span = self.stack.open(name, sim.now, self.busy_snapshot(),
                               parent=parent, root=root)
        try:
            yield span
        finally:
            self.stack.close(span, sim.now, self.busy_snapshot())

    # -- counters ----------------------------------------------------

    def count(self, name: str, amount: float = 1.0) -> None:
        """Increment a named counter (buffer hits, WAL flushes, ...)."""
        self.counters[name] = self.counters.get(name, 0.0) + amount

    # -- finalize ----------------------------------------------------

    def harvest(self) -> dict:
        """The finalized trace as the runner's payload dict."""
        return self.finalize().to_dict()

    def finalize(self) -> TelemetryTrace:
        """Freeze the capture into a serializable trace.

        Safe to call only once everything of interest has simulated;
        open spans are force-closed at the current sim time.
        """
        devices = self.devices()
        if devices:
            end = max(d.sim.now for d in devices)
            start = min(d.power_series.first_time if len(d.power_series)
                        else 0.0 for d in devices)
        else:
            start = end = 0.0
        self.stack.close_all(end, self.busy_snapshot())

        timelines = []
        for dev in devices:
            series = dev.power_series
            times, watts = _downsample(series.times, series.values,
                                       self.timeline_samples)
            per_unit = getattr(dev, "active_power_per_unit_watts", None)
            busy = dev.busy_seconds()
            timelines.append(DeviceTimeline(
                name=dev.name,
                times=times,
                watts=watts,
                energy_joules=_integrate_clipped(series, start, end),
                active_energy_joules=(busy * per_unit
                                      if per_unit is not None else 0.0),
                busy_seconds=busy,
                n_raw_samples=len(series),
            ))

        nodes = [self._span_to_node(root, devices)
                 for root in self.stack.roots]
        return TelemetryTrace(
            started_at=start,
            ended_at=end,
            devices=timelines,
            spans=nodes,
            counters=dict(self.counters),
        )

    def _span_to_node(self, span: EnergySpan,
                      devices: list["Device"]) -> SpanNode:
        device_joules = {}
        active_joules = {}
        for dev in devices:
            device_joules[dev.name] = _integrate_clipped(
                dev.power_series, span.started_at, span.ended_at)
            per_unit = getattr(dev, "active_power_per_unit_watts", None)
            if per_unit is not None:
                active_joules[dev.name] = (span.busy_delta(dev.name)
                                           * per_unit)
        return SpanNode(
            name=span.name,
            started_at=span.started_at,
            ended_at=span.ended_at,
            device_joules=device_joules,
            active_joules=active_joules,
            children=[self._span_to_node(c, devices)
                      for c in span.children],
        )


@contextmanager
def capture(timeline_samples: int = DEFAULT_TIMELINE_SAMPLES
            ) -> Iterator[TelemetryCollector]:
    """Enable telemetry for the ``with`` block.

    Usage::

        from repro.telemetry import capture

        with capture() as col:
            report = run_scan(compressed=True)
        trace = col.finalize()

    The collector is installed process-globally, so everything the
    block constructs (simulations, servers, executors) feeds it without
    explicit plumbing.  Captures do not nest.
    """
    with installed("telemetry", TelemetryCollector(
            timeline_samples=timeline_samples)) as collector:
        yield collector


__all__ = [
    "DEFAULT_TIMELINE_SAMPLES",
    "TelemetryCollector",
    "capture",
    "current_collector",
]
