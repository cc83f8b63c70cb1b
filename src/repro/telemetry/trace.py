"""The serializable telemetry capture: span tree + device timelines.

A :class:`TelemetryTrace` is what one traced run produces, frozen into
plain JSON-safe data: a forest of :class:`SpanNode` (each carrying its
per-device metered and busy-time Joules), one :class:`DeviceTimeline`
per metered device (the power step function plus energy totals), and
the counter map the storage hooks incremented.  It speaks the repo's
report protocol — ``to_dict`` / ``from_dict`` invert each other exactly
— so traces ride inside cached point payloads, cross the process-pool
boundary, and appear verbatim in ``RunResult`` JSON.

Two accountings appear side by side, matching the paper:

* ``device_joules`` / ``energy_joules`` — *metered*: the integral of the
  device's power step function over the span's interval (what a wall
  meter attributes to the phase);
* ``active_joules`` / ``active_energy_joules`` — *busy-time*: busy
  unit-seconds inside the span priced at the device's active power
  (Figure 2's "assuming that an idle CPU does not consume any power").
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import ReproError
from repro.records import Record


@dataclass
class SpanNode(Record):
    """One finalized span with per-device energy attribution."""

    name: str
    started_at: float
    ended_at: float
    device_joules: dict[str, float] = field(default_factory=dict)
    active_joules: dict[str, float] = field(default_factory=dict)
    children: list["SpanNode"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        return self.ended_at - self.started_at

    @property
    def total_joules(self) -> float:
        """Metered energy over this span's interval, all devices."""
        return sum(self.device_joules.values())

    @property
    def active_total_joules(self) -> float:
        """Busy-time energy attributed to this span, all devices."""
        return sum(self.active_joules.values())

    def walk(self, depth: int = 0) -> Iterator[tuple[int, "SpanNode"]]:
        """Pre-order traversal as ``(depth, node)`` pairs."""
        yield depth, self
        for child in self.children:
            yield from child.walk(depth + 1)


@dataclass
class DeviceTimeline(Record):
    """One device's power timeline and energy totals over the capture.

    ``times``/``watts`` are the device's power step function (possibly
    downsampled — ``n_raw_samples`` preserves the original count); the
    energy totals are always computed from the *full* series, so
    downsampling only coarsens the plot, never the Joules.
    """

    name: str
    times: list[float] = field(default_factory=list)
    watts: list[float] = field(default_factory=list)
    energy_joules: float = 0.0
    active_energy_joules: float = 0.0
    busy_seconds: float = 0.0
    n_raw_samples: int = 0


@dataclass
class TelemetryTrace(Record):
    """Everything one traced run captured."""

    started_at: float = 0.0
    ended_at: float = 0.0
    devices: list[DeviceTimeline] = field(default_factory=list)
    spans: list[SpanNode] = field(default_factory=list)
    counters: dict[str, float] = field(default_factory=dict)

    # -- summaries ---------------------------------------------------

    @property
    def duration(self) -> float:
        return self.ended_at - self.started_at

    def device(self, name: str) -> DeviceTimeline:
        for dev in self.devices:
            if dev.name == name:
                return dev
        raise ReproError(f"trace has no device {name!r}")

    def device_totals(self) -> dict[str, float]:
        """Metered Joules per device over the whole capture."""
        return {d.name: d.energy_joules for d in self.devices}

    def active_totals(self) -> dict[str, float]:
        """Busy-time Joules per device over the whole capture."""
        return {d.name: d.active_energy_joules for d in self.devices}

    @property
    def total_joules(self) -> float:
        return sum(d.energy_joules for d in self.devices)

    @property
    def active_total_joules(self) -> float:
        return sum(d.active_energy_joules for d in self.devices)

    def attributed_joules(self) -> float:
        """Metered energy covered by the root spans' intervals."""
        return sum(s.total_joules for s in self.spans)

    def unattributed_joules(self) -> float:
        """Capture energy outside every root span (setup, idle tails).

        Conservation: ``attributed + unattributed == total`` whenever
        root spans do not overlap in time (the engine's spans never do
        within one query; concurrent queries overlap by design and then
        attribution intentionally double-counts the shared interval).
        """
        return self.total_joules - self.attributed_joules()

    def all_spans(self) -> Iterator[tuple[int, SpanNode]]:
        """Pre-order traversal of every span in every tree."""
        for root in self.spans:
            yield from root.walk()
