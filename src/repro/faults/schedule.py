"""Deterministic fault schedules: what breaks, where, and when.

The paper's energy-proportionality argument (§2.4, §5) assumes nodes
can be powered down and brought back at will; a real fleet also loses
nodes it did *not* choose to lose.  A :class:`FaultSchedule` is the
pre-drawn, seeded list of those losses — node crashes, thermal
throttling to a lower DVFS state, disk failures inside a node's RAID
group, and transient dispatch-timeout windows — so a chaos run is as
reproducible as any other experiment in this repo: same seed, same
faults, byte-identical report.

Schedules follow the same discipline as
:class:`~repro.runner.ExperimentSpec`: every field is JSON-scalar,
:meth:`FaultSchedule.to_dict` / :meth:`FaultSchedule.from_dict` invert
exactly.  Generation draws each (node, fault-kind)
lane from its own ``PCG64(SeedSequence([seed, node, kind]))`` Poisson
process, so changing one node's faults never perturbs another's —
the same sub-seeding rule as
:func:`repro.service.workload.build_stream`.

>>> mix = FaultMix(crash_rate_per_node_hour=1.0,
...                crash_downtime_seconds=120.0,
...                throttle_rate_per_node_hour=0.0,
...                disk_rate_per_node_hour=0.0,
...                timeout_rate_per_node_hour=0.0)
>>> schedule = build_fault_schedule(
...     n_nodes=2, horizon_seconds=3600.0, seed=7, mix=mix)
>>> all(e.kind == "crash" for e in schedule.events)
True
>>> schedule == FaultSchedule.from_dict(schedule.to_dict())
True
>>> schedule == build_fault_schedule(
...     n_nodes=2, horizon_seconds=3600.0, seed=7, mix=mix)
True
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator

import numpy as np

from repro.errors import ReproError
from repro.records import Record

#: fault kinds a schedule may carry, in lane order (the integer lane
#: index seeds the kind's PCG64 sub-stream, so adding a kind never
#: reshuffles the existing ones)
FAULT_KINDS = ("crash", "throttle", "disk", "timeout")


class FaultError(ReproError):
    """A fault schedule is malformed or inconsistently applied."""


@dataclass(frozen=True)
class FaultEvent(Record):
    """One scheduled fault on one node.

    ``severity`` is kind-specific: the DVFS fraction for ``throttle``
    (speed and the cubic dynamic-power term both scale with it), the
    degraded speed factor for ``disk`` (service times divide by it
    while the RAID group rebuilds), and unused (0.0) for ``crash`` and
    ``timeout``.
    """

    kind: str
    node: int
    start: float
    duration: float
    severity: float = 0.0

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {self.kind!r}; "
                             f"known: {', '.join(FAULT_KINDS)}")
        if self.node < 0:
            raise FaultError(f"fault on negative node {self.node}")
        if self.start < 0 or self.duration <= 0:
            raise FaultError(
                f"{self.kind} on node {self.node}: need start >= 0 and "
                f"duration > 0, got {self.start}/{self.duration}")
        if self.kind in ("throttle", "disk") and not 0 < self.severity <= 1:
            raise FaultError(
                f"{self.kind} severity must be in (0, 1], got "
                f"{self.severity}")

    @property
    def end(self) -> float:
        return self.start + self.duration


@dataclass(frozen=True)
class FaultSchedule(Record):
    """A time-ordered, reproducible fault plan for one fleet run.

    >>> quiet = FaultSchedule(n_nodes=4, horizon_seconds=100.0)
    >>> len(quiet), quiet.describe()
    (0, 'no faults across 4 nodes over 100s')
    """

    n_nodes: int
    horizon_seconds: float
    events: tuple[FaultEvent, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        if self.n_nodes < 1:
            raise FaultError("schedule needs at least one node")
        if self.horizon_seconds <= 0:
            raise FaultError("schedule horizon must be positive")
        for event in self.events:
            if event.node >= self.n_nodes:
                raise FaultError(
                    f"{event.kind} targets node {event.node} but the "
                    f"schedule covers {self.n_nodes} nodes")
        ordered = tuple(sorted(
            self.events, key=lambda e: (e.start, e.node,
                                        FAULT_KINDS.index(e.kind))))
        object.__setattr__(self, "events", ordered)

    def __len__(self) -> int:
        return len(self.events)

    def __iter__(self) -> Iterator[FaultEvent]:
        return iter(self.events)

    def by_kind(self, kind: str) -> list[FaultEvent]:
        """Events of one kind, in time order."""
        if kind not in FAULT_KINDS:
            raise FaultError(f"unknown fault kind {kind!r}")
        return [e for e in self.events if e.kind == kind]

    def describe(self) -> str:
        """One operator-readable line per kind."""
        parts = []
        for kind in FAULT_KINDS:
            events = self.by_kind(kind)
            if events:
                parts.append(f"{len(events)} {kind}")
        body = ", ".join(parts) if parts else "no faults"
        return (f"{body} across {self.n_nodes} nodes over "
                f"{self.horizon_seconds:.0f}s")


def degraded_speed_factor(raid_width: int,
                          rebuild_overhead: float = 0.2) -> float:
    """Serving speed of a node whose RAID 5 group lost a member.

    A striped read of ``B`` bytes puts ``B / width`` on each member.
    With one member lost, its share is rebuilt from the same stripe on
    every survivor (data plus parity), so each of the ``width - 1``
    survivors reads ``B / width + (B / width) / (width - 1) =
    B / (width - 1)``.  The slowest-member service time therefore
    stretches by ``width / (width - 1)`` and the speed falls to
    ``(width - 1) / width``.  ``rebuild_overhead`` is the extra
    slowdown from rebuild traffic competing with serving I/O.

    >>> round(degraded_speed_factor(8), 6)
    0.729167
    >>> degraded_speed_factor(2, rebuild_overhead=0.0)
    0.5
    """
    if raid_width < 2:
        raise FaultError("degraded operation needs a RAID width >= 2")
    if rebuild_overhead < 0:
        raise FaultError("rebuild overhead cannot be negative")
    reconstruction = (raid_width - 1) / raid_width
    return reconstruction / (1.0 + rebuild_overhead)


@dataclass(frozen=True)
class FaultMix:
    """Per-kind Poisson rates and shapes for :func:`build_fault_schedule`.

    Rates are events per node-hour; ``intensity`` scales all of them at
    once (the sweep axis of the ``chaos_frontier`` experiment).
    """

    crash_rate_per_node_hour: float = 0.8
    crash_downtime_seconds: float = 300.0
    throttle_rate_per_node_hour: float = 0.3
    throttle_duration_seconds: float = 120.0
    throttle_dvfs_fraction: float = 0.7
    disk_rate_per_node_hour: float = 0.1
    rebuild_seconds: float = 180.0
    raid_width: int = 8
    timeout_rate_per_node_hour: float = 0.2
    timeout_duration_seconds: float = 30.0
    intensity: float = 1.0

    def __post_init__(self) -> None:
        if min(self.crash_rate_per_node_hour,
               self.throttle_rate_per_node_hour,
               self.disk_rate_per_node_hour,
               self.timeout_rate_per_node_hour, self.intensity) < 0:
            raise FaultError("fault rates and intensity cannot be negative")
        if min(self.crash_downtime_seconds, self.throttle_duration_seconds,
               self.rebuild_seconds, self.timeout_duration_seconds) <= 0:
            raise FaultError("fault durations must be positive")
        if not 0 < self.throttle_dvfs_fraction <= 1:
            raise FaultError("throttle DVFS fraction must be in (0, 1]")


def build_fault_schedule(n_nodes: int | None = None,
                         horizon_seconds: float = 0.0,
                         seed: int = 0,
                         mix: FaultMix | None = None,
                         fleet: Any = None,
                         **mix_kwargs: Any) -> FaultSchedule:
    """Draw a deterministic Poisson fault plan for a fleet.

    Each (node, kind) lane is an independent Poisson process whose
    PCG64 stream is seeded ``SeedSequence([seed, node, lane])`` —
    stable under changes to every other lane.  Keyword arguments are
    :class:`FaultMix` fields, for callers that don't build the mix
    themselves.

    Passing a :class:`~repro.service.spec.FleetSpec` as ``fleet``
    (instead of ``n_nodes``) switches to *per-class* lanes: each
    node's streams are seeded ``SeedSequence([seed, class_index,
    within_class_index, lane])``, so a class's fault draws are a
    function of its position in the composition, not of the global
    node index — resizing the beefy tier never perturbs the wimpy
    tier's crashes.  The emitted events still target global node
    indices, matching :func:`repro.service.fleet.simulate_service`'s
    node order for that spec.
    """
    if mix is None:
        mix = FaultMix(**mix_kwargs)
    elif mix_kwargs:
        raise FaultError("pass a FaultMix or its fields, not both")
    if (n_nodes is None) == (fleet is None):
        raise FaultError(
            "pass exactly one of n_nodes= or fleet= to size the plan")
    if fleet is not None:
        # (class_index, within_class_index) per global node index
        lane_keys = []
        for ci, node_class in enumerate(fleet.classes):
            lane_keys.extend((ci, wi) for wi in range(node_class.count))
        n_nodes = len(lane_keys)
    else:
        lane_keys = [(node,) for node in range(n_nodes)]
    if n_nodes < 1:
        raise FaultError("schedule needs at least one node")
    if horizon_seconds <= 0:
        raise FaultError("schedule horizon must be positive")

    lanes = (
        ("crash", mix.crash_rate_per_node_hour,
         mix.crash_downtime_seconds, 0.0),
        ("throttle", mix.throttle_rate_per_node_hour,
         mix.throttle_duration_seconds, mix.throttle_dvfs_fraction),
        ("disk", mix.disk_rate_per_node_hour, mix.rebuild_seconds,
         degraded_speed_factor(mix.raid_width)),
        ("timeout", mix.timeout_rate_per_node_hour,
         mix.timeout_duration_seconds, 0.0),
    )
    events: list[FaultEvent] = []
    for node, key in enumerate(lane_keys):
        for lane, (kind, rate, duration, severity) in enumerate(lanes):
            effective = rate * mix.intensity
            if effective <= 0:
                continue
            rng = np.random.default_rng(
                np.random.SeedSequence([seed, *key, lane]))
            mean_gap = 3600.0 / effective
            t = float(rng.exponential(mean_gap))
            while t < horizon_seconds:
                events.append(FaultEvent(kind=kind, node=node, start=t,
                                         duration=duration,
                                         severity=severity))
                t += float(rng.exponential(mean_gap))
    return FaultSchedule(n_nodes=n_nodes, horizon_seconds=horizon_seconds,
                         events=tuple(events), seed=seed)
