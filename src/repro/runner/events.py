"""Structured progress events streamed while a spec runs.

The runner calls its ``on_event`` sink with these as the run unfolds;
the CLI's default sink pretty-prints them to stderr, and tests can
collect them to assert scheduling behaviour.  Events are advisory —
a raising sink aborts the run, so sinks should be cheap and robust.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Mapping, TextIO


@dataclass(frozen=True)
class RunStarted:
    experiment: str
    spec_hash: str
    total_points: int
    workers: int


@dataclass(frozen=True)
class PointStarted:
    index: int
    total_points: int
    knobs: Mapping[str, Any]


@dataclass(frozen=True)
class PointFinished:
    index: int
    total_points: int
    knobs: Mapping[str, Any]
    sim_seconds: float
    joules: float
    host_seconds: float
    cache_hit: bool


@dataclass(frozen=True)
class PointObserved:
    """Follows ``PointFinished`` once per observation an observed
    point carries (cache hits included); ``kind`` names the observer
    (see :mod:`repro.observe`) and ``observation`` is the decoded
    :class:`~repro.telemetry.trace.TelemetryTrace` (``"telemetry"``) or
    :class:`~repro.flightrec.events.FlightRecording`
    (``"flightrec"``)."""

    index: int
    total_points: int
    knobs: Mapping[str, Any]
    kind: str
    observation: Any
    cache_hit: bool


@dataclass(frozen=True)
class RunFinished:
    experiment: str
    total_points: int
    cache_hits: int
    host_seconds: float


EventSink = Callable[[Any], None]


def _brief_knobs(knobs: Mapping[str, Any]) -> str:
    items = [f"{k}={v}" for k, v in sorted(knobs.items())]
    if len(items) > 4:
        items = items[:4] + ["..."]
    return " ".join(items)


@dataclass
class EventPrinter:
    """The CLI's default sink: one line per event on ``stream``."""

    stream: TextIO = field(default_factory=lambda: __import__("sys").stderr)
    verbose: bool = False

    def __call__(self, event: Any) -> None:
        out = self.stream
        if isinstance(event, RunStarted):
            print(f"run {event.experiment}: {event.total_points} point(s)"
                  f" on {event.workers} worker(s)"
                  f" [spec {event.spec_hash[:12]}]", file=out)
        elif isinstance(event, PointStarted):
            if self.verbose:
                print(f"  [{event.index + 1}/{event.total_points}] "
                      f"start  {_brief_knobs(event.knobs)}", file=out)
        elif isinstance(event, PointFinished):
            tag = "cache " if event.cache_hit else ""
            print(f"  [{event.index + 1}/{event.total_points}] {tag}done"
                  f"  {_brief_knobs(event.knobs)}"
                  f"  sim={event.sim_seconds:.3g}s"
                  f"  E={event.joules:.4g}J"
                  f"  host={event.host_seconds:.2f}s", file=out)
        elif isinstance(event, PointObserved):
            if self.verbose:
                seen = event.observation
                if event.kind == "telemetry":
                    brief = "trace  " + " ".join(
                        f"{k}={v:.4g}J" for k, v
                        in sorted(seen.device_totals().items()))
                else:
                    brief = (f"rec  {seen.n_nodes} node(s)"
                             f"  {seen.n_queries} query(ies)"
                             f"  {len(seen.events)} event(s)")
                print(f"  [{event.index + 1}/{event.total_points}] "
                      f"{brief}", file=out)
        elif isinstance(event, RunFinished):
            print(f"run {event.experiment}: {event.total_points} point(s)"
                  f" in {event.host_seconds:.2f}s host time"
                  f" ({event.cache_hits} cache hit(s))", file=out)
