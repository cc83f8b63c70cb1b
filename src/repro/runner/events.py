"""Structured progress events streamed while a spec runs.

The runner calls its ``on_event`` sink with these as the run unfolds;
the CLI's default sink pretty-prints them to stderr, and tests can
collect them to assert scheduling behaviour.  Events are advisory —
a raising sink aborts the run, so sinks should be cheap and robust.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Any, Callable, Mapping


@dataclass(frozen=True)
class RunStarted:
    experiment: str
    spec_hash: str
    total_points: int
    workers: int


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


class EventPrinter:
    """The CLI's default sink: one line per event on stderr."""

    def __call__(self, event: Any) -> None:
        out = sys.stderr
        if isinstance(event, RunStarted):
            print(f"run {event.experiment}: {event.total_points} point(s)"
                  f" on {event.workers} worker(s)"
                  f" [spec {event.spec_hash[:12]}]", file=out)
        elif isinstance(event, PointFinished):
            tag = "cache " if event.cache_hit else ""
            print(f"  [{event.index + 1}/{event.total_points}] {tag}done"
                  f"  {_brief_knobs(event.knobs)}"
                  f"  sim={event.sim_seconds:.3g}s"
                  f"  E={event.joules:.4g}J"
                  f"  host={event.host_seconds:.2f}s", file=out)
        elif isinstance(event, RunFinished):
            print(f"run {event.experiment}: {event.total_points} point(s)"
                  f" in {event.host_seconds:.2f}s host time"
                  f" ({event.cache_hits} cache hit(s))", file=out)
