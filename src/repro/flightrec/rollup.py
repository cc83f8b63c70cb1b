"""Windowed time-series rollups over a flight recording.

The recording's raw material is spans and instants; operators read
curves.  This module tumbles the run into fixed windows and produces,
per window: each node's busy fraction and average power draw (idle
draw over powered-on time, active draw over execution spans,
boot/drain lumps landing in the window that contains the transition
instant) and the fleet's total draw.  Summing any node's
per-window ``watts * window`` over all windows reproduces that node's
share of :meth:`~repro.flightrec.events.FlightRecording.
replayed_energy_joules` — both read the recording's own
``on_spans()`` and ``execution_spans()``, so the rollup is a re-binning
of the audit, not a second estimate.
"""

from __future__ import annotations

import math
from typing import Any

from repro.flightrec.events import FlightRecording


def default_window_seconds(end: float) -> float:
    """A window width giving ~60 windows over the run."""
    if end <= 0:
        return 1.0
    return end / 60


def window_starts(end: float, window_seconds: float) -> list[float]:
    n = max(1, math.ceil(end / window_seconds - 1e-9))
    return [i * window_seconds for i in range(n)]


def _overlap(a0: float, a1: float, b0: float, b1: float) -> float:
    return max(0.0, min(a1, b1) - max(a0, b0))


def node_rollup(recording: FlightRecording) -> dict[str, Any]:
    """Per-node busy-fraction and average-watts curves, over
    :func:`default_window_seconds` windows.

    Returns ``{"window_seconds", "t": [starts...], "nodes": [{"name",
    "busy_fraction": [...], "watts": [...]}, ...], "fleet_watts":
    [...]}``.
    """
    end = recording.end
    window_seconds = default_window_seconds(end)
    starts = window_starts(end, window_seconds)
    n_nodes = recording.n_nodes
    idle = [n["model"]["idle_watts"] for n in recording.meta["nodes"]]
    busy = [[0.0] * len(starts) for _ in range(n_nodes)]
    energy = [[0.0] * len(starts) for _ in range(n_nodes)]
    on, lumps = recording.on_spans()

    def each_window(s0: float, s1: float):
        w0 = max(0, int(s0 / window_seconds))
        w1 = min(len(starts) - 1, int(s1 / window_seconds))
        for w in range(w0, w1 + 1):
            t0 = starts[w]
            yield w, _overlap(s0, s1, t0, t0 + window_seconds)

    for i in range(n_nodes):
        for s0, s1, boot_window in on[i]:
            # idle draw runs over the span net of its atomic boot
            # window (the lump already paid for those seconds)
            for w, dt in each_window(s0 + boot_window, s1):
                energy[i][w] += idle[i] * dt
        for t, joules in lumps[i]:
            w = min(len(starts) - 1, int(t / window_seconds))
            energy[i][w] += joules
    for i, s0, s1, watts, _freq in recording.execution_spans():
        for w, dt in each_window(s0, s1):
            busy[i][w] += dt
            energy[i][w] += (watts - idle[i]) * dt

    nodes_out = []
    for i in range(n_nodes):
        nodes_out.append({
            "name": recording.node_name(i),
            "busy_fraction": [b / window_seconds for b in busy[i]],
            "watts": [e / window_seconds for e in energy[i]],
        })
    fleet = [sum(nodes_out[i]["watts"][w] for i in range(n_nodes))
             for w in range(len(starts))]
    return {"window_seconds": window_seconds, "t": starts,
            "nodes": nodes_out, "fleet_watts": fleet}


def summarize(recording: FlightRecording) -> dict[str, Any]:
    """The ``summarize`` CLI's payload: run shape, outcome mix, event
    counts, and the energy audit (replay vs closed form)."""
    meta = recording.meta
    report = meta.get("report", {})
    states: dict[str, int] = {}
    for s in recording.queries["state"]:
        key = s if s is not None else "unresolved"
        states[key] = states.get(key, 0) + 1
    replay = recording.replayed_energy_joules()
    closed = report.get("energy_joules")
    drift = (abs(replay - closed) / closed
             if closed else None)
    b = recording.batches
    held = sum(m for m in b["members"] if m > 1)
    return {
        "engine": meta["engine"],
        "policy": meta["policy"],
        "autoscaled": meta["autoscaled"],
        "nodes": recording.n_nodes,
        "tenants": len(meta["tenants"]),
        "queries": recording.n_queries,
        "end_seconds": recording.end,
        "states": dict(sorted(states.items())),
        "batches": len(b["members"]),
        "queries_batched": held,
        "batch_saved_seconds": math.fsum(
            r - c for r, c in zip(b["raw_seconds"],
                                  b["combined_seconds"])),
        "events": recording.counts(),
        "energy_joules_closed_form": closed,
        "energy_joules_replayed": replay,
        "energy_relative_drift": drift,
    }
