"""Trace exporters: CSV and the terminal energy flamegraph.

JSON is the canonical interchange form (exactly
``TelemetryTrace.to_dict()``); the CSV form is a tidy, typed-row table
that carries every value of the trace (Python's ``str(float)`` is
shortest-repr, so every value survives the text trip bit-exactly).  The
flamegraph is a plain-ASCII rendering for terminals:
one bar per span, width proportional to the span's share of the
capture's metered energy, indented by tree depth.
"""

from __future__ import annotations

import csv
import io
from typing import Optional

from repro.errors import ReproError
from repro.telemetry.trace import SpanNode, TelemetryTrace

# -- CSV -------------------------------------------------------------
#
# One table, one record type per row:
#
#   record   name     device  a            b              c
#   trace    -        -       started_at   ended_at       -
#   span     id:parent.name   -  started_at ended_at      -
#   energy   span id  device  joules       active_joules  -
#   device   name     -       joules       active_joules  busy_seconds
#   sample   -        device  t            watts          -
#   counter  name     -       value        -              -
#
# Span identity: rows carry "id:parent" in the name column's companion
# id fields, where ids are pre-order indices — enough to rebuild the
# exact forest.

CSV_HEADER = ["record", "id", "parent", "name", "device", "a", "b", "c"]


def _span_rows(trace: TelemetryTrace) -> list[list]:
    rows: list[list] = []
    counter = 0

    def visit(span: SpanNode, parent_id) -> None:
        nonlocal counter
        span_id = counter
        counter += 1
        rows.append(["span", span_id,
                     "" if parent_id is None else parent_id,
                     span.name, "", span.started_at, span.ended_at, ""])
        for device in sorted(span.device_joules):
            rows.append(["energy", span_id, "", "", device,
                         span.device_joules[device],
                         span.active_joules.get(device, ""), ""])
        for child in span.children:
            visit(child, span_id)

    for root in trace.spans:
        visit(root, None)
    return rows


def trace_to_csv(trace: TelemetryTrace,
                 point: Optional[int] = None) -> str:
    """The trace as a tidy CSV table.

    ``point`` prefixes every row with a sweep-point index column, for
    concatenating multi-point runs into one file.
    """
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    header = CSV_HEADER if point is None else ["point", *CSV_HEADER]

    def emit(row: list) -> None:
        writer.writerow(row if point is None else [point, *row])

    writer.writerow(header)
    emit(["trace", "", "", "", "", trace.started_at, trace.ended_at, ""])
    for row in _span_rows(trace):
        emit(row)
    for dev in trace.devices:
        emit(["device", "", "", dev.name, "", dev.energy_joules,
              dev.active_energy_joules, dev.busy_seconds])
        for t, w in zip(dev.times, dev.watts):
            emit(["sample", "", "", "", dev.name, t, w, ""])
    for name in sorted(trace.counters):
        emit(["counter", "", "", name, "", trace.counters[name], "", ""])
    return out.getvalue()


# -- terminal rendering ----------------------------------------------


def render_flamegraph(trace: TelemetryTrace, width: int = 60,
                      active: bool = False) -> str:
    """An ASCII energy flamegraph of the span forest.

    Bar lengths are proportional to each span's share of the capture's
    total energy — metered by default, busy-time with ``active=True``.
    """
    if width < 10:
        raise ReproError("flamegraph width must be >= 10")
    total = trace.active_total_joules if active else trace.total_joules
    kind = "busy-time" if active else "metered"
    lines = [f"energy flamegraph ({kind}; 100% = {total:.4g} J over "
             f"{trace.duration:.4g} s)"]
    if total <= 0:
        lines.append("  (no energy recorded)")
        return "\n".join(lines)
    label_width = 2 + max((2 * depth + len(span.name)
                           for depth, span in trace.all_spans()),
                          default=10)
    for root in trace.spans:
        for depth, span in root.walk():
            joules = (span.active_total_joules if active
                      else span.total_joules)
            share = joules / total
            bar = "#" * max(1, round(share * width)) if joules > 0 else "."
            label = "  " * depth + span.name
            lines.append(f"{label:<{label_width}} {bar:<{width}} "
                         f"{joules:>10.4g} J {share:>6.1%}")
    unattributed = trace.unattributed_joules()
    if not active and total > 0 and abs(unattributed) > 1e-9 * total:
        lines.append(f"{'(unattributed)':<{label_width}} "
                     f"{'.':<{width}} {unattributed:>10.4g} J "
                     f"{unattributed / total:>6.1%}")
    return "\n".join(lines)


def device_rows(trace: TelemetryTrace) -> list[tuple]:
    """Per-device breakdown rows for the CLI table: (device, metered J,
    busy-time J, busy s, share of metered total)."""
    total = trace.total_joules
    return [
        (dev.name,
         round(dev.energy_joules, 6),
         round(dev.active_energy_joules, 6),
         round(dev.busy_seconds, 6),
         f"{dev.energy_joules / total:.1%}" if total > 0 else "-")
        for dev in trace.devices
    ]


def counter_rows(trace: TelemetryTrace) -> list[tuple]:
    """Counter rows for the CLI table, name-sorted."""
    return [(name, trace.counters[name])
            for name in sorted(trace.counters)]
