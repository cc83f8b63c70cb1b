"""Trace renderers: the terminal energy flamegraph and its tables.

JSON is the interchange form (exactly ``TelemetryTrace.to_dict()``).
The flamegraph is a plain-ASCII rendering for terminals:
one bar per span, width proportional to the span's share of the
capture's metered energy, indented by tree depth.
"""

from __future__ import annotations

from repro.telemetry.trace import TelemetryTrace


def render_flamegraph(trace: TelemetryTrace, width: int = 60,
                      active: bool = False) -> str:
    """An ASCII energy flamegraph of the span forest.

    Bar lengths are proportional to each span's share of the capture's
    total energy — metered by default, busy-time with ``active=True``.
    """
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
