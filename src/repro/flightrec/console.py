"""The operator timeline console: one recording, one HTML file.

:func:`render_timeline` turns a
:class:`~repro.flightrec.events.FlightRecording` into a self-contained
HTML page (inline CSS + SVG, no scripts, no external assets — the
observatory dashboard's conventions, including its validated palette):

* a swimlane per node, rasterized to pixel bins with incident
  priority — crashed > degraded (throttle/disk) > downclocked (DVFS)
  > busy > boot window > powered-on idle > off;
* an overlay strip of discrete decisions: autoscaler verdicts,
  emergency scale-ups, boots, drains, crashes;
* per-tenant QED hold spans (first arrival to release) colored by
  flush reason, so held windows and what released them read directly;
* per-tenant SLO burn strips (tumbling windows shaded by error-budget
  burn rate, breach runs outlined);
* the fleet power curve, re-binned from the same spans the energy
  audit prices;
* a held-batch table answering "which queries did QED hold, for how
  long, and what did each held window save".
"""

from __future__ import annotations

from typing import Any, Optional

from repro.flightrec.events import (BOOT, CRASH, DISK_FAIL, DISK_RECOVER,
                                    DRAIN, EMERGENCY_SCALE, SCALE,
                                    THROTTLE_END, THROTTLE_START,
                                    FlightRecording)
from repro.flightrec.rollup import node_rollup
from repro.flightrec.slo import SLOMonitor
from repro.observatory.dashboard import STYLESHEET, _esc

# lane raster state codes, ascending paint priority
_OFF, _ON, _BOOT, _BUSY, _DOWNCLOCK, _DEGRADED, _CRASHED = range(7)
_STATE_FILL = {
    _ON: "var(--surface-2)",
    _BOOT: "var(--s7)",
    _BUSY: "var(--s1)",
    _DOWNCLOCK: "var(--s3)",
    _DEGRADED: "var(--warn)",
    _CRASHED: "var(--bad)",
}
_STATE_LABEL = (
    (_BUSY, "busy (full speed)"), (_DOWNCLOCK, "busy (downclocked)"),
    (_DEGRADED, "throttle/disk window"), (_CRASHED, "crashed"),
    (_BOOT, "boot window"), (_ON, "on, idle"),
)

_LANE_H = 14
_LANE_GAP = 4
_LABEL_W = 90


def _fmt(value: Optional[float], digits: int = 2) -> str:
    if value is None:
        return "-"
    return f"{value:,.{digits}f}"


def _legend(entries) -> str:
    return ('<div class="legend">' + "".join(
        f'<span><span class="swatch" style="background:{color}">'
        f'</span>{_esc(label)}</span>' for label, color in entries)
        + "</div>")


def _runs(states: list[int]):
    """Run-length encode a raster lane: (x0, x1, state), state > OFF."""
    out = []
    x0 = 0
    for x in range(1, len(states) + 1):
        if x == len(states) or states[x] != states[x0]:
            if states[x0] != _OFF:
                out.append((x0, x, states[x0]))
            x0 = x
    return out


def _node_lanes(recording: FlightRecording, width: int) -> str:
    """The per-node swimlane SVG plus its decision-overlay strip."""
    end = recording.end or 1.0
    n_nodes = recording.n_nodes
    px = end / width

    def bins(t0: float, t1: float):
        b0 = max(0, min(width - 1, int(t0 / px)))
        b1 = max(0, min(width - 1, int(max(t0, t1 - 1e-12) / px)))
        return range(b0, b1 + 1)

    lanes = [[_OFF] * width for _ in range(n_nodes)]

    def paint(i: int, t0: float, t1: float, state: int) -> None:
        lane = lanes[i]
        for b in bins(t0, t1):
            if state > lane[b]:
                lane[b] = state

    on, _lumps = recording.on_spans()
    for i in range(n_nodes):
        for s0, s1, boot_window in on[i]:
            paint(i, s0, s1, _ON)
            if boot_window > 0:
                paint(i, s0, min(s1, s0 + boot_window), _BOOT)
    for i, s0, s1, _watts, freq in recording.execution_spans():
        paint(i, s0, s1, _DOWNCLOCK if freq < 1.0 else _BUSY)
    open_window: dict[tuple[int, str], float] = {}
    for e in recording.events:
        if e.kind in (THROTTLE_START, DISK_FAIL):
            open_window.setdefault((e.node, e.kind), e.t)
        elif e.kind == THROTTLE_END:
            t0 = open_window.pop((e.node, THROTTLE_START), None)
            if t0 is not None:
                paint(e.node, t0, e.t, _DEGRADED)
        elif e.kind == DISK_RECOVER:
            t0 = open_window.pop((e.node, DISK_FAIL), None)
            if t0 is not None:
                paint(e.node, t0, e.t, _DEGRADED)
        elif e.kind == CRASH:
            paint(e.node, e.t, min(end, e.data.get("repair_at", end)),
                  _CRASHED)
    for (i, kind), t0 in open_window.items():
        paint(i, t0, end, _DEGRADED)

    strip_h = 12
    height = strip_h + n_nodes * (_LANE_H + _LANE_GAP) + 16
    parts = [f'<svg width="{_LABEL_W + width}" height="{height}" '
             f'viewBox="0 0 {_LABEL_W + width} {height}" '
             'role="img" aria-label="node timeline">']
    # decision overlay strip: one tick per discrete verdict
    tick_color = {SCALE: "var(--accent)", EMERGENCY_SCALE: "var(--bad)",
                  BOOT: "var(--ok)", DRAIN: "var(--text-secondary)",
                  CRASH: "var(--bad)"}
    for e in recording.events:
        color = tick_color.get(e.kind)
        if color is None:
            continue
        x = _LABEL_W + min(width - 1, int(e.t / px))
        parts.append(f'<rect x="{x}" y="0" width="2" '
                     f'height="{strip_h - 2}" fill="{color}">'
                     f'<title>{_esc(e.kind)} @ {e.t:.1f}s</title></rect>')
    for i in range(n_nodes):
        y = strip_h + i * (_LANE_H + _LANE_GAP)
        parts.append(f'<text x="0" y="{y + _LANE_H - 3}">'
                     f'{_esc(recording.node_name(i))}</text>')
        parts.append(f'<rect x="{_LABEL_W}" y="{y}" width="{width}" '
                     f'height="{_LANE_H}" fill="none" '
                     'stroke="var(--grid)"/>')
        for x0, x1, state in _runs(lanes[i]):
            parts.append(
                f'<rect x="{_LABEL_W + x0}" y="{y}" '
                f'width="{x1 - x0}" height="{_LANE_H}" '
                f'fill="{_STATE_FILL[state]}"/>')
    axis_y = strip_h + n_nodes * (_LANE_H + _LANE_GAP) + 10
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        x = _LABEL_W + int(frac * (width - 1))
        parts.append(f'<text x="{x}" y="{axis_y}" '
                     f'text-anchor="middle">{frac * end:.0f}s</text>')
    parts.append("</svg>")
    return "".join(parts)


def _hold_lanes(recording: FlightRecording, width: int) -> str:
    """Per-tenant QED hold spans (first arrival to release)."""
    b = recording.batches
    if not b["members"]:
        return '<p class="sub">no shared batches in this recording</p>'
    end = recording.end or 1.0
    px = end / width
    arrival = recording.queries["arrival"]
    tenant = recording.queries["tenant"]
    n_t = len(recording.meta["tenants"])
    reason_color = {"deadline": "var(--s1)", "full": "var(--s2)",
                    "flush": "var(--s4)", "solo": "var(--grid)"}
    height = n_t * (_LANE_H + _LANE_GAP) + 16
    parts = [f'<svg width="{_LABEL_W + width}" height="{height}" '
             f'viewBox="0 0 {_LABEL_W + width} {height}" '
             'role="img" aria-label="QED hold windows">']
    for ti in range(n_t):
        y = ti * (_LANE_H + _LANE_GAP)
        parts.append(f'<text x="0" y="{y + _LANE_H - 3}">'
                     f'{_esc(recording.tenant_name(ti))}</text>')
        parts.append(f'<rect x="{_LABEL_W}" y="{y}" width="{width}" '
                     f'height="{_LANE_H}" fill="none" '
                     'stroke="var(--grid)"/>')
    for idx in range(len(b["members"])):
        first = b["first"][idx]
        ti = tenant[first]
        t0 = arrival[first]
        t1 = b["release_at"][idx]
        x0 = _LABEL_W + min(width - 1, int(t0 / px))
        x1 = _LABEL_W + min(width - 1, int(t1 / px))
        y = ti * (_LANE_H + _LANE_GAP)
        color = reason_color.get(b["reason"][idx], "var(--s5)")
        parts.append(
            f'<rect x="{x0}" y="{y + 2}" width="{max(1, x1 - x0)}" '
            f'height="{_LANE_H - 4}" fill="{color}">'
            f'<title>batch {idx}: {b["members"][idx]} queries held '
            f'{t1 - t0:.2f}s ({_esc(b["reason"][idx])})</title></rect>')
    parts.append("</svg>")
    return "".join(parts)


def _burn_strips(monitor: SLOMonitor, width: int) -> str:
    """Per-tenant SLO burn strips; cell opacity tracks burn rate."""
    tenants = monitor.tenants()
    if not tenants:
        return ""
    height = len(tenants) * (_LANE_H + _LANE_GAP) + 4
    parts = [f'<svg width="{_LABEL_W + width}" height="{height}" '
             f'viewBox="0 0 {_LABEL_W + width} {height}" '
             'role="img" aria-label="SLO burn">']
    for row, slo in enumerate(tenants):
        y = row * (_LANE_H + _LANE_GAP)
        parts.append(f'<text x="0" y="{y + _LANE_H - 3}">'
                     f'{_esc(slo.tenant)}</text>')
        parts.append(f'<rect x="{_LABEL_W}" y="{y}" width="{width}" '
                     f'height="{_LANE_H}" fill="none" '
                     'stroke="var(--grid)"/>')
        n_w = len(slo.windows)
        if not n_w:
            continue
        cell = width / n_w
        for wi, w in enumerate(slo.windows):
            if w.burn <= 0:
                continue
            color = "var(--bad)" if w.burn >= 1.0 else "var(--warn)"
            opacity = min(1.0, 0.25 + 0.75 * min(w.burn, 2.0) / 2.0)
            parts.append(
                f'<rect x="{_LABEL_W + wi * cell:.1f}" y="{y + 1}" '
                f'width="{max(cell, 1):.1f}" height="{_LANE_H - 2}" '
                f'fill="{color}" fill-opacity="{opacity:.2f}">'
                f'<title>{_esc(slo.tenant)} [{w.start:.0f}s, '
                f'{w.end:.0f}s): burn {w.burn:.2f} '
                f'({w.breached}/{w.completed} missed)</title></rect>')
    parts.append("</svg>")
    return "".join(parts)


def _power_strip(rollup: dict[str, Any], width: int) -> str:
    fleet = rollup["fleet_watts"]
    if not fleet:
        return ""
    h = 60
    top = max(fleet) or 1.0
    n = len(fleet)
    pts = " ".join(
        f"{_LABEL_W + (i + 0.5) * width / n:.1f},"
        f"{h - (w / top) * (h - 12):.1f}"
        for i, w in enumerate(fleet))
    return (f'<svg width="{_LABEL_W + width}" height="{h + 4}" '
            f'viewBox="0 0 {_LABEL_W + width} {h + 4}" role="img" '
            'aria-label="fleet power">'
            f'<text x="0" y="16">{top:,.0f} W</text>'
            f'<polyline points="{pts}" fill="none" '
            'stroke="var(--accent)" stroke-width="1.5"/></svg>')


def _batch_table(recording: FlightRecording, limit: int = 12) -> str:
    b = recording.batches
    shared = [i for i in range(len(b["members"])) if b["members"][i] > 1]
    if not shared:
        return ""
    idle = [n["model"]["idle_watts"] for n in recording.meta["nodes"]]
    speed = [n["model"]["speed_factor"]
             for n in recording.meta["nodes"]]
    arrival = recording.queries["arrival"]

    def saved_joules(i: int) -> float:
        node = b["node"][i]
        if node is None:
            return 0.0
        watts = b["watts"][i]
        active = (watts - idle[node]) if watts is not None else 0.0
        return active * (b["raw_seconds"][i] - b["combined_seconds"][i]) \
            / speed[node]

    shared.sort(key=saved_joules, reverse=True)
    total = sum(saved_joules(i) for i in shared)
    rows = []
    for i in shared[:limit]:
        first = b["first"][i]
        held = b["release_at"][i] - arrival[first]
        rows.append(
            "<tr>"
            f'<td class="num">{i}</td>'
            f'<td>{_esc(recording.tenant_name(recording.queries["tenant"][first]))}</td>'
            f'<td class="num">{b["members"][i]}</td>'
            f'<td class="num">{held:.2f}</td>'
            f'<td>{_esc(b["reason"][i])}</td>'
            f'<td class="num">{b["raw_seconds"][i]:.2f}</td>'
            f'<td class="num">{b["combined_seconds"][i]:.2f}</td>'
            f'<td class="num">{saved_joules(i):,.0f}</td>'
            "</tr>")
    return (
        f'<h2>Held batches</h2><p class="sub">{len(shared)} shared '
        f'batch(es); estimated {total:,.0f} active J saved vs solo '
        'execution (top savers below)</p>'
        "<table><thead><tr><th>batch</th><th>tenant</th>"
        "<th>queries</th><th>held s</th><th>release</th>"
        "<th>raw s</th><th>shared s</th><th>est J saved</th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>")


def render_timeline(recording: FlightRecording,
                    title: Optional[str] = None,
                    width: int = 900,
                    slo_window_seconds: float = 60.0) -> str:
    """Render the whole operator console as one HTML string."""
    meta = recording.meta
    report = meta.get("report", {})
    monitor = SLOMonitor(recording, window_seconds=slo_window_seconds)
    rollup = node_rollup(recording)
    title = title or (f"flight recording — {meta['policy']} "
                      f"({meta['engine']})")

    states = {}
    for s in recording.queries["state"]:
        states[s] = states.get(s, 0) + 1
    tiles = [
        ("engine", meta["engine"]),
        ("policy", meta["policy"]),
        ("queries", f"{recording.n_queries:,}"),
        ("completed", f"{states.get('done', 0):,}"),
        ("makespan", f"{recording.end:,.1f} s"),
        ("energy", f"{report.get('energy_joules', 0.0):,.0f} J"),
        ("SLO breached",
         ", ".join(t.tenant for t in monitor.tenants() if t.breached)
         or "none"),
    ]
    tiles_html = '<div class="tiles">' + "".join(
        f'<div class="tile"><div class="v">{_esc(v)}</div>'
        f'<div class="k">{_esc(k)}</div></div>' for k, v in tiles) \
        + "</div>"

    doc = [
        "<!doctype html><html><head><meta charset='utf-8'>",
        f"<title>{_esc(title)}</title><style>{STYLESHEET}</style>"
        "</head><body>",
        f"<h1>{_esc(title)}</h1>",
        f'<p class="sub">{recording.n_nodes} node(s), '
        f'{len(meta["tenants"])} tenant(s), '
        f'{len(recording.events)} event(s)</p>',
        tiles_html,
        "<h2>Node timeline</h2>",
        _legend([(label, _STATE_FILL[s]) for s, label in _STATE_LABEL]),
        _node_lanes(recording, width),
        "<h2>QED hold windows</h2>",
        _legend([("deadline release", "var(--s1)"),
                 ("released full", "var(--s2)"),
                 ("end-of-run flush", "var(--s4)")]),
        _hold_lanes(recording, width),
        "<h2>Tenant SLO burn "
        f"(window {slo_window_seconds:.0f}s)</h2>",
        _burn_strips(monitor, width),
        "<h2>Fleet power</h2>",
        _power_strip(rollup, width),
        _batch_table(recording),
        "</body></html>",
    ]
    return "".join(doc)
