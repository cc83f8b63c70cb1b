"""The energy-trend dashboard: one self-contained HTML file.

``render_dashboard`` folds the suite ledgers into a static page —
no JavaScript, no external assets, just inline CSS and SVG — so the
report survives as a CI artifact and opens anywhere:

* **stat tiles**: suites / series / records / latest commit;
* **trend sparklines**: per longitudinal series, simulated Joules (and
  efficiency where defined) over append sequence;
* **device power timelines**: the step functions stored by the most
  recent *traced* record of each suite — §3.1's "where does the energy
  go" as a picture;
* **frontier chart**: Joules vs. records/s per series, the Figure 1
  trade-off restated over the whole catalog;
* optionally, the latest :class:`RegressionReport` as a verdict table.

Chart conventions follow the repo's viz ground rules: single-hue
sparklines, one categorical hue per device held in fixed slot order
with a legend and direct labels, a single y-axis per plot, values in
text ink rather than series color, and light/dark styling driven by
``prefers-color-scheme`` from one set of custom properties.
"""

from __future__ import annotations

import html
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.observatory.history import HistoryStore
from repro.observatory.record import BenchRecord
from repro.observatory.regression import RegressionReport

#: fixed categorical slot order (validated palette; devices take slots
#: in first-seen order and never re-map when a device disappears).
#: Public: the flight-recorder timeline console reuses these so every
#: HTML artifact the repo emits shares one palette.
SERIES_LIGHT = ("#2a78d6", "#eb6834", "#1baf7a", "#eda100",
                "#e87ba4", "#008300", "#4a3aa7", "#e34948")
SERIES_DARK = ("#3987e5", "#d95926", "#199e70", "#c98500",
               "#d55181", "#008300", "#9085e9", "#e66767")

_CSS = """
:root {
  color-scheme: light dark;
  --surface-1: #fcfcfb; --surface-2: #f4f3f1;
  --text-primary: #0b0b0b; --text-secondary: #52514e;
  --grid: #e4e2de; --accent: #2a78d6;
  --ok: #008300; --bad: #e34948; --warn: #eda100;
%SERIES_LIGHT%
}
@media (prefers-color-scheme: dark) {
  :root {
    --surface-1: #1a1a19; --surface-2: #242422;
    --text-primary: #ffffff; --text-secondary: #c3c2b7;
    --grid: #383835; --accent: #3987e5;
    --ok: #00a300; --bad: #e66767; --warn: #c98500;
%SERIES_DARK%
  }
}
* { box-sizing: border-box; }
body {
  margin: 0; padding: 24px; background: var(--surface-1);
  color: var(--text-primary);
  font: 14px/1.45 system-ui, -apple-system, "Segoe UI", sans-serif;
}
h1 { font-size: 20px; margin: 0 0 4px; }
h2 { font-size: 16px; margin: 28px 0 8px; }
h3 { font-size: 13px; font-weight: 600; margin: 12px 0 4px;
     color: var(--text-secondary); }
.sub { color: var(--text-secondary); margin-bottom: 20px; }
.tiles { display: flex; flex-wrap: wrap; gap: 12px; margin: 16px 0; }
.tile {
  background: var(--surface-2); border-radius: 8px;
  padding: 12px 16px; min-width: 130px;
}
.tile .v { font-size: 22px; font-weight: 650; }
.tile .k { font-size: 12px; color: var(--text-secondary); }
.cards { display: flex; flex-wrap: wrap; gap: 12px; }
.card {
  background: var(--surface-2); border-radius: 8px; padding: 12px;
}
.card .name { font-size: 12px; font-weight: 600; }
.card .val  { font-size: 12px; color: var(--text-secondary); }
table { border-collapse: collapse; margin-top: 8px; }
th, td {
  text-align: left; padding: 4px 12px 4px 0; font-size: 13px;
  border-bottom: 1px solid var(--grid);
}
th { color: var(--text-secondary); font-weight: 600; }
td.num { font-variant-numeric: tabular-nums; }
.verdict-regression, .verdict-changed, .verdict-missing
  { color: var(--bad); font-weight: 600; }
.verdict-improvement { color: var(--ok); font-weight: 600; }
.verdict-new { color: var(--warn); }
.legend { display: flex; gap: 16px; flex-wrap: wrap;
          font-size: 12px; color: var(--text-secondary);
          margin: 4px 0 8px; }
.legend .swatch { display: inline-block; width: 10px; height: 10px;
                  border-radius: 3px; margin-right: 5px;
                  vertical-align: -1px; }
svg text { fill: var(--text-secondary); font-size: 10px;
           font-family: inherit; }
"""

#: the rendered stylesheet (palette substituted).  Public, like the
#: palette: the flight-recorder console's rules are a subset of these,
#: so it inlines this sheet (and borrows ``_esc``) rather than restate it
STYLESHEET = (
    _CSS.replace("%SERIES_LIGHT%", "\n".join(
        f"  --s{i + 1}: {c};" for i, c in enumerate(SERIES_LIGHT)))
    .replace("%SERIES_DARK%", "\n".join(
        f"    --s{i + 1}: {c};" for i, c in enumerate(SERIES_DARK))))


def _esc(text: Any) -> str:
    return html.escape(str(text), quote=True)


def _fmt(value: Optional[float]) -> str:
    if value is None:
        return "-"
    if value == 0:
        return "0"
    if abs(value) >= 1000 or abs(value) < 0.01:
        return f"{value:.3g}"
    return f"{value:.2f}"


def _scale(values: Sequence[float], lo: float, hi: float
           ) -> list[float]:
    vmin, vmax = min(values), max(values)
    if vmax - vmin <= 0:
        return [(lo + hi) / 2.0 for _ in values]
    span = vmax - vmin
    return [lo + (v - vmin) / span * (hi - lo) for v in values]


def sparkline_svg(values: Sequence[float], width: int = 150,
                  height: int = 36,
                  color: str = "var(--accent)") -> str:
    """A trend sparkline: 2px line, endpoint dot, no axes."""
    if not values:
        return ""
    if len(values) == 1:
        values = [values[0], values[0]]
    xs = _scale(list(range(len(values))), 3, width - 5)
    ys = _scale(values, height - 4, 4)  # y grows downward
    pts = " ".join(f"{x:.1f},{y:.1f}" for x, y in zip(xs, ys))
    return (
        f'<svg width="{width}" height="{height}" role="img" '
        f'aria-label="trend of {len(values)} runs">'
        f'<polyline points="{pts}" fill="none" stroke="{color}" '
        f'stroke-width="2" stroke-linejoin="round" '
        f'stroke-linecap="round"/>'
        f'<circle cx="{xs[-1]:.1f}" cy="{ys[-1]:.1f}" r="3" '
        f'fill="{color}"/></svg>')


def timeline_svg(timelines: Sequence[Mapping[str, Any]],
                 width: int = 560, height: int = 170) -> str:
    """Per-device power step functions on one time axis, one y-axis."""
    series = [t for t in timelines if t.get("times") and t.get("watts")]
    if not series:
        return ""
    t_max = max(max(t["times"]) for t in series) or 1.0
    w_max = max(max(t["watts"]) for t in series) or 1.0
    left, right, top, bottom = 42, 10, 8, 22
    px = width - left - right
    py = height - top - bottom

    def x_of(t: float) -> float:
        return left + t / t_max * px

    def y_of(w: float) -> float:
        return top + (1.0 - w / w_max) * py

    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'aria-label="device power timelines">']
    # recessive grid: three horizontal rules + labels
    for frac in (0.0, 0.5, 1.0):
        y = y_of(w_max * frac)
        parts.append(f'<line x1="{left}" y1="{y:.1f}" x2="{width-right}"'
                     f' y2="{y:.1f}" stroke="var(--grid)"'
                     f' stroke-width="1"/>')
        parts.append(f'<text x="{left-6}" y="{y+3:.1f}"'
                     f' text-anchor="end">{_fmt(w_max*frac)}</text>')
    parts.append(f'<text x="{left}" y="{height-6}">0 s</text>')
    parts.append(f'<text x="{width-right}" y="{height-6}"'
                 f' text-anchor="end">{_fmt(t_max)} s</text>')
    for slot, dev in enumerate(series):
        color = f"var(--s{slot % len(SERIES_LIGHT) + 1})"
        pts = []
        prev_y = None
        for t, w in zip(dev["times"], dev["watts"]):
            x, y = x_of(t), y_of(w)
            if prev_y is not None:          # step, not slope
                pts.append(f"{x:.1f},{prev_y:.1f}")
            pts.append(f"{x:.1f},{y:.1f}")
            prev_y = y
        if prev_y is not None:
            pts.append(f"{width-right:.1f},{prev_y:.1f}")
        parts.append(f'<polyline points="{" ".join(pts)}" fill="none" '
                     f'stroke="{color}" stroke-width="2"/>')
        # direct label at the series' last level, in text ink
        parts.append(f'<text x="{width-right-2}" '
                     f'y="{(prev_y or top)-4:.1f}" text-anchor="end">'
                     f'{_esc(dev["name"])}</text>')
    parts.append("</svg>")
    return "".join(parts)


def frontier_svg(points: Sequence[tuple[str, float, float]],
                 width: int = 560, height: int = 220) -> str:
    """Joules (y) vs records/s (x): the Figure 1 trade-off restated.

    ``points`` are ``(label, records_per_second, joules)``; every dot
    is the same accent hue with a direct label — identity never rides
    on color here (a scatter is an all-pairs chart).
    """
    usable = [(n, x, y) for n, x, y in points if x > 0 and y > 0]
    if not usable:
        return ""
    left, right, top, bottom = 56, 14, 10, 30
    xs = _scale([x for _, x, _ in usable], left, width - right)
    ys = _scale([y for _, _, y in usable], height - bottom, top)
    x_lo = min(x for _, x, _ in usable)
    x_hi = max(x for _, x, _ in usable)
    y_lo = min(y for _, _, y in usable)
    y_hi = max(y for _, _, y in usable)
    parts = [f'<svg width="{width}" height="{height}" role="img" '
             f'aria-label="energy vs throughput frontier">']
    parts.append(f'<line x1="{left}" y1="{top}" x2="{left}" '
                 f'y2="{height-bottom}" stroke="var(--grid)"/>')
    parts.append(f'<line x1="{left}" y1="{height-bottom}" '
                 f'x2="{width-right}" y2="{height-bottom}" '
                 f'stroke="var(--grid)"/>')
    parts.append(f'<text x="{left-6}" y="{height-bottom}" '
                 f'text-anchor="end">{_fmt(y_lo)}</text>')
    parts.append(f'<text x="{left-6}" y="{top+8}" text-anchor="end">'
                 f'{_fmt(y_hi)}</text>')
    parts.append(f'<text x="{left}" y="{height-8}">{_fmt(x_lo)}</text>')
    parts.append(f'<text x="{width-right}" y="{height-8}" '
                 f'text-anchor="end">{_fmt(x_hi)}</text>')
    parts.append(f'<text x="{width-right}" y="{height-bottom-6}" '
                 f'text-anchor="end">records/s →</text>')
    parts.append(f'<text x="{left+4}" y="{top+8}">Joules ↑</text>')
    for (name, _, _), x, y in zip(usable, xs, ys):
        parts.append(f'<circle cx="{x:.1f}" cy="{y:.1f}" r="4" '
                     f'fill="var(--accent)" stroke="var(--surface-1)" '
                     f'stroke-width="2"><title>{_esc(name)}</title>'
                     f'</circle>')
        parts.append(f'<text x="{x+7:.1f}" y="{y+3:.1f}">'
                     f'{_esc(name)}</text>')
    parts.append("</svg>")
    return "".join(parts)


# -- page assembly ---------------------------------------------------

#: the sparkline metric per card, in preference order
_TREND_METRICS = ("joules", "sim_seconds")


def _series_card(key: tuple[str, str],
                 history: Sequence[BenchRecord]) -> str:
    benchmark, point = key
    metric = next((m for m in _TREND_METRICS
                   if any(m in r.metrics for r in history)), None)
    if metric is None:
        # no preferred metric: fall back to any recorded metric so
        # every suite renders a trend without per-suite wiring
        seen = sorted({m for r in history for m in r.metrics})
        if not seen:
            return ""
        metric = seen[0]
    values = [r.metrics[metric] for r in history if metric in r.metrics]
    latest = values[-1]
    eff = history[-1].metrics.get("records_per_second_per_watt")
    eff_txt = (f" · {_fmt(eff)} rec/s/W" if eff is not None else "")
    return (
        '<div class="card">'
        f'<div class="name">{_esc(benchmark)} · {_esc(point)}</div>'
        f'{sparkline_svg(values)}'
        f'<div class="val">{_esc(metric)}: {_fmt(latest)}'
        f'{eff_txt} · {len(history)} run(s)</div>'
        '</div>')


def _latest_timelines(records: Sequence[BenchRecord]
                      ) -> Optional[BenchRecord]:
    for record in reversed(records):
        if record.timelines:
            return record
    return None


def _regression_table(report: RegressionReport) -> str:
    rows = report.rows()
    if not rows:
        return ('<p class="sub">No deviations: every gated metric '
                'reproduced its baseline.</p>')
    cells = []
    for verdict, suite, bench, point, metric, base, cur, pct in rows:
        cells.append(
            f'<tr><td class="verdict-{_esc(verdict)}">{_esc(verdict)}'
            f'</td><td>{_esc(suite)}</td><td>{_esc(bench)}</td>'
            f'<td>{_esc(point)}</td><td>{_esc(metric)}</td>'
            f'<td class="num">{_esc(base)}</td>'
            f'<td class="num">{_esc(cur)}</td>'
            f'<td class="num">{_esc(pct)}</td></tr>')
    return ('<table><tr><th>verdict</th><th>suite</th><th>benchmark'
            '</th><th>point</th><th>metric</th><th>baseline</th>'
            '<th>current</th><th>Δ%</th></tr>'
            + "".join(cells) + "</table>")


def _device_legend(timelines: Sequence[Mapping[str, Any]]) -> str:
    if len(timelines) < 2:
        return ""
    items = []
    for slot, dev in enumerate(timelines):
        color = f"var(--s{slot % len(SERIES_LIGHT) + 1})"
        items.append(f'<span><span class="swatch" '
                     f'style="background:{color}"></span>'
                     f'{_esc(dev["name"])}</span>')
    return f'<div class="legend">{"".join(items)}</div>'


def render_dashboard(store: HistoryStore,
                     suites: Optional[Iterable[str]] = None,
                     report: Optional[RegressionReport] = None,
                     title: str = "repro.observatory") -> str:
    """The whole ledger as one self-contained HTML page."""
    names = list(suites) if suites is not None else store.suites()
    all_series: dict[str, dict[tuple[str, str],
                               list[BenchRecord]]] = {}
    for suite in names:
        series = store.series(suite)
        if series:
            all_series[suite] = series

    n_series = sum(len(s) for s in all_series.values())
    n_records = sum(len(h) for s in all_series.values()
                    for h in s.values())
    latest_sha = "-"
    latest_at = ""
    for series in all_series.values():
        for history in series.values():
            record = history[-1]
            if record.recorded_at >= latest_at:
                latest_at = record.recorded_at
                latest_sha = record.git_sha

    body = [f"<h1>{_esc(title)}</h1>",
            '<div class="sub">Longitudinal benchmark history — '
            'simulated seconds, Joules, and efficiency per suite, '
            'with regression verdicts.</div>']
    body.append(
        '<div class="tiles">'
        + "".join(
            f'<div class="tile"><div class="v">{_esc(v)}</div>'
            f'<div class="k">{_esc(k)}</div></div>'
            for k, v in (("suites", len(all_series)),
                         ("series", n_series),
                         ("records", n_records),
                         ("latest commit", latest_sha)))
        + "</div>")

    if report is not None:
        body.append("<h2>Regression verdicts</h2>")
        body.append(f'<p class="sub">{_esc(report.summary())}</p>')
        body.append(_regression_table(report))

    for suite, series in all_series.items():
        body.append(f"<h2>Suite: {_esc(suite)}</h2>")
        cards = [_series_card(key, history)
                 for key, history in series.items()]
        body.append('<div class="cards">'
                    + "".join(c for c in cards if c) + "</div>")

        traced = _latest_timelines(
            [r for history in series.values() for r in history])
        if traced is not None:
            body.append(f"<h3>Device power — {_esc(traced.benchmark)} "
                        f"· {_esc(traced.point)} "
                        f"(commit {_esc(traced.git_sha)})</h3>")
            body.append(_device_legend(traced.timelines))
            body.append(timeline_svg(traced.timelines))

        frontier = [
            (f"{bench} · {point}",
             history[-1].metrics.get("records_per_second", 0.0),
             history[-1].metrics.get("joules", 0.0))
            for (bench, point), history in series.items()]
        chart = frontier_svg(frontier)
        if chart:
            body.append("<h3>Energy vs. throughput frontier "
                        "(latest run per series)</h3>")
            body.append(chart)

    if not all_series:
        body.append('<p class="sub">No history recorded yet — run '
                    '<code>python -m repro.observatory record'
                    '</code>.</p>')

    return ("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n"
            "<meta charset=\"utf-8\">\n"
            "<meta name=\"viewport\" "
            "content=\"width=device-width, initial-scale=1\">\n"
            f"<title>{_esc(title)}</title>\n"
            f"<style>{STYLESHEET}</style>\n</head>\n<body>\n"
            + "\n".join(body)
            + "\n</body>\n</html>\n")
