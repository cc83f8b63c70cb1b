"""``python -m repro.flightrec`` — the flight-recording console CLI.

Subcommands::

    summarize FILE [--point N] [--json]       # run shape + energy audit
    timeline  FILE [--point N] [--out FILE.html] [--title T]
                   [--slo-window W]           # render the HTML console
    slo       FILE [--point N] [--window W] [--budget B] [--json]
                                   # burn-rate report; exit 1 on breach

``FILE`` is either a bare recording (``FlightRecording.to_dict``
JSON) or a runner ``RunResult`` JSON produced with ``--record`` —
for a multi-point sweep, pick the point with ``--point``.

Exit codes: 0 ok, 1 SLO breach (``slo`` only), 2 usage/runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional, Sequence

from repro.cli import run_guarded
from repro.core.report import format_table
from repro.errors import ReproError
from repro.flightrec.events import FlightRecording


def load_recording(path: str,
                   point: Optional[int] = None) -> FlightRecording:
    """Load a recording from a bare dump or a runner result JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ReproError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ReproError(f"{path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ReproError(f"{path}: expected a JSON object")
    if "queries" in data and "meta" in data:
        if point not in (None, 0):
            raise ReproError(
                f"{path} is a bare recording; --point does not apply")
        return FlightRecording.from_dict(data)
    points = data.get("points")
    if isinstance(points, list):
        recorded = [(idx, p["flightrec"]) for idx, p in enumerate(points)
                    if isinstance(p, dict) and p.get("flightrec")]
        if not recorded:
            raise ReproError(
                f"{path} holds no flight recordings; produce one with "
                "`python -m repro.runner run EXPERIMENT --record --json`")
        if point is None:
            if len(recorded) > 1:
                indices = ", ".join(str(i) for i, _ in recorded)
                raise ReproError(
                    f"{path} holds {len(recorded)} recordings (points "
                    f"{indices}); pick one with --point")
            return FlightRecording.from_dict(recorded[0][1])
        for idx, payload in recorded:
            if idx == point:
                return FlightRecording.from_dict(payload)
        raise ReproError(
            f"point {point} of {path} carries no recording")
    raise ReproError(
        f"{path}: neither a flight recording nor a runner result")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.flightrec",
        description="Inspect fleet flight recordings: summaries, SLO "
                    "burn analysis, the timeline console.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_input(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("file", help="recording JSON or runner "
                                      "result with --record payloads")
        cmd.add_argument("--point", type=int, default=None,
                         help="sweep point index (multi-point results)")

    summarize = sub.add_parser(
        "summarize", help="run shape, outcome mix, energy audit")
    add_input(summarize)
    summarize.add_argument("--json", action="store_true",
                           dest="as_json")

    timeline = sub.add_parser(
        "timeline", help="render the self-contained HTML console")
    add_input(timeline)
    timeline.add_argument("--out", default="timeline.html",
                          metavar="FILE")
    timeline.add_argument("--title", default=None)
    timeline.add_argument("--slo-window", type=float, default=60.0,
                          metavar="SECONDS")

    slo = sub.add_parser(
        "slo", help="per-tenant burn report; exit 1 on any breach")
    add_input(slo)
    slo.add_argument("--window", type=float, default=60.0,
                     metavar="SECONDS")
    slo.add_argument("--budget", type=float, default=0.05,
                     help="error budget (default 0.05)")
    slo.add_argument("--json", action="store_true", dest="as_json")
    return parser


def _cmd_summarize(args: argparse.Namespace) -> int:
    from repro.flightrec.rollup import summarize
    recording = load_recording(args.file, args.point)
    summary = summarize(recording)
    if args.as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
        return 0
    rows = []
    for key, value in summary.items():
        if isinstance(value, dict):
            value = ", ".join(f"{k}={v}" for k, v in value.items()) \
                or "-"
        elif isinstance(value, float):
            value = f"{value:,.6g}"
        rows.append((key, value))
    print(format_table(["field", "value"], rows,
                       title=f"flight recording: {args.file}"))
    return 0


def _cmd_timeline(args: argparse.Namespace) -> int:
    from repro.flightrec.console import render_timeline
    recording = load_recording(args.file, args.point)
    html = render_timeline(recording, title=args.title,
                           slo_window_seconds=args.slo_window)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(html)
    print(f"wrote {args.out}: {recording.n_nodes} node lane(s), "
          f"{len(recording.events)} event(s)")
    return 0


def _cmd_slo(args: argparse.Namespace) -> int:
    from repro.flightrec.slo import SLOMonitor
    recording = load_recording(args.file, args.point)
    monitor = SLOMonitor(recording, window_seconds=args.window,
                         error_budget=args.budget)
    if args.as_json:
        print(json.dumps(monitor.to_dict(), indent=2, sort_keys=True))
    else:
        rows = []
        for slo in monitor.tenants():
            worst = slo.worst
            rows.append((
                slo.tenant,
                "-" if slo.sla_seconds is None
                else f"{slo.sla_seconds:g}",
                "-" if slo.overall_p95 is None
                else f"{slo.overall_p95:.4f}",
                "BREACHED" if slo.breached else "ok",
                "-" if worst is None or worst.completed == 0
                else f"{worst.burn:.2f}",
                "-" if worst is None or worst.completed == 0
                else f"[{worst.start:.0f}s, {worst.end:.0f}s)",
                len(slo.breach_windows),
            ))
        print(format_table(
            ["tenant", "sla p95", "actual p95", "verdict",
             "worst burn", "worst window", "breach windows"],
            rows,
            title=f"SLO burn (window {args.window:g}s, budget "
                  f"{args.budget:g})"))
    return 1 if monitor.any_breached else 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)

    def dispatch() -> int:
        if args.command == "summarize":
            return _cmd_summarize(args)
        if args.command == "timeline":
            return _cmd_timeline(args)
        return _cmd_slo(args)

    return run_guarded(dispatch)


if __name__ == "__main__":
    sys.exit(main())
