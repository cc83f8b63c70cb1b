"""``python -m repro.observatory`` — the regression-gate entry point.

Subcommands::

    record EXPERIMENT [--suite S] [--history DIR] [--benchmark NAME]
                      [--workers N] [--seed S] [--no-trace]
                      [--cache DIR | --no-cache] [--json] [--quiet]
                      [--<knob> value ...]     # append a run to the ledger
    compare [--suite S ...] [--history DIR] [--window N] [--json]
    gate    [--suite S ...] [--history DIR] [--window N] [--json]
    report  [--suite S ...] [--history DIR] [--out FILE]

``record`` executes an experiment through the runner (telemetry on by
default, so counters and power timelines land in the ledger) and
appends one :class:`BenchRecord` per sweep point to
``BENCH_<suite>.json``.  ``compare`` diffs every series' newest record
against its last-N-median baseline and prints the verdict table;
``gate`` is ``compare`` with a nonzero exit when any gated metric
regressed (the CI hook); ``report`` writes the self-contained HTML
dashboard.

Exit codes: 0 ok, 1 gate failure, 2 usage/runtime error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Optional, Sequence

from repro.core.report import format_table
from repro.cli import run_guarded
from repro.errors import ReproError

DEFAULT_HISTORY_DIR = "."
DEFAULT_SUITE = "core"


def _build_parser() -> argparse.ArgumentParser:
    from repro.runner.cli import add_exec_options
    parser = argparse.ArgumentParser(
        prog="python -m repro.observatory",
        description="Record benchmark history, detect regressions, "
                    "render the energy-trend dashboard.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_history(cmd: argparse.ArgumentParser) -> None:
        cmd.add_argument("--history", default=None, metavar="DIR",
                         help="ledger directory (default "
                              f"{DEFAULT_HISTORY_DIR!r} or "
                              "$REPRO_HISTORY_DIR)")

    record = sub.add_parser(
        "record", help="run an experiment and append it to the ledger")
    add_exec_options(record,
                     json_help="print the appended records as JSON")
    add_history(record)
    record.add_argument("--suite", default=DEFAULT_SUITE,
                        help=f"ledger suite (default {DEFAULT_SUITE!r})")
    record.add_argument("--benchmark", default=None,
                        help="series name (default: the experiment)")
    record.add_argument("--no-trace", action="store_true",
                        help="skip telemetry capture (no counters or "
                             "power timelines in the record)")

    for name, help_text in (
            ("compare", "diff newest records against their baselines"),
            ("gate", "compare; exit 1 if any gated metric regressed")):
        cmd = sub.add_parser(name, help=help_text)
        add_history(cmd)
        cmd.add_argument("--suite", action="append", default=None,
                         help="suite(s) to compare (default: all)")
        cmd.add_argument("--window", type=int, default=None,
                         help="baseline window (last-N median, "
                              "default 5)")
        cmd.add_argument("--json", action="store_true",
                         dest="as_json",
                         help="print the RegressionReport as JSON")

    report = sub.add_parser(
        "report", help="write the self-contained HTML dashboard")
    add_history(report)
    report.add_argument("--suite", action="append", default=None)
    report.add_argument("--out", default="observatory.html",
                        metavar="FILE")
    report.add_argument("--title", default="repro.observatory")
    return parser


def _history_root(args: argparse.Namespace) -> str:
    if args.history is not None:
        return args.history
    return os.environ.get("REPRO_HISTORY_DIR", DEFAULT_HISTORY_DIR)


def _cmd_record(args: argparse.Namespace,
                extras: Sequence[str]) -> int:
    from repro.runner import Runner
    from repro.runner.cli import spec_and_cache
    from repro.runner.events import EventPrinter
    from repro.observatory.recorder import Recorder

    spec, cache = spec_and_cache(args, extras)
    on_event = None if args.quiet else EventPrinter()
    result = Runner(workers=args.workers, cache=cache,
                    on_event=on_event,
                    trace=not args.no_trace).run(spec)

    recorder = Recorder(_history_root(args), suite=args.suite)
    appended = recorder.record_run(result, benchmark=args.benchmark)
    if args.as_json:
        print(json.dumps([r.to_dict() for r in appended], indent=2,
                         sort_keys=True))
        return 0
    store_path = recorder.store.path(args.suite)
    print(format_table(
        ["seq", "benchmark", "point", "sim_seconds", "joules",
         "counters"],
        [(r.seq, r.benchmark, r.point,
          round(r.metrics.get("sim_seconds", 0.0), 4),
          round(r.metrics.get("joules", 0.0), 2), len(r.counters))
         for r in appended],
        title=f"appended to {store_path} [commit "
              f"{appended[0].git_sha if appended else '-'}]"))
    return 0


def _compare(args: argparse.Namespace):
    from repro.observatory.history import HistoryStore
    from repro.observatory.regression import (
        DEFAULT_BASELINE_WINDOW,
        compare_store,
    )
    store = HistoryStore(_history_root(args))
    window = (args.window if args.window is not None
              else DEFAULT_BASELINE_WINDOW)
    if window < 1:
        raise ReproError("--window must be >= 1")
    return compare_store(store, suites=args.suite, window=window)


def _print_report(report, as_json: bool) -> None:
    if as_json:
        print(json.dumps(report.to_dict(), indent=2, sort_keys=True))
        return
    rows = report.rows()
    if rows:
        print(format_table(
            ["verdict", "suite", "benchmark", "point", "metric",
             "baseline", "current", "delta"],
            rows, title="regression findings (non-ok)"))
    print(report.summary())


def _cmd_compare(args: argparse.Namespace) -> int:
    _print_report(_compare(args), args.as_json)
    return 0


def _cmd_gate(args: argparse.Namespace) -> int:
    report = _compare(args)
    _print_report(report, args.as_json)
    if report.has_regressions:
        print(f"gate: FAIL ({len(report.regressions())} gated "
              "metric(s) regressed)", file=sys.stderr)
        return 1
    print("gate: ok", file=sys.stderr)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.observatory.dashboard import render_dashboard
    from repro.observatory.history import HistoryStore
    from repro.observatory.regression import compare_store

    store = HistoryStore(_history_root(args))
    suites = args.suite if args.suite is not None else store.suites()
    regressions = compare_store(store, suites=suites) if suites else None
    html = render_dashboard(store, suites=suites, report=regressions,
                            title=args.title)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(html)
    n = sum(len(store.load(s)) for s in suites)
    print(f"wrote {args.out}: {len(suites)} suite(s), {n} record(s)")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)
    def dispatch() -> int:
        if args.command == "record":
            return _cmd_record(args, extras)
        if extras:
            parser.error(f"unrecognized arguments: {' '.join(extras)}")
        if args.command == "compare":
            return _cmd_compare(args)
        if args.command == "gate":
            return _cmd_gate(args)
        return _cmd_report(args)

    return run_guarded(dispatch)


if __name__ == "__main__":
    sys.exit(main())
