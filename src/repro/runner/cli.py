"""``python -m repro.runner`` — the single operational entry point.

Subcommands::

    run EXPERIMENT [--workers N] [--seed S] [--no-cache] [--json]
                   [--trace] [--record]
                   [--<knob> value ...]             # e.g. --disks 36,66
    trace EXPERIMENT [--json] [--active] [--width N]
                   [--<knob> value ...]      # energy-attribution report
    list                                     # registered experiments
    cache stats [--json] | cache clear       # inspect / wipe the store

``trace`` runs the experiment with telemetry capture on (reports are
identical to ``run``; traced points cache separately) and prints, per
point, the span-tree energy flamegraph, the per-device breakdown, and
any counters — or the whole thing as JSON.  ``run --record`` instead
captures a fleet flight recording per point (also report-identical,
also cached separately); feed the ``--json`` output to ``python -m
repro.flightrec`` for summaries, SLO burn analysis, and the timeline
console.

Knob flags are generic: any ``--name value`` pair after the known
options overrides that knob, and a comma-separated value makes the
knob a sweep axis (``--disks 36,66,108`` sweeps three points).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from typing import Any, Optional, Sequence

from repro.cli import run_guarded
from repro.core.report import format_table
from repro.errors import ReproError
from repro.runner.cache import DEFAULT_CACHE_DIR
from repro.runner.events import EventPrinter
from repro.runner.registry import get_experiment, list_experiments
from repro.runner.runner import Runner, _resolve_cache
from repro.runner.spec import ExperimentSpec


def parse_knob_value(text: str) -> Any:
    """``"36"`` -> 36, ``"0.5"`` -> 0.5, ``"true"`` -> True,
    ``"null"`` -> None, ``"36,66"`` -> [36, 66], else the string."""
    if "," in text:
        return [parse_knob_value(part) for part in text.split(",") if part]
    lowered = text.lower()
    if lowered in ("true", "false"):
        return lowered == "true"
    if lowered in ("null", "none"):
        return None
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return text


def parse_knob_args(extras: Sequence[str]) -> dict[str, Any]:
    """Turn trailing ``--name value`` pairs into a knob dict."""
    knobs: dict[str, Any] = {}
    i = 0
    while i < len(extras):
        flag = extras[i]
        if not flag.startswith("--") or len(flag) == 2:
            raise ReproError(f"expected a --knob flag, got {flag!r}")
        name = flag[2:].replace("-", "_")
        if "=" in name:
            name, _, raw = name.partition("=")
            i += 1
        else:
            if i + 1 >= len(extras):
                raise ReproError(f"knob --{name} is missing a value")
            raw = extras[i + 1]
            i += 2
        knobs[name] = parse_knob_value(raw)
    return knobs


def add_exec_options(
        cmd: argparse.ArgumentParser,
        json_help: str = "print the full RunResult as JSON on stdout"
) -> None:
    """The options every verb that executes a spec shares (this CLI's
    ``run`` / ``trace``, ``python -m repro.observatory record``);
    :func:`spec_and_cache` reads them back."""
    cmd.add_argument("experiment", help="registered experiment name")
    cmd.add_argument("--workers", type=int, default=1,
                     help="process-pool size (default 1 = serial)")
    cmd.add_argument("--seed", type=int, default=None,
                     help="base seed for every point (default 2009)")
    cmd.add_argument("--cache", default=None, metavar="DIR",
                     help="cache directory (default "
                          f"{DEFAULT_CACHE_DIR} or $REPRO_CACHE_DIR)")
    cmd.add_argument("--no-cache", action="store_true",
                     help="recompute every point, touch no cache")
    cmd.add_argument("--json", action="store_true", dest="as_json",
                     help=json_help)
    cmd.add_argument("--quiet", action="store_true",
                     help="suppress per-point progress on stderr")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.runner",
        description="Run the paper's experiments as cached, "
                    "parallel knob sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute one experiment spec")
    add_exec_options(run)
    run.add_argument("--trace", action="store_true",
                     help="capture telemetry (traces ride the JSON "
                          "output and the cache)")
    run.add_argument("--record", action="store_true",
                     help="capture a fleet flight recording (rides the "
                          "JSON output and the cache; inspect with "
                          "python -m repro.flightrec)")

    trace = sub.add_parser(
        "trace", help="run with telemetry and print the energy report")
    add_exec_options(trace)
    trace.add_argument("--active", action="store_true",
                       help="flamegraph busy-time energy instead of "
                            "metered energy")
    trace.add_argument("--width", type=int, default=60,
                       help="flamegraph bar width (default 60)")

    sub.add_parser("list", help="list registered experiments")

    cache = sub.add_parser("cache", help="inspect or wipe the cache")
    cache.add_argument("action", choices=("stats", "clear"))
    cache.add_argument("--cache", default=None, metavar="DIR")
    cache.add_argument("--json", action="store_true", dest="as_json",
                       help="(stats) print machine-readable JSON")
    return parser


def _cmd_list() -> int:
    rows = []
    for defn in list_experiments():
        sweep = [f"{k}[{len(v)}]"
                 for k, v in sorted(defn.resolved_defaults.items())
                 if isinstance(v, (list, tuple))]
        rows.append((defn.name, defn.profile or "-",
                     " ".join(sweep) or "-", defn.title))
    print(format_table(["experiment", "profile", "default sweep",
                        "description"], rows,
                       title="registered experiments"))
    return 0


def _cmd_cache(args: argparse.Namespace) -> int:
    cache = _resolve_cache(args.cache or True)
    if args.action == "stats":
        stats = cache.stats()
        if args.as_json:
            print(json.dumps(dataclasses.asdict(stats), sort_keys=True))
        else:
            print(f"cache root : {stats.root}")
            print(f"entries    : {stats.entries}")
            print(f"stale      : {stats.stale_entries}")
            print(f"total bytes: {stats.total_bytes}")
    else:
        if not cache.root.is_dir():
            raise ReproError(
                f"cache directory {cache.root} does not exist "
                "(nothing to clear)")
        removed = cache.clear()
        print(f"removed {removed} cached point(s) from {cache.root}")
    return 0


def spec_and_cache(args: argparse.Namespace, extras: Sequence[str]
                   ) -> tuple[ExperimentSpec, Any]:
    """The spec and the ``Runner(cache=)`` value that parsed
    :func:`add_exec_options` flags plus trailing knob flags ask for."""
    knobs = parse_knob_args(extras)
    defn = get_experiment(args.experiment)
    spec_kwargs: dict[str, Any] = {"knobs": knobs,
                                   "profile": defn.profile}
    if args.seed is not None:
        spec_kwargs["seed"] = args.seed
    spec = ExperimentSpec(args.experiment, **spec_kwargs)
    if args.no_cache:
        cache: Any = False
    elif args.cache is not None:
        cache = args.cache
    else:
        cache = True
    return spec, cache


def _cmd_run(args: argparse.Namespace, extras: Sequence[str]) -> int:
    spec, cache = spec_and_cache(args, extras)
    defn = get_experiment(args.experiment)
    on_event = None if args.quiet else EventPrinter()
    result = Runner(workers=args.workers, cache=cache,
                    on_event=on_event, trace=args.trace,
                    record=args.record).run(spec)

    if args.as_json:
        print(result.to_json())
        return 0
    print(format_table(
        ["#", "point", "sim_seconds", "joules", "source"],
        [(i, label, round(sim, 4), round(joules, 2), source)
         for i, label, sim, joules, source in result.rows()],
        title=f"{defn.title} [spec {spec.spec_hash()[:12]}]"))
    print(f"{len(result.points)} point(s), {result.cache_hits} from "
          f"cache, {result.host_seconds:.2f}s host time")
    return 0


def _cmd_trace(args: argparse.Namespace, extras: Sequence[str]) -> int:
    from repro.telemetry import counter_rows, device_rows, render_flamegraph

    if args.width < 10:
        raise ReproError("flamegraph width must be >= 10")
    spec, cache = spec_and_cache(args, extras)
    defn = get_experiment(args.experiment)
    on_event = None if args.quiet else EventPrinter()
    result = Runner(workers=args.workers, cache=cache,
                    on_event=on_event, trace=True).run(spec)

    if args.as_json:
        print(result.to_json())
        return 0

    axes = list(spec.sweep_axes())
    for point in result.points:
        trace = point.telemetry
        label = " ".join(f"{k}={point.knobs[k]}" for k in axes) or "defaults"
        print(f"\n== {defn.name} point {point.index}: {label} ==")
        print(render_flamegraph(trace, width=args.width,
                                active=args.active))
        print()
        print(format_table(
            ["device", "metered_J", "busy_time_J", "busy_s", "share"],
            device_rows(trace)))
        counters = counter_rows(trace)
        if counters:
            print(format_table(["counter", "value"], counters))
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args, extras = parser.parse_known_args(argv)

    def dispatch() -> int:
        if args.command == "list":
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            return _cmd_list()
        if args.command == "cache":
            if extras:
                parser.error(f"unrecognized arguments: {' '.join(extras)}")
            return _cmd_cache(args)
        if args.command == "trace":
            return _cmd_trace(args, extras)
        return _cmd_run(args, extras)

    return run_guarded(dispatch)


if __name__ == "__main__":
    sys.exit(main())
