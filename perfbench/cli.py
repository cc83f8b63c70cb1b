"""The command line: run workloads, pin digests, compare result files.

``python -m perfbench`` runs the whole suite and writes a result file;
with ``--workload`` it runs one workload and prints, as its last line,
the result object of the benchmark contract (``BENCHMARK.json`` invokes
it that way through ``perfbench/run.py``).  ``python -m perfbench
compare A.json B.json`` is the tool for every parent-vs-change table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Any, Optional

from perfbench import harness
from perfbench.harness import BenchError, RunOutcome
from perfbench.metrics import END_TO_END, PER_LAYER, WORKLOADS, Metric

BENCHMARK_JSON = harness.ROOT / "BENCHMARK.json"


def _print_outcome(outcome: RunOutcome) -> None:
    verdict = "ok" if outcome.failed == 0 else "FAILED"
    print(f"{outcome.workload}  seed={outcome.seed}  "
          f"{'traced' if outcome.traced else 'untraced'}  checks "
          f"{outcome.attempted - outcome.failed}/{outcome.attempted} "
          f"{verdict}  failed_share="
          f"{outcome.failed / max(1, outcome.attempted):.4f}")
    for line in outcome.failures:
        print(f"  FAILED {line}")
    # untraced: the end-to-end metrics, then the harness's raw seconds
    shown = PER_LAYER if outcome.traced else (*END_TO_END, *PER_LAYER)
    units = {m.name: m.unit for m in shown if m.name in outcome.metrics}
    idle = 0
    for name, unit in units.items():
        stat = outcome.metrics[name]
        if outcome.traced and stat.value == 0:
            idle += 1
            continue
        print(f"  {name:<58} {stat.value:>14.6g} {unit:<6}"
              f" [min {stat.low:.6g}  max {stat.high:.6g}  n={stat.n}]")
    if idle:
        print(f"  ({idle} layer metrics read 0: this workload does not "
              "exercise those layers)")
    if not outcome.traced:
        for label, digest in sorted(outcome.digests.items()):
            print(f"  digest {label:<51} {digest[:16]}")


def _run_one(args: argparse.Namespace, expected: Any) -> int:
    outcome = harness.run_workload(
        args.workload, args.seed, args.seconds, trace=bool(args.trace),
        quick=args.quick, expected=expected)
    _print_outcome(outcome)
    print(json.dumps(outcome.contract()))
    return 1 if outcome.failed else 0


def _run_suite(args: argparse.Namespace, expected: Any) -> int:
    result: dict[str, Any] = {
        "seed": args.seed, "runs": args.runs, "quick": args.quick,
        "seconds": args.seconds, "workloads": {}}
    failed = 0
    for name, _why in WORKLOADS:
        entry: dict[str, Any] = {"runs": []}
        for k in range(args.runs):
            outcome = harness.run_workload(
                name, args.seed + k, args.seconds, quick=args.quick,
                expected=expected)
            _print_outcome(outcome)
            failed += outcome.failed
            entry["runs"].append(outcome.to_dict())
        if args.trace:
            outcome = harness.run_workload(
                name, args.seed, args.seconds, trace=True,
                quick=args.quick, expected=expected)
            _print_outcome(outcome)
            failed += outcome.failed
            entry["traced"] = outcome.to_dict()
        result["workloads"][name] = entry
    args.out.parent.mkdir(parents=True, exist_ok=True)
    args.out.write_text(json.dumps(result, indent=1, sort_keys=True))
    print(f"wrote {args.out}")
    return 1 if failed else 0


def _pin(args: argparse.Namespace) -> int:
    """Regenerate ``expected.json`` from the digests this checkout
    produces at the default seed, at both input sizes."""
    pinned: dict[str, dict[str, dict[str, str]]] = {}
    for size, quick in (("full", False), ("quick", True)):
        pinned[size] = {}
        for name, _why in WORKLOADS:
            outcome = harness.run_workload(
                name, harness.DEFAULT_SEED, seconds=1.0, quick=quick)
            _print_outcome(outcome)
            if outcome.failed:
                print(f"not pinning: {name} does not repeat its own "
                      "digests", file=sys.stderr)
                return 1
            pinned[size][name] = outcome.digests
    args.expected.write_text(
        json.dumps(pinned, indent=1, sort_keys=True) + "\n")
    print(f"pinned {args.expected}")
    return 0


# -- compare ---------------------------------------------------------


def _spread(values: list[float], fallback: dict[str, float]) -> float:
    """Quartile distance as a share of the median; a single run falls
    back on the range of its own repetitions."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        return (q3 - q1) / statistics.median(values)
    return (fallback["high"] - fallback["low"]) / fallback["value"]


def _verdict(metric: Metric, a: list[float], b: list[float],
             spread: float) -> tuple[float, str]:
    sign = 1.0 if metric.better == "lower" else -1.0
    base = statistics.median(a)
    worsening = sign * (statistics.median(b) - base) / base
    if spread <= metric.bound:
        resolved = True
    elif worsening > 0:
        resolved = min(sign * v for v in b) > max(sign * v for v in a)
    else:
        resolved = max(sign * v for v in b) < min(sign * v for v in a)
    if not resolved:
        return worsening, "unresolved"
    return worsening, "worse" if worsening > metric.bound else "ok"


def compare(path_a: Path, path_b: Path) -> int:
    """Print, per workload and end-to-end metric, both medians, the
    ratio with its base, the bound and a verdict; returns 1 if any row
    is ``worse`` or any digest or exact count differs."""
    a, b = (json.loads(p.read_text()) for p in (path_a, path_b))
    bad = 0
    print(f"A = {path_a}\nB = {path_b}\n"
          f"{'workload':<16} {'metric':<14} {'median A':>12} "
          f"{'median B':>12} {'B/A':>7}  {'spread':>7} {'bound':>6}  verdict")
    for name, _why in WORKLOADS:
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        runs_a, runs_b = (f["workloads"][name]["runs"] for f in (a, b))
        for metric in END_TO_END:
            values_a, values_b = (
                [run["metrics"][metric.name]["value"] for run in runs]
                for runs in (runs_a, runs_b))
            spread = max(
                _spread(values_a, runs_a[0]["metrics"][metric.name]),
                _spread(values_b, runs_b[0]["metrics"][metric.name]))
            worsening, verdict = _verdict(metric, values_a, values_b,
                                          spread)
            bad += verdict == "worse"
            med_a, med_b = (statistics.median(v)
                            for v in (values_a, values_b))
            print(f"{name:<16} {metric.name:<14} {med_a:>12.5g} "
                  f"{med_b:>12.5g} {med_b / med_a:>7.3f}  "
                  f"{spread:>6.1%} {metric.bound:>6.0%}  {verdict}"
                  f" ({worsening:+.1%} worse, base A)")
        for label, runs in (("A", runs_a), ("B", runs_b)):
            attempted = sum(run["attempted"] for run in runs)
            failed = sum(run["failed"] for run in runs)
            print(f"{name:<16} failed_share   {label}: {failed}/{attempted}"
                  f" = {failed / max(1, attempted):.4f} (bound 0)")
            bad += failed > 0
        by_seed = {run["seed"]: run["digests"] for run in runs_a}
        shared = [run for run in runs_b if run["seed"] in by_seed]
        differ = [run["seed"] for run in shared
                  if run["digests"] != by_seed[run["seed"]]]
        print(f"{name:<16} digests        {len(shared)} shared seed(s), "
              f"{'DIFFER at ' + str(differ) if differ else 'identical'}")
        bad += bool(differ)
        traced_a, traced_b = (f["workloads"][name].get("traced")
                              for f in (a, b))
        if traced_a and traced_b and traced_a["seed"] == traced_b["seed"]:
            for metric in PER_LAYER:
                if metric.unit != "count":
                    continue
                count_a, count_b = (
                    t["metrics"][metric.name]["value"]
                    for t in (traced_a, traced_b))
                if count_a != count_b:
                    bad += 1
                    print(f"{name:<16} {metric.name}: exact count "
                          f"differs, A {count_a:g} vs B {count_b:g}")
    return 1 if bad else 0


# -- entry -----------------------------------------------------------


def main(argv: Optional[list[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        parser = argparse.ArgumentParser(prog="perfbench compare")
        parser.add_argument("a", type=Path)
        parser.add_argument("b", type=Path)
        args = parser.parse_args(argv[1:])
        return compare(args.a, args.b)

    run_seconds = json.loads(BENCHMARK_JSON.read_text())["run_seconds"]
    parser = argparse.ArgumentParser(
        prog="perfbench", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=[n for n, _ in WORKLOADS],
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=harness.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="job time one run measures "
                             f"(default {run_seconds})")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="traced pass: per-layer metrics and a span "
                             "file per workload")
    parser.add_argument("--quick", action="store_true",
                        help=f"inputs / {harness.QUICK_DIVISOR}, for tests")
    parser.add_argument("--runs", type=int, default=1,
                        help="suite only: runs per workload, at seeds "
                             "seed, seed+1, ...")
    parser.add_argument("--pin", action="store_true",
                        help="regenerate the pinned digests")
    parser.add_argument("--expected", type=Path, default=harness.EXPECTED)
    parser.add_argument("--out", type=Path,
                        default=harness.OUT / "result.json",
                        help="suite only: where the result JSON goes")
    args = parser.parse_args(argv)
    if args.runs < 1 or args.seconds <= 0:
        parser.error("--runs and --seconds must be positive")

    try:
        if args.pin:
            return _pin(args)
        expected = harness.load_expected(args.expected)
        if args.workload:
            return _run_one(args, expected)
        return _run_suite(args, expected)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
