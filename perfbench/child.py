"""One child process of a workload run.

``python -m perfbench.child`` sets up (imports the program, runs a
small warm-up repetition so lazy tables, numpy and import-on-first-call
are paid; the kernel is run right after, so set-up time can be
reported at the reference kernel speed), then measures full-size
repetitions — each after a
``gc.collect()`` with the collector left on, each bracketed by the
calibration kernel — and writes what it saw as one JSON file.  In
``trace`` mode it measures one plain repetition and one under the
shims, and also writes the spans.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Optional

from perfbench.calib import NOMINAL_SECONDS, calibrate
from perfbench.spans import Tracer

#: the warm-up repetition runs on inputs this much smaller
WARMUP_DIVISOR = 20


def _cpu_seconds() -> float:
    """CPU this process and its reaped pool workers have used."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def _peak_rss_mb() -> float:
    """High-water RSS of this process or any reaped pool worker
    (Linux reports ``ru_maxrss`` in KiB)."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF,
                           resource.RUSAGE_CHILDREN)) / 1024.0


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench.child")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--divisor", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--scratch", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--count-ops", action="store_true")
    parser.add_argument("--spans-out", type=Path)
    args = parser.parse_args(argv)

    # importing the program is part of set-up, so it happens here
    from perfbench import shims
    from perfbench.workloads import WORKLOADS, Job
    workload = WORKLOADS[args.workload]

    def repetition(index: int, divisor: int = args.divisor,
                   traced: bool = False) -> Job:
        job = Job(seed=args.seed, divisor=divisor,
                  tracer=Tracer(args.workload, index),
                  scratch=args.scratch,
                  counts=shims.Counts() if traced else None)
        with job.tracer.span("job"):
            if traced:
                with shims.installed(job.tracer, job.counts):
                    workload.run(job)
            else:
                workload.run(job)
        return job

    def measured(index: int, traced: bool = False
                 ) -> tuple[Job, dict[str, float]]:
        gc.collect()
        kernel = calibrate()
        cpu, started = _cpu_seconds(), time.perf_counter()
        job = repetition(index, traced=traced)
        wall = time.perf_counter() - started
        cpu = _cpu_seconds() - cpu
        kernel += calibrate()
        return job, {"wall_s": wall, "cpu_s": cpu,
                     "calib_s": statistics.median(kernel)}

    started = time.perf_counter()
    repetition(-1, divisor=max(args.divisor, WARMUP_DIVISOR))
    warmup_s = time.perf_counter() - started
    setup_wall = time.time() - args.spawned_at
    # raw seconds drift by a third with the box's mood; set-up is gated,
    # so it is reported at the reference kernel speed like wall_rel
    out: dict[str, Any] = {
        "setup_wall_s": setup_wall,
        "setup_s": setup_wall * NOMINAL_SECONDS
        / statistics.median(calibrate()),
        "warmup_s": warmup_s,
    }

    samples, checks = [], []
    total = 0.0
    while True:
        job, sample = measured(len(samples))
        samples.append(sample)
        checks.append(job.checks)
        total += sample["wall_s"]
        # as many repetitions as fit in this child's share, at least one
        if args.spans_out or total + sample["wall_s"] > args.seconds:
            break
    out.update(samples=samples, checks=checks, ops=job.ops,
               peak_rss_mb=_peak_rss_mb())

    if args.spans_out:
        job, sample = measured(len(samples), traced=True)
        out.update(layers=workload.layers(job), traced=sample,
                   traced_checks=job.checks)
        args.spans_out.write_text(json.dumps(job.tracer.to_dict()))
    elif job.ops is None and args.count_ops:
        # DES events can only be counted under the counting shim
        out["ops"] = repetition(len(samples), traced=True).ops

    args.out.write_text(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
