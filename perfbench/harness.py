"""The parent side: spawn the children of one workload run, check
what they produced, and fold their samples into metrics.

An untraced run sets up :data:`ROUNDS` times — one fresh child each, so
``setup_s`` is a median too — and every child measures its share of
``--seconds``.  A traced run is one child: one plain and one shimmed
repetition.  Children are isolated from the checkout they test:
``PYTHONHASHSEED=0``, the observatory off, and the cache pointed at a
scratch directory under ``perfbench/out/`` that is removed afterwards.
"""

from __future__ import annotations

import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional

from perfbench.metrics import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
EXPECTED = HERE / "expected.json"

#: fresh children (= set-ups) per untraced run
ROUNDS = 3
#: ``--quick`` divides every input size by this
QUICK_DIVISOR = 20
#: the seed ``expected.json`` is pinned at
DEFAULT_SEED = 0
#: a child that runs longer than this is killed and the run fails
CHILD_TIMEOUT_SECONDS = 170.0


class BenchError(Exception):
    """The benchmark could not produce a result (a child crashed)."""


@dataclass
class Stat:
    """A median with the range and count it came from."""

    value: float
    low: float
    high: float
    n: int
    samples: list[float]

    @classmethod
    def of(cls, samples: list[float]) -> "Stat":
        return cls(statistics.median(samples), min(samples), max(samples),
                   len(samples), samples)


@dataclass
class RunOutcome:
    """One workload run: checks, and metrics by name."""

    workload: str
    seed: int
    traced: bool
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    metrics: dict[str, Stat] = field(default_factory=dict)
    #: label -> digest of every report/recording (first repetition)
    digests: dict[str, str] = field(default_factory=dict)

    def contract(self) -> dict[str, Any]:
        """The one-line result object of the benchmark contract."""
        units = {m.name: m.unit
                 for m in (PER_LAYER if self.traced else END_TO_END)}
        return {
            "correct": self.failed == 0,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {name: {"value": self.metrics[name].value,
                               "unit": unit}
                        for name, unit in units.items()},
        }

    def to_dict(self) -> dict[str, Any]:
        return {"seed": self.seed, "attempted": self.attempted,
                "failed": self.failed, "failures": self.failures,
                "digests": self.digests,
                "metrics": {name: vars(stat)
                            for name, stat in self.metrics.items()}}


def load_expected(path: Path = EXPECTED) -> dict[str, Any]:
    return json.loads(path.read_text())


def _child_env(scratch: Path) -> dict[str, str]:
    env = dict(os.environ)
    env.update(
        PYTHONHASHSEED="0",
        REPRO_OBSERVATORY="0",
        REPRO_CACHE_DIR=str(scratch / "repro-cache"),
        PYTHONPATH=os.pathsep.join([str(ROOT), str(ROOT / "src")]),
    )
    return env


def _run_child(workload: str, seed: int, divisor: int, seconds: float,
               scratch: Path, index: int, count_ops: bool,
               spans_out: Optional[Path]) -> dict[str, Any]:
    out = scratch / f"child-{index}.json"
    command = [sys.executable, "-m", "perfbench.child",
               "--workload", workload, "--seed", str(seed),
               "--divisor", str(divisor), "--seconds", repr(seconds),
               "--scratch", str(scratch), "--out", str(out),
               "--spawned-at", repr(time.time())]
    if count_ops:
        command.append("--count-ops")
    if spans_out is not None:
        command += ["--spans-out", str(spans_out)]
    try:
        done = subprocess.run(command, env=_child_env(scratch), cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True,
                              timeout=CHILD_TIMEOUT_SECONDS)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload}: child {index} exceeded "
                         f"{CHILD_TIMEOUT_SECONDS:.0f} s") from exc
    if done.returncode != 0 or not out.is_file():
        raise BenchError(f"{workload}: child {index} exited "
                         f"{done.returncode}\n{done.stdout}")
    return json.loads(out.read_text())


def _check(outcome: RunOutcome, reference: Mapping[str, str], what: str,
           produced: Mapping[str, str]) -> None:
    """Compare one repetition's checks with the reference, label by
    label; a missing or extra label fails too."""
    for label in sorted(set(reference) | set(produced)):
        outcome.attempted += 1
        if produced.get(label) != reference.get(label):
            outcome.failed += 1
            outcome.failures.append(
                f"{what} {label}: got {produced.get(label)}, "
                f"want {reference.get(label)}")


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool = False, quick: bool = False,
                 expected: Optional[Mapping[str, Any]] = None
                 ) -> RunOutcome:
    """Run one workload once and return its metrics and checks.

    ``expected`` maps size -> workload -> check label -> digest; it is
    consulted at the default seed only.  At any other seed the check is
    that every repetition reproduces the first one's digests.
    """
    divisor = QUICK_DIVISOR if quick else 1
    OUT.mkdir(exist_ok=True)
    scratch = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=OUT))
    spans_out = OUT / f"trace-{workload}.json" if trace else None
    # a quick or traced run is one child measuring one repetition
    rounds, share = (1, 0.0) if quick or trace else (ROUNDS, seconds / ROUNDS)
    try:
        children = [
            _run_child(workload, seed, divisor, share, scratch, index,
                       count_ops=index == rounds - 1, spans_out=spans_out)
            for index in range(rounds)]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    outcome = RunOutcome(workload, seed, traced=trace)
    repetitions = [(f"child {i} repetition {j}", checks)
                   for i, child in enumerate(children)
                   for j, checks in enumerate(child["checks"])]
    if trace:
        repetitions.append(("traced repetition",
                            children[0]["traced_checks"]))
    outcome.digests = dict(repetitions[0][1])
    if seed == DEFAULT_SEED and expected is not None:
        reference = expected["quick" if quick else "full"][workload]
    else:
        reference = outcome.digests
    for what, checks in repetitions:
        _check(outcome, reference, what, checks)

    samples = [s for child in children for s in child["samples"]]
    stats = {
        "harness.wall_s": Stat.of([s["wall_s"] for s in samples]),
        "harness.cpu_s": Stat.of([s["cpu_s"] for s in samples]),
        "harness.calib_s": Stat.of([s["calib_s"] for s in samples]),
        "harness.warmup_s": Stat.of([c["warmup_s"] for c in children]),
        "harness.setup_wall_s": Stat.of(
            [c["setup_wall_s"] for c in children]),
    }
    if trace:
        child = children[0]
        stats["harness.trace_overhead_ratio"] = Stat.of(
            [child["traced"]["wall_s"] / samples[0]["wall_s"]])
        layers = child["layers"]
        for metric in PER_LAYER:
            if metric.name not in stats:
                stats[metric.name] = Stat.of(
                    [float(layers.get(metric.name, 0.0))])
    else:
        ops = children[-1]["ops"]
        ratios = [s["wall_s"] / s["calib_s"] for s in samples]
        stats.update({
            "setup_s": Stat.of([c["setup_s"] for c in children]),
            "wall_rel": Stat.of(ratios),
            "peak_rss_mb": Stat.of([c["peak_rss_mb"] for c in children]),
            "ops_per_calib": Stat.of([ops / r for r in ratios]),
        })
    outcome.metrics = stats
    return outcome
