"""Noise-aware regression detection over the suite ledgers.

The engine answers one question per longitudinal series: *is the
latest record worse than its baseline?*  The baseline is the
**median of the last N prior records** per metric (median, not mean,
so one bad historical append cannot drag the reference; N defaults to
:data:`DEFAULT_BASELINE_WINDOW`).

Tolerances are per-metric :class:`MetricPolicy` objects.  Simulated
quantities are deterministic in this repo — parallel runs are
byte-identical to serial ones — so their default tolerance is *exact
to 1e-9 relative*; any drift means the physics changed.  Host
wall-clock metrics are inherently noisy and default to
``gate=False``: recorded, reported, never failing a build.  Metric
direction decides the verdict: more Joules is a regression, more
records/s/W is an improvement, and directionless quantities (counters,
record counts) flag any change as ``"changed"`` — which gates, since a
silently shifted buffer-hit count is exactly the kind of behavioural
drift the ledger exists to catch.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional, Sequence

from repro.observatory.history import HistoryStore
from repro.observatory.record import BenchRecord
from repro.records import Record

DEFAULT_BASELINE_WINDOW = 5

#: exact-for-floats default: simulated metrics must reproduce
EXACT_REL_TOL = 1e-9
EXACT_ABS_TOL = 1e-9

LOWER_IS_BETTER = "lower"
HIGHER_IS_BETTER = "higher"
EITHER = "either"

OK = "ok"
REGRESSION = "regression"
IMPROVEMENT = "improvement"
CHANGED = "changed"
NEW = "new"
MISSING = "missing"


@dataclass(frozen=True)
class MetricPolicy:
    """How one metric is compared.

    ``rel_tol``/``abs_tol`` bound the allowed drift (a value within
    either bound is ``ok``); ``direction`` classifies drift beyond the
    bound; ``gate=False`` keeps the metric in reports but out of the
    CI verdict (the host wall-clock opt-out).
    """

    rel_tol: float = EXACT_REL_TOL
    abs_tol: float = EXACT_ABS_TOL
    direction: str = EITHER
    gate: bool = True


#: the built-in metric policies; unknown metrics fall back to exact /
#: directionless / gating (conservative: new metrics must reproduce)
DEFAULT_POLICIES: dict[str, MetricPolicy] = {
    "sim_seconds": MetricPolicy(direction=LOWER_IS_BETTER),
    "joules": MetricPolicy(direction=LOWER_IS_BETTER),
    "watts": MetricPolicy(direction=LOWER_IS_BETTER),
    "joules_per_record": MetricPolicy(direction=LOWER_IS_BETTER),
    "records": MetricPolicy(direction=EITHER),
    "records_per_second": MetricPolicy(direction=HIGHER_IS_BETTER),
    "records_per_second_per_watt": MetricPolicy(
        direction=HIGHER_IS_BETTER),
    # host wall-clock: real, noisy, and not this repo's claim — never
    # gate on it (opt back in with a custom policy map if you must)
    "host_seconds": MetricPolicy(rel_tol=math.inf, abs_tol=math.inf,
                                 direction=LOWER_IS_BETTER, gate=False),
}

FALLBACK_POLICY = MetricPolicy()


def policy_for(metric: str,
               policies: Optional[Mapping[str, MetricPolicy]] = None
               ) -> MetricPolicy:
    table = DEFAULT_POLICIES if policies is None else policies
    if metric.startswith("counter:"):
        return table.get(metric, table.get("counter:*", FALLBACK_POLICY))
    return table.get(metric, FALLBACK_POLICY)


def baseline_of(values: Sequence[float],
                window: int = DEFAULT_BASELINE_WINDOW) -> float:
    """Median of the last ``window`` values (the noise-robust anchor)."""
    if not values:
        raise ValueError("baseline needs at least one value")
    tail = list(values[-window:]) if window > 0 else list(values)
    return statistics.median(tail)


@dataclass(frozen=True)
class RegressionFinding(Record):
    """One (series, metric) comparison outcome."""

    suite: str
    benchmark: str
    point: str
    metric: str
    baseline: Optional[float]
    current: Optional[float]
    verdict: str
    gate: bool = True

    @property
    def delta(self) -> float:
        if self.baseline is None or self.current is None:
            return 0.0
        return self.current - self.baseline

    @property
    def delta_pct(self) -> float:
        if (self.baseline is None or self.current is None
                or self.baseline == 0):
            return 0.0
        return (self.current - self.baseline) / abs(self.baseline) * 100.0

    @property
    def fails_gate(self) -> bool:
        return self.gate and self.verdict in (REGRESSION, CHANGED, MISSING)

    DERIVED_KEYS = ("delta", "delta_pct")

    def to_dict(self) -> dict[str, Any]:
        # derived keys: the drift, precomputed for ``compare --json``
        return {**super().to_dict(), "delta": self.delta,
                "delta_pct": self.delta_pct}


@dataclass
class RegressionReport(Record):
    """Every finding of one comparison pass, worst first."""

    findings: list[RegressionFinding] = field(default_factory=list)
    window: int = DEFAULT_BASELINE_WINDOW

    _SEVERITY = {REGRESSION: 0, CHANGED: 1, MISSING: 2,
                 IMPROVEMENT: 3, NEW: 4, OK: 5}

    def sort(self) -> None:
        self.findings.sort(key=lambda f: (
            self._SEVERITY.get(f.verdict, 9), f.suite, f.benchmark,
            f.point, f.metric))

    def regressions(self) -> list[RegressionFinding]:
        return [f for f in self.findings if f.fails_gate]

    @property
    def has_regressions(self) -> bool:
        return bool(self.regressions())

    def counts(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for f in self.findings:
            out[f.verdict] = out.get(f.verdict, 0) + 1
        return dict(sorted(out.items()))

    def summary(self) -> str:
        parts = [f"{n} {verdict}" for verdict, n in self.counts().items()]
        status = "FAIL" if self.has_regressions else "ok"
        return (f"{status}: {len(self.findings)} comparison(s)"
                + (f" — {', '.join(parts)}" if parts else ""))

    def rows(self) -> list[tuple]:
        """Table rows for the CLI (non-ok findings only)."""
        return [(f.verdict, f.suite, f.benchmark, f.point, f.metric,
                 "-" if f.baseline is None else f"{f.baseline:.6g}",
                 "-" if f.current is None else f"{f.current:.6g}",
                 f"{f.delta_pct:+.3f}%" if f.baseline else "-")
                for f in self.findings if f.verdict != OK]

    DERIVED_KEYS = ("has_regressions", "counts")

    def to_dict(self) -> dict[str, Any]:
        # derived keys: the gate verdict and per-verdict tallies
        return {**super().to_dict(),
                "has_regressions": self.has_regressions,
                "counts": self.counts()}


def _within(policy: MetricPolicy, baseline: float, current: float) -> bool:
    drift = abs(current - baseline)
    return (drift <= policy.abs_tol
            or drift <= policy.rel_tol * abs(baseline))


def _classify(policy: MetricPolicy, baseline: float,
              current: float) -> str:
    if _within(policy, baseline, current):
        return OK
    if policy.direction == LOWER_IS_BETTER:
        return REGRESSION if current > baseline else IMPROVEMENT
    if policy.direction == HIGHER_IS_BETTER:
        return REGRESSION if current < baseline else IMPROVEMENT
    return CHANGED


def _series_values(history: Sequence[BenchRecord],
                   metric: str) -> list[Optional[float]]:
    counters = metric.startswith("counter:")
    name = metric[len("counter:"):] if counters else metric
    return [(r.counters if counters else r.metrics).get(name)
            for r in history]


def compare_records(history: Sequence[BenchRecord],
                    window: int = DEFAULT_BASELINE_WINDOW,
                    policies: Optional[Mapping[str, MetricPolicy]] = None
                    ) -> list[RegressionFinding]:
    """Compare a series' newest record against its own past.

    ``history`` is one series in append order; the last record is the
    candidate and the up-to-``window`` records before it feed the
    median baseline.  A series of one record yields ``new`` verdicts
    (nothing to compare — never a gate failure).
    """
    if not history:
        return []
    current = history[-1]
    prior = history[:-1]
    metric_names = sorted(
        {m for r in history for m in r.metrics}
        | {f"counter:{c}" for r in history for c in r.counters})
    findings = []
    for metric in metric_names:
        policy = policy_for(metric, policies)
        cur_value = _series_values([current], metric)[0]
        if not prior:
            findings.append(RegressionFinding(
                suite=current.suite, benchmark=current.benchmark,
                point=current.point, metric=metric, baseline=None,
                current=cur_value, verdict=NEW, gate=False))
            continue
        past = [v for v in _series_values(prior, metric)
                if v is not None]
        if not past:
            verdict, baseline = NEW, None
        elif cur_value is None:
            verdict, baseline = MISSING, baseline_of(past, window)
        else:
            baseline = baseline_of(past, window)
            verdict = _classify(policy, baseline, cur_value)
        findings.append(RegressionFinding(
            suite=current.suite, benchmark=current.benchmark,
            point=current.point, metric=metric, baseline=baseline,
            current=cur_value, verdict=verdict,
            gate=policy.gate and verdict != NEW))
    return findings


def compare_store(store: HistoryStore,
                  suites: Optional[Iterable[str]] = None,
                  window: int = DEFAULT_BASELINE_WINDOW,
                  policies: Optional[Mapping[str, MetricPolicy]] = None
                  ) -> RegressionReport:
    """Compare every series of the given suites (default: all)."""
    report = RegressionReport(window=window)
    names = list(suites) if suites is not None else store.suites()
    for suite in names:
        for _, history in store.series(suite).items():
            report.findings.extend(
                compare_records(history, window=window,
                                policies=policies))
    report.sort()
    return report
