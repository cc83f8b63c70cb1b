"""repro.observatory: longitudinal benchmark history and regression gates.

The paper's thesis is that energy efficiency must be *tracked*, not
recomputed ad hoc — a number that evaporates when the process exits
cannot anchor a trend (§2.3's call for standardized EE benchmarks).
This package turns every benchmark and runner sweep into an
append-only, diffable time series:

* :class:`HistoryStore` persists one JSONL file per suite
  (``BENCH_<suite>.json``) of :class:`BenchRecord` rows — simulated
  seconds, Joules, Joules/record, records/s/W, telemetry counters,
  git SHA, spec hash, and host metadata per sweep point;
* :class:`Recorder` builds records from ``RunResult``/report objects;
* :func:`compare_store` selects a last-N-median baseline per metric
  and produces a typed :class:`RegressionReport` (simulated metrics
  default to exact-to-1e-9 tolerance; host wall-clock is recorded but
  never gated);
* :func:`render_dashboard` emits a self-contained HTML dashboard —
  per-series trend sparklines, per-device power timelines from
  recorded :class:`~repro.telemetry.TelemetryTrace` timelines, and a
  Joules-vs-records/s frontier chart mirroring Figure 1;
* ``python -m repro.observatory`` wires it into CI:
  ``record`` → ``gate`` (nonzero exit on regression)
  → ``report``.
"""

from repro.observatory.history import (
    HISTORY_PREFIX,
    HistoryStore,
    history_filename,
    suite_of_filename,
)
from repro.observatory.record import (
    SCHEMA_VERSION,
    BenchRecord,
    extract_work_units,
    git_sha,
    host_info,
    point_label,
    point_metrics,
)
from repro.observatory.recorder import Recorder
from repro.observatory.regression import (
    DEFAULT_BASELINE_WINDOW,
    DEFAULT_POLICIES,
    MetricPolicy,
    RegressionFinding,
    RegressionReport,
    baseline_of,
    compare_records,
    compare_store,
)
from repro.observatory.dashboard import render_dashboard

__all__ = [
    "BenchRecord",
    "DEFAULT_BASELINE_WINDOW",
    "DEFAULT_POLICIES",
    "HISTORY_PREFIX",
    "HistoryStore",
    "MetricPolicy",
    "Recorder",
    "RegressionFinding",
    "RegressionReport",
    "SCHEMA_VERSION",
    "baseline_of",
    "compare_records",
    "compare_store",
    "extract_work_units",
    "git_sha",
    "history_filename",
    "host_info",
    "point_label",
    "point_metrics",
    "render_dashboard",
    "suite_of_filename",
]
