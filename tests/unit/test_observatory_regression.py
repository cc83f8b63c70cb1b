"""Unit tests: baselines, tolerances, verdicts, RegressionReport."""

from __future__ import annotations

import pytest

from repro.observatory import (
    BenchRecord,
    HistoryStore,
    RegressionReport,
    baseline_of,
    compare_records,
    compare_store,
)
from repro.observatory.regression import (
    CHANGED,
    IMPROVEMENT,
    MISSING,
    NEW,
    OK,
    REGRESSION,
)


def _rec(joules=100.0, sim=10.0, rpsw=None, host=0.5, counters=None,
         metrics_extra=None, suite="core", benchmark="fig2",
         point="defaults"):
    metrics = {"joules": joules, "sim_seconds": sim,
               "host_seconds": host}
    if rpsw is not None:
        metrics["records_per_second_per_watt"] = rpsw
    if metrics_extra:
        metrics.update(metrics_extra)
    return BenchRecord(suite=suite, benchmark=benchmark, point=point,
                       metrics=metrics, counters=dict(counters or {}))


def _verdicts(findings):
    return {f.metric: f.verdict for f in findings}


class TestBaseline:
    def test_median_of_window(self):
        assert baseline_of([1.0, 2.0, 100.0, 2.0, 3.0, 2.0],
                           window=5) == 2.0

    def test_window_limits_lookback(self):
        # only the last 2 values participate
        assert baseline_of([1000.0, 4.0, 6.0], window=2) == 5.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            baseline_of([])


class TestCompareRecords:
    def test_single_record_is_new_and_never_gates(self):
        findings = compare_records([_rec()])
        assert findings
        assert all(f.verdict == NEW for f in findings)
        assert not any(f.fails_gate for f in findings)

    def test_identical_records_report_zero_regressions(self):
        findings = compare_records([_rec(), _rec()])
        non_ok = [f for f in findings if f.verdict != OK]
        assert non_ok == []

    def test_more_joules_is_a_gated_regression(self):
        findings = compare_records([_rec(joules=100.0),
                                    _rec(joules=110.0)])
        verdicts = _verdicts(findings)
        assert verdicts["joules"] == REGRESSION
        assert any(f.fails_gate for f in findings)

    def test_fewer_joules_is_an_improvement_not_a_gate(self):
        findings = compare_records([_rec(joules=100.0),
                                    _rec(joules=90.0)])
        verdicts = _verdicts(findings)
        assert verdicts["joules"] == IMPROVEMENT
        assert not any(f.fails_gate for f in findings)

    def test_lower_efficiency_is_a_regression(self):
        findings = compare_records([_rec(rpsw=2.0), _rec(rpsw=1.5)])
        assert _verdicts(findings)[
            "records_per_second_per_watt"] == REGRESSION

    def test_host_seconds_never_gates(self):
        findings = compare_records([_rec(host=0.5), _rec(host=5.0)])
        host = [f for f in findings if f.metric == "host_seconds"]
        assert host[0].verdict == OK          # infinite tolerance
        assert not host[0].fails_gate

    def test_counter_change_is_changed_and_gates(self):
        findings = compare_records([
            _rec(counters={"buffer.hits": 10}),
            _rec(counters={"buffer.hits": 11})])
        counter = [f for f in findings
                   if f.metric == "counter:buffer.hits"][0]
        assert counter.verdict == CHANGED
        assert counter.fails_gate

    def test_disappeared_metric_is_missing_and_gates(self):
        first = _rec(metrics_extra={"records": 10.0})
        second = _rec()
        findings = compare_records([first, second])
        missing = [f for f in findings if f.metric == "records"][0]
        assert missing.verdict == MISSING
        assert missing.fails_gate

    def test_exact_tolerance_flags_tiny_but_real_drift(self):
        findings = compare_records([_rec(joules=100.0),
                                    _rec(joules=100.001)])
        assert _verdicts(findings)["joules"] == REGRESSION

    def test_tolerance_allows_1e9_noise(self):
        findings = compare_records([_rec(joules=100.0),
                                    _rec(joules=100.0 + 1e-10)])
        assert _verdicts(findings)["joules"] == OK

    def test_median_baseline_resists_one_bad_append(self):
        history = [_rec(joules=100.0), _rec(joules=100.0),
                   _rec(joules=500.0), _rec(joules=100.0),
                   _rec(joules=100.0), _rec(joules=100.0)]
        findings = compare_records(history, window=5)
        assert _verdicts(findings)["joules"] == OK

    def test_empty_history(self):
        assert compare_records([]) == []


class TestCompareStore:
    def test_cross_suite_and_report_shape(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(_rec(suite="a", joules=10.0))
        store.append(_rec(suite="a", joules=10.0))
        store.append(_rec(suite="b", joules=10.0))
        store.append(_rec(suite="b", joules=12.0))
        report = compare_store(store)
        assert report.has_regressions
        suites = {f.suite for f in report.regressions()}
        assert suites == {"b"}
        # worst verdicts sort first
        assert report.findings[0].verdict == REGRESSION

    def test_suite_filter(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(_rec(suite="a", joules=10.0))
        store.append(_rec(suite="a", joules=99.0))
        report = compare_store(store, suites=["nope"])
        assert report.findings == []

    def test_summary_and_serialization(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(_rec(joules=10.0))
        store.append(_rec(joules=11.0))
        report = compare_store(store)
        assert report.summary().startswith("FAIL")
        clone = RegressionReport.from_dict(report.to_dict())
        assert _verdicts(clone.findings) == _verdicts(report.findings)
        assert clone.has_regressions

    def test_delta_properties(self):
        findings = compare_records([_rec(joules=100.0),
                                    _rec(joules=110.0)])
        joules = [f for f in findings if f.metric == "joules"][0]
        assert joules.delta == pytest.approx(10.0)
        assert joules.delta_pct == pytest.approx(10.0)
