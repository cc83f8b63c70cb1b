"""Unit tests: BenchRecord, metric extraction, and the JSONL ledger."""

from __future__ import annotations

import json

import pytest

from repro.errors import ReproError
from repro.observatory import (
    BenchRecord,
    HistoryStore,
    compare_store,
    extract_work_units,
    history_filename,
    point_label,
    point_metrics,
    suite_of_filename,
)


class _FakeThroughput:
    queries_completed = 18
    makespan_seconds = 120.0
    energy_joules = 60000.0


class _FakeScan:
    bytes_read = 2.4e9


class _NoWork:
    pass


class TestMetricExtraction:
    def test_queries_are_work_units(self):
        assert extract_work_units(_FakeThroughput()) == (18.0, "query")

    def test_bytes_fall_back(self):
        assert extract_work_units(_FakeScan()) == (2.4e9, "byte")

    def test_unknown_report_degrades_to_zero(self):
        assert extract_work_units(_NoWork()) == (0.0, "record")

    def test_bool_attributes_are_not_work_units(self):
        class Weird:
            records = True
        assert extract_work_units(Weird()) == (0.0, "record")

    def test_point_metrics_derivations(self):
        m = point_metrics(sim_seconds=10.0, joules=500.0, records=1000.0,
                          host_seconds=0.25)
        assert m["watts"] == pytest.approx(50.0)
        assert m["joules_per_record"] == pytest.approx(0.5)
        assert m["records_per_second"] == pytest.approx(100.0)
        assert m["records_per_second_per_watt"] == pytest.approx(2.0)
        assert m["host_seconds"] == 0.25

    def test_point_metrics_omits_undefined_ratios(self):
        m = point_metrics(sim_seconds=0.0, joules=0.0)
        assert "watts" not in m
        assert "joules_per_record" not in m
        assert "records_per_second_per_watt" not in m

    def test_point_label_uses_only_axes(self):
        knobs = {"disks": 36, "streams": 6, "seed": 1}
        assert point_label(knobs, ["disks"]) == "disks=36"
        assert point_label(knobs, []) == "defaults"
        assert point_label(knobs, ["streams", "disks"]) == \
            "disks=36 streams=6"


class TestRecordRoundTrip:
    def test_to_from_dict(self):
        record = BenchRecord(
            suite="core", benchmark="fig2", point="compressed=True",
            metrics={"joules": 487.0, "sim_seconds": 5.5},
            counters={"buffer.hits": 12.0},
            record_unit="byte", spec_hash="abc", git_sha="deadbee",
            host={"python": "3.11"}, recorded_at="2026-08-05T00:00:00",
            seq=3, timelines=[{"name": "cpu", "times": [0.0],
                               "watts": [90.0]}])
        clone = BenchRecord.from_dict(record.to_dict())
        assert clone == record

    def test_series_key(self):
        record = BenchRecord(suite="s", benchmark="b", point="p")
        assert record.series_key() == ("b", "p")


class TestHistoryFilenames:
    def test_round_trip(self):
        assert history_filename("core") == "BENCH_core.json"
        assert suite_of_filename("BENCH_core.json") == "core"

    def test_non_history_names_rejected(self):
        assert suite_of_filename("README.md") is None
        assert suite_of_filename("BENCH_.json") is None

    def test_bad_suite_name_raises(self):
        with pytest.raises(ReproError):
            history_filename("../escape")
        with pytest.raises(ReproError):
            history_filename("")


class TestHistoryStore:
    def _record(self, suite="core", benchmark="fig2", point="defaults",
                joules=1.0):
        return BenchRecord(suite=suite, benchmark=benchmark,
                           point=point, metrics={"joules": joules})

    def test_append_assigns_monotone_seq(self, tmp_path):
        store = HistoryStore(tmp_path)
        first = store.append(self._record(joules=1.0))
        second = store.append(self._record(joules=2.0))
        assert (first.seq, second.seq) == (0, 1)
        loaded = store.load("core")
        assert [r.metrics["joules"] for r in loaded] == [1.0, 2.0]
        assert [r.seq for r in loaded] == [0, 1]

    def test_append_is_append_only(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(self._record(joules=1.0))
        before = store.path("core").read_text()
        store.append(self._record(joules=2.0))
        after = store.path("core").read_text()
        assert after.startswith(before)

    def test_malformed_lines_are_skipped(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(self._record(joules=1.0))
        with open(store.path("core"), "a", encoding="utf-8") as fh:
            fh.write("{torn json\n")
        store.append(self._record(joules=2.0))
        assert [r.metrics["joules"] for r in store.load("core")] == \
            [1.0, 2.0]

    @pytest.mark.parametrize("bad", ["oops", True, None, [1.0]])
    def test_non_numeric_metric_lines_are_skipped(self, tmp_path, bad):
        store = HistoryStore(tmp_path)
        store.append(self._record(joules=1.0))
        row = json.loads(store.path("core").read_text())
        row["metrics"]["joules"] = bad
        row["counters"] = {"hits": bad}
        with open(store.path("core"), "a", encoding="utf-8") as fh:
            fh.write(json.dumps(row) + "\n")
        store.append(self._record(joules=1.0))
        assert [r.metrics["joules"] for r in store.load("core")] == \
            [1.0, 1.0]
        assert not compare_store(store).has_regressions

    def test_suites_listing(self, tmp_path):
        store = HistoryStore(tmp_path)
        assert store.suites() == []
        store.append(self._record(suite="core"))
        store.append(self._record(suite="ci"))
        (tmp_path / "BENCH_not a suite!.json").write_text("{}\n")
        assert store.suites() == ["ci", "core"]

    def test_series_grouping_preserves_order(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(self._record(point="a", joules=1.0))
        store.append(self._record(point="b", joules=9.0))
        store.append(self._record(point="a", joules=2.0))
        series = store.series("core")
        assert set(series) == {("fig2", "a"), ("fig2", "b")}
        assert [r.metrics["joules"] for r in series[("fig2", "a")]] == \
            [1.0, 2.0]

    def test_missing_suite_loads_empty(self, tmp_path):
        assert HistoryStore(tmp_path).load("ghost") == []

    def test_lines_are_canonical_json(self, tmp_path):
        store = HistoryStore(tmp_path)
        store.append(self._record())
        line = store.path("core").read_text().strip()
        parsed = json.loads(line)
        assert parsed["suite"] == "core"
        # canonical: no spaces after separators, sorted keys
        assert ": " not in line
        assert list(parsed) == sorted(parsed)
