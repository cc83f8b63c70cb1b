"""Unit tests: the ledger Recorder."""

from __future__ import annotations

from repro.observatory import HistoryStore, Recorder
from repro.observatory.recorder import timelines_of
from repro.runner import ExperimentSpec, Runner
from repro.telemetry import TelemetryTrace
from repro.telemetry.trace import DeviceTimeline

#: a cheap real sweep: the A8 duty-cycle experiment, two points
SWEEP_KNOBS = {"utilization": [0.25, 0.75], "window_seconds": 10.0}


def _trace():
    return TelemetryTrace(
        started_at=0.0, ended_at=2.0,
        devices=[DeviceTimeline(
            name="cpu", times=[0.0, 1.0, 2.0],
            watts=[30.0, 90.0, 30.0], energy_joules=120.0,
            busy_seconds=1.0)],
        counters={"buffer.hits": 4.0})


class TestRecorder:
    def test_record_run_appends_one_record_per_point(self, tmp_path):
        spec = ExperimentSpec("proportionality", knobs=SWEEP_KNOBS)
        result = Runner(cache=False).run(spec)
        recorder = Recorder(tmp_path, suite="unit")
        appended = recorder.record_run(result)
        assert len(appended) == 2
        assert [r.point for r in appended] == [
            "utilization=0.25", "utilization=0.75"]
        store = HistoryStore(tmp_path)
        loaded = store.load("unit")
        assert [r.seq for r in loaded] == [0, 1]
        assert all(r.spec_hash == spec.spec_hash() for r in loaded)
        assert all(r.metrics["joules"] > 0 for r in loaded)

    def test_record_report_with_trace(self, tmp_path):
        class FakeReport:
            records = 100.0
            seconds = 2.0
            energy_joules = 120.0
        recorder = Recorder(tmp_path, suite="unit")
        record = recorder.record_report("bench", FakeReport(),
                                        trace=_trace())
        assert record.counters == {"buffer.hits": 4.0}
        assert record.metrics["joules_per_record"] == 1.2
        assert record.timelines[0]["name"] == "cpu"

    def test_timelines_are_downsampled(self):
        trace = TelemetryTrace(devices=[DeviceTimeline(
            name="cpu", times=[float(i) for i in range(1000)],
            watts=[1.0] * 1000, energy_joules=999.0)])
        (tl,) = timelines_of(trace, limit=64)
        assert len(tl["times"]) <= 64
        assert tl["times"][0] == 0.0 and tl["times"][-1] == 999.0
        assert tl["energy_joules"] == 999.0
