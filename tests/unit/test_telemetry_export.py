"""Unit tests for trace serialization and the exporters: the dict form
must invert exactly, the CSV must carry every value; the flamegraph and
table renderers must not lie about totals."""

import pytest

from repro.errors import ReproError
from repro.telemetry import (
    DeviceTimeline,
    SpanNode,
    TelemetryTrace,
    counter_rows,
    device_rows,
    render_flamegraph,
    trace_to_csv,
)


def make_trace() -> TelemetryTrace:
    child = SpanNode(name="pipe0", started_at=0.0, ended_at=1.0,
                     device_joules={"cpu": 30.0, "disk": 10.0},
                     active_joules={"cpu": 20.0})
    root = SpanNode(name="query", started_at=0.0, ended_at=2.0,
                    device_joules={"cpu": 60.0, "disk": 20.0},
                    active_joules={"cpu": 40.0}, children=[child])
    cpu = DeviceTimeline(name="cpu", times=[0.0, 1.0], watts=[30.0, 60.0],
                         energy_joules=90.0, active_energy_joules=40.0,
                         busy_seconds=1.6, n_raw_samples=2)
    disk = DeviceTimeline(name="disk", times=[0.0], watts=[10.0],
                          energy_joules=30.0, active_energy_joules=0.0,
                          busy_seconds=0.0, n_raw_samples=1)
    return TelemetryTrace(started_at=0.0, ended_at=3.0,
                          devices=[cpu, disk], spans=[root],
                          counters={"buffer.hit": 3.0,
                                    "wal.bytes_flushed": 636.0})


class TestTraceModel:
    def test_totals(self):
        trace = make_trace()
        assert trace.total_joules == pytest.approx(120.0)
        assert trace.active_total_joules == pytest.approx(40.0)
        assert trace.device_totals() == {"cpu": 90.0, "disk": 30.0}
        assert trace.attributed_joules() == pytest.approx(80.0)
        assert trace.unattributed_joules() == pytest.approx(40.0)
        assert trace.device("cpu").busy_seconds == pytest.approx(1.6)
        with pytest.raises(ReproError):
            trace.device("gpu")

    def test_span_total_joules(self):
        root = make_trace().spans[0]
        assert root.total_joules == pytest.approx(80.0)
        assert root.active_total_joules == pytest.approx(40.0)

    def test_dict_round_trip(self):
        trace = make_trace()
        again = TelemetryTrace.from_dict(trace.to_dict())
        assert again.to_dict() == trace.to_dict()

    def test_walk_order(self):
        trace = make_trace()
        assert [(d, s.name) for d, s in trace.all_spans()] == [
            (0, "query"), (1, "pipe0")]


class TestCsv:
    ROWS = [
        "record,id,parent,name,device,a,b,c",
        "trace,,,,,0.0,3.0,",
        "span,0,,query,,0.0,2.0,",
        "energy,0,,,cpu,60.0,40.0,",
        "energy,0,,,disk,20.0,,",
        "span,1,0,pipe0,,0.0,1.0,",
        "energy,1,,,cpu,30.0,20.0,",
        "energy,1,,,disk,10.0,,",
        "device,,,cpu,,90.0,40.0,1.6",
        "sample,,,,cpu,0.0,30.0,",
        "sample,,,,cpu,1.0,60.0,",
        "device,,,disk,,30.0,0.0,0.0",
        "sample,,,,disk,0.0,10.0,",
        "counter,,,buffer.hit,,3.0,,",
        "counter,,,wal.bytes_flushed,,636.0,,",
    ]

    def test_rows_carry_every_value(self):
        assert trace_to_csv(make_trace()).splitlines() == self.ROWS

    def test_multi_point_rows_carry_the_point(self):
        lines = trace_to_csv(make_trace(), point=3).splitlines()
        assert lines[0] == "point," + self.ROWS[0]
        assert lines[1:] == ["3," + row for row in self.ROWS[1:]]


class TestRendering:
    def test_flamegraph_mentions_every_span_and_total(self):
        out = render_flamegraph(make_trace())
        assert "query" in out and "pipe0" in out
        assert "120 J" in out
        # 40 J of the capture lies outside the root span
        assert "(unattributed)" in out

    def test_flamegraph_active_mode(self):
        out = render_flamegraph(make_trace(), active=True)
        assert "busy-time" in out
        assert "40 J" in out

    def test_flamegraph_rejects_tiny_width(self):
        with pytest.raises(ReproError):
            render_flamegraph(make_trace(), width=5)

    def test_flamegraph_empty_trace(self):
        out = render_flamegraph(TelemetryTrace())
        assert "no energy recorded" in out

    def test_device_rows_shares_sum_to_one(self):
        rows = device_rows(make_trace())
        assert [r[0] for r in rows] == ["cpu", "disk"]
        shares = [float(r[4].rstrip("%")) for r in rows]
        assert sum(shares) == pytest.approx(100.0)

    def test_counter_rows_sorted(self):
        assert counter_rows(make_trace()) == [
            ("buffer.hit", 3.0), ("wal.bytes_flushed", 636.0)]
