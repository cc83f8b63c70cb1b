"""Integration tests for telemetry: energy conservation against the
meter, trace transport through the runner (pool, cache, events, JSON),
and the ``trace`` CLI."""

import json

import pytest

from repro.runner import (
    ExperimentSpec,
    PointObserved,
    Runner,
    RunResult,
    get_experiment,
    point_key,
)
from repro.runner.cli import main as cli_main
from repro.telemetry import TelemetrySink, capture
from repro.workloads.scan_workload import run_scan

#: fast scan knobs for runner-transport tests
TINY_SCAN = {"scale_factor": [0.0005, 0.001], "compressed": False}


@pytest.fixture(scope="module")
def scan_trace():
    """One traced scan, shared by the conservation assertions."""
    with capture() as collector:
        report = run_scan(scale_factor=0.001)
    return report, collector.finalize()


class TestEnergyConservation:
    def test_active_totals_match_report_exactly(self, scan_trace):
        report, trace = scan_trace
        assert sum(trace.active_totals().values()) == pytest.approx(
            report.energy_joules, abs=1e-9)

    def test_root_span_covers_the_whole_capture(self, scan_trace):
        _, trace = scan_trace
        assert trace.total_joules > 0
        assert trace.attributed_joules() == pytest.approx(
            trace.total_joules, rel=1e-9)

    def test_pipeline_spans_partition_the_query(self, scan_trace):
        _, trace = scan_trace
        (query,) = trace.spans
        assert query.name == "query:tablescan"
        assert sum(c.total_joules for c in query.children) == pytest.approx(
            query.total_joules, rel=1e-9)

    def test_span_energy_matches_device_timelines(self, scan_trace):
        _, trace = scan_trace
        for dev in trace.devices:
            spanned = sum(s.device_joules.get(dev.name, 0.0)
                          for s in trace.spans)
            assert spanned == pytest.approx(dev.energy_joules, abs=1e-9)

    def test_timeline_integrates_to_its_energy(self, scan_trace):
        _, trace = scan_trace
        dev = trace.device("cpu")
        if dev.n_raw_samples != len(dev.times):
            pytest.skip("series was downsampled; integral is approximate")
        integral = sum(w * (t1 - t0) for t0, t1, w in
                       zip(dev.times, dev.times[1:], dev.watts))
        integral += dev.watts[-1] * (trace.ended_at - dev.times[-1])
        assert integral == pytest.approx(dev.energy_joules, rel=1e-9)


class TestRunnerTransport:
    def test_traced_run_attaches_telemetry_and_emits_events(self):
        from repro.runner import ExperimentSpec
        events = []
        run = Runner(cache=False, trace=True,
                     on_event=events.append).run(
            ExperimentSpec("scan", knobs=TINY_SCAN))
        assert all(p.telemetry is not None for p in run.points)
        traced = [e for e in events if isinstance(e, PointObserved)]
        assert [(e.index, e.kind) for e in traced] == [
            (0, "telemetry"), (1, "telemetry")]
        for p, e in zip(run.points, traced):
            assert e.observation is p.telemetry

    def test_untraced_run_has_no_telemetry(self):
        from repro.runner import ExperimentSpec
        run = Runner(cache=False).run(
            ExperimentSpec("scan", knobs=TINY_SCAN))
        assert all(p.telemetry is None for p in run.points)
        assert all("telemetry" not in p.to_dict() for p in run.points)

    def test_trace_key_is_distinct_but_untraced_key_is_stable(self):
        knobs = {"scale_factor": 0.001}
        assert point_key("scan", knobs, 1) == point_key(
            "scan", knobs, 1, observe=())
        assert point_key("scan", knobs, 1) != point_key(
            "scan", knobs, 1, observe=("telemetry",))

    def test_cache_hit_preserves_traces(self, tmp_path):
        from repro.runner import ExperimentSpec
        spec = ExperimentSpec("scan", knobs=TINY_SCAN)
        cache = tmp_path / "cache"
        fresh = Runner(cache=cache, trace=True).run(spec)
        sink = TelemetrySink()
        again = Runner(cache=cache, trace=True, on_event=sink).run(spec)
        assert again.cache_hits == len(again.points) == 2
        assert all(p.telemetry is not None for p in again.points)
        assert again.to_dict() == fresh.to_dict()
        # the sink sees cache-hit traces too
        assert sorted(sink.traces) == [0, 1]
        # an untraced run of the same spec misses the traced entries
        bare = Runner(cache=cache).run(spec)
        assert bare.cache_hits == 0
        assert [p.joules for p in bare.points] == \
            [p.joules for p in fresh.points]

    def test_pool_run_is_byte_identical_to_serial(self):
        from repro.runner import ExperimentSpec
        spec = ExperimentSpec("scan", knobs=TINY_SCAN)
        serial = Runner(cache=False, trace=True).run(spec)
        pooled = Runner(workers=2, cache=False, trace=True).run(spec)
        assert pooled.to_json() == serial.to_json()

    def test_run_result_round_trips_with_telemetry(self):
        from repro.runner import ExperimentSpec
        run = Runner(cache=False, trace=True).run(
            ExperimentSpec("scan", knobs=TINY_SCAN))
        again = RunResult.from_dict(json.loads(run.to_json()))
        assert again.to_json() == run.to_json()
        assert again.points[0].telemetry is not None

    def test_fig2_trace_matches_energy_profile_within_1e9(self):
        sink = TelemetrySink()
        run = Runner(cache=False, trace=True,
                     on_event=sink).run(ExperimentSpec(
                         "fig2", profile=get_experiment("fig2").profile))
        profile = run.profile()
        for point, ppoint in zip(run.points, profile.points):
            active = sum(point.telemetry.active_totals().values())
            assert abs(active - ppoint.energy_joules) < 1e-9

    def test_sink_rollups(self):
        from repro.runner import ExperimentSpec
        sink = TelemetrySink()
        Runner(cache=False, trace=True, on_event=sink).run(
            ExperimentSpec("scan", knobs=TINY_SCAN))
        totals = sink.device_totals()
        assert totals and all(v >= 0 for v in totals.values())
        assert sorted(sink.traces) == [0, 1]


class TestTraceCli:
    ARGS = ["trace", "scan", "--no-cache", "--quiet",
            "--scale-factor", "0.0005,0.001"]

    def test_renders_flamegraph_and_tables(self, capsys):
        assert cli_main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "energy flamegraph" in out
        assert "query:tablescan" in out
        assert "metered_J" in out

    def test_csv_export_splits_by_point(self, capsys):
        assert cli_main([*self.ARGS, "--csv"]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert lines[0] == "point,record,id,parent,name,device,a,b,c"
        # each point's rows: one trace row, then devices with energy
        for index in ("0", "1"):
            rows = [line.split(",")[1:] for line in lines[1:]
                    if line.startswith(f"{index},")]
            assert rows[0][0] == "trace"
            assert sum(float(row[5]) for row in rows
                       if row[0] == "device") > 0

    def test_json_export_carries_telemetry(self, capsys):
        assert cli_main([*self.ARGS, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all("telemetry" in p for p in data["points"])
