"""Integration tests for telemetry: energy conservation against the
meter, trace transport through the runner (pool, cache, events, JSON),
and the ``trace`` CLI."""

import json

import pytest

from repro.runner import (
    ExperimentSpec,
    PointFinished,
    Runner,
    RunResult,
    get_experiment,
    point_key,
)
from repro.runner.cli import main as cli_main
from repro.telemetry import capture
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
        dev = next(d for d in trace.devices if d.name == "cpu")
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
        finished = [e for e in events if isinstance(e, PointFinished)]
        assert [e.index for e in finished] == [0, 1]

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
        again = Runner(cache=cache, trace=True).run(spec)
        assert again.cache_hits == len(again.points) == 2
        assert all(p.telemetry is not None for p in again.points)
        assert again.to_dict() == fresh.to_dict()
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
        run = Runner(cache=False, trace=True).run(ExperimentSpec(
            "fig2", profile=get_experiment("fig2").profile))
        for point in run.points:
            active = sum(point.telemetry.active_totals().values())
            assert abs(active - point.joules) < 1e-9


class TestTraceCli:
    ARGS = ["trace", "scan", "--no-cache", "--quiet",
            "--scale-factor", "0.0005,0.001"]

    def test_renders_flamegraph_and_tables(self, capsys):
        assert cli_main(self.ARGS) == 0
        out = capsys.readouterr().out
        assert "energy flamegraph" in out
        assert "query:tablescan" in out
        assert "metered_J" in out

    def test_json_export_carries_telemetry(self, capsys):
        assert cli_main([*self.ARGS, "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert all("telemetry" in p for p in data["points"])

    def test_warm_cache_prints_what_the_cold_run_printed(self, capsys,
                                                         tmp_path):
        args = ["trace", "scan", "--quiet", "--cache", str(tmp_path / "c"),
                "--scale-factor", "0.0005,0.001"]
        assert cli_main(args) == 0
        cold = capsys.readouterr().out
        assert cli_main([*args[:2], *args[3:]]) == 0
        warm = capsys.readouterr()
        assert "(2 cache hit(s))" in warm.err
        assert warm.out == cold

    def test_tiny_width_fails_before_any_point_runs(self, capsys,
                                                    tmp_path):
        cache = tmp_path / "c"
        assert cli_main(["trace", "scan", "--width", "5",
                         "--cache", str(cache)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: flamegraph width must be >= 10\n"
        assert not cache.exists()
