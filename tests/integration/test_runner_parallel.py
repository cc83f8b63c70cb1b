"""Integration tests for the parallel runner: a pooled Figure 1 sweep
must be bit-identical to the serial one, and repeats must be 100%
cache hits."""

from repro.runner import ExperimentSpec, Runner
from repro.workloads.scan_workload import run_scan

#: the tiny Figure 1 settings the experiments-API tests already use
TINY_FIG1 = {
    "disks": [6, 24],
    "streams": 2,
    "queries_per_stream": 1,
    "physical_scale_factor": 0.0005,
    "logical_scale_factor": 1.0,
    "spindle_groups": 6,
}


class TestParallelDeterminism:
    def test_parallel_fig1_bit_identical_then_fully_cached(
            self, tmp_path):
        spec = ExperimentSpec("fig1", knobs=TINY_FIG1)
        serial = Runner(workers=1, cache=False).run(spec)
        parallel = Runner(workers=4, cache=tmp_path / "cache").run(spec)
        # byte-identical serialized output, pool or no pool
        assert parallel.to_json() == serial.to_json()
        assert parallel.cache_hits == 0
        # second invocation of the same spec: 100% cache hits...
        again = Runner(workers=4, cache=tmp_path / "cache").run(spec)
        assert again.cache_hits == len(again.points) == 2
        assert all(p.cache_hit for p in again.points)
        # ...and still the same bytes
        assert again.to_json() == serial.to_json()

    def test_parallel_scan_grid_matches_direct_calls(self, tmp_path):
        spec = ExperimentSpec("scan", knobs={
            "compressed": [False, True],
            "scale_factor": 0.001,
        })
        run = Runner(workers=2, cache=tmp_path / "cache").run(spec)
        for point in run.points:
            direct = run_scan(compressed=point.knobs["compressed"],
                              scale_factor=0.001)
            assert point.report.to_dict() == direct.to_dict()


class TestAggregation:
    def test_fig1_aggregate_is_figure1result(self, tmp_path):
        run = Runner(workers=2, cache=tmp_path / "cache").run(
            ExperimentSpec("fig1", knobs=TINY_FIG1))
        result = run.aggregate()
        assert result.fastest_disks == 24
        assert [r.to_dict() for r in result.reports] == \
            [r.to_dict() for r in run.reports]

    def test_proportionality_profile_fallback(self, tmp_path):
        run = Runner(workers=2, cache=tmp_path / "cache").run(
            ExperimentSpec("proportionality", knobs={
                "utilization": [0.5, 1.0],
                "window_seconds": 10.0,
            }))
        profile = run.aggregate()
        assert profile.knob_name == "utilization"
        watts = [p.average_power_watts for p in profile.points]
        assert watts[1] > watts[0] > 0
