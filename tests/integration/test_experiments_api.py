"""Integration tests for the core experiment APIs (fast settings) and
the replay machinery for random I/O and shared passes."""

import pytest

from repro.core.profiler import EnergyProfile, ProfilePoint
from repro.hardware.profiles import commodity
from repro.relational.executor import ExecutionContext, Executor
from repro.relational.operators import CostCollector, TableScan
from repro.relational.operators.base import IoRequest
from repro.relational.schema import Column, TableSchema
from repro.relational.types import DataType
from repro.runner import ExperimentSpec, Runner
from repro.sim import Simulation
from repro.storage.manager import StorageManager
from repro.workloads.joulesort import run_joulesort
from repro.units import KIB, MB


def run_figure(experiment: str, knobs: dict):
    return Runner(workers=1, cache=False).run(
        ExperimentSpec(experiment, knobs=knobs))


def disk_profile(run) -> EnergyProfile:
    return EnergyProfile("disks", [
        ProfilePoint(p.knobs["disks"], p.report.makespan_seconds,
                     p.report.energy_joules, p.report.queries_completed)
        for p in run.points])


#: the tiny Figure 1 settings (two disk counts, one query per stream)
TINY_FIG1 = {"disks": [6, 24], "streams": 2, "queries_per_stream": 1,
             "physical_scale_factor": 0.0005,
             "logical_scale_factor": 1.0, "spindle_groups": 6}


class TestFigureApis:
    def test_run_figure2_structure(self):
        run = run_figure("fig2", {"scale_factor": 0.001})
        assert [p.knobs["compressed"] for p in run.points] == [False, True]
        u, c = run.reports
        assert not u.compressed and c.compressed
        # the inversion: faster, yet hungrier
        assert c.total_seconds < u.total_seconds
        assert c.energy_joules > u.energy_joules
        assert u.total_seconds / c.total_seconds > 1.5

    def test_run_figure1_tiny_settings(self):
        run = run_figure("fig1", TINY_FIG1)
        assert disk_profile(run).best_performance().knob_value == 24
        assert len(run.points) == 2
        times = [r.makespan_seconds for r in run.reports]
        assert times[1] < times[0]

    def test_profile_rows_exposed(self):
        gain, drop = disk_profile(run_figure("fig1", TINY_FIG1)).tradeoff()
        assert isinstance(gain, float)
        assert 0.0 <= drop < 1.0


class TestReplayMachinery:
    def build(self):
        sim = Simulation()
        server, array = commodity(sim)
        storage = StorageManager(sim)
        table = storage.create_table(
            TableSchema("t", [Column("k", DataType.INT64,
                                     nullable=False)]),
            layout="row", placement=array)
        table.load([(i,) for i in range(500)])
        return sim, server, array, table

    def test_random_io_replay_charges_positionings(self):
        """A pipeline with n_random_requests must take far longer than
        the same bytes streamed sequentially on spinning disks."""
        sequential = self._time_for_requests(0)
        random200 = self._time_for_requests(200)
        assert random200 > 5 * sequential

    def _replay(self, executor, collector, rows):
        from repro.relational.executor import QueryResult
        sim = executor.ctx.sim
        started = sim.now
        for pipeline in collector.pipelines:
            yield from executor._replay_pipeline(pipeline)
        meter = executor.ctx.server.meter
        return QueryResult(
            rows=rows, columns=["k"], started_at=started,
            finished_at=sim.now,
            energy_joules=meter.energy_joules(started, sim.now),
            active_energy_joules=0.0, breakdown_joules={},
            pipelines=collector.pipelines, cpu_busy_seconds=0.0,
            io_busy_seconds=0.0)

    def _time_for_requests(self, requests):
        sim, server, array, table = self.build()
        executor = Executor(ExecutionContext(sim=sim, server=server))
        collector = CostCollector()
        rows = TableScan(table).execute(collector)
        pipeline = collector.pipelines[0]
        nbytes = pipeline.io[0].nbytes
        pipeline.io = [IoRequest(array, nbytes, stream="seq",
                                 n_random_requests=requests)]
        result = sim.run(until=sim.spawn(
            self._replay(executor, collector, rows)))
        return result.elapsed_seconds

    def test_preview_pipelines(self):
        sim, server, array, table = self.build()
        collector = CostCollector(scale=10.0)
        TableScan(table).execute(collector)
        [pipeline] = collector.pipelines
        assert pipeline.io_bytes > 0
        assert pipeline.cpu_cycles > 0
        assert pipeline.parallelism == 1


class TestJouleSortApi:
    def test_report_metrics(self):
        sim = Simulation()
        server, array = commodity(sim)
        report = run_joulesort(sim, server, array,
                               logical_records=100_000)
        assert report.records == 100_000
        assert report.records_per_joule > 0
        assert report.records_per_second > 0
        assert not report.spilled

    def test_small_grant_spills(self):
        sim = Simulation()
        server, array = commodity(sim)
        report = run_joulesort(sim, server, array,
                               logical_records=100_000,
                               memory_grant_bytes=64 * KIB)
        assert report.spilled

    def test_validation(self):
        from repro.errors import WorkloadError
        sim = Simulation()
        server, array = commodity(sim)
        with pytest.raises(WorkloadError):
            run_joulesort(sim, server, array, logical_records=10)


class TestProfilerIntegration:
    def test_sweep_against_real_scans(self):
        """Sweep the scale knob against real executions: performance
        falls and energy rises monotonically with data volume."""
        def evaluate(scale):
            sim = Simulation()
            server, array = commodity(sim)
            storage = StorageManager(sim)
            table = storage.create_table(
                TableSchema("t", [Column("k", DataType.INT64,
                                         nullable=False)]),
                layout="row", placement=array)
            table.load([(i,) for i in range(500)])
            ctx = ExecutionContext(sim=sim, server=server, scale=scale)
            result = Executor(ctx).run(TableScan(table))
            return result.elapsed_seconds, result.energy_joules

        points = [evaluate(scale) for scale in (10.0, 100.0, 1000.0)]
        times = [seconds for seconds, _ in points]
        assert times == sorted(times)
