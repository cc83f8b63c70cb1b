"""Integration tests: pipelines on the fleet, end to end.

Covers the three contracts the ISSUE pins: per-stage telemetry Joules
reconcile to the closed-form report at 1e-9, the svc_etl experiment
measures a real Joules delta between scheduling modes with every
freshness SLA met, and the batch-tenant surface (admission exemption,
engine choice, catalog publication) behaves as documented.
"""

import math

import pytest

from repro.runner import ExperimentSpec, Runner
from repro.service.workload import build_diurnal_stream
from repro.telemetry import capture
from repro.workloads.pipelines import (EtlScheduler,
                                       default_pipeline, etl_point,
                                       run_pipeline)
from repro.workloads.pipelines.run import PIPELINE_SPAN_PREFIX


class TestSpanAttribution:
    def reconcile(self, interactive=None):
        with capture() as cap:
            report = run_pipeline(default_pipeline(),
                                  interactive=interactive)
        trace = cap.finalize()
        roots = [s for s in trace.spans
                 if s.name.startswith(PIPELINE_SPAN_PREFIX)]
        assert len(roots) == len(default_pipeline().stages)
        span_sum = sum(s.total_joules for s in roots)
        assert span_sum == pytest.approx(report.energy_joules,
                                         rel=1e-9)
        return roots, report

    def test_stage_joules_sum_to_report_standalone(self):
        self.reconcile()

    def test_stage_joules_sum_to_report_with_interactive(self):
        stream = build_diurnal_stream(300.0, 150.0, seed=3)
        self.reconcile(interactive=stream)

    def test_tiles_partition_the_run(self):
        roots, report = self.reconcile()
        windows = sorted((s.started_at, s.ended_at) for s in roots)
        assert windows[0][0] == 0.0
        assert windows[-1][1] == pytest.approx(
            report.service.makespan_seconds)
        for (_, end), (start, _) in zip(windows, windows[1:]):
            assert start == pytest.approx(end)


class TestSvcEtlExperiment:
    @pytest.fixture(scope="class")
    def grid(self):
        """(mode, load) -> EtlReport over the registered sweep."""
        run = Runner(workers=4, cache=False).run(ExperimentSpec("svc_etl"))
        return {(p.knobs["mode"], p.knobs["load"]): p.report
                for p in run.points}

    @pytest.fixture(scope="class")
    def marginal(self, grid):
        """Joules each mode adds over the same day's no-ETL baseline,
        summed across load levels."""
        return {mode: sum(r.energy_joules - grid["none", load].energy_joules
                          for (m, load), r in grid.items() if m == mode)
                for mode in ("eager", "delayed", "consolidated")}

    def test_headline_measures_a_joules_delta(self, marginal):
        assert marginal["eager"] > 0
        # the ROADMAP answer: spending the freshness window is worth
        # real Joules — both alternatives beat eager in aggregate
        assert marginal["delayed"] < marginal["eager"]
        assert marginal["consolidated"] < marginal["eager"]

    def test_all_freshness_and_slas_met(self, grid):
        for (mode, _load), r in grid.items():
            batch = {s.tenant for s in r.stages}
            assert all(t.sla_met for t in r.service.tenants
                       if t.tenant not in batch)
            if mode != "none":
                assert r.freshness_met
                assert r.precedence_violations == 0

    def test_marginal_arithmetic_uses_the_none_baseline(self, grid):
        # the baseline is the same day with no pipeline, so every mode
        # adds Joules over it at every load
        for (mode, load), r in grid.items():
            base = grid["none", load]
            if mode == "none":
                assert not r.stages and r.plan is None
            else:
                assert r.energy_joules > base.energy_joules


class TestBatchTenantSurface:
    def test_event_engine_serves_batch_without_admission_limit(self):
        report = run_pipeline(default_pipeline())
        assert report.service.engine == "event"

    def test_admission_limit_exempts_batch_on_both_engines(self):
        # a limit this tight rejects bursty arrivals wholesale; batch
        # tenants are exempt, so every task must still complete
        event, loop = (run_pipeline(default_pipeline(),
                                    pack_backlog_seconds=0.2,
                                    admission_limit_seconds=1e-6,
                                    engine=engine)
                       for engine in ("auto", "loop"))
        assert event.service.engine == "event"
        assert event.service.to_dict() == loop.service.to_dict()
        assert all(s.completed == s.tasks for s in event.stages)
        assert event.freshness_met

    def test_load_stage_publishes_to_catalog(self):
        report = run_pipeline(default_pipeline())
        v = report.catalog[-1]
        assert v["dataset"] == "sales_daily"
        assert v["fresh"]
        assert v["version"] == report.pipeline_hash[:12]
        assert v["stage"] == "load_warehouse"

    def test_modes_order_completion_times(self):
        eager = etl_point(mode="eager", load=1.0)
        delayed = etl_point(mode="delayed", load=1.0)
        consolidated = etl_point(mode="consolidated", load=1.0)
        assert (eager.completion_seconds < delayed.completion_seconds
                <= consolidated.completion_seconds)
        for r in (eager, delayed, consolidated):
            assert r.freshness_met
            assert r.precedence_violations == 0

    def test_consolidated_respects_pacing(self):
        scheduler = EtlScheduler(mode="consolidated",
                                 consolidation_node_equivalents=1.5)
        p = default_pipeline()
        plan = scheduler.plan(
            p, __import__("repro.service.spec",
                          fromlist=["FleetSpec"]).FleetSpec.homogeneous(16))
        for stage in p.stages:
            times = scheduler.task_times(plan.planned(stage.name), stage)
            if stage.tasks < 2:
                continue
            gaps = times[1:] - times[:-1]
            demand = stage.seconds_per_task / gaps
            assert (demand <= 1.5 + 1e-9).all()


class TestFreshnessPressure:
    def test_tight_freshness_pulls_delayed_start_earlier(self):
        # a deadline too tight for the off-peak window clamps the
        # delayed start back toward the ready instant
        loose = etl_point(mode="delayed", load=0.0)
        tight = etl_point(mode="delayed", load=0.0,
                          freshness_sla_seconds=1000.0)
        assert tight.plan["start_seconds"] < loose.plan["start_seconds"]
        assert tight.plan["start_seconds"] >= 450.0
        assert tight.freshness_met

    def test_infeasible_freshness_raises(self):
        from repro.workloads.pipelines import PipelineError
        with pytest.raises(PipelineError, match="cannot meet"):
            etl_point(mode="eager", load=0.0,
                      freshness_sla_seconds=500.0)

    def test_stage_stats_expose_deadline_slack(self):
        r = etl_point(mode="delayed", load=1.0)
        slack = r.freshness_sla_seconds - r.completion_seconds
        assert math.isfinite(slack)
        assert slack > 0
        for s in r.stages:
            assert s.completion_seconds <= s.deadline_seconds
