"""Integration tests for the heterogeneous-fleet frontier experiment:
the arXiv 1208.1933 wimpy-vs-beefy crossover must actually appear
across the ``svc_hetero`` load axis, the SLA axis must price wimpy
nodes out of latency-tight regimes, and the sweep result must
round-trip through its own ``from_dict``."""

import pytest

from repro.runner import ExperimentSpec
from repro.runner.registry import get_experiment
from repro.service import ServiceError
from repro.service.experiments import (COMPOSITIONS, HeteroSweepResult,
                                       composition_fleet, hetero_point)

QUERIES = 20_000
SEED = 2009


@pytest.fixture(scope="module")
def corner_reports():
    """The four load-extreme reports the crossover is read off."""
    return {
        (comp, load): hetero_point(comp, load=load, queries=QUERIES,
                                   seed=SEED)
        for comp in ("beefy", "wimpy") for load in (0.05, 1.2)}


class TestCompositions:
    def test_catalog_names_equal_capacity(self):
        fleets = {name: composition_fleet(name) for name in COMPOSITIONS}
        assert set(fleets) == {"beefy", "wimpy", "mixed"}
        capacities = [f.total_capacity for f in fleets.values()]
        # equal-capacity by design: the frontier compares composition,
        # not fleet size
        assert max(capacities) - min(capacities) < 0.1
        assert [c.name for c in fleets["mixed"].classes] \
            == ["beefy", "wimpy"]

    def test_unknown_composition_is_one_line_error(self):
        with pytest.raises(ServiceError, match="unknown composition"):
            composition_fleet("hyperscale")


class TestCrossover:
    def test_wimpy_wins_joules_at_trickle_load(self, corner_reports):
        assert corner_reports[("wimpy", 0.05)].joules_per_query \
            < corner_reports[("beefy", 0.05)].joules_per_query

    def test_beefy_wins_joules_at_high_load(self, corner_reports):
        assert corner_reports[("beefy", 1.2)].joules_per_query \
            < corner_reports[("wimpy", 1.2)].joules_per_query

    def test_headline_reports_the_sign_flip(self, corner_reports):
        sweep = HeteroSweepResult(
            compositions=[c for c, _l in corner_reports],
            loads=[l for _c, l in corner_reports],
            sla_scales=[1.0] * len(corner_reports),
            reports=list(corner_reports.values()))
        head = sweep.headline()
        assert head["low_load_winner"] == "wimpy"
        assert head["high_load_winner"] == "beefy"
        assert head["crossover"] is True

    def test_tight_sla_prices_wimpy_out(self):
        beefy = hetero_point("beefy", load=0.6, sla_scale=0.35,
                             queries=QUERIES, seed=SEED)
        wimpy = hetero_point("wimpy", load=0.6, sla_scale=0.35,
                             queries=QUERIES, seed=SEED)
        assert beefy.slas_met
        assert not wimpy.slas_met
        # the SLA-respecting verdict: beefy wins even though its raw
        # Joules/query may lose, because a missed SLA cannot win
        sweep = HeteroSweepResult(
            compositions=["beefy", "wimpy"], loads=[0.6, 0.6],
            sla_scales=[0.35, 0.35], reports=[beefy, wimpy])
        ((_l, _s, _bj, _wj, winner),) = sweep.crossover_rows()
        assert winner == "beefy"

    def test_per_class_rollups_cover_the_mixed_fleet(self):
        report = hetero_point("mixed", load=0.6, queries=QUERIES,
                              seed=SEED)
        assert {c.node_class for c in report.classes} \
            == {"beefy", "wimpy"}
        assert sum(c.completed for c in report.classes) \
            == report.queries_completed


class TestRunnerTransport:
    def test_svc_hetero_is_registered_with_sweep_axes(self):
        exp = get_experiment("svc_hetero")
        assert sorted(exp.defaults["composition"]) \
            == ["beefy", "mixed", "wimpy"]
        assert len(exp.defaults["load"]) >= 3
        assert len(exp.defaults["sla_scale"]) >= 2
        # sweep axes expand into one point per grid cell
        spec = ExperimentSpec("svc_hetero")
        assert len(spec.points()) == (
            len(exp.defaults["composition"]) * len(exp.defaults["load"])
            * len(exp.defaults["sla_scale"]))

    def test_hetero_sweep_result_round_trips(self, corner_reports):
        sweep = HeteroSweepResult(
            compositions=[c for c, _l in corner_reports],
            loads=[l for _c, l in corner_reports],
            sla_scales=[1.0] * len(corner_reports),
            reports=list(corner_reports.values()))
        back = HeteroSweepResult.from_dict(sweep.to_dict())
        assert isinstance(back, HeteroSweepResult)
        assert back.to_dict() == sweep.to_dict()

    def test_parallel_arrays_must_agree(self):
        with pytest.raises(ServiceError, match="arrays disagree"):
            HeteroSweepResult(compositions=["beefy"], loads=[],
                              sla_scales=[1.0], reports=[])

    def test_report_at_unknown_point_lists_what_ran(self, corner_reports):
        sweep = HeteroSweepResult(
            compositions=[c for c, _l in corner_reports],
            loads=[l for _c, l in corner_reports],
            sla_scales=[1.0] * len(corner_reports),
            reports=list(corner_reports.values()))
        with pytest.raises(ServiceError, match="no point"):
            sweep.report_at("mixed", 9.9, 1.0)
