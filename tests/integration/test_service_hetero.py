"""Integration tests for the heterogeneous-fleet frontier experiment:
the arXiv 1208.1933 wimpy-vs-beefy crossover must actually appear
across the ``svc_hetero`` load axis, and the SLA axis must price wimpy
nodes out of latency-tight regimes."""

import pytest

from repro.runner import ExperimentSpec
from repro.runner.registry import get_experiment
from repro.service import ServiceError
from repro.service.experiments import (COMPOSITIONS, composition_fleet,
                                       hetero_point)

QUERIES = 20_000
SEED = 2009


@pytest.fixture(scope="module")
def corner_reports():
    """The four load-extreme reports the crossover is read off."""
    return {
        (comp, load): hetero_point(comp, load=load, queries=QUERIES,
                                   seed=SEED)
        for comp in ("beefy", "wimpy") for load in (0.05, 1.2)}


def winner(beefy, wimpy):
    """The SLA-respecting verdict: a composition that misses an SLA
    cannot win; otherwise the cheaper Joules/query wins."""
    if beefy.slas_met != wimpy.slas_met:
        return "beefy" if beefy.slas_met else "wimpy"
    return ("wimpy" if wimpy.joules_per_query < beefy.joules_per_query
            else "beefy")


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
        assert [winner(corner_reports[("beefy", load)],
                       corner_reports[("wimpy", load)])
                for load in (0.05, 1.2)] == ["wimpy", "beefy"]

    def test_tight_sla_prices_wimpy_out(self):
        beefy = hetero_point("beefy", load=0.6, sla_scale=0.35,
                             queries=QUERIES, seed=SEED)
        wimpy = hetero_point("wimpy", load=0.6, sla_scale=0.35,
                             queries=QUERIES, seed=SEED)
        assert beefy.slas_met
        assert not wimpy.slas_met
        # beefy wins even though its raw Joules/query may lose,
        # because a missed SLA cannot win
        assert winner(beefy, wimpy) == "beefy"

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

