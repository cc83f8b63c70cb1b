"""Unit tests for the heterogeneous-fleet surface: ``NodeClass`` /
``FleetSpec`` composition and hashing, the node-class registry, the
``DispatchContext`` routing protocol and ``cost_aware`` policy, the
class-aware autoscaler, per-class report rollups, per-class fault
lanes, and the absence of the v1 ``n_nodes=``/``model=`` knobs."""

import math
import warnings

import pytest

from repro.faults import build_fault_schedule, simulate_faulty_service
from repro.faults.schedule import FaultError
from repro.service import (Autoscaler, CostAware, DispatchContext,
                           DispatchPolicy, FleetNode, FleetSpec, NodeClass,
                           NodePowerModel, ServiceError, build_stream,
                           make_policy, node_class_model, policy_knob_names,
                           register_node_class, rollup_classes,
                           simulate_service)
from repro.service.report import NodeStats


def cheap_model(**overrides):
    base = dict(name="cheap", idle_watts=40.0, peak_watts=80.0,
                boot_seconds=5.0, boot_joules=400.0,
                drain_seconds=1.0, drain_joules=40.0, speed_factor=0.5)
    base.update(overrides)
    return NodePowerModel(**base)


def dear_model(**overrides):
    base = dict(name="dear", idle_watts=100.0, peak_watts=250.0,
                boot_seconds=20.0, boot_joules=5000.0,
                drain_seconds=5.0, drain_joules=500.0, speed_factor=1.0)
    base.update(overrides)
    return NodePowerModel(**base)


class TestNodeClass:
    def test_rejects_empty_name_and_negative_count(self):
        with pytest.raises(ServiceError, match="needs a name"):
            NodeClass(name="", count=1, model=cheap_model())
        with pytest.raises(ServiceError, match="negative"):
            NodeClass(name="x", count=-1, model=cheap_model())

    def test_capacity_scales_with_speed_factor(self):
        cls = NodeClass(name="x", count=4, model=cheap_model())
        assert cls.capacity == pytest.approx(4 * 0.5)

    def test_dict_round_trip(self):
        cls = NodeClass(name="x", count=3, model=dear_model())
        assert NodeClass.from_dict(cls.to_dict()) == cls


class TestFleetSpec:
    def test_needs_at_least_one_node(self):
        with pytest.raises(ServiceError, match="at least one node"):
            FleetSpec(classes=(NodeClass("x", 0, cheap_model()),))

    def test_members_use_global_index_order(self):
        fleet = FleetSpec(classes=(NodeClass("a", 2, dear_model()),
                                   NodeClass("b", 1, cheap_model())))
        names = [(name, cls) for name, cls, _model in fleet.members()]
        assert names == [("a000", "a"), ("a001", "a"), ("b002", "b")]

    def test_homogeneous_keeps_historical_node_names(self):
        fleet = FleetSpec.homogeneous(3)
        assert [n for n, _c, _m in fleet.members()] \
            == ["node000", "node001", "node002"]

    def test_of_resolves_registry_and_drops_zero_counts(self):
        fleet = FleetSpec.of(beefy=2, wimpy=0)
        assert [c.name for c in fleet.classes] == ["beefy"]
        assert fleet.n_nodes == 2

    def test_of_unknown_class_is_one_line_error(self):
        with pytest.raises(ServiceError, match="unknown node class"):
            FleetSpec.of(quantum=3)

    def test_of_empty_rejected(self):
        with pytest.raises(ServiceError, match="at least one class"):
            FleetSpec.of()

    def test_total_capacity_sums_classes(self):
        fleet = FleetSpec(classes=(NodeClass("a", 2, dear_model()),
                                   NodeClass("b", 4, cheap_model())))
        assert fleet.total_capacity == pytest.approx(2 * 1.0 + 4 * 0.5)

    def test_dict_round_trip_inverts_exactly(self):
        fleet = FleetSpec(classes=(NodeClass("a", 2, dear_model()),
                                   NodeClass("b", 4, cheap_model())))
        assert FleetSpec.from_dict(fleet.to_dict()) == fleet

    def test_fleet_hash_is_stable_and_composition_sensitive(self):
        a = FleetSpec(classes=(NodeClass("a", 2, dear_model()),))
        b = FleetSpec(classes=(NodeClass("a", 2, dear_model()),))
        c = FleetSpec(classes=(NodeClass("a", 3, dear_model()),))
        assert a.fleet_hash() == b.fleet_hash()
        assert a.fleet_hash() != c.fleet_hash()
        assert a.to_dict()["hash"] == a.fleet_hash()

    def test_from_dict_rejects_edited_hash(self):
        data = FleetSpec.homogeneous(2).to_dict()
        data["classes"][0]["count"] = 3
        with pytest.raises(ServiceError, match="hash mismatch"):
            FleetSpec.from_dict(data)


class TestNodeClassRegistry:
    def test_builtin_classes_are_calibrated(self):
        beefy = node_class_model("beefy")
        wimpy = node_class_model("wimpy")
        assert beefy.speed_factor == 1.0
        assert wimpy.speed_factor < 1.0
        assert wimpy.idle_watts < beefy.idle_watts

    def test_register_overrides_and_invalidates_cache(self):
        register_node_class("_test_tier", cheap_model)
        try:
            assert node_class_model("_test_tier").name == "cheap"
            register_node_class("_test_tier",
                                lambda: cheap_model(name="cheap2"))
            assert node_class_model("_test_tier").name == "cheap2"
        finally:
            from repro.service.spec import NODE_CLASS_REGISTRY
            NODE_CLASS_REGISTRY.pop("_test_tier", None)


class TestBootJoulesDefault:
    def test_default_tracks_peak_and_boot_overrides(self):
        model = NodePowerModel(idle_watts=50.0, peak_watts=120.0,
                               boot_seconds=8.0)
        assert model.boot_joules == pytest.approx(120.0 * 8.0)

    def test_explicit_boot_joules_wins(self):
        model = NodePowerModel(idle_watts=50.0, peak_watts=120.0,
                               boot_seconds=8.0, boot_joules=123.0)
        assert model.boot_joules == 123.0

    def test_dict_round_trip(self):
        model = NodePowerModel(idle_watts=50.0, peak_watts=120.0)
        assert NodePowerModel.from_dict(model.to_dict()) == model


class TestDispatchContext:
    def _ctx(self, sla=None):
        nodes = [FleetNode("a", dear_model(), on=True),
                 FleetNode("b", cheap_model(), on=True)]
        return DispatchContext(nodes, [0, 1], now=0.0,
                               service_seconds=1.0, sla_seconds=sla)

    def test_scaled_service_divides_by_speed_factor(self):
        ctx = self._ctx()
        assert ctx.scaled_service_seconds(0) == pytest.approx(1.0)
        assert ctx.scaled_service_seconds(1) == pytest.approx(2.0)

    def test_marginal_joules_is_watts_times_execution(self):
        ctx = self._ctx()
        assert ctx.marginal_joules(0) == pytest.approx((250 - 100) * 1.0)
        assert ctx.marginal_joules(1) == pytest.approx((80 - 40) * 2.0)

    def test_marginal_cost_rate_is_arrival_independent(self):
        ctx = self._ctx()
        assert ctx.marginal_cost_rate(0) == pytest.approx(150.0)
        assert ctx.marginal_cost_rate(1) == pytest.approx(80.0)

    def test_fits_sla_vacuous_without_sla(self):
        assert self._ctx(sla=None).fits_sla(1)

    def test_fits_sla_reads_latency_estimate(self):
        ctx = self._ctx(sla=1.5)
        assert ctx.fits_sla(0)          # 1.0 s execution fits 1.5 s
        assert not ctx.fits_sla(1)      # 2.0 s execution does not


class TestCostAware:
    def test_routes_to_cheapest_marginal_joules_within_sla(self):
        nodes = [FleetNode("a", dear_model(), on=True),
                 FleetNode("b", cheap_model(), on=True)]
        policy = CostAware()
        # generous SLA: the wimpy node's 80 J beat the beefy 150 J
        ctx = DispatchContext(nodes, [0, 1], 0.0, 1.0, sla_seconds=10.0)
        assert policy.route(ctx) == 1
        # tight SLA: only the fast node fits the budget
        ctx = DispatchContext(nodes, [0, 1], 0.0, 1.0, sla_seconds=1.5)
        assert policy.route(ctx) == 0

    def test_falls_back_to_fastest_when_nothing_fits(self):
        nodes = [FleetNode("a", dear_model(), on=True),
                 FleetNode("b", cheap_model(), on=True)]
        ctx = DispatchContext(nodes, [0, 1], 0.0, 1.0, sla_seconds=0.1)
        assert CostAware().route(ctx) == 0

    def test_registered_and_knob_checked(self):
        policy = make_policy("cost_aware", sla_slack_fraction=0.8)
        assert isinstance(policy, CostAware)
        assert "sla_slack_fraction" in policy_knob_names("cost_aware")


class TestPolicyProtocol:
    def test_unknown_knob_is_one_line_error(self):
        with pytest.raises(ServiceError, match="unknown knob"):
            make_policy("power_aware", warp_factor=9)

    def test_instance_with_knobs_rejected(self):
        with pytest.raises(ServiceError, match="already constructed"):
            make_policy(CostAware(), sla_slack_fraction=0.5)

    def test_positional_select_protocol_is_gone(self):
        assert not hasattr(DispatchPolicy, "select")

    def test_neither_protocol_is_an_error(self):
        class Hollow(DispatchPolicy):
            name = "hollow"

        ctx = DispatchContext([FleetNode("a", cheap_model(), on=True)],
                              [0], 0.0, 1.0)
        with pytest.raises(ServiceError, match="does not implement route"):
            Hollow().route(ctx)


class TestClassAwareAutoscaler:
    def _fleet(self):
        # at target 0.55: cheap 62 W / 0.275 node-eq = 225 J per unit
        # of work vs dear 182.5 W / 0.55 = 332 — cheap wins the rank
        nodes = [FleetNode("d0", dear_model(), on=False, node_class="d"),
                 FleetNode("d1", dear_model(), on=False, node_class="d"),
                 FleetNode("c0", cheap_model(), on=False, node_class="c"),
                 FleetNode("c1", cheap_model(), on=False, node_class="c")]
        return nodes

    def test_scale_up_boots_cheapest_work_cost_first(self):
        nodes = self._fleet()
        dear, cheap = dear_model(), cheap_model()
        assert Autoscaler._work_cost(cheap, 0.55) \
            < Autoscaler._work_cost(dear, 0.55)
        scaler = Autoscaler(dear, min_nodes=1, epoch_seconds=10.0)
        scaler.observe(2.0)              # 0.2 service-seconds/s demand
        on_ids = []
        scaler.step(10.0, nodes, on_ids)
        assert on_ids, "demand must boot something"
        assert all(nodes[i].node_class == "c" for i in on_ids)

    def test_emergency_skips_classes_whose_breakeven_exceeds_downtime(self):
        nodes = self._fleet()
        cheap_be = cheap_model().breakeven_seconds()   # 440/40 = 11 s
        dear_be = dear_model().breakeven_seconds()     # 5500/100 = 55 s
        downtime = (cheap_be + dear_be) / 2.0
        scaler = Autoscaler(dear_model(), min_nodes=1)
        scaler.observe(1000.0)
        scaler.step(30.0, nodes, [0])    # prime the smoothed demand up
        for n in nodes:                  # park everything again
            if n.on:
                n.power_off(max(60.0, n.busy_until))
            n.busy_until = 0.0
        on_ids = []
        booted = scaler.emergency(100.0, nodes, on_ids, downtime)
        assert booted, "outage above cheap break-even must boot spares"
        assert all(nodes[i].node_class == "c" for i in booted)

    def test_homogeneous_counts_match_desired_nodes(self):
        model = dear_model()
        scaler = Autoscaler(model, min_nodes=2, epoch_seconds=10.0)
        nodes = [FleetNode(f"n{i}", model, on=(i < 2)) for i in range(6)]
        scaler.observe(30.0)             # 3 node-equivalents of demand
        on_ids = [0, 1]
        scaler.step(10.0, nodes, on_ids)
        # one class: the smoothed demand's node count, clamped
        want = math.ceil(scaler.desired_capacity())
        assert len(on_ids) == max(2, min(6, want))


class TestClassRollups:
    def test_rollup_merges_duplicate_class_names(self):
        stats = [NodeStats("a0", 5, 10.0, 2.0, 100.0, 1, 0, "a"),
                 NodeStats("b0", 1, 10.0, 1.0, 50.0, 0, 1, "b"),
                 NodeStats("a1", 3, 10.0, 1.0, 60.0, 1, 0, "a")]
        rows = rollup_classes(stats)
        assert [r.node_class for r in rows] == ["a", "b"]
        a = rows[0]
        assert (a.count, a.completed, a.boots) == (2, 8, 2)
        assert a.energy_joules == pytest.approx(160.0)
        assert a.joules_per_query == pytest.approx(160.0 / 8)
        assert rows[1].crashes == 1

    def test_simulate_service_reports_per_class_rows(self):
        stream = build_stream(400, seed=3)
        fleet = FleetSpec(classes=(NodeClass("d", 2, dear_model()),
                                   NodeClass("c", 2, cheap_model())))
        report = simulate_service(stream, fleet=fleet, policy="round_robin")
        assert [c.node_class for c in report.classes] == ["d", "c"]
        assert sum(c.completed for c in report.classes) \
            == report.queries_completed
        assert sum(c.energy_joules for c in report.classes) \
            == pytest.approx(report.energy_joules)
        assert report.node_class("d").count == 2
        with pytest.raises(ServiceError, match="no node class"):
            report.node_class("z")
        assert report.fleet["hash"] == fleet.fleet_hash()


class TestPerClassFaultLanes:
    def test_schedule_needs_exactly_one_sizing(self):
        with pytest.raises(FaultError, match="exactly one"):
            build_fault_schedule(horizon_seconds=10.0)
        with pytest.raises(FaultError, match="exactly one"):
            build_fault_schedule(4, horizon_seconds=10.0,
                                 fleet=FleetSpec.homogeneous(4))

    def test_resizing_one_class_never_moves_anothers_faults(self):
        small = FleetSpec(classes=(NodeClass("a", 2, dear_model()),
                                   NodeClass("b", 2, cheap_model())))
        grown = FleetSpec(classes=(NodeClass("a", 2, dear_model()),
                                   NodeClass("b", 5, cheap_model())))
        kw = dict(horizon_seconds=5000.0, seed=11,
                  crash_rate_per_node_hour=2.0,
                  throttle_rate_per_node_hour=2.0,
                  disk_rate_per_node_hour=1.0,
                  timeout_rate_per_node_hour=1.0)
        ev_small = build_fault_schedule(fleet=small, **kw).events
        ev_grown = build_fault_schedule(fleet=grown, **kw).events
        first_class = lambda evs: sorted(
            (e.kind, e.node, e.start, e.duration, e.severity)
            for e in evs if e.node < 2)
        assert first_class(ev_small) == first_class(ev_grown)

    def test_hetero_chaos_run_rolls_up_crashes_per_class(self):
        stream = build_stream(1500, seed=5)
        fleet = FleetSpec(classes=(NodeClass("d", 2, dear_model()),
                                   NodeClass("c", 2, cheap_model())))
        schedule = build_fault_schedule(
            fleet=fleet, horizon_seconds=stream.duration_seconds,
            seed=4, crash_rate_per_node_hour=40.0)
        report = simulate_faulty_service(stream, schedule, fleet=fleet,
                                         policy="round_robin")
        assert {c.node_class for c in report.classes} == {"d", "c"}
        assert sum(c.crashes for c in report.classes) \
            == sum(n.crashes for n in report.nodes)


class TestDeprecatedShims:
    def test_fleet_and_shims_are_mutually_exclusive(self):
        """``fleet=`` next to a v1 knob: the knob is no parameter any
        more, so it is refused as an unknown policy knob."""
        stream = build_stream(100, seed=1)
        with pytest.raises(ServiceError, match="unknown knob"):
            simulate_service(stream, fleet=FleetSpec.homogeneous(2),
                             n_nodes=2)

    @pytest.mark.parametrize("knob", ["n_nodes", "model"])
    def test_v1_fleet_knob_is_gone(self, knob):
        stream = build_stream(100, seed=1)
        schedule = build_fault_schedule(
            2, horizon_seconds=stream.duration_seconds, seed=0)
        for faults in (None, schedule):  # both entry points
            with pytest.raises(ServiceError, match="unknown knob"):
                simulate_service(stream, fleet=FleetSpec.homogeneous(2),
                                 faults=faults, policy="round_robin",
                                 **{knob: 2})

    def test_fleet_must_be_a_spec(self):
        stream = build_stream(100, seed=1)
        with pytest.raises(ServiceError, match="must be a FleetSpec"):
            simulate_service(stream, fleet=4)

    def test_default_call_does_not_warn(self):
        stream = build_stream(200, seed=1)
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            simulate_service(stream, policy="round_robin")
