"""Golden equivalence suite for the two serving engines.

The vectorized array-of-events core (``repro.service.engine``) is
contractually *byte-identical* to the reference per-query loop: for
every configuration it claims to support, ``ServiceReport.to_dict()``
must compare equal dict-for-dict, float-for-float — not approximately,
exactly.  This suite sweeps policy x fleet x admission x autoscaling x
seed and asserts that identity, pins the engine-selection API
(``engine="auto"|"event"|"loop"``), and checks the auto-fallback
configurations (batching, detail recording, faults) land on the
reference loop.  Observers ride the event core: the same grid, with a
flight recorder and a telemetry collector installed, pins
``FlightRecording.to_dict()`` and ``TelemetryTrace.to_dict()`` equal
between the engines.  Hypothesis property tests extend both identities
to adversarial random streams the named experiments would never build.
"""

import re
from contextlib import ExitStack
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import build_fault_schedule, simulate_faulty_service
from repro.flightrec import record
from repro.service import (DEFAULT_CLASSES, DEFAULT_TENANTS, Autoscaler,
                           FleetSpec, NodePowerModel, PVCPolicy,
                           QEDPolicy, ServiceError, build_stream,
                           make_policy, simulate_service)
from repro.service.dispatch import DispatchPolicy
from repro.service.engine import event_core_unsupported
from repro.service.workload import ArrivalStream
from repro.telemetry import capture

MODEL = NodePowerModel.from_server("commodity")

#: every policy the event core claims a kernel for
VECTOR_POLICIES = ("round_robin", "least_loaded", "power_aware",
                   "cost_aware", "pvc")


def _policy(name: str):
    """A fresh policy instance (routers are stateful: never share one
    between the two engines of a comparison)."""
    if name == "pvc":
        return PVCPolicy(sla_headroom=0.6)
    return make_policy(name)


def _fleet(kind: str) -> FleetSpec:
    if kind == "homogeneous":
        return FleetSpec.homogeneous(8, MODEL)
    return FleetSpec.of(beefy=3, wimpy=5)


def _run(stream, policy_name, fleet_kind, engine, *,
         admission=None, autoscale=False):
    policy = _policy(policy_name)
    if admission is not None:
        policy.admission_limit_seconds = admission
    fleet = _fleet(fleet_kind)
    autoscaler = Autoscaler(
        fleet.classes[0].model, epoch_seconds=20.0,
        target_utilization=0.55, min_nodes=2) if autoscale else None
    report = simulate_service(stream, fleet=fleet, policy=policy,
                              autoscaler=autoscaler, engine=engine)
    return report, policy, autoscaler


@pytest.fixture(scope="module")
def stream():
    return build_stream(6_000, seed=0)


class TestByteIdentity:
    """engine="event" and engine="loop" produce equal report dicts."""

    @pytest.mark.parametrize("policy_name", VECTOR_POLICIES)
    @pytest.mark.parametrize("fleet_kind", ["homogeneous", "hetero"])
    def test_policy_fleet_grid(self, stream, policy_name, fleet_kind):
        loop, _, _ = _run(stream, policy_name, fleet_kind, "loop")
        event, _, _ = _run(stream, policy_name, fleet_kind, "event")
        assert loop.engine == "loop"
        assert event.engine == "event"
        assert loop.to_dict() == event.to_dict()

    @pytest.mark.parametrize("seed", [1, 7])
    def test_seeds(self, seed):
        s = build_stream(4_000, seed=seed)
        loop, _, _ = _run(s, "power_aware", "homogeneous", "loop")
        event, _, _ = _run(s, "power_aware", "homogeneous", "event")
        assert loop.to_dict() == event.to_dict()

    @pytest.mark.parametrize("policy_name",
                             ["power_aware", "cost_aware", "pvc"])
    def test_admission_rejections(self, policy_name):
        # x10 arrival rates overload the 8-node fleet, so the
        # admission limit actually bites and rejections flow through
        # both marshalling paths
        dense = build_stream(
            4_000,
            tenants=tuple(replace(t, rate_per_s=t.rate_per_s * 10)
                          for t in DEFAULT_TENANTS),
            seed=2)
        loop, _, _ = _run(dense, policy_name, "homogeneous", "loop",
                          admission=2.0)
        event, _, _ = _run(dense, policy_name, "homogeneous", "event",
                           admission=2.0)
        assert loop.queries_rejected > 0
        assert loop.to_dict() == event.to_dict()

    def test_autoscaled_run_and_decisions(self, stream):
        loop, _, auto_l = _run(stream, "power_aware", "homogeneous",
                               "loop", autoscale=True)
        event, _, auto_e = _run(stream, "power_aware", "homogeneous",
                                "event", autoscale=True)
        assert loop.to_dict() == event.to_dict()
        # the real Autoscaler runs inside the event core too: its
        # observable state must match the loop's, decision for decision
        assert auto_l.decisions == auto_e.decisions
        assert auto_l._smoothed_rate == auto_e._smoothed_rate
        assert auto_l._epoch_demand_seconds == auto_e._epoch_demand_seconds

    def test_round_robin_cursor_preserved(self, stream):
        _, pol_l, _ = _run(stream, "round_robin", "homogeneous", "loop")
        _, pol_e, _ = _run(stream, "round_robin", "homogeneous", "event")
        assert pol_l._next == pol_e._next == len(stream)

    def test_auto_equals_event_when_supported(self, stream):
        auto, _, _ = _run(stream, "least_loaded", "homogeneous", "auto")
        event, _, _ = _run(stream, "least_loaded", "homogeneous", "event")
        assert auto.engine == "event"
        assert auto.to_dict() == event.to_dict()


#: every router with a kernel; each also runs under a PVC governor
ROUTERS = ("round_robin", "least_loaded", "power_aware", "cost_aware")


def _nimble(model: NodePowerModel) -> NodePowerModel:
    """The same node, power-cycling in seconds (break-even ~5 s), so a
    one-minute stream sees the autoscaler drain *and* boot."""
    return replace(model, boot_seconds=2.0, drain_seconds=1.0,
                   boot_joules=2.0 * model.peak_watts,
                   drain_joules=1.0 * model.idle_watts)


def _observed(stream, router, pvc, fleet_kind, admission, epoch, engine,
              observers=("record", "capture"), limits="outer"):
    """One watched run: ``(report, recording dict, trace dict)``, each
    ``None`` when its observer is not installed.  Under ``pvc`` the
    ``admission`` limit sits on the wrapper (``limits="outer"``), on
    the router it wraps (``"router"``), or on ``"both"``."""
    inner = make_policy(router)
    policy = PVCPolicy(inner=inner, sla_headroom=0.6) if pvc else inner
    if limits != "outer":
        inner.admission_limit_seconds = admission
    if limits != "router":
        policy.admission_limit_seconds = admission
    fleet = _fleet(fleet_kind)
    fleet = FleetSpec(classes=tuple(
        replace(cls, model=_nimble(cls.model)) for cls in fleet.classes))
    autoscaler = None if epoch is None else Autoscaler(
        fleet.classes[0].model, epoch_seconds=epoch,
        target_utilization=0.85, min_nodes=1, cooldown_epochs=1)
    with ExitStack() as stack:
        rec = stack.enter_context(record()) \
            if "record" in observers else None
        col = stack.enter_context(capture()) \
            if "capture" in observers else None
        report = simulate_service(stream, fleet=fleet, policy=policy,
                                  autoscaler=autoscaler, engine=engine)
    return (report,
            None if rec is None else rec.finalize().to_dict(),
            None if col is None else col.finalize().to_dict())


class TestObserved:
    """A flight recording and a telemetry trace taken on the event
    core equal the ones taken on the reference loop, dict for dict:
    both are derived from the same per-query columns."""

    @pytest.fixture(scope="class")
    def minute(self):
        return build_stream(2_500, seed=0)

    @pytest.mark.parametrize("router", ROUTERS)
    @pytest.mark.parametrize("autoscale", [False, True],
                             ids=["fixed", "scaled"])
    @pytest.mark.parametrize("admission", [None, 0.05],
                             ids=["open", "limit"])
    @pytest.mark.parametrize("fleet_kind", ["homogeneous", "hetero"],
                             ids=["homo", "hetero"])
    @pytest.mark.parametrize("pvc", [False, True], ids=["plain", "pvc"])
    def test_grid(self, minute, router, pvc, fleet_kind, admission,
                  autoscale):
        epoch = 4.0 if autoscale else None
        loop, loop_rec, loop_trace = _observed(
            minute, router, pvc, fleet_kind, admission, epoch, "loop")
        event, event_rec, event_trace = _observed(
            minute, router, pvc, fleet_kind, admission, epoch, "event")
        assert (loop.engine, event.engine) == ("loop", "event")
        assert loop.to_dict() == event.to_dict()
        assert loop_rec == event_rec
        assert loop_trace == event_trace
        # the case is the one its parameters name
        counts = event_rec["meta"]["event_counts"]
        assert counts.get("reject", 0) == event.queries_rejected
        assert (event.queries_rejected > 0) == (admission is not None)
        assert ("dvfs_shift" in counts) == pvc
        if autoscale and make_policy(router).autoscaled \
                and (admission is not None or not pvc):
            # (unlimited downclocked queues under packing keep every
            # node backlogged, so that one cell never power-cycles)
            assert counts["boot"] > 0 and counts["drain"] > 0

    @pytest.mark.parametrize("observer", ["record", "capture"])
    def test_each_observer_alone(self, minute, observer):
        """Downclocked rows reach a recorder without a collector and a
        collector without a recorder."""
        runs = [_observed(minute, "power_aware", True, "hetero", 0.05,
                          4.0, engine, observers=(observer,))
                for engine in ("loop", "event")]
        assert runs[1][0].engine == "event"
        assert runs[0][1:] == runs[1][1:]
        both = _observed(minute, "power_aware", True, "hetero", 0.05,
                         4.0, "event")
        assert runs[1][1] in (None, both[1])
        assert runs[1][2] in (None, both[2])

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(min_value=0, max_value=2**16),
           load=st.floats(min_value=0.3, max_value=12.0),
           epoch=st.one_of(st.none(),
                           st.floats(min_value=0.5, max_value=20.0)),
           router=st.sampled_from(ROUTERS),
           pvc=st.booleans(),
           fleet_kind=st.sampled_from(["homogeneous", "hetero"]),
           admission=st.sampled_from([None, 0.05, 1.0]),
           limits=st.sampled_from(["router", "outer", "both"]))
    def test_seed_load_epoch(self, seed, load, epoch, router, pvc,
                             fleet_kind, admission, limits):
        """The differential over everything a generated kernel is
        specialised on: router x governor x where the limits sit x
        autoscaler x fleet shape, on random seeds and loads."""
        stream = build_stream(
            400,
            tenants=tuple(replace(t, rate_per_s=t.rate_per_s * load)
                          for t in DEFAULT_TENANTS),
            seed=seed)
        try:
            loop = _observed(stream, router, pvc, fleet_kind, admission,
                             epoch, "loop", limits=limits)
        except ServiceError as error:
            # a tight limit can starve a tenant: not this test's case,
            # but both engines must refuse it alike
            with pytest.raises(ServiceError, match=re.escape(str(error))):
                _observed(stream, router, pvc, fleet_kind, admission,
                          epoch, "event", limits=limits)
            return
        event = _observed(stream, router, pvc, fleet_kind, admission,
                          epoch, "event", limits=limits)
        assert event[0].engine == "event"
        assert loop[0].to_dict() == event[0].to_dict()
        assert loop[1:] == event[1:]


class TestBootWindowAtStreamEnd:
    """A node booted at the last autoscaler epoch (t=210, 20 s boot)
    is still booting when these streams end (~221 s / ~227 s) and
    never serves; the run used to die with "finalize at T precedes
    backlog drain".  The books now close at the end of that boot
    window, on every engine."""

    @pytest.mark.parametrize("seed", [20, 22])
    def test_default_run_completes_on_both_engines(self, seed):
        stream = build_stream(10_000, seed=seed)
        assert stream.duration_seconds < 230.0
        loop = simulate_service(stream, engine="loop")
        event = simulate_service(stream, engine="event")
        assert loop.makespan_seconds == 230.0
        assert loop.to_dict() == event.to_dict()

    @pytest.mark.parametrize("seed", [20, 22])
    def test_batched_and_observed_runs_complete(self, seed):
        stream = build_stream(10_000, seed=seed)
        plain = simulate_service(stream)
        batched = simulate_service(stream,
                                   policy=QEDPolicy(inner=PVCPolicy()))
        assert batched.queries_completed == len(stream)
        with record() as rec:
            recorded = simulate_service(stream)
        assert recorded.to_dict() == plain.to_dict()
        assert rec.finalize().replayed_energy_joules() == pytest.approx(
            plain.energy_joules, rel=1e-9)
        with capture() as col:
            simulate_service(stream)
        metered = sum(d.energy_joules for d in col.finalize().devices)
        assert metered == pytest.approx(plain.energy_joules, rel=1e-9)


class TestEngineSelection:
    """The engine= API: validation, explicit errors, auto-fallback."""

    def test_unknown_engine_rejected(self, stream):
        with pytest.raises(ServiceError, match="unknown engine"):
            simulate_service(stream, fleet=_fleet("homogeneous"),
                             engine="warp")

    def test_event_refuses_batching_policy(self, stream):
        policy = QEDPolicy(hold_seconds=0.2)
        with pytest.raises(ServiceError, match="batches arrivals"):
            simulate_service(stream, fleet=_fleet("homogeneous"),
                             policy=policy, engine="event")

    def test_auto_falls_back_for_batching_policy(self, stream):
        policy = QEDPolicy(hold_seconds=0.2)
        report = simulate_service(stream, fleet=_fleet("homogeneous"),
                                  policy=policy, engine="auto")
        assert report.engine == "loop"

    def test_telemetry_stays_on_event_core(self, stream):
        with capture():
            report = simulate_service(stream,
                                      fleet=_fleet("homogeneous"),
                                      engine="auto")
        assert report.engine == "event"

    def test_auto_falls_back_under_flight_recording(self, stream):
        """Only ``detail=True`` (per-arrival candidate tables) still
        needs the loop; a plain recording rides the event core."""
        with record():
            report = simulate_service(stream,
                                      fleet=_fleet("homogeneous"),
                                      engine="auto")
        assert report.engine == "event"
        with record(detail=True):
            report = simulate_service(stream,
                                      fleet=_fleet("homogeneous"),
                                      engine="auto")
        assert report.engine == "loop"

    def test_event_refuses_detail_only(self, stream):
        fleet = _fleet("homogeneous")
        with record():
            simulate_service(stream, fleet=fleet, engine="event")
        with capture():
            simulate_service(stream, fleet=fleet, engine="event")
        with record(detail=True):
            with pytest.raises(ServiceError, match="candidate tables"):
                simulate_service(stream, fleet=fleet, engine="event")

    @pytest.mark.parametrize(
        "policy", ["round_robin", "least_loaded", "power_aware"])
    def test_traced_mega_smoke(self, policy):
        """CI records ``svc_mega_smoke`` with telemetry on; the suite
        exists to gate the event core, so the trace must not cost the
        engine (the point at a tenth of its queries, same fleet)."""
        from repro.runner.registry import get_experiment
        defn = get_experiment("svc_mega_smoke")
        knobs = {**defn.defaults, "policy": policy, "queries": 20_000}
        with capture() as col:
            report = defn.call_point(knobs, seed=0)
        assert (report.engine, report.engine_reason) == ("event", None)
        trace = col.finalize()
        assert len(trace.devices) == knobs["nodes"]
        assert sum(d.energy_joules for d in trace.devices) == \
            pytest.approx(report.energy_joules, rel=1e-9)

    def test_loop_and_fallback_loop_identical(self, stream):
        """A forced loop run equals the auto-fallback loop run — the
        hooks only observe, they never perturb the physics."""
        loop, _, _ = _run(stream, "power_aware", "homogeneous", "loop")
        with record(detail=True):
            fallback = simulate_service(stream,
                                        fleet=_fleet("homogeneous"),
                                        policy=_policy("power_aware"),
                                        engine="auto")
        assert fallback.engine == "loop"
        assert loop.to_dict() == fallback.to_dict()

    def test_faults_always_reference_loop(self, stream):
        schedule = build_fault_schedule(
            horizon_seconds=stream.duration_seconds, seed=3,
            fleet=_fleet("homogeneous"))
        report = simulate_faulty_service(
            stream, schedule, fleet=_fleet("homogeneous"),
            engine="auto")
        assert report.engine == "loop"
        with pytest.raises(ServiceError, match="fault schedules"):
            simulate_faulty_service(stream, schedule,
                                    fleet=_fleet("homogeneous"),
                                    engine="event")
        with pytest.raises(ServiceError, match="unknown engine"):
            simulate_faulty_service(stream, schedule,
                                    fleet=_fleet("homogeneous"),
                                    engine="warp")

    def test_unsupported_reasons(self):
        assert event_core_unsupported(None, faults=True)
        policy = _policy("power_aware")
        assert event_core_unsupported(policy) is None
        assert "batch" in event_core_unsupported(QEDPolicy())
        assert "no vectorized kernel" in event_core_unsupported(
            _UnknownRouter())


class _FirstOnRouter(DispatchPolicy):
    """A third-party router the event core has no kernel for."""

    name = "first_on"

    def route(self, ctx):
        return ctx.on_ids[0]


class TestEngineReason:
    """``engine="auto"`` says why it fell back: one test per reason
    :func:`event_core_unsupported` can give."""

    def _auto(self, stream, **kwargs):
        return simulate_service(stream, fleet=_fleet("homogeneous"),
                                engine="auto", **kwargs)

    def test_none_on_the_event_core(self, stream):
        report = self._auto(stream)
        assert (report.engine, report.engine_reason) == ("event", None)

    def test_none_on_an_explicit_loop(self, stream):
        loop, _, _ = _run(stream, "power_aware", "homogeneous", "loop")
        assert (loop.engine, loop.engine_reason) == ("loop", None)
        schedule = build_fault_schedule(
            horizon_seconds=stream.duration_seconds, seed=3,
            fleet=_fleet("homogeneous"))
        faulty = simulate_faulty_service(
            stream, schedule, fleet=_fleet("homogeneous"), engine="loop")
        assert (faulty.engine, faulty.engine_reason) == ("loop", None)

    def test_excluded_from_dict_and_equality(self, stream):
        with record(detail=True):
            fallback = self._auto(stream)
        loop, _, _ = _run(stream, "power_aware", "homogeneous", "loop")
        assert fallback.engine_reason is not None
        assert "engine_reason" not in fallback.to_dict()
        assert fallback == loop

    def test_faults(self, stream):
        schedule = build_fault_schedule(
            horizon_seconds=stream.duration_seconds, seed=3,
            fleet=_fleet("homogeneous"))
        report = self._auto(stream, faults=schedule)
        assert report.engine == "loop"
        assert report.engine_reason == \
            event_core_unsupported(None, faults=True)
        assert "fault schedules" in report.engine_reason

    def test_telemetry(self, stream):
        with capture():
            report = self._auto(stream)
        assert (report.engine, report.engine_reason) == ("event", None)

    def test_flight_recording(self, stream):
        with record():
            report = self._auto(stream)
        assert (report.engine, report.engine_reason) == ("event", None)
        with record(detail=True) as rec:
            report = self._auto(stream)
        assert report.engine == "loop"
        assert report.engine_reason == \
            event_core_unsupported(_policy("power_aware"), rec)
        assert "detail recording" in report.engine_reason

    def test_batch_tenant_under_admission_limit(self):
        tenants = (DEFAULT_TENANTS[0],
                   replace(DEFAULT_TENANTS[1], batch=True))
        batchy = build_stream(2_000, tenants=tenants, seed=0)
        report = self._auto(batchy, admission_limit_seconds=5.0)
        assert report.engine == "loop"
        assert "admission-exempt" in report.engine_reason
        # without the limit the same stream stays on the event core
        assert self._auto(batchy).engine_reason is None

        # a limit on the router a governor wraps binds the same way
        # (the event core used to take this run and reject the exempt
        # batch arrivals the loop admits)
        def wrapped():
            return PVCPolicy(inner=make_policy(
                "least_loaded", admission_limit_seconds=0.6))
        report = self._auto(batchy, policy=wrapped())
        assert report.engine == "loop"
        assert "admission-exempt" in report.engine_reason
        with pytest.raises(ServiceError, match="admission-exempt"):
            simulate_service(batchy, fleet=_fleet("homogeneous"),
                             policy=wrapped(), engine="event")

    def test_batching_policy(self, stream):
        report = self._auto(stream, policy=QEDPolicy(hold_seconds=0.2))
        assert "batches arrivals" in report.engine_reason

    def test_no_vectorized_kernel(self, stream):
        report = self._auto(stream, policy=_FirstOnRouter())
        assert report.engine == "loop"
        assert report.engine_reason == \
            "policy 'first_on' has no vectorized kernel"


class _UnknownRouter:
    """A stand-in router outside the vectorized set."""

    name = "mystery"
    batching = False
    autoscaled = False


class TestReportMetadata:
    def test_engine_excluded_from_dict(self, stream):
        report, _, _ = _run(stream, "round_robin", "homogeneous",
                            "event")
        assert report.engine == "event"
        assert "engine" not in report.to_dict()

    def test_columns_cached(self, stream):
        assert stream.columns() is stream.columns()
        cols = stream.columns()
        assert cols.lists() is cols.lists()
        np.testing.assert_array_equal(
            cols.sla_seconds,
            np.array([t.sla_p95_seconds
                      for t in stream.tenants])[stream.tenant_index])


@st.composite
def _streams(draw):
    """Adversarial streams: bursty gaps (many zeros), wild service
    times, arbitrary tenant mixes — shapes build_stream never emits."""
    n = draw(st.integers(min_value=1, max_value=200))
    gaps = draw(st.lists(
        st.one_of(st.just(0.0),
                  st.floats(min_value=0.0, max_value=3.0,
                            allow_nan=False, allow_infinity=False)),
        min_size=n, max_size=n))
    services = draw(st.lists(
        st.floats(min_value=1e-3, max_value=5.0,
                  allow_nan=False, allow_infinity=False),
        min_size=n, max_size=n))
    tenant_idx = draw(st.lists(
        st.integers(min_value=0, max_value=len(DEFAULT_TENANTS) - 1),
        min_size=n, max_size=n))
    # the report refuses tenants that complete nothing: keep only the
    # tenants the draw actually uses, remapping indices
    used = sorted(set(tenant_idx))
    remap = {t: i for i, t in enumerate(used)}
    return ArrivalStream(
        tenants=tuple(DEFAULT_TENANTS[t] for t in used),
        classes=DEFAULT_CLASSES,
        times=np.cumsum(np.asarray(gaps, dtype=np.float64)),
        service_seconds=np.asarray(services, dtype=np.float64),
        tenant_index=np.asarray([remap[t] for t in tenant_idx],
                                dtype=np.int64),
        class_index=np.zeros(n, dtype=np.int64))


class TestPropertyIdentity:
    @settings(max_examples=30, deadline=None)
    @given(stream=_streams(),
           policy_name=st.sampled_from(VECTOR_POLICIES),
           nodes=st.integers(min_value=1, max_value=5))
    def test_random_streams_byte_identical(self, stream, policy_name,
                                           nodes):
        fleet = FleetSpec.homogeneous(nodes, MODEL)
        loop = simulate_service(stream, fleet=fleet,
                                policy=_policy(policy_name),
                                engine="loop")
        event = simulate_service(stream, fleet=fleet,
                                 policy=_policy(policy_name),
                                 engine="event")
        assert loop.to_dict() == event.to_dict()
