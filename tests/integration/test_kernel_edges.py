"""The event core at two edges the equivalence grid does not reach.

*Chunk boundaries.*  A ``_CHUNKED`` kernel marshals arrivals ``CHUNK``
at a time (65,536) and no other tier-1 stream is that long.  Here
``CHUNK`` is a small odd number, so every run crosses a dozen
boundaries, and the event core must still equal the reference loop:
report, per-arrival latencies, the last completion the report tail is
handed (one ``max`` per chunk when nothing can be rejected), flight
recording and telemetry trace — unobserved (no lanes built) and
observed (lanes kept), with autoscaler epochs landing mid-chunk.

*The reject path of power_aware.*  Its kernel pops the routed node's
rank out of the packable heap; an admission rejection must put it back,
or every later arrival loses that node.
"""

from contextlib import ExitStack
from dataclasses import replace

import numpy as np
import pytest

import repro.service.engine as engine
import repro.service.fleet as fleet_module
from repro.flightrec import record
from repro.service import (DEFAULT_CLASSES, DEFAULT_TENANTS, Autoscaler,
                           FleetSpec, NodePowerModel, PVCPolicy,
                           build_stream, make_policy, simulate_service)
from repro.service.dispatch import PowerAwarePacking
from repro.service.workload import ArrivalStream
from repro.telemetry import capture

MODEL = NodePowerModel.from_server("commodity")

#: small and odd, so chunks end mid-rotation and mid-epoch
SMALL_CHUNK = 97

ROUTERS = ("round_robin", "least_loaded", "power_aware", "cost_aware")

#: (governor, where the admission limit sits); without a governor
#: there is no outer layer to put a limit on
LIMITS = [("plain", None), ("plain", "router"), ("pvc", None),
          ("pvc", "router"), ("pvc", "outer")]


def _fleet(kind: str) -> FleetSpec:
    fleet = (FleetSpec.homogeneous(8, MODEL) if kind == "homo"
             else FleetSpec.of(beefy=3, wimpy=5))
    # power-cycling in seconds, so a half-minute stream scales both ways
    return FleetSpec(classes=tuple(
        replace(c, model=replace(
            c.model, boot_seconds=2.0, drain_seconds=1.0,
            boot_joules=2.0 * c.model.peak_watts,
            drain_joules=c.model.idle_watts))
        for c in fleet.classes))


def _serve(stream, router, governor, limit, fleet_kind, observed,
           which, monkeypatch):
    """One run: ``(report, last completion handed to the tail,
    recording dict, trace dict)``."""
    inner = make_policy(router)
    policy = (PVCPolicy(inner=inner, sla_headroom=0.6)
              if governor == "pvc" else inner)
    if limit is not None:
        (inner if limit == "router" else policy) \
            .admission_limit_seconds = 0.05
    fleet = _fleet(fleet_kind)
    autoscaler = Autoscaler(fleet.classes[0].model, epoch_seconds=4.0,
                            target_utilization=0.85, min_nodes=1)
    handed = []
    assemble = fleet_module._assemble_report

    def spy(run, latencies, completed, last_completion, *rest, **kw):
        handed.append(last_completion)
        return assemble(run, latencies, completed, last_completion,
                        *rest, **kw)

    with ExitStack() as stack:
        stack.enter_context(monkeypatch.context()).setattr(
            fleet_module, "_assemble_report", spy)
        rec = stack.enter_context(record()) if observed else None
        col = stack.enter_context(capture()) if observed else None
        report = simulate_service(stream, fleet=fleet, policy=policy,
                                  autoscaler=autoscaler, engine=which)
    return (report, handed[0],
            None if rec is None else rec.finalize().to_dict(),
            None if col is None else col.finalize().to_dict())


@pytest.fixture(scope="module")
def stream():
    return build_stream(1_300, seed=3)


@pytest.mark.parametrize("observed", [False, True],
                         ids=["unobserved", "recorded"])
@pytest.mark.parametrize("fleet_kind", ["homo", "hetero"])
@pytest.mark.parametrize("governor,limit", LIMITS,
                         ids=[f"{g}-{lim or 'open'}" for g, lim in LIMITS])
@pytest.mark.parametrize("router", ROUTERS)
def test_chunk_boundaries(stream, router, governor, limit, fleet_kind,
                          observed, monkeypatch):
    monkeypatch.setattr(engine, "CHUNK", SMALL_CHUNK)
    assert len(stream) > 10 * SMALL_CHUNK
    args = (stream, router, governor, limit, fleet_kind, observed)
    loop = _serve(*args, "loop", monkeypatch)
    event = _serve(*args, "event", monkeypatch)
    assert (loop[0].engine, event[0].engine) == ("loop", "event")
    assert loop[0].to_dict() == event[0].to_dict()
    np.testing.assert_array_equal(loop[0].latencies, event[0].latencies)
    assert loop[1] == event[1]
    assert loop[2:] == event[2:]
    # the case is the one its parameters name
    assert (event[0].queries_rejected > 0) == (limit is not None)


def _hand_stream(arrivals) -> ArrivalStream:
    """``(instant, service seconds)`` rows of one tenant (2 s SLA)."""
    times, services = (np.array(column, dtype=np.float64)
                       for column in zip(*arrivals))
    zeros = np.zeros(len(times), dtype=np.int64)
    return ArrivalStream(tenants=DEFAULT_TENANTS[:1],
                         classes=DEFAULT_CLASSES, times=times,
                         service_seconds=services, tenant_index=zeros,
                         class_index=zeros)


@pytest.mark.parametrize("fleet,packer", [
    (FleetSpec.homogeneous(2, MODEL), 0),
    # the cheaper rate is the second class: ranks 0-1 are nodes 2-3
    (FleetSpec.of(wimpy=2, beefy=2), 2),
], ids=["one_rate", "two_rates"])
def test_a_rejection_keeps_its_packable_node(fleet, packer):
    """Pack bound 0.2 s, limit 0.1 s: while the packing node works off
    the first query it is packable but over the limit, so the next two
    arrivals are routed there and rejected, and the fourth, once the
    backlog is under the limit, must be served there too."""
    stream = _hand_stream([(0.0, 0.15), (0.01, 0.01), (0.02, 0.01),
                           (0.1, 0.01)])
    loop, event = (simulate_service(
        stream, fleet=fleet,
        policy=PowerAwarePacking(admission_limit_seconds=0.1),
        engine=which) for which in ("loop", "event"))
    assert (loop.engine, event.engine) == ("loop", "event")
    assert loop.queries_rejected == 2
    assert [node.completed for node in loop.nodes] == [
        2 if i == packer else 0 for i in range(len(loop.nodes))]
    assert loop.to_dict() == event.to_dict()
