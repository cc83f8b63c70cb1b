"""The kernel generator of :mod:`repro.service.engine`: every option
tuple expands and compiles, what is off leaves nothing behind, and a
generated kernel is debuggable like hand-written code.  (That the
kernels *compute* the right thing is the engine-equivalence suite's
job.)"""

import itertools
import linecache
import traceback

import pytest

from repro.service import (FleetNode, FleetSpec, NodePowerModel, PVCPolicy,
                           ServiceError, build_stream)
from repro.service.dispatch import DispatchPolicy, LeastLoaded, RoundRobin
from repro.service.engine import (_PVC, _ROUTERS, _SERVE, ServedColumns,
                                  _kernel, serve_event)


def _source(kernel) -> str:
    return "".join(linecache.getlines(kernel.__code__.co_filename))


@pytest.mark.parametrize("router_type", list(_ROUTERS),
                         ids=lambda router_type: router_type.name)
def test_every_option_tuple_expands_and_compiles(router_type):
    chunked = router_type is not RoundRobin
    for options in itertools.product((False, True), repeat=5):
        governed, limited, outer_limited, autoscaled, lanes = options
        kernel = _kernel(router_type, *options)
        assert _kernel(router_type, *options) is kernel  # compiled once
        source = _source(kernel)
        assert "$" not in source
        # an option that is off leaves no test in the loop
        assert ("for row in steps_of[i]" in source) == governed
        assert ("backlog > limit" in source) == limited
        assert ("backlog > outer" in source) == outer_limited
        assert ("backlog =" in source) == (governed or limited
                                           or outer_limited)
        assert ("autoscaler.step(" in source) == (autoscaled and chunked)
        # one statement of the FCFS rule, whatever is on
        assert source.count(_SERVE.splitlines()[1]) == 1
        # the derived flag: a kernel nobody watches builds no lanes and
        # no downclock rows
        assert ("lane_append" in source) == (lanes and chunked)
        assert ("emit_dvfs((" in source) == (lanes and governed)
        # the latest completion is tested per query only where a
        # rejection's NaN can sit in a chunk
        rejecting = limited or outer_limited
        assert ("if end > last_completion:" in source) == (
            chunked and rejecting)
        assert ("max(ends)" in source) == (chunked and not rejecting)


@pytest.mark.parametrize("router_type", list(_ROUTERS),
                         ids=lambda router_type: router_type.name)
def test_every_faulted_option_tuple_expands_and_compiles(router_type):
    """The ``_FAULTED`` skeleton under every option: the router's own
    fragments, ``serve_active``'s lane, batch tenants exempt from every
    limit, and what is off is absent."""
    router = _ROUTERS[router_type]
    for options in itertools.product((False, True), repeat=4):
        governed, limited, outer_limited, autoscaled = options
        kernel = _kernel(router_type, *options, False, True)
        assert kernel.__code__.co_filename.endswith(" faulted>")
        source = _source(kernel)
        assert "$" not in source
        # the router's own selection, expanded once
        assert source.count(router.select.splitlines()[0]) == 1
        assert source.count(_SERVE.splitlines()[1]) == 1
        assert "node._interval_linear_busy" not in source
        assert ("for row in steps_of[i]" in source) == governed
        assert ("backlog > limit" in source) == limited
        assert ("backlog > outer" in source) == outer_limited
        assert ("and not batch[k]:" in source) == (limited or outer_limited)
        assert ("autoscaler.step(" in source) == autoscaled
        # the fixed half of the router's setup runs once, up front
        if router.fixed:
            assert source.count(router.fixed.splitlines()[0]) == 1


def test_a_kernels_traceback_shows_the_template_line():
    stream = build_stream(20, seed=0)
    pvc = PVCPolicy(inner="least_loaded")
    kernel = _kernel(LeastLoaded, True, False, False, False, False)
    with pytest.raises(TypeError) as caught:
        # a governed kernel handed no downclock table
        kernel(stream.columns(), None, pvc.inner, None, pvc, None,
               [FleetNode("n0", NodePowerModel())], [0], None,
               stream.duration_seconds, ServedColumns(stream.columns()))
    linecache.checkcache()  # must not evict the registered source
    innermost = traceback.extract_tb(caught.tb)[-1]
    assert innermost.filename == kernel.__code__.co_filename
    assert "least_loaded pvc" in innermost.filename
    assert innermost.line == "for row in steps_of[i]:"
    assert innermost.line in _PVC


class _FirstOn(DispatchPolicy):
    name = "first_on"

    def route(self, ctx):
        return ctx.on_ids[0]


def test_serve_event_refuses_a_router_without_a_kernel():
    """A direct caller gets the front door's refusal."""
    stream = build_stream(200, seed=0)
    nodes = [FleetNode(f"n{i}", NodePowerModel()) for i in range(2)]
    with pytest.raises(ServiceError) as caught:
        serve_event(stream, stream.columns(), FleetSpec.homogeneous(2),
                    PVCPolicy(inner=_FirstOn()), None, nodes, [0, 1])
    message = str(caught.value)
    assert "no vectorized kernel" in message
    assert "\n" not in message
    # refused before serving: no node was touched
    assert all(node.completed == 0 for node in nodes)
