"""The kernel generator of :mod:`repro.service.engine`: every option
tuple expands and compiles, what is off leaves nothing behind, and a
generated kernel is debuggable like hand-written code.  (That the
kernels *compute* the right thing is the engine-equivalence suite's
job.)"""

import itertools
import linecache
import traceback

import pytest

from repro.service import FleetNode, NodePowerModel, PVCPolicy, build_stream
from repro.service.dispatch import LeastLoaded, RoundRobin
from repro.service.engine import (_PVC, _ROUTERS, _SERVE, ServedColumns,
                                  _kernel)


def _source(kernel) -> str:
    return "".join(linecache.getlines(kernel.__code__.co_filename))


@pytest.mark.parametrize("router_type", list(_ROUTERS),
                         ids=lambda router_type: router_type.name)
def test_every_option_tuple_expands_and_compiles(router_type):
    for options in itertools.product((False, True), repeat=4):
        governed, limited, outer_limited, autoscaled = options
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
        assert ("autoscaler.step(" in source) == (
            autoscaled and router_type is not RoundRobin)
        # one statement of the FCFS rule, whatever is on
        assert source.count(_SERVE.splitlines()[1]) == 1


def test_a_kernels_traceback_shows_the_template_line():
    stream = build_stream(20, seed=0)
    pvc = PVCPolicy(inner="least_loaded")
    kernel = _kernel(LeastLoaded, True, False, False, False)
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
