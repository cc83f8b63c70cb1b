"""Property test: the early-exit packing router decides exactly like
the exhaustive one it replaced.

:meth:`PowerAwarePacking.route` caches each node list's cost rates and,
on a one-class fleet, stops at the first acceptable node.  The oracle
below is the previous implementation verbatim — full candidate list,
per-arrival class proof through ``ctx.marginal_cost_rate`` — and the
two must agree on every input.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import NodePowerModel
from repro.service.dispatch import DispatchContext, PowerAwarePacking
from repro.service.node import FleetNode

NOW = 100.0


def oracle_route(pack_backlog_seconds: float, ctx: DispatchContext) -> int:
    nodes = ctx.nodes
    on_ids = ctx.on_ids
    bound = ctx.now + pack_backlog_seconds
    first = on_ids[0]
    best = first
    best_backlog = nodes[first].busy_until
    candidates = [first] if best_backlog <= bound else []
    for i in on_ids[1:]:
        b = nodes[i].busy_until
        if b <= bound:
            candidates.append(i)
        elif b < best_backlog:
            best, best_backlog = i, b
    if not candidates:
        return best
    base_rate = ctx.marginal_cost_rate(candidates[0])
    if all(ctx.marginal_cost_rate(i) == base_rate
           for i in candidates[1:]):
        for i in candidates:
            if ctx.fits_sla(i):
                return i
        return candidates[0]
    rates = sorted({ctx.marginal_cost_rate(i) for i in candidates})
    for rate in rates:
        for i in candidates:
            if ctx.marginal_cost_rate(i) == rate and ctx.fits_sla(i):
                return i
    for i in candidates:
        if ctx.marginal_cost_rate(i) == rates[0]:
            return i
    raise AssertionError("unreachable")


#: four classes, two of which share a cost rate (150 W per unit of
#: work) at different speeds — "one class" means one *rate*
MODELS = (
    NodePowerModel(name="base", idle_watts=200.0, peak_watts=350.0),
    NodePowerModel(name="fast", idle_watts=300.0, peak_watts=600.0,
                   speed_factor=2.0),
    NodePowerModel(name="wimpy", idle_watts=40.0, peak_watts=70.0,
                   speed_factor=0.4),
    NodePowerModel(name="beefy", idle_watts=250.0, peak_watts=500.0,
                   speed_factor=3.0),
)

PACK_BOUNDS = (0.0, 0.2, 5.0)

#: backlog relative to NOW: idle, exactly now, on each pack bound, just
#: past it, and deep queues with ties
backlogs = st.sampled_from([-50.0, 0.0, 0.1, 0.2, 0.2000001, 1.0, 5.0,
                            5.5, 30.0, 30.0]) \
    | st.floats(min_value=-1.0, max_value=40.0, allow_nan=False)


@st.composite
def fleets(draw):
    """(nodes, on_ids): a one-class or mixed fleet with set backlogs
    and a non-empty subset of it, in any order."""
    n = draw(st.integers(min_value=1, max_value=10))
    palette = draw(st.sampled_from([MODELS[:1], MODELS[:2], MODELS]))
    nodes = []
    for i in range(n):
        node = FleetNode(f"n{i}", draw(st.sampled_from(palette)))
        node.busy_until = NOW + draw(backlogs)
        nodes.append(node)
    on_ids = draw(st.lists(st.integers(min_value=0, max_value=n - 1),
                           min_size=1, max_size=n, unique=True))
    if draw(st.booleans()):
        on_ids.sort()
    return nodes, on_ids


arrivals = st.tuples(
    st.floats(min_value=0.01, max_value=10.0, allow_nan=False),
    st.sampled_from([None, 0.05, 0.5, 4.0, 1e9]))


@settings(max_examples=300, deadline=None)
@given(fleets(), fleets(), st.sampled_from(PACK_BOUNDS),
       st.lists(arrivals, min_size=1, max_size=4))
def test_route_equals_the_exhaustive_oracle(fleet_a, fleet_b, pack_bound,
                                            arrival_list):
    # one policy instance across two node lists and back: the per-list
    # rate cache must follow the list it is shown
    policy = PowerAwarePacking(pack_backlog_seconds=pack_bound)
    for nodes, on_ids in (fleet_a, fleet_b, fleet_a):
        for service, sla in arrival_list:
            ctx = DispatchContext(nodes, on_ids, NOW, service, sla)
            assert policy.route(ctx) == oracle_route(pack_bound, ctx)
